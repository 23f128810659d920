"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
use pinned master seeds; paired trials make the ordering comparisons
low-variance. Criterion 6 checks single-vector OMP exactly rather than by a
recovery rate: it must select the same indices, in the same order, as a
textbook reference OMP, and must match the exhaustive oracle on every trial
where Tropp's Exact Recovery Condition guarantees that it recovers the support.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from jspr import seeding
from jspr.algorithms import table1_expected
from jspr.cli import main
from jspr.config import ExperimentConfig
from jspr.harness import (
    exhaustive_oracle,
    oracle_check,
    run_sweep,
    run_trial,
)
from jspr.macbounds import (
    block_rip_measurement_bound,
    fano_pe_lower,
    gauss_necessary_bound,
    xi_average,
)
from jspr.ensembles import (gen_measurements, gen_signals, gen_support,
                            measure)
from jspr.greedy import omp
from jspr.network import complete_topology

mpmath.mp.dps = 60

MASTER_SEED = 20260810


def show(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def base_config(**overrides):
    cfg = ExperimentConfig()
    cfg.n, cfg.k = 256, 10
    cfg.l_values = [10]
    cfg.sigma2 = 0.01
    cfg.amp_low, cfg.amp_high = 10.0, 15.0
    cfg.trials = 500
    cfg.master_seed = MASTER_SEED
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def fig12_rows():
    """Shared 500-trial sweep for criteria 2 and 3: M in {15..40} plus the
    saturation point M=60; DC-OMP 2 on a 7-neighbor ring, DC-OMP 1 full.
    Two workers: the rows do not depend on `workers` (criterion 9)."""
    cfg = base_config(m_values=[15, 20, 25, 30, 40, 60],
                      topology_kind="ring", n0_values=[7],
                      algorithms=["d-omp", "dc-omp1", "dc-omp2", "s-omp"], workers=2)
    rows = run_sweep(cfg, "m")
    return {(row["sweep_var"], row["algorithm"]): row for row in rows}


def test_criterion_1_table_totals_exact():
    topo = complete_topology(10)
    algorithms = ["d-omp", "dc-omp1", "dc-omp2", "s-omp"]
    cfg = base_config(algorithms=algorithms)
    ok = True
    details = []
    for trial in range(3):
        records = run_trial(cfg, 10, 30, topo, trial)
        for alg in algorithms:
            rec = records[alg]
            local, glob = table1_expected(alg, 10, 10, 256, topo.adjacency,
                                          rec.iterations)
            ok &= (rec.local_scalars, rec.global_scalars) == (local, glob)
        ok &= records["s-omp"].global_scalars == 230400
        ok &= records["d-omp"].global_scalars == 900
        t1 = records["dc-omp1"].iterations[0]
        t2 = records["dc-omp2"].iterations[0]
        ok &= records["dc-omp1"].local_scalars == 90 * t1
        ok &= records["dc-omp2"].local_scalars == 90 * 256 * t2
        ok &= records["dc-omp2"].global_scalars == 90 * t2
        details.append(f"trial {trial}: T1={t1} T2={t2}")
    assert show(1, ok, "ledger totals match the expected communication "
                       f"formulas exactly ({'; '.join(details)})")


def test_criterion_2_recovery_ordering(fig12_rows):
    ordering_ok = True
    lines = []
    for m in (15, 20, 25, 30, 40):
        pd = {alg: fig12_rows[(m, alg)]["p_d"]
              for alg in ("d-omp", "dc-omp1", "dc-omp2", "s-omp")}
        ordering_ok &= pd["d-omp"] <= pd["dc-omp1"]
        ordering_ok &= pd["dc-omp1"] <= pd["dc-omp2"]
        ordering_ok &= pd["dc-omp2"] <= pd["s-omp"] + 0.03
        lines.append(f"M={m}: " + " <= ".join(
            f"{pd[a]:.3f}" for a in ("d-omp", "dc-omp1", "dc-omp2", "s-omp")))
    saturation = {alg: fig12_rows[(60, alg)]["p_d"]
                  for alg in ("d-omp", "dc-omp1", "dc-omp2", "s-omp")}
    saturation_ok = all(v >= 0.99 for v in saturation.values())
    ok = ordering_ok and saturation_ok
    assert show(2, ok, "pointwise ordering held at every M and all four "
                       f"algorithms reached P_d >= 0.99 at M=60 "
                       f"({'; '.join(lines)}; M=60 min "
                       f"{min(saturation.values()):.3f})")


def test_criterion_3_iteration_counts(fig12_rows):
    ok = True
    lines = []
    for m in (15, 20, 25, 30, 40, 60):
        t2 = fig12_rows[(m, "dc-omp2")]["mean_iters"]
        d = fig12_rows[(m, "d-omp")]
        ok &= t2 <= 0.7 * 10
        ok &= d["mean_iters"] == 10.0
        ok &= d["iters_min"] == 10 and d["iters_max"] == 10
        lines.append(f"M={m}: T2={t2:.2f}")
    assert show(3, ok, "collaborative two-phase recovery needed <= 0.7k "
                       "iterations at every M while the no-collaboration "
                       f"baseline always used exactly k ({'; '.join(lines)})")


def test_criterion_4_mac_vs_pac():
    def mac_rows(amp_low, amp_high, seed):
        cfg = base_config(k=5, m_values=[15, 20, 25, 30, 40],
                          amp_low=amp_low, amp_high=amp_high, master_seed=seed,
                          algorithms=["mac-omp", "s-omp"], workers=2)
        rows = run_sweep(cfg, "m")
        return {(row["sweep_var"], row["algorithm"]): row["p_d"] for row in rows}

    same_sign = mac_rows(10.0, 15.0, MASTER_SEED + 1)
    close_ok = True
    checked = []
    for m in (15, 20, 25, 30, 40):
        if same_sign[(m, "s-omp")] >= 0.5:
            gap = abs(same_sign[(m, "mac-omp")] - same_sign[(m, "s-omp")])
            close_ok &= gap <= 0.10
            checked.append(f"M={m}: |gap|={gap:.3f}")

    zero_mean = mac_rows(-25.0, 25.0, MASTER_SEED + 2)
    gaps = [zero_mean[(m, "s-omp")] - zero_mean[(m, "mac-omp")]
            for m in (15, 20, 25, 30, 40)]
    degraded_ok = max(gaps) >= 0.2
    ok = close_ok and bool(checked) and degraded_ok
    assert show(4, ok, "same-sign amplitudes kept the aggregate channel within "
                       f"0.10 of separate forwarding ({'; '.join(checked)}); "
                       f"zero-mean amplitudes opened a gap of {max(gaps):.3f}")


def test_criterion_5_kl_inequalities():
    rng = np.random.default_rng(MASTER_SEED + 3)
    tol = 1e-10
    worst_gap = 0.0
    worst_eq = 0.0
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(1, 3))
        l_count = int(rng.integers(2, 6))
        m = int(rng.integers(k + 1, n))
        support = gen_support(n, k, rng)
        ensemble = gen_signals(support, n, l_count, -2.0, 2.0, rng)
        meas = gen_measurements(n, m, l_count, 1.0, rng, shared=True)

        supports = list(itertools.combinations(range(n), k))
        b = meas.matrices[0]
        means = np.stack([ensemble.signals[:, list(u)] @ b[:, list(u)].T
                          for u in supports])          # (Pi, L, M)
        diffs = means[:, None, :, :] - means[None, :, :, :]
        mac_sq = np.sum(diffs.sum(axis=2) ** 2, axis=-1)
        pac_sq = np.sum(diffs ** 2, axis=(-2, -1))
        # pairwise inequality: (1/L)||sum_l beta_l||^2 <= sum_l ||beta_l||^2
        worst_gap = max(worst_gap, float(np.max(mac_sq / l_count - pac_sq)))
        assert np.all(mac_sq / l_count <= pac_sq + tol)

        # the closed form against the enumerated pair averages
        xi_mac = xi_average(ensemble, meas, "mac")
        xi_pac = xi_average(ensemble, meas, "pac")
        for closed, enumerated in ((xi_mac, mac_sq.mean() / (2 * l_count)),
                                   (xi_pac, pac_sq.mean() / 2)):
            worst_rel = max(worst_rel, abs(closed - enumerated) / enumerated)
        assert worst_rel <= 1e-12
        assert xi_mac <= xi_pac + tol

        ensemble.signals = np.repeat(ensemble.signals[:1], l_count, axis=0)
        eq_mac = xi_average(ensemble, meas, "mac")
        eq_pac = xi_average(ensemble, meas, "pac")
        worst_eq = max(worst_eq, abs(eq_mac - eq_pac))
        assert abs(eq_mac - eq_pac) <= tol
    assert show(5, True, "1000 random shared-matrix ensembles satisfied the "
                         "aggregate-vs-separate KL inequality pairwise and on "
                         f"average (worst pairwise slack {worst_gap:.2e}; worst "
                         f"identical-signal asymmetry {worst_eq:.2e}; closed-form "
                         f"xi within {worst_rel:.1e} of enumeration)")


def reference_omp(y, dictionary, k):
    """Textbook OMP (Pati, Rezaiifar & Krishnaprasad 1993): pick argmax
    |A^T r|, then take the residual from a least-squares fit on the picks."""
    selected = []
    residual = y
    for _ in range(k):
        selected.append(int(np.argmax(np.abs(dictionary.T @ residual))))
        sub = dictionary[:, selected]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coef
    return selected


def erc_value(dictionary, support):
    """Tropp's exact-recovery constant max_{j not in S} ||A_S^+ a_j||_1
    ("Greed is Good", 2004). Below 1, argmax-|A^T r| selection picks a column
    of S at every step for any signal supported on S, whatever the column
    norms."""
    rest = [j for j in range(dictionary.shape[1]) if j not in support]
    pinv = np.linalg.pinv(dictionary[:, list(support)])
    return float(np.abs(pinv @ dictionary[:, rest]).sum(axis=0).max())


def test_criterion_6_oracle_equivalence():
    cfg = ExperimentConfig()
    cfg.n, cfg.k = 8, 2
    cfg.l_values, cfg.m_values = [3], [6]
    cfg.sigma2 = 0.0
    cfg.trials = 100
    cfg.master_seed = MASTER_SEED + 4
    doc = oracle_check(cfg)
    somp_ok = doc["somp_oracle_agreement"] >= 99
    dcomp2_ok = doc["dcomp2_somp_matches"] == 100

    # Single-vector OMP promises exact recovery only where the ERC holds, so
    # its clause is exact: redraw oracle_check's node-0 trials, require the
    # reference OMP's selections, and oracle agreement on every ERC trial.
    l_count, m = cfg.l_values[0], cfg.m_values[0]
    reference_matches = oracle_agree = truth_found = 0
    erc_trials = erc_agree = 0
    for t in range(cfg.trials):
        streams = [seeding.stream(cfg.master_seed, purpose, t)
                   for purpose in (seeding.SUPPORT, seeding.AMPLITUDES,
                                   seeding.MATRICES, seeding.NOISE)]
        support = gen_support(cfg.n, cfg.k, streams[0])
        ensemble = gen_signals(support, cfg.n, l_count, cfg.amp_low,
                               cfg.amp_high, streams[1])
        meas = gen_measurements(cfg.n, m, l_count, 0.0, streams[2])
        obs = measure(ensemble, meas, streams[3])
        y, dictionary = obs[0], meas.matrices[0]

        selected = omp(y, dictionary, cfg.k)
        oracle = exhaustive_oracle(y, dictionary, cfg.k)
        agree = set(selected) == set(oracle)
        reference_matches += selected == reference_omp(y, dictionary, cfg.k)
        oracle_agree += agree
        truth_found += set(oracle) == set(support)
        if erc_value(dictionary, support) < 1:
            erc_trials += 1
            erc_agree += agree
    omp_ok = (reference_matches == cfg.trials and truth_found == cfg.trials
              and erc_trials > 0 and erc_agree == erc_trials)
    ok = omp_ok and somp_ok and dcomp2_ok
    show(6, ok, f"omp==reference OMP {reference_matches}/100, omp==oracle on "
                f"ERC trials {erc_agree}/{erc_trials} (all trials "
                f"{doc['omp_oracle_agreement']}/100, oracle==truth "
                f"{truth_found}/100), somp={doc['somp_oracle_agreement']}/100, "
                f"dcomp2==somp {doc['dcomp2_somp_matches']}/100")
    assert somp_ok and dcomp2_ok
    assert oracle_agree == doc["omp_oracle_agreement"], (
        "redrawn trials drifted from oracle_check's: "
        f"{oracle_agree} vs {doc['omp_oracle_agreement']} oracle agreements")
    assert omp_ok, (
        f"omp matched the reference OMP on {reference_matches}/100 trials, "
        f"the oracle found the true support on {truth_found}/100, and omp "
        f"matched the oracle on {erc_agree} of the {erc_trials} trials where "
        "the ERC guarantees exact recovery")


def test_criterion_7_bound_formulas():
    rng = np.random.default_rng(MASTER_SEED + 5)
    ok = True
    for _ in range(20):
        n = int(rng.integers(16, 513))
        k = int(rng.integers(1, min(13, n)))
        l_count = int(rng.integers(1, 17))
        delta0 = float(rng.uniform(0.05, 0.95))
        slack = float(rng.uniform(0.1, 5.0))
        gamma = float(10.0 ** rng.uniform(-5, 2))

        got = block_rip_measurement_bound(n, k, l_count, delta0, slack)
        exact = (36 / (7 * mpmath.mpf(delta0))) * (
            mpmath.log(2 * mpmath.binomial(n, k))
            + k * l_count * mpmath.log(12 / mpmath.mpf(delta0)) + slack)
        ok &= abs(got - mpmath.ceil(exact)) <= 1

        got = gauss_necessary_bound(n, k, l_count, gamma)
        exact = mpmath.ceil(max(
            mpmath.log(mpmath.binomial(n, k)) / (8 * k * l_count * mpmath.mpf(gamma)),
            mpmath.log(n - k) / (4 * l_count * mpmath.mpf(gamma))))
        ok &= abs(got - exact) <= 1

        xi = float(rng.uniform(0.0, 20.0))
        got = fano_pe_lower(xi, n, k)
        exact = max(0, 1 - (mpmath.mpf(xi) + mpmath.log(2))
                    / mpmath.log(mpmath.binomial(n, k)))
        ok &= abs(got - float(exact)) <= 1e-12

    rip = [block_rip_measurement_bound(128, 4, l, 0.5, 1.0) for l in range(1, 9)]
    gauss = [gauss_necessary_bound(4096, 4, l, 1e-4) for l in range(1, 9)]
    ok &= all(b > a for a, b in zip(rip, rip[1:]))
    ok &= all(b < a for a, b in zip(gauss, gauss[1:]))
    assert show(7, ok, "20 random tuples matched 60-digit evaluations within "
                       "1 unit (integer bounds) / 1e-12 (probabilities); "
                       "sufficient bound grows and necessary bound shrinks "
                       "with network size")


def test_criterion_8_node_scaling():
    cfg = base_config(m_values=[30], l_values=[4, 6, 8, 10, 12],
                      algorithms=["d-omp", "dc-omp1"], master_seed=MASTER_SEED + 6,
                      workers=2)
    rows = run_sweep(cfg, "l")
    by = {(row["sweep_var"], row["algorithm"]): row for row in rows}
    ls = [4, 6, 8, 10, 12]
    collab = [by[(l, "dc-omp1")] for l in ls]
    ok = True
    for a, b in zip(collab, collab[1:]):
        slack = 2.0 * math.hypot(a["p_d_stderr"], b["p_d_stderr"])
        ok &= b["p_d"] >= a["p_d"] - slack
    domp_gain = by[(12, "d-omp")]["p_d"] - by[(4, "d-omp")]["p_d"]
    collab_gain = by[(12, "dc-omp1")]["p_d"] - by[(4, "dc-omp1")]["p_d"]
    ok &= domp_gain < collab_gain
    trace = ", ".join(f"L={l}: {by[(l, 'dc-omp1')]['p_d']:.3f}" for l in ls)
    assert show(8, ok, "index-fusion recovery was nondecreasing in network "
                       f"size within 2 stderr ({trace}); baseline gained "
                       f"{domp_gain:.3f} vs {collab_gain:.3f} for the "
                       "collaborative variant")


def test_criterion_9_bitwise_determinism(tmp_path):
    cfg_text = ("n=64\nk=4\nl=6\nm=12,16\ntrials=8\nseed=123\n"
                "algorithms=d-omp,dc-omp1,dc-omp2,s-omp\n"
                "topology=ring\nn0=2\n")
    base = tmp_path / "exp.cfg"
    base.write_text(cfg_text)
    parallel = tmp_path / "exp_par.cfg"
    parallel.write_text(cfg_text + "workers=2\n")

    outputs = []
    for tag, cfg_path in (("a", base), ("b", base), ("par", parallel)):
        out = tmp_path / f"{tag}.csv"
        assert main(["sweep-m", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    assert show(9, ok, "re-running the same seeded sweep (serially and with "
                       "two workers) produced byte-identical CSV "
                       f"({len(outputs[0])} bytes)")
