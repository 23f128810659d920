"""Config parsing, sweep running, oracle, bound reports, and the CLI."""

import concurrent.futures
import contextlib
import dataclasses
import itertools
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jspr.harness as harness
from jspr import ensembles, seeding
from jspr.algorithms import ALGORITHMS, MAC_COMPARE
from jspr.cli import main
from jspr.config import ExperimentConfig, parse_config
from jspr.ensembles import (JointSparseEnsemble, MeasurementEnsemble, gen_measurements,
                            gen_signals, gen_support, measure)
from jspr.errors import (ConfigError, EnumerationTooLargeError, SingularProjectionError,
                         TrialError)
from jspr.harness import (
    CSV_HEADER,
    bounds_report,
    exhaustive_oracle,
    oracle_check,
    rows_to_csv,
    rows_to_json,
    run_chunk,
    run_point,
    run_sweep,
    run_trial,
)
from jspr.network import complete_topology


def tiny_config(**overrides):
    cfg = ExperimentConfig()
    cfg.n, cfg.k = 24, 2
    cfg.l_values, cfg.m_values = [3], [8]
    cfg.trials = 5
    cfg.algorithms = ["d-omp", "dc-omp1"]
    cfg.master_seed = 99
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestParseConfig:
    def test_sweep_config(self):
        cfg = parse_config("n=256\nk=10\nl=10\nm=15,20,25,30\n")
        assert cfg.m_values == [15, 20, 25, 30]
        assert cfg.l_values == [10]
        assert cfg.sigma2 == 0.01          # documented default
        assert cfg.amp_low == 10.0 and cfg.amp_high == 15.0
        assert cfg.trials == 500
        assert cfg.topology_kind == "complete"

    def test_empty_text_all_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_comments_and_spacing(self):
        cfg = parse_config("# header\n  n = 64   # inline\n\nk=3\n")
        assert cfg.n == 64 and cfg.k == 3

    def test_zero_sparsity_cites_invariant(self):
        with pytest.raises(ConfigError, match="k"):
            parse_config("k=0\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key 'mm'"):
            parse_config("n=64\nmm=3\n")

    def test_malformed_value_names_key(self):
        with pytest.raises(ConfigError, match="key 'trials'"):
            parse_config("trials=lots\n")

    @pytest.mark.parametrize("key", ["sigma2", "amp_low", "amp_high", "p", "delta0", "slack_t"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key}': must be a finite number"):
            parse_config(f"{key}={value}\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("n 64\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n=64\nn=32\n")

    def test_shared_matrix_comes_from_the_algorithm_table(self, monkeypatch, tmp_path,
                                                          capsys):
        import jspr.harness as harness
        shared_seen = {}
        real = harness._run_algorithm

        def spy(alg, ys, dictionaries, topology, k):
            shared_seen[alg] = all(np.array_equal(a, matrices[0])
                                   for matrices in dictionaries for a in matrices)
            return real(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "_run_algorithm", spy)
        for tags, shared in ((["d-omp", "s-omp"], False), (["s-omp", "mac-omp"], True),
                             (["mac-omp"], True)):
            shared_seen.clear()
            run_trial(tiny_config(algorithms=tags), 3, 8, complete_topology(3), 0)
            assert shared_seen == dict.fromkeys(tags, shared)

        cfg = tmp_path / "exp.cfg"
        for command, text, key in (("mac-compare", "algorithms=mac-omp,s-omp\nmac_mode=true\n",
                                    "mac_mode"),
                                   ("bounds", "xi_pairs = 2000\n", "xi_pairs")):
            cfg.write_text(text)
            assert main([command, "--config", str(cfg)]) == 1
            assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown tag"):
            parse_config("algorithms=bp\n")

    def test_ring_requires_n0(self):
        with pytest.raises(ConfigError, match="n0"):
            parse_config("topology=ring\n")

    def test_ring_odd_n0_odd_l_rejected(self):
        with pytest.raises(ConfigError, match="odd n0"):
            parse_config("topology=ring\nn0=3\nl=5\n")

    def test_ring_n0_not_below_l_rejected(self):
        with pytest.raises(ConfigError, match="n0=6, L=6"):
            parse_config("topology=ring\nn0=2,6\nl=6\n")

    def test_zero_amplitude_range_rejected(self):
        with pytest.raises(ConfigError, match="amp_low"):
            parse_config("amp_low=0\namp_high=0\n")

    def test_trial_count_stops_at_the_last_seedable_index(self):
        # trial indices 0 .. 2^32 - 1 are the ones a seed stream can key
        assert parse_config(f"trials = {2 ** 32}\n").trials == 2 ** 32
        with pytest.raises(ConfigError, match=re.escape("key 'trials': must lie in [1, 2^32]")):
            parse_config(f"trials = {2 ** 32 + 1}\n")

    @pytest.mark.parametrize("text, key, value", [
        ("algorithms = s-omp, d-omp, s-omp\n", "algorithms", "'s-omp'"),
        ("m = 8, 8\n", "m", "8"),
        ("l = 4, 6, 4\n", "l", "4"),
        ("topology = ring\nl = 8\nn0 = 2, 4, 2\n", "n0", "2"),
    ])
    def test_repeated_list_value_rejected(self, text, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}': {value} is listed twice")):
            parse_config(text)


class TestRunSweep:
    def test_rows_and_schema(self):
        rows = run_sweep(tiny_config(), "m")
        assert len(rows) == 2    # one m-point x two algorithms
        csv_text = rows_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "8"
        assert lines[1].split(",")[1] == "d-omp"

    def test_determinism_bitwise(self):
        first = rows_to_csv(run_sweep(tiny_config(), "m"))
        second = rows_to_csv(run_sweep(tiny_config(), "m"))
        assert first == second

    def test_parallel_matches_serial(self):
        serial = rows_to_csv(run_sweep(tiny_config(), "m"))
        parallel = rows_to_csv(run_sweep(tiny_config(workers=2), "m"))
        assert serial == parallel

    def test_parallel_matches_serial_across_points(self):
        # one pool serves every point of the sweep
        cfg = dict(l_values=[2, 4, 5], algorithms=["dc-omp1", "dc-omp2"], trials=6)
        serial = rows_to_csv(run_sweep(tiny_config(**cfg), "l"))
        parallel = rows_to_csv(run_sweep(tiny_config(workers=2, **cfg), "l"))
        assert serial == parallel

    @staticmethod
    def fake_pool(monkeypatch):
        """Make sweeps and oracle-check build a pool that records its size and
        the chunk lengths it maps, and maps them in this process; no process
        starts."""
        record = {"sizes": [], "chunks": []}

        class Pool(contextlib.nullcontext):
            def __init__(self, max_workers):
                super().__init__(self)
                record["sizes"].append(max_workers)

            def map(self, fn, *tasks):
                record["chunks"].extend(map(len, tasks[-1]))
                return map(fn, *tasks)

        # a command loads the pool's module only when it opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        return record

    @pytest.mark.parametrize("workers, cpus, size", [(3, 2, 2), (2, 2, 2), (2, 1, 1),
                                                     (4, 8, 4)])
    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch, workers, cpus, size):
        serial = rows_to_csv(run_sweep(tiny_config(trials=24), "m"))
        record = self.fake_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = tiny_config(trials=24, workers=workers)
        assert rows_to_csv(run_sweep(cfg, "m")) == serial
        assert record["sizes"] == [size]
        # the chunks still follow the configured workers, so one CPU still
        # runs the pool path
        assert (max(record["chunks"]) == max(map(len, harness._chunks(cfg, cfg.trials)))
                == 24 // (4 * workers))

    def test_import_loads_no_process_pool(self):
        # only a sweep with workers > 1 opens a pool, so importing the CLI
        # leaves the pool's modules unloaded, and the packages only the
        # tests use stay unloaded too
        code = ("import sys, jspr.cli\n"
                "print(*(name in sys.modules for name in "
                "('concurrent.futures.process', 'multiprocessing', 'scipy', 'mpmath', "
                "'hypothesis')))")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(harness.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.split() == ["False"] * 5

    @pytest.mark.parametrize("cpu_count, size", [(3, 3), (None, 1)])
    def test_pool_cap_without_an_affinity_mask(self, monkeypatch, cpu_count, size):
        record = self.fake_pool(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        run_sweep(tiny_config(workers=4), "m")
        assert record["sizes"] == [size]

    def test_l_sweep(self):
        cfg = tiny_config(l_values=[2, 4], algorithms=["dc-omp1"])
        rows = run_sweep(cfg, "l")
        assert [r["sweep_var"] for r in rows] == [2, 4]

    def test_l_sweep_dcomp2_nondecreasing(self):
        cfg = tiny_config(n=64, k=4, l_values=[2, 4, 6], m_values=[10],
                          trials=150, algorithms=["dc-omp2"], master_seed=41)
        rows = run_sweep(cfg, "l")
        for prev, nxt in zip(rows, rows[1:]):
            slack = 2.0 * (prev["p_d_stderr"] + nxt["p_d_stderr"])
            assert nxt["p_d"] >= prev["p_d"] - slack

    def test_n0_sweep_requires_ring(self):
        with pytest.raises(ConfigError):
            run_sweep(tiny_config(n0_values=[2]), "n0")
        cfg = tiny_config(l_values=[6], topology_kind="ring", n0_values=[2, 4],
                          algorithms=["dc-omp2", "dc-omp1-nbr"])
        rows = run_sweep(cfg, "n0")
        assert [r["sweep_var"] for r in rows] == [2, 2, 4, 4]

    def test_sparsity_above_m_rejected_at_run(self):
        with pytest.raises(ConfigError, match="k <= M"):
            run_sweep(tiny_config(m_values=[1]), "m")

    def test_sparsity_above_m_rejected_before_any_point_runs(self, monkeypatch):
        import jspr.harness as harness
        calls = []
        monkeypatch.setattr(harness, "_draw_chunk", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match="m=1: greedy recovery requires k <= M"):
            run_sweep(tiny_config(m_values=[20, 1]), "m")
        assert calls == []

    def test_json_rows_round_trip(self):
        rows = run_sweep(tiny_config(), "m")
        parsed = json.loads(rows_to_json(rows))
        assert parsed == rows

    def test_failed_trials_excluded_and_counted(self, monkeypatch):
        import jspr.harness as harness
        cfg = tiny_config(trials=100, algorithms=["d-omp"])
        real = harness._run_algorithm
        # trial 37 fails, whatever chunk it is solved in: exactly one failure,
        # within the 1% budget
        doomed = harness._draw_chunk(cfg, 3, 8, range(37, 38), str, shared=False)[1][0]

        def flaky(alg, ys, dictionaries, topology, k):
            if any(np.array_equal(y, doomed) for y in ys):
                raise SingularProjectionError("forced")
            return real(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "_run_algorithm", flaky)
        rows = run_sweep(cfg, "m")
        assert rows[0]["failed_trials"] == 1
        assert rows[0]["trials"] == 99

    def test_failing_trial_names_itself(self, monkeypatch, tmp_path, capsys):
        import jspr.harness as harness

        def broken(alg, ys, dictionaries, topology, k):
            raise ValueError("forced")

        monkeypatch.setattr(harness, "_run_algorithm", broken)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=24\nk=2\nl=3\nm=8\ntrials=2\nalgorithms=dc-omp2\n"
                       "workers=1\nseed=4242\n")
        assert main(["sweep-m", "--config", str(cfg)]) == 2
        message = capsys.readouterr().err
        for fact in ("m=8, L=3", "algorithm dc-omp2", "trial 0", "seed 4242",
                     "ValueError: forced"):
            assert fact in message

        with pytest.raises(TrialError) as info:
            run_sweep(tiny_config(algorithms=["dc-omp2"]), "m")
        copy = pickle.loads(pickle.dumps(info.value))   # crosses a process pool
        assert type(copy) is TrialError and str(copy) == str(info.value)

    def test_failure_rate_above_budget_aborts(self, monkeypatch):
        import jspr.harness as harness

        def broken(alg, ys, dictionaries, topology, k):
            raise SingularProjectionError("forced")

        monkeypatch.setattr(harness, "_run_algorithm", broken)
        with pytest.raises(RuntimeError, match="singular"):
            run_point(tiny_config(), sweep_var=8, l_count=3, m=8,
                      topology=complete_topology(3))

    def test_first_degenerate_point_in_point_order_is_named(self, monkeypatch):
        # a point over the failure budget shows only once every chunk has
        # run, and of two such points the error names the first in point
        # order: here L=5 fails from the first chunk on, L=4 only in the last
        cfg = tiny_config(l_values=[2, 4, 5], trials=8, algorithms=["dc-omp1"])
        doomed = harness._draw_chunk(cfg, 4, 8, range(7, 8), str, shared=False)[1][0]
        real = harness._run_algorithm

        def degenerate(alg, ys, dictionaries, topology, k):
            if ys.shape[1] == 5 or ys.shape[1] == 4 and any(np.array_equal(y, doomed)
                                                           for y in ys):
                raise SingularProjectionError("forced")
            return real(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "_run_algorithm", degenerate)
        fixed_chunks(monkeypatch, 1)
        with pytest.raises(RuntimeError, match="^sweep point 4, algorithm dc-omp1: 1/8 trials"):
            run_sweep(cfg, "l")

    def test_trial_error_at_a_later_point_names_that_point(self, monkeypatch):
        # chunks run outermost, so a later point's TrialError surfaces before
        # an earlier point is found degenerate; it names that point's L, the
        # algorithm, the trial and the seed
        cfg = tiny_config(l_values=[2, 4], algorithms=["d-omp", "dc-omp1"])
        doomed = harness._draw_chunk(cfg, 4, 8, range(3, 4), str, shared=False)[1][0]
        real = harness._run_algorithm

        def broken(alg, ys, dictionaries, topology, k):
            if ys.shape[1] == 2:
                raise SingularProjectionError("forced")     # point 2 is degenerate
            if alg == "dc-omp1" and any(np.array_equal(y, doomed) for y in ys):
                raise ValueError("forced")
            return real(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "_run_algorithm", broken)
        with pytest.raises(TrialError, match="^sweep point m=8, L=4, algorithm dc-omp1, "
                                             "trial 3, seed 99: ValueError: forced$"):
            run_sweep(cfg, "l")


def sweep_outcome(cfg, sweep="m"):
    """The sweep's CSV, or the abort it raised."""
    try:
        return rows_to_csv(run_sweep(cfg, sweep))
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


def fixed_chunks(mp, size, chunks=harness._chunks):
    """Make every sweep point and oracle-check run in chunks of `size`
    trials: the chunk rule's own ranges at a cap of `size` without a pool
    (`chunks` is bound at import, so patching twice does not nest)."""
    mp.setattr(harness, "_chunks",
               lambda cfg, cap: chunks(dataclasses.replace(cfg, workers=1), size))


class Planned(Exception):
    """Raised with the chunk lengths a command asked the chunk rule for."""


def planned_chunks(mp, run, chunks=harness._chunks):
    """The chunk lengths of the first chunks `run()` asks for: of a sweep's
    first group of points, or of oracle-check's trials. No trial runs."""
    def plan(cfg, cap):
        raise Planned([len(trials) for trials in chunks(cfg, cap)])

    mp.setattr(harness, "_chunks", plan)
    with pytest.raises(Planned) as stopped:
        run()
    return stopped.value.args[0]


def collinear_trial(doomed):
    """A _draw_chunk that gives trial `doomed` matrices whose columns are
    near copies of their first column (column j scaled by 1 + 1e-7 j), so
    any support of two or more columns is near-dependent, and observations
    through them. Other trials are as drawn."""
    real = harness._draw_chunk

    def draw(cfg, l_count, m, trials, lead, *, shared):
        supports, ys, dictionaries, signals, redrawn = real(cfg, l_count, m, trials, lead,
                                                            shared=shared)
        if doomed in trials:
            i = trials.index(doomed)
            dictionaries[i] = dictionaries[i, ..., :1] * (1.0 + 1e-7 * np.arange(cfg.n))
            ensemble = JointSparseEnsemble(cfg.n, cfg.k, l_count, supports[i], signals[i])
            meas = MeasurementEnsemble(np.broadcast_to(dictionaries[i], (l_count, m, cfg.n)),
                                       cfg.sigma2)
            ys[i] = measure(ensemble, meas,
                            seeding.stream(cfg.master_seed, seeding.NOISE, doomed))
        return supports, ys, dictionaries, signals, redrawn
    return draw


class TestDrawTrial:
    @staticmethod
    def four_stream_draw(cfg, l_count, m, trial, shared):
        """A draw that builds all four seed streams, the noise stream too,
        each numpy's default_rng of SeedSequence(seed, trial, purpose)."""
        streams = [np.random.default_rng(np.random.SeedSequence((cfg.master_seed, trial, purpose)))
                   for purpose in (seeding.SUPPORT, seeding.AMPLITUDES, seeding.MATRICES,
                                   seeding.NOISE)]
        support = gen_support(cfg.n, cfg.k, streams[0])
        ensemble = gen_signals(support, cfg.n, l_count, cfg.amp_low, cfg.amp_high, streams[1])
        meas = gen_measurements(cfg.n, m, l_count, cfg.sigma2, streams[2], shared=shared)
        return ensemble, meas, measure(ensemble, meas, streams[3])

    @pytest.mark.parametrize("sigma2", [0.0, 0.01])
    @pytest.mark.parametrize("shared", [False, True])
    def test_noise_stream_only_when_noisy(self, monkeypatch, sigma2, shared):
        cfg = tiny_config(sigma2=sigma2, master_seed=7)
        purposes = []
        real = seeding.state_words

        def spy(seed, trials, wanted):
            purposes.extend(wanted)
            return real(seed, trials, wanted)

        monkeypatch.setattr(seeding, "state_words", spy)
        for trial in range(5):
            purposes.clear()
            (support,), ys, dictionaries, signals, _ = harness._draw_chunk(
                cfg, 3, 8, range(trial, trial + 1), str, shared=shared)
            assert (seeding.NOISE in purposes) == (sigma2 > 0)
            want = self.four_stream_draw(cfg, 3, 8, trial, shared)
            assert support == want[0].support
            assert np.array_equal(signals[0], want[0].signals)
            assert np.array_equal(np.broadcast_to(dictionaries[0], (3, 8, cfg.n)),
                                  want[1].matrices)
            assert np.array_equal(ys[0], want[2])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(2, 24), l_count=st.integers(1, 5),
           shared=st.booleans(), sigma2=st.sampled_from([0.0, 0.01, 2.5]),
           qr_bytes=st.sampled_from([1, 4096, ensembles._QR_BYTES]), data=st.data())
    def test_chunk_draw_equals_four_stream_draw(self, seed, n, l_count, shared, sigma2,
                                                qr_bytes, data):
        # however a range of trials is split into chunks, and whatever the
        # block of stacked QRs, each trial's slice of its chunk's draw is
        # the four-stream draw of that trial, bit for bit
        k = data.draw(st.integers(1, n - 1), label="k")
        m = data.draw(st.integers(1, n), label="m")
        first = data.draw(st.integers(0, 60), label="first")
        count = data.draw(st.integers(1, 12), label="trials")
        cuts = data.draw(st.sets(st.integers(1, count - 1)), label="cuts") if count > 1 else set()
        cfg = tiny_config(n=n, k=k, sigma2=sigma2, master_seed=seed)
        bounds = [first, *sorted(first + cut for cut in cuts), first + count]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensembles, "_QR_BYTES", qr_bytes)
            chunks = [(range(a, b), harness._draw_chunk(cfg, l_count, m, range(a, b), str,
                                                        shared=shared))
                      for a, b in zip(bounds, bounds[1:])]
        for trials, (supports, ys, dictionaries, signals, redrawn) in chunks:
            assert not redrawn.any()
            assert dictionaries.shape == (len(trials), 1 if shared else l_count, m, n)
            for i, trial in enumerate(trials):
                ensemble, meas, obs = self.four_stream_draw(cfg, l_count, m, trial, shared)
                assert supports[i] == ensemble.support
                for got, want in ((signals[i], ensemble.signals), (ys[i], obs),
                                  (dictionaries[i], meas.matrices[:dictionaries.shape[1]])):
                    assert got.shape == want.shape
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(2, 24), shared=st.booleans(),
           sigma2=st.sampled_from([0.0, 0.01]),
           amplitudes=st.sampled_from([(10.0, 15.0), (-25.0, 25.0)]), data=st.data())
    def test_fewer_nodes_draw_the_first_nodes(self, seed, n, shared, sigma2, amplitudes, data):
        # every output of a draw at L' < L is the first L' nodes of the draw
        # at L, bit for bit, so a sweep draws each trial once, at its
        # largest L; a shared matrix is the same at every L
        k = data.draw(st.integers(1, n - 1), label="k")
        m = data.draw(st.integers(1, n), label="m")
        top = data.draw(st.integers(2, 12), label="L")
        fewer = data.draw(st.integers(1, top - 1), label="L'")
        first = data.draw(st.integers(0, 60), label="first")
        trials = range(first, first + data.draw(st.integers(1, 4), label="trials"))
        cfg = tiny_config(n=n, k=k, sigma2=sigma2, amp_low=amplitudes[0],
                          amp_high=amplitudes[1], master_seed=seed)
        supports, *drawn, redrawn = harness._draw_chunk(cfg, top, m, trials, str, shared=shared)
        own_supports, *own, _ = harness._draw_chunk(cfg, fewer, m, trials, str, shared=shared)
        assert not redrawn.any()
        assert own_supports == supports
        for got, prefix in zip(own, drawn):          # ys, dictionaries, signals
            want = prefix[:, :fewer]
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("tags", [["d-omp", "dc-omp1-nbr"], list(MAC_COMPARE)],
                             ids=["per-node", "shared"])
    def test_a_redrawn_zero_draws_the_trial_again_at_each_l(self, monkeypatch, tags):
        # an exact zero amplitude is redrawn after the whole (L, k) block, so
        # one at node 0 breaks the prefix; those trials are drawn again at
        # each smaller L, and the sweep gives what each point drawn on its
        # own does
        real = harness.draw_amplitudes

        class ZeroAtNodeZero:
            """The amplitude generator, but a block draw's entry [0, 0] is an
            exact zero wherever it would be negative."""

            def __init__(self, rng):
                self.rng = rng

            def uniform(self, low, high, size):
                vals = self.rng.uniform(low, high, size=size)
                if isinstance(size, tuple) and vals[0, 0] < 0:
                    vals[0, 0] = 0.0
                return vals

        monkeypatch.setattr(harness, "draw_amplitudes", lambda support, low, high, rng, out:
                            real(support, low, high, ZeroAtNodeZero(rng), out))
        cfg = tiny_config(l_values=[2, 3, 5], trials=12, amp_low=-25.0, amp_high=25.0,
                          algorithms=tags)
        shared = harness._shares_matrix(cfg)
        _, ys, _, _, redrawn = harness._draw_chunk(cfg, 5, 8, range(12), str, shared=shared)
        assert 0 < redrawn.sum() < 12
        # the first two nodes of the draw at L=5 are not the draw at L=2
        assert not np.array_equal(
            harness._draw_chunk(cfg, 2, 8, range(12), str, shared=shared)[1], ys[:, :2])
        alone = [row for l_count in cfg.l_values for row in run_point(
            cfg, sweep_var=l_count, l_count=l_count, m=8, topology=complete_topology(l_count))]
        assert run_sweep(cfg, "l") == alone


class TestChunks:
    TAG_SETS = [list(MAC_COMPARE), ["d-omp", "s-omp", "dc-omp2"],
                ["d-omp", "mac-omp", "dc-omp1-nbr"], ["dc-omp1", "s-omp"]]

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), tags=st.sampled_from(TAG_SETS),
           n=st.integers(10, 32), k=st.integers(1, 3), l_count=st.integers(2, 5),
           extra_m=st.integers(0, 6), trials=st.integers(1, 40),
           sigma2=st.sampled_from([0.01, 1.0]))
    def test_output_does_not_depend_on_chunks_or_workers(self, seed, tags, n, k, l_count,
                                                         extra_m, trials, sigma2):
        cfg = tiny_config(n=n, k=k, l_values=[l_count], m_values=[k + extra_m, k + 3],
                          trials=trials, algorithms=tags, sigma2=sigma2, master_seed=seed)
        outputs = set()
        with pytest.MonkeyPatch.context() as mp:
            for size, workers in itertools.product((1, 4, 16), (1, 2)):
                fixed_chunks(mp, size)
                outputs.add(sweep_outcome(dataclasses.replace(cfg, workers=workers)))
        assert len(outputs) == 1

    @pytest.mark.parametrize("trials, workers, l_count, m, n, shared, size", [
        (40, 1, 10, 15, 256, True, 34),     # mac, serial: the 1 MiB cap, no pool share
        (40, 1, 10, 40, 256, True, 12),
        (5, 1, 10, 15, 256, False, 3),      # fig-m, serial: 3 trials fit 1 MiB at M = 15
        (5, 1, 10, 60, 256, False, 1),      # and none does at M = 60
        (20, 2, 4, 30, 256, False, 2),      # nodes-par: at most 2
        (20, 2, 12, 30, 256, False, 1),
        (500, 1, 10, 60, 256, False, 1),    # the paper's figure: 1.2 MB per trial
        (500, 1, 10, 30, 256, False, 1),
        (500, 1, 4, 30, 256, False, 4),     # the 1 MiB cap
        (500, 4, 10, 20, 256, True, 25),
    ])
    def test_chunk_size_follows_from_the_input(self, monkeypatch, trials, workers, l_count,
                                               m, n, shared, size):
        tags = list(MAC_COMPARE) if shared else ["d-omp", "dc-omp2"]
        cfg = tiny_config(n=n, l_values=[l_count], m_values=[m], trials=trials,
                          workers=workers, algorithms=tags)
        sizes = planned_chunks(monkeypatch, lambda: run_sweep(cfg, "m"))
        assert max(sizes) == size and sum(sizes) == trials

    @pytest.mark.parametrize("trials, workers, l_count, m, n, k, size", [
        (40, 1, 3, 6, 10, 3, 40),           # desk: one chunk, no pool share
        (40, 2, 3, 6, 10, 3, 5),            # desk on a pool: the pool share
        (40, 1, 3, 10, 22, 6, 1),           # C(22, 6) = 74613: a full table is 1.8 MB
    ])
    def test_oracle_chunk_size_follows_from_the_input(self, monkeypatch, trials, workers,
                                                      l_count, m, n, k, size):
        cfg = tiny_config(n=n, k=k, l_values=[l_count], m_values=[m], trials=trials,
                          workers=workers)
        sizes = planned_chunks(monkeypatch, lambda: oracle_check(cfg))
        assert max(sizes) == size and sum(sizes) == trials

    ISOLATION = dict(n=32, k=3, l_values=[4], m_values=[10], trials=48, master_seed=5,
                     algorithms=["mac-omp", "s-omp", "d-omp", "dc-omp2"])

    def test_singular_trial_fails_alone_in_its_chunk(self, monkeypatch):
        cfg = tiny_config(**self.ISOLATION)
        monkeypatch.setattr(harness, "_draw_chunk", collinear_trial(37))
        chunk_calls = []
        real = harness._run_algorithm

        def spy(alg, ys, dictionaries, topology, k):
            try:
                return real(alg, ys, dictionaries, topology, k)
            except SingularProjectionError:
                chunk_calls.append((alg, len(ys)))
                raise

        monkeypatch.setattr(harness, "_run_algorithm", spy)
        trials = range(32, 48)
        alone = [run_trial(cfg, 4, 10, complete_topology(4), t) for t in trials]
        assert alone[5] == dict.fromkeys(cfg.algorithms)          # trial 37 fails everywhere
        assert all(None not in trial.values() for i, trial in enumerate(alone) if i != 5)
        chunk_calls.clear()
        assert run_chunk(cfg, 10, [(4, complete_topology(4))], trials) == [alone]
        # each tag's chunk call raised, then its trials ran one by one
        assert sorted(chunk_calls) == sorted([(alg, 16) for alg in cfg.algorithms]
                                             + [(alg, 1) for alg in cfg.algorithms])

        rows = {}
        for size in (1, 16):
            fixed_chunks(monkeypatch, size)
            rows[size] = run_point(dataclasses.replace(cfg, trials=100), sweep_var=10,
                                   l_count=4, m=10, topology=complete_topology(4))
        assert rows[16] == rows[1]
        assert [row["failed_trials"] for row in rows[1]] == [1] * len(cfg.algorithms)

    def test_failing_trial_in_a_chunk_names_itself(self, monkeypatch):
        cfg = tiny_config(**self.ISOLATION)
        doomed = harness._draw_chunk(cfg, 4, 10, range(37, 38), str, shared=True)[1][0]
        real = harness._run_algorithm

        def broken(alg, ys, dictionaries, topology, k):
            if any(np.array_equal(y, doomed) for y in ys):
                raise ValueError("forced")
            return real(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "_run_algorithm", broken)
        fixed_chunks(monkeypatch, 16)
        with pytest.raises(TrialError, match="algorithm mac-omp, trial 37, seed 5: "
                                             "ValueError: forced"):
            run_sweep(cfg, "m")

    @pytest.mark.parametrize("tags", [list(MAC_COMPARE), ["d-omp", "dc-omp2"]])
    def test_drawn_matrices_are_released_once_stacked(self, monkeypatch, tags):
        # only the supports, observations and dictionaries outlive a chunk's
        # draw: its standard-normal block, which is as large as the
        # dictionaries, and its signals are gone before any runner runs, so
        # the matrices are held once, by the lanes: in a sweep's chunk and in
        # oracle-check's, shared matrix or not
        real_qr, real_draw, real_run = (harness.orthoprojectors, harness._draw_chunk,
                                        harness._run_algorithm)
        drawn, alive = [], []

        def track(array):
            while isinstance(array, np.ndarray):        # views and their bases
                drawn.append(weakref.ref(array))
                array = array.base

        def qr(normals):
            track(normals)
            return real_qr(normals)

        def draw(*args, **kwargs):
            supports, ys, dictionaries, signals, redrawn = real_draw(*args, **kwargs)
            track(signals)
            return supports, ys, dictionaries, signals, redrawn

        def run(alg, ys, dictionaries, topology, k):
            alive.append(sum(ref() is not None for ref in drawn))
            return real_run(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "orthoprojectors", qr)
        monkeypatch.setattr(harness, "_draw_chunk", draw)
        monkeypatch.setattr(harness, "_run_algorithm", run)
        cfg = tiny_config(**dict(self.ISOLATION, algorithms=tags))
        run_chunk(cfg, 10, [(4, complete_topology(4))], range(3, 9))
        oracle_check(dataclasses.replace(cfg, n=10, m_values=[6], trials=6))
        # a normal block and a signal block per chunk draw
        assert len(drawn) >= 2 * 2 and alive == [0] * (len(tags) + 3)

    @pytest.mark.parametrize("tags, width", [(sorted(ALGORITHMS), 1),
                                             (["d-omp", "dc-omp1-nbr", "dc-omp2", "s-omp"], 4)])
    def test_every_tag_reads_one_stacked_chunk(self, monkeypatch, tags, width):
        # the chunk is stacked once: every tag's runner reads views of the
        # same ys (T, L, M) and dictionaries (T, 1 or L, M, N)
        cfg = tiny_config(**dict(self.ISOLATION, algorithms=tags))
        real = harness._run_algorithm
        calls = []

        def spy(alg, ys, dictionaries, topology, k):
            calls.append((alg, ys, dictionaries))
            return real(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "_run_algorithm", spy)
        run_chunk(cfg, 10, [(4, complete_topology(4))], range(3, 9))
        assert [alg for alg, _, _ in calls] == tags
        _, ys, dictionaries = calls[0]
        assert ys.shape == (6, 4, 10) and dictionaries.shape == (6, width, 10, 32)
        for t, (y, matrices) in enumerate(zip(ys, dictionaries), start=3):
            _, obs, own, *_ = harness._draw_chunk(cfg, 4, 10, range(t, t + 1), str,
                                                  shared=width == 1)
            assert np.array_equal(y, obs[0])
            assert np.array_equal(matrices, own[0])
        for _, other_ys, other_dictionaries in calls[1:]:
            assert np.shares_memory(other_ys, ys)
            assert np.shares_memory(other_dictionaries, dictionaries)


def degenerate_instance(rng, data, l_count, m, n, k, near_duplicates=False):
    """(ys, dictionaries) with duplicated, scaled and all-zero columns drawn
    into random dictionaries; each y is noise or lies in the span of k columns.
    With `near_duplicates`, a column may also be its source plus noise of
    scale 1e-12 to 1e-3, so candidates reach the QR screen's boundary."""
    kinds = ["duplicate", "scale", "zero"] + ["near-duplicate"] * near_duplicates
    dictionaries = rng.standard_normal((l_count, m, n))
    for l in range(l_count):
        for _ in range(data.draw(st.integers(0, n), label="edits")):
            src, dst = rng.integers(n, size=2)
            kind = data.draw(st.sampled_from(kinds), label="kind")
            if kind == "near-duplicate":
                scale = 10.0 ** data.draw(st.floats(-12, -3), label="offset exponent")
                dictionaries[l, :, dst] = dictionaries[l, :, src] + scale * rng.standard_normal(m)
            else:
                dictionaries[l, :, dst] = {"duplicate": dictionaries[l, :, src],
                                           "scale": -2.5 * dictionaries[l, :, src],
                                           "zero": 0.0}[kind]
    if data.draw(st.booleans(), label="in span"):
        support = rng.choice(n, size=k, replace=False)
        ys = np.einsum("lmk,lk->lm", dictionaries[:, :, support],
                       rng.standard_normal((l_count, k)))
    else:
        ys = rng.standard_normal((l_count, m))
    return ys, dictionaries


def lstsq_costs(ys, dictionaries, candidates):
    """(C, L) residual norms from one np.linalg.lstsq call per candidate and node."""
    costs = np.empty((len(candidates), len(ys)))
    for c, support in enumerate(candidates):
        for l, y in enumerate(ys):
            sub = dictionaries[l][:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            costs[c, l] = np.sum((y - sub @ coef) ** 2)
    return costs


def assert_costs_match_lstsq(ys, dictionaries, k):
    """Every candidate's per-node cost is lstsq's; the support is lstsq's
    wherever the best total beats the runner-up by a clear margin."""
    candidates = np.array(list(itertools.combinations(range(dictionaries.shape[2]), k)),
                          dtype=np.intp)
    costs = harness._candidate_costs(ys, dictionaries, candidates)
    expected = lstsq_costs(ys, dictionaries, candidates)
    scale = float(np.sum(ys ** 2)) + 1.0
    np.testing.assert_allclose(costs, expected, rtol=0, atol=1e-10 * scale)
    totals = np.sort(expected.sum(axis=1))
    if len(totals) == 1 or totals[1] - totals[0] > 1e-8 * scale:
        best = candidates[np.argmin(expected.sum(axis=1))]
        assert exhaustive_oracle(ys, dictionaries, k) == tuple(best)


class TestExhaustiveOracle:
    def test_identity_noiseless(self):
        y = np.zeros(6)
        y[2], y[5] = 1.0, -2.0
        assert exhaustive_oracle(y, np.eye(6), 2) == (2, 5)

    def test_mmv_recovers_truth(self):
        rng = np.random.default_rng(5)
        from jspr.ensembles import gen_measurements, gen_signals
        ensemble = gen_signals((1, 6), 8, 3, 10.0, 15.0, rng)
        meas = gen_measurements(8, 6, 3, 0.0, rng)
        ys = np.einsum("lmn,ln->lm", meas.matrices, ensemble.signals)
        assert exhaustive_oracle(ys, meas.matrices, 2) == (1, 6)

    def test_cap(self):
        with pytest.raises(EnumerationTooLargeError):
            exhaustive_oracle(np.ones(4), np.ones((4, 64)), 8)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), l_count=st.integers(1, 3),
           m=st.integers(1, 6), n=st.integers(1, 6), data=st.data())
    def test_costs_equal_per_candidate_lstsq(self, seed, l_count, m, n, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, n), label="k")
        assert_costs_match_lstsq(*degenerate_instance(rng, data, l_count, m, n, k), k)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), l_count=st.integers(1, 3),
           m=st.integers(1, 6), n=st.integers(1, 6), data=st.data())
    def test_near_duplicates_take_the_svd_rule_or_match_lstsq(self, seed, l_count, m, n,
                                                              data):
        # near-duplicated columns push κ to ~1e12, where lstsq's own residual
        # is only good to about eps·κ·‖y‖²: an entry the screen flags must be
        # the SVD rule's bit for bit, and one it passes (κ ≤ 1e4) lstsq's cost
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, n), label="k")
        ys, dictionaries = degenerate_instance(rng, data, l_count, m, n, k,
                                               near_duplicates=True)
        candidates = harness._candidates(n, k)
        costs = harness._candidate_costs(ys, dictionaries, candidates)
        subs = dictionaries[:, :, candidates].transpose(2, 0, 1, 3)          # (C, L, M, k)
        obs = np.broadcast_to(ys, costs.shape + (m,))                         # (C, L, M)
        passes = np.zeros(costs.shape, dtype=bool)
        if m > k:
            r = np.linalg.qr(np.concatenate([subs, obs[..., None]], axis=-1), mode="r")
            passes = harness._well_conditioned(r[..., :k, :k], harness._screen_tau(k))
        assert np.array_equal(costs[~passes], harness._svd_costs(subs[~passes], obs[~passes]))
        scale = float(np.sum(ys ** 2)) + 1.0
        np.testing.assert_allclose(costs[passes],
                                   lstsq_costs(ys, dictionaries, candidates)[passes],
                                   rtol=0, atol=1e-10 * scale)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), l_count=st.integers(2, 4),
           m=st.integers(1, 6), n=st.integers(1, 6), data=st.data())
    def test_node_columns_equal_single_node_tables(self, seed, l_count, m, n, data):
        # oracle_check reads node 0's oracle from column 0 of the all-node table
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, n), label="k")
        ys, dictionaries = degenerate_instance(rng, data, l_count, m, n, k)
        # nodes of very different scales, so a rank cut-off shared across
        # nodes would show
        exponents = data.draw(st.lists(st.integers(-10, 10), min_size=l_count,
                                       max_size=l_count), label="node scales")
        dictionaries *= 10.0 ** np.array(exponents)[:, None, None]
        candidates = harness._candidates(n, k)
        costs = harness._candidate_costs(ys, dictionaries, candidates)
        for l in range(l_count):
            alone = harness._candidate_costs(ys[l:l + 1], dictionaries[l:l + 1], candidates)
            assert np.array_equal(costs[:, l], alone[:, 0])

    def test_candidates_are_lexicographic(self):
        assert harness._candidates(5, 3).tolist() == [
            list(c) for c in itertools.combinations(range(5), 3)]
        assert harness._candidates(4, 4).shape == (1, 4)

    @pytest.mark.parametrize("n, k", [(1, 1), (10, 3), (12, 12), (20, 6)])
    def test_candidates_follow_combinations_order(self, n, k):
        candidates = harness._candidates(n, k)
        assert candidates.dtype == np.intp and candidates.shape == (math.comb(n, k), k)
        assert candidates.tolist() == [list(c) for c in itertools.combinations(range(n), k)]

    def test_duplicated_column_matches_lstsq(self):
        # the rank-1 candidate (0, 1): a plain stacked QR puts a direction
        # outside its span into Q and undercuts lstsq's cost by 0.28
        rng = np.random.default_rng(3)
        dictionaries = rng.standard_normal((1, 5, 4))
        dictionaries[0, :, 1] = dictionaries[0, :, 0]
        assert_costs_match_lstsq(rng.standard_normal((1, 5)), dictionaries, 2)

    @pytest.mark.parametrize("k", [0, 5])
    def test_support_size_outside_one_to_n_rejected(self, k):
        with pytest.raises(ValueError, match=f"k={k} outside \\[1, N\\] for N=4"):
            exhaustive_oracle(np.ones(3), np.ones((3, 4)), k)

    @staticmethod
    def boundary_instance(fraction):
        """(y, A) with M=6, k=3: two orthogonal columns of norm 2 and a third
        of norm below 2 whose part outside their span is fraction·τ_3·2, so
        the QR screen's margin on R[2, 2] is `fraction`."""
        rng = np.random.default_rng(8)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        tau = harness._screen_tau(3)
        a = np.column_stack([2 * basis[:, 0], 2 * basis[:, 1],
                             0.5 * basis[:, 0] + fraction * tau * 2 * basis[:, 2]])
        return rng.standard_normal(6), a

    def test_screen_boundary(self):
        # just below the screen's threshold the entry takes the SVD rule,
        # bit for bit; just above, it costs R[k, k]² of the stacked QR
        (y_in, a_in), (y_out, a_out) = map(self.boundary_instance, (0.9, 1.1))
        ys, dictionaries = np.stack([y_in, y_out]), np.stack([a_in, a_out])
        passes = harness._well_conditioned(np.linalg.qr(dictionaries, mode="r"),
                                   harness._screen_tau(3))
        assert passes.tolist() == [False, True]
        costs = harness._candidate_costs(ys, dictionaries, np.array([[0, 1, 2]]))
        assert costs[0, 0] == harness._svd_costs(a_in[None], y_in[None])[0]
        r = np.linalg.qr(np.column_stack([a_out, y_out]), mode="r")
        assert costs[0, 1] == r[3, 3] ** 2
        assert_costs_match_lstsq(ys, dictionaries, 3)

    def test_ten_columns_take_the_svd_rule_without_a_qr(self, monkeypatch):
        # τ_10 > 1, so no entry could pass the screen: no QR is run
        rng = np.random.default_rng(12)
        ys, dictionaries = rng.standard_normal((2, 12)), rng.standard_normal((2, 12, 11))
        dictionaries[1, :, 3] = dictionaries[1, :, 7]
        candidates = harness._candidates(11, 10)
        subs = dictionaries[:, :, candidates].transpose(2, 0, 1, 3)
        expected = harness._svd_costs(subs, ys)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "qr", lambda *args, **kwargs: pytest.fail("QR ran"))
            assert np.array_equal(harness._candidate_costs(ys, dictionaries, candidates),
                                  expected)
        assert_costs_match_lstsq(ys, dictionaries, 10)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 9),
           adversarial=st.booleans(), data=st.data())
    def test_screened_triangles_are_well_conditioned(self, seed, k, adversarial, data):
        # columns of norm at most 1 whose diagonals exceed τ_k pass the
        # screen; the adversarial ones sit on its threshold with every
        # off-diagonal entry negative and as large as the norm allows
        rng = np.random.default_rng(seed)
        tau = harness._screen_tau(k)
        margin = 1e-9 if adversarial else data.draw(st.floats(1e-9, 1.0), label="margin")
        r = np.zeros((k, k))
        for j in range(k):
            r[j, j] = tau * (1 + margin) * rng.choice([-1.0, 1.0])
            room = np.sqrt(max(1.0 - r[j, j] ** 2, 0.0))
            if adversarial:
                r[:j, j] = -room / np.sqrt(max(j, 1))
            else:
                part = rng.standard_normal(j)
                r[:j, j] = room * rng.uniform() * part / max(np.linalg.norm(part), 1e-300)
        assert harness._well_conditioned(r, tau)
        assert np.linalg.cond(r) <= harness._KAPPA_MAX

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_costs_do_not_depend_on_block_size(self, block, monkeypatch):
        # `block` (trial, candidate) entries per stacked call; one entry's
        # [A | y] at L=3, M=6, k=3 is 3·6·4·8 = 576 bytes, and the reference
        # runs at the default _TABLE_BYTES (455 entries)
        rng = np.random.default_rng(11)
        ys = rng.standard_normal((2, 3, 6))
        dictionaries = rng.standard_normal((2, 3, 6, 10))
        dictionaries[0, 1, :, 4] = dictionaries[0, 1, :, 2]   # a rank-deficient node
        candidates = np.array(list(itertools.combinations(range(10), 3)), dtype=np.intp)
        reference = harness._candidate_costs(ys, dictionaries, candidates)
        expected_support = exhaustive_oracle(ys[0], dictionaries[0], 3)
        monkeypatch.setattr(harness, "_TABLE_BYTES", block * 576)
        assert np.array_equal(harness._candidate_costs(ys, dictionaries, candidates),
                              reference)
        # a trial of the stack equals its own call
        assert np.array_equal(harness._candidate_costs(ys[0], dictionaries[0], candidates),
                              reference[0])
        assert exhaustive_oracle(ys[0], dictionaries[0], 3) == expected_support

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 4),
           l_count=st.integers(1, 3), m=st.integers(1, 12), n=st.integers(1, 12),
           data=st.data())
    def test_per_trial_candidates_equal_each_trials_own_call(self, seed, trials, l_count,
                                                             m, n, data):
        # k ≥ 10 and m ≤ k take the SVD rule without a QR; duplicated, scaled
        # and zero columns make rank-deficient candidates
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(max(1, n - 2), n) if data.draw(st.booleans(), label="wide")
                      else st.integers(1, n), label="k")
        instances = [degenerate_instance(rng, data, l_count, m, n, k) for _ in range(trials)]
        ys, dictionaries = map(np.stack, zip(*instances))
        every = harness._candidates(n, k)
        width = data.draw(st.integers(1, 4), label="candidates per trial")
        lists = every[rng.integers(len(every), size=(trials, width))]       # (T, c, k)
        costs = harness._candidate_costs(ys, dictionaries, lists)
        assert costs.shape == (trials, width, l_count)
        shared = harness._candidate_costs(ys, dictionaries, every)
        for t in range(trials):
            assert np.array_equal(costs[t], harness._candidate_costs(ys[t], dictionaries[t],
                                                                     lists[t]))
            assert np.array_equal(shared[t], harness._candidate_costs(ys[t], dictionaries[t],
                                                                      every))

    @pytest.mark.parametrize("k", [3, 10])
    def test_every_stacked_call_holds_at_most_the_byte_cap(self, k, monkeypatch):
        # k = 3 runs the QR screen; k = 10 the SVD rule alone
        rng = np.random.default_rng(4)
        ys, dictionaries = rng.standard_normal((3, 2, 11)), rng.standard_normal((3, 2, 11, 12))
        dictionaries[1, 0, :, 5] = dictionaries[1, 0, :, 6]
        candidates = harness._candidates(12, k)
        reference = harness._candidate_costs(ys, dictionaries, candidates)
        cap = 5 * 2 * 11 * (k + 1) * 8 + 8                # five entries' [A | y], and a bit
        real_qr, real_svd = np.linalg.qr, harness._svd_costs
        held = {"qr": [], "svd": []}

        def qr(stacks, mode):
            held["qr"].append(stacks.nbytes)
            return real_qr(stacks, mode=mode)

        def svd_costs(subs, y):
            held["svd"].append(subs.nbytes + y.nbytes)
            return real_svd(subs, y)

        monkeypatch.setattr(harness, "_TABLE_BYTES", cap)
        monkeypatch.setattr(np.linalg, "qr", qr)
        monkeypatch.setattr(harness, "_svd_costs", svd_costs)
        assert np.array_equal(harness._candidate_costs(ys, dictionaries, candidates),
                              reference)
        # the 3·C (trial, candidate) entries in blocks of five
        blocks = held["qr" if k < 10 else "svd"]
        assert len(blocks) == math.ceil(3 * len(candidates) / 5)
        assert max(held["qr"] + held["svd"]) <= cap


class TestOracleCheck:
    CFG = dict(n=10, k=3, l_values=[3], m_values=[6], trials=7, master_seed=2)
    TRIAL_BYTES = 3 * 6 * 10 * 8          # one trial's per-node matrices

    @staticmethod
    def spy_runs(monkeypatch):
        """Record each `_run_algorithm` call as (tag, nodes per trial, nodes
        of the topology, trials)."""
        real = harness._run_algorithm
        calls = []

        def spy(alg, ys, dictionaries, topology, k):
            calls.append((alg, ys.shape[1], topology.node_count, len(ys)))
            return real(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(harness, "_run_algorithm", spy)
        return calls

    def test_document_does_not_depend_on_chunk_size(self, monkeypatch):
        cfg = tiny_config(**self.CFG)
        calls = self.spy_runs(monkeypatch)
        docs = []
        for size, chunks in ((1, [1] * 7), (3, [3, 3, 1]), (7, [7])):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", size * self.TRIAL_BYTES)
            calls.clear()
            docs.append(oracle_check(cfg))
            # node-0 OMP, S-OMP and DC-OMP 2, once per chunk
            assert [trials for *_, trials in calls] == [t for t in chunks for _ in range(3)]
        assert docs[0] == docs[1] == docs[2]

    @pytest.mark.parametrize("square", [False, True])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 10), l_count=st.integers(1, 3),
           trials=st.integers(1, 24), data=st.data())
    def test_document_does_not_depend_on_chunks_or_workers(self, square, seed, n, l_count,
                                                           trials, data):
        # `square` draws k = m, where every candidate ties at rounding noise
        k = data.draw(st.integers(1, min(4, n - 1)), label="k")
        m = k if square else data.draw(st.integers(k, n - 1), label="m")
        cfg = tiny_config(n=n, k=k, l_values=[l_count], m_values=[m], trials=trials,
                          master_seed=seed)
        docs = []
        with pytest.MonkeyPatch.context() as mp:
            for size, workers in itertools.product((1, 4, 16), (1, 2)):
                fixed_chunks(mp, size)
                docs.append(oracle_check(dataclasses.replace(cfg, workers=workers)))
        assert all(doc == docs[0] for doc in docs)

    @pytest.mark.parametrize("workers, cpus, size", [(2, 2, 2), (3, 2, 2), (4, 8, 4)])
    def test_chunks_map_on_one_pool(self, monkeypatch, workers, cpus, size):
        record = TestRunSweep.fake_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = tiny_config(**dict(self.CFG, trials=40))
        serial = oracle_check(cfg)
        assert record["sizes"] == []            # no pool at workers = 1
        assert oracle_check(dataclasses.replace(cfg, workers=workers)) == serial
        assert record["sizes"] == [size]
        # the pool share caps the chunks, which cover every trial once
        assert max(record["chunks"]) <= 40 // (4 * workers)
        assert sum(record["chunks"]) == 40

    def test_comparisons_run_the_sweep_runners(self, monkeypatch):
        cfg = tiny_config(**self.CFG)
        calls = self.spy_runs(monkeypatch)
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 3 * self.TRIAL_BYTES)
        oracle_check(cfg)
        # per chunk: node-0 OMP as s-omp on a one-node network, then s-omp
        # and dc-omp2 on the complete graph of all three nodes
        assert calls == [call for t in (3, 3, 1) for call in (
            ("s-omp", 1, 1, t), ("s-omp", 3, 3, t), ("dc-omp2", 3, 3, t))]

    @pytest.mark.parametrize("comparison", ["(trial draw)", "omp", "s-omp", "dc-omp2"])
    def test_failing_trial_names_itself(self, monkeypatch, comparison):
        cfg = tiny_config(**self.CFG)
        noiseless = dataclasses.replace(cfg, sigma2=0.0)
        doomed = harness._draw_chunk(noiseless, 3, 6, range(4, 5), str, shared=False)[1][0]

        def forced():
            raise ValueError("forced")

        real_words, real_run = seeding.StateWords, harness._run_algorithm
        doomed_words = seeding.state_words(cfg.master_seed, [4], range(3))[0]

        def words(state):
            # the draw seeds trial 4's streams
            if comparison == "(trial draw)" and (doomed_words == state).all(axis=1).any():
                forced()
            return real_words(state)

        # the runner call of `comparison`: its tag and its network's size
        target = {"omp": ("s-omp", 1), "s-omp": ("s-omp", 3), "dc-omp2": ("dc-omp2", 3)}

        def run(alg, ys, dictionaries, topology, k):
            nodes = topology.node_count
            if target.get(comparison) == (alg, nodes) and any(
                    np.array_equal(y, doomed[:nodes]) for y in ys):
                forced()
            return real_run(alg, ys, dictionaries, topology, k)

        monkeypatch.setattr(seeding, "StateWords", words)
        monkeypatch.setattr(harness, "_run_algorithm", run)
        expected = f"oracle-check trial 4, seed 2, comparison {comparison}: ValueError: forced"
        with pytest.raises(TrialError, match=re.escape(expected)):
            oracle_check(cfg)

    def test_svd_rule_everywhere_gives_the_same_documents(self, monkeypatch):
        # per chunk one witness table of every trial's three greedy supports,
        # then one call of full tables for the trials the witnesses leave
        # undecided. The QR screen flagging every entry sends every table
        # through the SVD rule: same documents, and each recorded table
        # within 1e-12·(‖y‖² + 1) of its SVD costs at every node
        real_costs, real_rule = harness._candidate_costs, harness._least_cost
        calls, partial, recorded = [], [], []

        def recording(ys, dictionaries, candidates):
            calls.append((ys, dictionaries, candidates,
                          real_costs(ys, dictionaries, candidates)))
            return calls[-1][-1]

        def rule(mine, costs, energies):
            verdicts = real_rule(mine, costs, energies)
            partial.append(verdicts.copy())
            return verdicts

        monkeypatch.setattr(harness, "_candidate_costs", recording)
        monkeypatch.setattr(harness, "_least_cost", rule)
        every = harness._candidates(10, 3)
        configs = [tiny_config(**dict(self.CFG, trials=40, master_seed=seed))
                   for seed in range(10)]
        default, undecided_count = [], 0
        for cfg in configs:
            calls.clear()
            partial.clear()
            default.append(oracle_check(cfg))
            # the 40 trials are one chunk: a witness call, then a full one
            (ys, dictionaries, witnesses, _), full = calls
            assert ys.shape == (40, 3, 6) and witnesses.shape == (40, 3, 3)
            # the witness verdicts come as (node-0 OMP, S-OMP) per trial
            undecided = (partial[0] < 0).any(axis=1)
            undecided_count += undecided.sum()
            assert np.array_equal(full[2], every)
            assert np.array_equal(full[0], ys[undecided])
            assert np.array_equal(full[1], dictionaries[undecided])
            recorded.extend(calls)
        assert 0 < undecided_count < 400
        monkeypatch.setattr(harness, "_well_conditioned",
                            lambda r, tau: np.zeros(r.shape[:-2], dtype=bool))
        for ys, dictionaries, candidates, costs in recorded:
            svd = real_costs(ys, dictionaries, candidates)
            energies = np.sum(ys ** 2, axis=-1)[:, None, :]              # (T, 1, L)
            assert np.all(np.abs(costs - svd) <= 1e-12 * (energies + 1.0))
        assert [oracle_check(cfg) for cfg in configs] == default

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 10), l_count=st.integers(1, 3),
           trials=st.integers(1, 12), data=st.data())
    def test_documents_equal_full_tables_everywhere(self, seed, n, l_count, trials, data):
        # forcing every witness verdict to undecided gives every trial its
        # full table, as before the witness tables
        k = data.draw(st.integers(1, min(4, n - 1)), label="k")
        m = data.draw(st.integers(k, n - 1), label="m")
        cfg = tiny_config(n=n, k=k, l_values=[l_count], m_values=[m], trials=trials,
                          master_seed=seed)
        real, calls = harness._least_cost, itertools.count()

        def undecided(mine, costs, energies):
            # each chunk judges its witness table first, then its full tables
            verdicts = real(mine, costs, energies)
            return np.full_like(verdicts, -1) if next(calls) % 2 == 0 else verdicts

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_least_cost", undecided)
            full = oracle_check(cfg)
        assert oracle_check(cfg) == full

    def test_least_cost_edges(self):
        energy = 2.0
        slack = harness._TIE_TOLERANCE * (energy + 1.0)

        def rule(costs, own):
            """Both verdicts on one trial at one node, where they coincide:
            candidate `own`'s cost judged on all of `costs`."""
            verdicts = harness._least_cost(np.array([[costs[own], costs[own]]]),
                                           np.array(costs)[None, :, None], np.array([[energy]]))
            assert verdicts.shape == (1, 2) and verdicts[0, 0] == verdicts[0, 1]
            return verdicts[0, 0]

        # at most slack agrees whatever the unscored candidates cost
        assert rule([0.5, slack], 1) == 1
        # exactly another scored cost plus slack: an unscored candidate may
        # cost less, so only a complete table decides, and there it ties
        assert rule([0.5, 0.5 + slack], 1) == -1
        assert rule([0.5, np.nextafter(0.5 + slack, np.inf)], 1) == 0
        assert rule([np.nextafter(slack, np.inf)], 0) == -1
        # node 0's column and the node sum are judged apart, trial by trial;
        # the sum's slack covers every node's energy, so in trial 1 a sum
        # 1.5·slack above the least stays within it
        costs = np.array([[[0.0, 3.0], [1.0, 3.0]],
                          [[0.5, 0.0], [0.5, 1.5 * slack]]])        # (G=2, C=2, L=2)
        energies = np.array([[energy, 0.0], [energy, 2.0]])
        # trial 0 judges candidate 0 at node 0 and candidate 1's sum, trial 1 candidate 1's
        mine = np.array([[costs[0, 0, 0], costs[0, 1].sum()], [costs[1, 1, 0], costs[1, 1].sum()]])
        assert harness._least_cost(mine, costs, energies).tolist() == [[1, 0], [-1, -1]]

    def test_k_equal_m_counts_tied_candidates(self):
        # at k = M every k columns span R^M, so every candidate costs rounding
        # noise: the greedy supports tie the least cost and agree
        cfg = tiny_config(n=8, k=3, l_values=[2], m_values=[3], sigma2=0.0, trials=3,
                          master_seed=0)
        doc = oracle_check(cfg)
        assert doc["omp_oracle_agreement"] == doc["somp_oracle_agreement"] == 3

    def test_singular_trial_fails_the_cli_with_its_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_draw_chunk", collinear_trial(4))
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("n=10\nk=3\nl=3\nm=6\nsigma2=0\ntrials=7\nseed=2\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 2
        assert ("error: oracle-check trial 4, seed 2, comparison omp: SingularProjectionError: "
                "selected columns nearly dependent") in capsys.readouterr().err


class TestBoundsReport:
    def test_document_structure_exact_mode(self):
        cfg = tiny_config(n=10, k=2, l_values=[3], m_values=[6], sigma2=0.5,
                          amp_low=-2.0, amp_high=2.0)
        doc = bounds_report(cfg)
        assert doc["params"]["n"] == 10
        bounds = doc["bounds"]
        for name in ("m_block_rip", "m_gauss_lower", "fano_pe_lower",
                     "xi_mac", "xi_pac", "gamma_c_min", "sbar_min"):
            assert "value" in bounds[name] and "formula" in bounds[name]
        assert bounds["xi_mac"]["value"] <= bounds["xi_pac"]["value"] + 1e-10
        assert 0.0 <= bounds["fano_pe_lower"]["value"] < 1.0
        assert json.loads(json.dumps(doc)) == doc

    def test_xi_exact_at_paper_scale(self):
        # C(256, 10)^2 support pairs: far beyond any enumeration
        bounds = bounds_report(tiny_config(n=256, k=10, l_values=[10],
                                           m_values=[25]))["bounds"]
        for name in ("xi_mac", "xi_pac"):
            assert set(bounds[name]) == {"value", "formula"}
            assert math.isfinite(bounds[name]["value"])
        assert bounds["xi_mac"]["value"] <= bounds["xi_pac"]["value"]

    def test_noise_free_rejected(self):
        with pytest.raises(ConfigError, match="sigma2"):
            bounds_report(tiny_config(sigma2=0.0))

    def test_deterministic(self):
        cfg = tiny_config(n=10, k=2, l_values=[3], m_values=[6], sigma2=0.5)
        assert bounds_report(cfg) == bounds_report(cfg)

    def test_bound_monotonicity_across_network_sizes(self):
        # degenerate amplitude range pins the component SNR, so only the
        # network size moves the two measurement bounds
        docs = [bounds_report(tiny_config(n=10, k=2, l_values=[l], m_values=[6],
                                          sigma2=0.5, amp_low=2.0, amp_high=2.0))
                for l in (2, 4, 8)]
        rip = [d["bounds"]["m_block_rip"]["value"] for d in docs]
        gauss = [d["bounds"]["m_gauss_lower"]["value"] for d in docs]
        assert rip[0] < rip[1] < rip[2]
        assert gauss[0] >= gauss[1] >= gauss[2]


class TestCli:
    def write_config(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_sweep_m_to_file(self, tmp_path):
        cfg = self.write_config(
            tmp_path, "n=24\nk=2\nl=3\nm=8\ntrials=3\nalgorithms=d-omp\nseed=7\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep-m", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 2

    def test_trials_and_seed_overrides(self, tmp_path):
        cfg = self.write_config(tmp_path, "n=24\nk=2\nl=3\nm=8\nalgorithms=d-omp\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep-m", "--config", cfg, "--trials", "3", "--seed", "5",
                     "--out", str(out1)]) == 0
        assert main(["sweep-m", "--config", cfg, "--trials", "3", "--seed", "5",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        cfg = self.write_config(tmp_path, "n=24\nk=2\nl=3\nm=8\ntrials=2\nalgorithms=d-omp\n")
        out = tmp_path / "rows.json"
        assert main(["sweep-m", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["algorithm"] == "d-omp"

    def test_mac_compare_forces_pairing(self, tmp_path):
        cfg = self.write_config(tmp_path, "n=24\nk=2\nl=3\nm=8\ntrials=3\n")
        out = tmp_path / "mac.csv"
        assert main(["mac-compare", "--config", cfg, "--out", str(out)]) == 0
        algs = {line.split(",")[1] for line in out.read_text().strip().split("\n")[1:]}
        assert algs == {"mac-omp", "s-omp"}

    def test_bounds_json(self, tmp_path):
        cfg = self.write_config(tmp_path, "n=10\nk=2\nl=3\nm=6\nsigma2=0.5\n")
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "m_block_rip" in doc["bounds"]

    def test_oracle_check(self, tmp_path):
        cfg = self.write_config(
            tmp_path, "n=8\nk=2\nl=3\nm=6\nsigma2=0\ntrials=10\n")
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 10
        assert doc["omp_oracle_agreement"] >= 9

    def test_config_error_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, "k=0\n")
        assert main(["sweep-m", "--config", cfg]) == 1

    @pytest.mark.parametrize("text", [
        "topology=ring\nn0=3\nl=5\nm=8\n",
        "topology=ring\nn0=5\nl=5\nm=8\n",
        "amp_low=0\namp_high=0\nl=3\nm=8\n",
        "topology=random\np=0.5\nl=1\nm=8\n",
        "topology=random\np=0.05\nl=12\nm=8\n",
        "algorithms=s-omp,d-omp,s-omp\nl=3\nm=8\n",
        "l=3\nm=8,8\n",
        "sigma2=nan\nl=3\nm=8\n",
        "sigma2=inf\nl=3\nm=8\n",
        "amp_low=nan\nl=3\nm=8\n",
        "amp_low=-inf\namp_high=inf\nl=3\nm=8\n",
        "amp_high=inf\nl=3\nm=8\n",
        "topology=random\np=nan\nl=3\nm=8\n",
        "delta0=nan\nl=3\nm=8\n",
        "slack_t=nan\nl=3\nm=8\n",
        "slack_t=inf\nl=3\nm=8\n",
    ])
    def test_bad_config_exits_before_any_trial(self, tmp_path, monkeypatch, text):
        import jspr.harness as harness

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_draw_chunk", no_trial)
        cfg = self.write_config(tmp_path, "n=24\nk=2\ntrials=2\n" + text)
        assert main(["sweep-m", "--config", cfg]) == 1

    @pytest.mark.parametrize("where", ["missing", "directory", "not utf-8"])
    def test_unreadable_config_exits_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                      where):
        import jspr.harness as harness

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_draw_chunk", no_trial)
        (tmp_path / "binary.cfg").write_bytes(b"\xffn=24\nk=2\nl=3\nm=8\n")
        path = str({"missing": tmp_path / "missing.cfg", "directory": tmp_path,
                    "not utf-8": tmp_path / "binary.cfg"}[where])
        assert main(["sweep-m", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and path in err

    @pytest.mark.parametrize("key", ["sigma2", "slack_t"])
    def test_non_finite_number_fails_bounds_before_any_trial(self, tmp_path, monkeypatch,
                                                             capsys, key):
        import jspr.harness as harness

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_draw_chunk", no_trial)
        cfg = self.write_config(tmp_path, f"n=10\nk=2\nl=3\nm=6\n{key}=nan\n")
        assert main(["bounds", "--config", cfg]) == 1
        assert f"key '{key}': must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, key", [("--trials", "0", "trials"),
                                                   ("--seed", "-1", "seed"),
                                                   ("--seed", str(2 ** 64), "seed"),
                                                   ("--seed", "abc", "seed"),
                                                   ("--trials", "1.5", "trials"),
                                                   ("--trials", str(2 ** 32 + 1), "trials"),
                                                   ("--format", "xml", "format"),
                                                   ("--out", "{tmp}/missing/rows.csv", "out"),
                                                   ("--out", "{tmp}", "out")])
    def test_bad_flag_exits_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                             flag, value, key):
        import jspr.harness as harness

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_draw_chunk", no_trial)
        cfg = self.write_config(tmp_path, "n=24\nk=2\nl=3\nm=8\n")
        assert main(["sweep-m", "--config", cfg, flag, value.format(tmp=tmp_path)]) == 1
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", "abc"), ("trials", "1.5"),
                                            ("format", "xml"), ("seed", "-1"), ("out", "")])
    def test_flag_fails_as_the_same_value_in_the_file(self, tmp_path, capsys, key, value):
        base = "n=24\nk=2\nl=3\nm=8\n"
        assert main(["sweep-m", "--config", self.write_config(tmp_path, base),
                     f"--{key}", value]) == 1
        from_flag = capsys.readouterr().err.replace(f"flag --{key}: ", "")
        assert main(["sweep-m", "--config",
                     self.write_config(tmp_path, f"{base}{key}={value}\n")]) == 1
        from_file = capsys.readouterr().err.replace("line 5: ", "")
        assert from_flag == from_file and f"key '{key}'" in from_file

    def test_help_names_every_command(self, capsys):
        from jspr.cli import COMMANDS

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert len(COMMANDS) == 6
        for name, (help_text, _) in COMMANDS.items():
            assert re.search(rf"^  {name} +{re.escape(help_text)}$", out, re.M)

    @pytest.mark.parametrize("argv", [["sweep-x"], ["sweep-m", "--seeds", "1"], []])
    def test_unknown_command_or_flag_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_sparsity_above_m_fails_oracle_check_not_bounds(self, tmp_path, monkeypatch,
                                                             capsys):
        import jspr.harness as harness
        cfg = self.write_config(tmp_path, "n=10\nk=4\nl=3\nm=3\nsigma2=0.5\ntrials=2\n")
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b.json")]) == 0
        assert capsys.readouterr().err == ""

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_draw_chunk", no_trial)
        assert main(["oracle-check", "--config", cfg]) == 1
        assert "m=3: greedy recovery requires k <= M" in capsys.readouterr().err

    def test_oracle_above_cap_fails_before_any_trial(self, tmp_path, monkeypatch, capsys):
        import jspr.harness as harness

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_draw_chunk", no_trial)
        cfg = self.write_config(tmp_path, "n=64\nk=8\nl=3\nm=20\nsigma2=0\ntrials=2\n")
        assert main(["oracle-check", "--config", cfg]) == 1
        assert "keys 'n', 'k': C(64,8)" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path):
        # a config that cannot be read is a configuration error
        assert main(["sweep-m", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch, capsys):
        import jspr.harness as harness

        def failing_trial(*args, **kwargs):
            raise FloatingPointError("solver blew up")

        monkeypatch.setattr(harness, "_run_algorithm", failing_trial)
        cfg = self.write_config(tmp_path, "n=24\nk=2\nl=3\nm=8\ntrials=2\nalgorithms=d-omp\n")
        assert main(["sweep-m", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "FloatingPointError: solver blew up" in err
