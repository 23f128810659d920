"""Layered benchmark of jspr: end-to-end sweeps and a traced per-module run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a jspr checkout; the package is imported from `src`.
Every sweep goes through the CLI entry point, run by one session process
(session.py) per run; set-up is timed in fresh processes (setup_probe.py).
The environment is passed through unchanged apart from the path, so BLAS
threads are whatever the environment gives.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (layers.py) and the tracing overhead. The last line of stdout
is the result object; the line before it records the environment, every
sweep and the failure base.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEFAULT_SEED = 0            # the CLI's default; its outputs are pinned in digests.json
SETUP_PROBES = 5
DEADLINE_S = 170            # a run must end within 180 s, whatever a sweep does
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")

# Trials per sweep point, chosen so that one sweep takes about 1 s on 2 CPUs
# and a run holds a couple of dozen sweeps.
WORKLOADS = {
    "fig-m": {"command": "sweep-m", "trials": 5},
    "mac": {"command": "mac-compare", "trials": 40, "bounds": "mac-bounds.cfg"},
    "nodes-par": {"command": "sweep-l", "trials": 20},
    "desk": {"command": "oracle-check", "trials": 40},
}
ORACLE_COMPARISONS = ("omp", "s-omp", "dc-omp2")   # what oracle-check runs per trial


class Workload:
    def __init__(self, name: str):
        self.name = name
        self.command = WORKLOADS[name]["command"]
        self.trials = WORKLOADS[name]["trials"]
        self.config = f"perfbench/workloads/{name}.cfg"
        bounds = WORKLOADS[name].get("bounds")
        self.bounds_config = bounds and f"perfbench/workloads/{bounds}"
        self.cfg = checks.parse_config((HERE / "workloads" / f"{name}.cfg").read_text())
        if self.command == "mac-compare":
            self.algorithms = ["mac-omp", "s-omp"]
        elif self.command == "oracle-check":
            self.algorithms = list(ORACLE_COMPARISONS)
        else:
            self.algorithms = [a.strip() for a in self.cfg["algorithms"].split(",")]
        sweep_key = {"sweep-l": "l", "oracle-check": None}.get(self.command, "m")
        self.points = len(checks.int_list(self.cfg[sweep_key])) if sweep_key else 1
        self.paired = self.points * self.trials
        self.attempted = self.paired * len(self.algorithms)


class Runner:
    """Runs the workload's CLI commands in one session process (session.py)
    and set-up probes in fresh ones, writing inside one scratch directory."""

    def __init__(self, workload: Workload, tmp: Path):
        self.w = workload
        self.tmp = tmp
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        self.digests = json.loads((HERE / "digests.json").read_text())
        self.serial = 0
        self.session = None

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - self.started))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def setup_probe(self) -> dict:
        """Set-up cost of one fresh process."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), self.w.config, self.w.command],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, timeout=self.remaining(),
            check=True)
        return json.loads(proc.stdout)

    def _ask(self, job: dict) -> dict:
        """Run one job in the session process, starting one if none is alive."""
        if self.session is None or self.session.poll() is not None:
            self.session = subprocess.Popen(
                [sys.executable, str(HERE / "session.py")], cwd=ROOT, env=self.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                start_new_session=True)
        try:
            self.session.stdin.write(json.dumps(job) + "\n")
            self.session.stdin.flush()
        except BrokenPipeError:
            pass
        ready, _, _ = select.select([self.session.stdout], [], [], self.remaining())
        line = self.session.stdout.readline() if ready else ""
        if line:
            return json.loads(line)
        print(f"session ended or hit the deadline during {job['argv']}", file=sys.stderr)
        self.close(kill=True)
        return {"rc": -1, "wall_s": 0.0, "cpu_s": 0.0, "maxrss_kb": 0}

    def close(self, kill: bool = False) -> None:
        """Stop the session process and every process it started."""
        if self.session is None:
            return
        if not kill:
            self.session.stdin.close()
            try:
                self.session.wait(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            os.killpg(self.session.pid, signal.SIGKILL)
            self.session.wait()
        self.session = None

    def cli(self, command: str, config: str, seed: int, trials: int | None = None,
            trace: bool = False) -> dict:
        """One CLI command; returns its cost, output and trace directory."""
        self.serial += 1
        out = self.tmp / f"out-{self.serial}"
        trace_dir = self.tmp / f"trace-{self.serial}"
        argv = [command, "--config", config, "--seed", str(seed), "--out", str(out)]
        if trials is not None:
            argv += ["--trials", str(trials)]
        if trace:
            trace_dir.mkdir()
        run = self._ask({"argv": argv, "trace_dir": str(trace_dir) if trace else None})
        run.update(seed=seed, trace_dir=trace_dir,
                   output=out.read_bytes() if out.exists() else b"")
        return run

    def sweep(self, seed: int, trace: bool = False) -> dict:
        """One workload sweep with its output checked."""
        w = self.w
        run = self.cli(w.command, w.config, seed, w.trials, trace)
        text = run["output"].decode(errors="replace")
        if run["rc"]:
            problems = [f"exit code {run['rc']}"]
        elif w.command == "oracle-check":
            problems = checks.check_oracle(text, w.cfg, w.trials, seed)
        else:
            problems = checks.check_rows(text, w.cfg, w.command, w.algorithms, w.trials, seed)
        if seed == DEFAULT_SEED and not problems:
            digest = hashlib.sha256(run["output"]).hexdigest()
            if digest != self.digests[w.name]:
                problems.append(f"default-seed output digest {digest} differs")
        run["problems"] = []
        run["failed"] = 0 if problems or w.command == "oracle-check" \
            else checks.failed_pairs(text)
        for problem in problems:
            _fail(w, run, problem)
        run["completed"] = 0 if problems else w.paired
        return run


def _fail(w: Workload, run: dict, problem: str) -> None:
    """Count every pair of a sweep as failed."""
    print(f"{w.name} seed {run['seed']}: {problem}", file=sys.stderr)
    run["problems"].append(problem)
    run["failed"] = w.attempted


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _throughput(sweeps: list) -> float:
    """Paired trials completed per second of sweep wall time. A ratio of
    totals, so that one slow sweep weighs in with all of its time."""
    wall = sum(s["wall_s"] for s in sweeps)
    return sum(s["completed"] for s in sweeps) / wall if wall else 0.0


def _sweep_record(run: dict) -> dict:
    """What the details line shows of one sweep."""
    keys = ("seed", "rc", "wall_s", "cpu_s", "maxrss_kb", "completed", "failed", "problems")
    return {key: run[key] for key in keys}


def end_to_end(runner: Runner, seed: int, seconds: int) -> tuple:
    """Untraced sweeps for `seconds`; the end-to-end metrics."""
    w = runner.w
    probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    sweeps = [runner.sweep(DEFAULT_SEED)]           # warm-up, byte-checked
    timed = []
    t0 = time.monotonic()
    while not timed or (time.monotonic() - t0 < seconds
                        and runner.elapsed() < DEADLINE_S / 2):
        timed.append(runner.sweep(seed * 1000 + len(timed) + 1))
    sweeps += timed
    failed = sum(s["failed"] for s in sweeps)
    values = {
        "trials_per_s": _throughput(timed),
        "cpu_ms_per_trial": sum(s["cpu_s"] for s in timed) * 1e3 / (w.paired * len(timed)),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": max(s["maxrss_kb"] for s in sweeps) / 1024,
        "success_frac": 1.0 - failed / (w.attempted * len(sweeps)),
    }
    return values, sweeps, [], {"setup_probes": probes}


def traced(runner: Runner, seed: int, seconds: int) -> tuple:
    """Untraced and traced sweeps of one seed in turn; the per-layer metrics
    and the tracing overhead."""
    w = runner.w
    probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    sweeps = [runner.sweep(DEFAULT_SEED)]           # warm-up, byte-checked
    pairs = []
    t0 = time.monotonic()
    traced_seed = seed * 1000 + 1                   # one seed, so counts must repeat
    while len(pairs) < 2 or (time.monotonic() - t0 < seconds
                             and runner.elapsed() < DEADLINE_S / 2):
        pairs.append((runner.sweep(traced_seed), runner.sweep(traced_seed, trace=True)))
    problems = []
    per_sweep, trial_ms = [], []
    for plain, with_trace in pairs:
        sweeps += [plain, with_trace]
        if with_trace["output"] != plain["output"] and not with_trace["problems"]:
            _fail(w, with_trace, "traced output differs from the untraced output")
        if not with_trace["rc"]:
            values, times = layers.sweep_metrics(layers.load(with_trace["trace_dir"]),
                                                 w.paired, w.points)
            per_sweep.append(values)
            trial_ms += times
    if not per_sweep:
        raise RuntimeError("no traced sweep completed")
    values, unstable = layers.combine(per_sweep, trial_ms)
    for name in unstable:
        for _, with_trace in pairs:
            _fail(w, with_trace, f"count {name} differs between traced sweeps of one seed")

    values["macbounds.bound_report.ms"] = 0.0
    if w.bounds_config:                             # one traced bounds call
        report = runner.cli("bounds", w.bounds_config, seed, trace=True)
        if report["rc"]:
            problems.append(f"bounds exited with {report['rc']}")
        else:
            batch = layers.load(report["trace_dir"])
            values["macbounds.bound_report.ms"] = sum(
                (end - start) * 1e3 for name, start, end, *_ in batch[0]["spans"]
                if name == "macbounds.bound_report")

    values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["config.parse_ms"] = statistics.median(p["parse_s"] for p in probes) * 1e3
    values["network.build_topology_ms"] = statistics.median(
        p["topology_s"] for p in probes) * 1e3
    plain_rate = _throughput([p for p, _ in pairs])
    traced_rate = _throughput([t for _, t in pairs])
    values["trace.overhead"] = 1.0 - traced_rate / plain_rate if plain_rate else 0.0

    details = {"setup_probes": probes,
               "trace_overhead": {"untraced_trials_per_s": plain_rate,
                                  "traced_trials_per_s": traced_rate}}
    return values, sweeps, problems, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "jspr" / "__init__.py").is_file():
        print(f"no jspr sources under {ROOT / 'src'}; run from a jspr checkout",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    runner = Runner(Workload(args.workload), tmp)
    try:
        measure = traced if args.trace else end_to_end
        values, sweeps, problems, details = measure(runner, args.seed, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    attempted = runner.w.attempted * len(sweeps)
    failed = sum(s["failed"] for s in sweeps)
    correct = not problems and not any(s["problems"] for s in sweeps)
    details["failed_frac"] = {"failed": failed, "attempted": attempted,
                              "base": "(trial, algorithm) pairs over all sweeps of the run"}
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "sweeps": [_sweep_record(s) for s in sweeps],
                      "problems": problems, **details}))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
