"""Run `jspr` CLI commands one after another in one process, timing each.

    python perfbench/session.py

Reads one JSON job per line on stdin, `{"argv": [...], "trace_dir": DIR or
null}`, and answers each with one JSON line on stdout. A job runs what
`python -m jspr.cli ARGV` runs, `jspr.cli.main(argv)`, with `src` of the
current directory on the path; jobs must write their output with --out.
Importing jspr happens once, before the first job, so it is left out of
every job's time: set-up has its own metric.

The answer holds the job's exit code, wall time and CPU time, pool workers
included, and the largest resident set of any process of the session so
far. With a trace_dir the public functions of each module are wrapped for
that job only (see tracing.py) and the spans are written to the directory.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _maxrss_kb() -> int:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def run_job(job: dict) -> dict:
    import jspr.cli
    import tracing

    uninstall = None
    if job["trace_dir"] is not None:
        tracer, uninstall = tracing.install(job["trace_dir"])
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        rc = jspr.cli.main(job["argv"])
    except SystemExit as exc:          # argparse rejected the arguments
        rc = exc.code
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if uninstall is not None:
        uninstall()
        tracer.dump()
    return {"rc": rc, "wall_s": wall, "cpu_s": cpu, "maxrss_kb": _maxrss_kb()}


def main() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import jspr.cli  # noqa: F401 - the import every job would otherwise pay

    for line in sys.stdin:
        print(json.dumps(run_job(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
