"""Time a fresh process's set-up for one workload and print it as JSON.

    python perfbench/setup_probe.py CONFIG COMMAND

Set-up is what a `jspr` CLI run does before its first trial: import jspr,
parse and validate the config, and build the topologies the command uses.
"""

import json
import os
import sys
import time


def main(config_path: str, command: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import jspr.cli
    from jspr import seeding
    t1 = time.perf_counter()

    cfg = jspr.load_config(config_path)
    t2 = time.perf_counter()

    n0 = cfg.n0_values[0] if cfg.topology_kind == "ring" else None
    if command == "oracle-check":
        jspr.complete_topology(cfg.l_values[0])
    else:
        for l_count in cfg.l_values:     # sweep-l builds one topology per node count
            jspr.build_topology(cfg.topology_kind, l_count,
                                rng=seeding.stream(cfg.master_seed, seeding.TOPOLOGY),
                                n0=n0, p=cfg.edge_p)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "topology_s": t3 - t2,
                      "setup_s": t3 - t0}))


if __name__ == "__main__":
    main(*sys.argv[1:])
