"""Set-up probe: one workload's set-up in a fresh interpreter.

``python3 perfbench/probe.py WORKLOAD SEED DIR`` imports the modules the
workflow needs, performs the workload's set-up with DIR as its run
directory, and reports on stdout::

    IMPORT <ms>          time to import the toolkit modules
    METRIC <name> <v>    workload-specific set-up figures
    READY                set-up finished; the first operation could start

It then tears the set-up down (stopping any server it started) and
exits.  ``run.py`` times each probe from its start to ``READY``.
"""

import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    from perfbench.common import RunContext, cpu_budget
    from perfbench.workloads import load

    name, seed, root = argv[0], int(argv[1]), Path(argv[2])
    cls = load(name)
    t0 = time.perf_counter()
    for module in cls.modules:
        importlib.import_module(module)
    print(f"IMPORT {(time.perf_counter() - t0) * 1e3:.3f}", flush=True)
    workload = cls(RunContext(name, seed, 0.0, cpu_budget(), root=root))
    try:
        workload.setup()
        for key, value in workload.setup_metrics.items():
            print(f"METRIC {key} {value!r}", flush=True)
        print("READY", flush=True)
    finally:
        workload.teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
