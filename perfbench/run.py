"""Run one benchmark workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics instead, and the
traced timeline is written as a Chrome trace to
``.perfbench/traces/<workload>-s<seed>.json`` (readable with
``repro trace summary``).  The line before it, ``host {...}``, is the
host fingerprint.  Exit status is 0 when the run is correct, 1 when a
check failed and 2 when the toolkit cannot be found.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import (  # noqa: E402
    SRC,
    WORK,
    WORKLOADS,
    RunContext,
    become_subreaper,
    cpu_budget,
    median,
    peak_rss_mb,
    reap_children,
)

#: end-to-end metrics of an untraced run: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


class SetupFailed(RuntimeError):
    pass


def probe_setups(ctx: RunContext, cls) -> tuple[list[float], dict[str, list[float]]]:
    """Run the workload's set-up ``setup_repeats`` times, each in a fresh
    interpreter; returns the set-up times and the probes' figures."""
    import shutil

    times: list[float] = []
    figures: dict[str, list[float]] = defaultdict(list)
    for i in range(cls.setup_repeats):
        own = cls.setup_fills_store and i == cls.setup_repeats - 1
        probe_ctx = RunContext(ctx.workload, ctx.seed, ctx.seconds, ctx.jobs,
                               root=ctx.dir if own else ctx.dir / f"setup-{i}")
        if not own:
            probe_ctx.create()
        cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"),
               ctx.workload, str(ctx.seed), str(probe_ctx.dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=probe_ctx.env(), cwd=ROOT)
        ready = None
        lines = []
        for line in proc.stdout:
            lines.append(line)
            word, _, rest = line.strip().partition(" ")
            if word == "READY":
                ready = time.perf_counter() - t0
                break
            if word == "IMPORT":
                figures["proc.import_ms"].append(float(rest))
            elif word == "METRIC":
                key, value = rest.split()
                figures[key].append(float(value))
        lines.append(proc.stdout.read())
        proc.stdout.close()
        if proc.wait(timeout=300) != 0 or ready is None:
            raise SetupFailed(f"set-up probe {i} failed (exit {proc.returncode}): "
                              f"{''.join(lines)[-500:]}")
        times.append(ready)
        if not own:
            shutil.rmtree(probe_ctx.dir, ignore_errors=True)
    return times, figures


def end_to_end(setup_times, phase) -> dict[str, float]:
    ok = [op for op in phase.ledger.ops if op.ok] or phase.ledger.ops
    return {
        "setup_s": median(setup_times),
        "ops_per_s": sum(1 for op in phase.ledger.ops if op.ok) / phase.wall_s,
        "op_p50_ms": median(op.latency_ms for op in ok),
        "cpu_ms_per_op": phase.cpu_s * 1e3 / phase.ledger.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def run(ctx: RunContext, trace: bool) -> tuple[dict, dict]:
    """One run; returns ``(result, host fingerprint)``."""
    from perfbench import host, layers
    from perfbench.workloads import load, run_phase

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SetupFailed(f"repro imported from {repro.__file__}, not {SRC}")
    fingerprint = host.fingerprint()
    cls = load(ctx.workload)
    setup_times, figures = probe_setups(ctx, cls)
    workload = cls(ctx)
    try:
        workload.prepare()
        phase = run_phase(workload, ctx.seconds)
        workload.verify(phase.ledger)
        if trace:
            probes = {key: median(values) for key, values in figures.items()}
            path = WORK / "traces" / f"{ctx.workload}-s{ctx.seed}.json"
            values = workload.traced(phase, path, probes)
            units = layers.PER_LAYER
    finally:
        workload.teardown()
        reap_children()
    if not trace:
        values = end_to_end(setup_times, phase)
        units = END_TO_END
    ledger = phase.ledger
    for line in ledger.failures() + ledger.problems:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, fingerprint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the toolkit sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ctx = RunContext(args.workload, args.seed, args.seconds, cpu_budget()).create()
    ctx.apply()
    become_subreaper()
    try:
        result, fingerprint = run(ctx, bool(args.trace))
    except Exception:  # report the failure; print no result
        traceback.print_exc()
        reap_children()
        return 1
    finally:
        ctx.remove()
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
