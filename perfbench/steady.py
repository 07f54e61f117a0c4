"""Steadiness report: run one workload N times and judge the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload corpus_replay --runs 10 [--sets 2]

Each run is ``perfbench/run.py`` with its own seed (set *k*, run *i*
gets seed ``--seed + k * runs + i``) and the run length from
``BENCHMARK.json``.  For every end-to-end metric the report prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
inter-quartile spread as a share of the median, against the metric's
bound: a spread under a third of the bound is ``steady``, under the
bound ``wide``, above it ``UNSTEADY`` (``setup_s`` is reported but not
judged, since a later change is held to its median only).  With
``--sets 2`` it also checks that the second set's median is not worse
than the first's by more than the bound, and that both sets fail the
same share of operations.  Runs whose host fingerprints differ are not
compared at all.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import quartiles, spread, worse_by  # noqa: E402
from perfbench.host import mismatches  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    if proc.returncode not in (0, 1) or not lines or host is None:
        raise RuntimeError(f"run failed (exit {proc.returncode}): {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    result["host"] = host
    result["seed"] = seed
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def judge(name: str, values: list[float], spec: dict) -> tuple[str, bool]:
    q1, q2, q3 = quartiles(values)
    width = spread(values)
    bound = spec["bound"]
    if name == "setup_s":
        verdict, ok = "not judged", True
    elif width <= bound / 3:
        verdict, ok = "steady", True
    elif width <= bound:
        verdict, ok = "wide", True
    else:
        verdict, ok = "UNSTEADY", False
    line = (f"  {name:16s} {spec['unit']:>5s}  median {q2:12.5g}  q1 {q1:12.5g}  "
            f"q3 {q3:12.5g}  spread {width:7.2%}  bound {bound:5.0%}  {verdict}")
    return line, ok


def report(workload: str, sets: list[list[dict]], specs: list[dict]) -> bool:
    ok = True
    for k, results in enumerate(sets, 1):
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload} set {k}: {len(results)} runs, seeds "
              f"{results[0]['seed']}..{results[-1]['seed']}, attempted "
              f"{[r['attempted'] for r in results]}, failed share {sorted(shares)}, "
              f"run time {max(r['elapsed_s'] for r in results):.1f}s max")
        if len(shares) != 1:
            print("  failed share differs between runs")
            ok = False
        if not all(r["correct"] for r in results):
            print("  a run reported correct=false")
            ok = False
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            line, good = judge(spec["name"], values, spec)
            print(line)
            ok &= good
    if len(sets) == 2:
        print(f"{workload}: second set against the first")
        shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
        if shares[0] != shares[1]:
            print(f"  failed share differs: {shares[0]} vs {shares[1]}")
            ok = False
        for spec in specs:
            medians = [quartiles([r["metrics"][spec["name"]]["value"] for r in results])[1]
                       for results in sets]
            worse = worse_by(medians[0], medians[1], spec["better"])
            good = worse <= spec["bound"]
            print(f"  {spec['name']:16s} {medians[0]:12.5g} -> {medians[1]:12.5g}  "
                  f"worse by {worse:7.2%}  {'ok' if good else 'REGRESSED'}")
            ok &= good
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    sets: list[list[dict]] = []
    for k in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.seed + k * args.runs + i
            result = run_once(args.workload, seed, bench["run_seconds"])
            print(f"  run seed {seed}: {result['elapsed_s']:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
            results.append(result)
        sets.append(results)
    differ = mismatches([r["host"] for results in sets for r in results])
    if differ:
        print(f"refusing to compare: host fingerprints differ in {', '.join(differ)}")
        return 3
    print("host " + json.dumps(sets[0][0]["host"], sort_keys=True))
    return 0 if report(args.workload, sets, bench["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main())
