"""``paper_sweep``: the paper's 13 design points x 8 kernels, cold.

One round is one :func:`repro.pipeline.sweep` of the whole matrix with
the default engine (``fast``) over a worker pool, into a store created
empty for the round.  An operation is one (machine, kernel) pair; its
latency is the worker time the sweep reports through its ``progress``
callback (``extras["_wall_ms"]``).

The matrix is the paper's and does not depend on the seed; the seed
picks which pairs are re-run on the ``checked`` reference engine.
"""

from __future__ import annotations

import random
import time

from perfbench.common import Ledger
from perfbench.workloads import Phase, Workload

#: pairs re-simulated on the checked engine per run
CHECKED_SAMPLE = 2


class _Round:
    def __init__(self, store, outcome, ops):
        self.store = store
        self.outcome = outcome
        self.ops = ops  # (machine, kernel) -> Op


class PaperSweep(Workload):
    name = "paper_sweep"
    modules = ("repro.pipeline",)
    #: the matrix (None = the paper's presets / kernels); tests shrink it
    machines = None
    kernels = None

    def setup(self) -> None:
        from repro.pipeline import ArtifactStore

        self.store = ArtifactStore(self.ctx.store_dir)

    def prepare(self) -> None:
        self.setup()
        self.rounds: list[_Round] = []

    def fresh_store(self, label: str = ""):
        from repro.pipeline import ArtifactStore

        return ArtifactStore(self.ctx.subdir(label or f"sweep-{len(self.rounds)}"))

    def _sweep(self, store, jobs: int, progress=None, trace: bool = False):
        from repro.pipeline import sweep

        return sweep(machines=self.machines, kernels=self.kernels, jobs=jobs,
                     store=store, progress=progress, trace=trace)

    def round(self, ledger: Ledger, deadline: float) -> None:
        from repro.pipeline import EvalResult

        store = self.fresh_store()
        ops = {}

        def progress(_done, _total, task, result) -> None:
            if isinstance(result, EvalResult):
                ops[task.pair] = ledger.add(
                    "/".join(task.pair), result.extras.get("_wall_ms", 0.0))
            else:
                ops[task.pair] = ledger.add(
                    "/".join(task.pair), 0.0, ok=False,
                    detail=f"{result.error_type}: {result.message}")

        outcome = self._sweep(store, self.ctx.jobs, progress)
        self.rounds.append(_Round(store, outcome, ops))

    # -- checks -----------------------------------------------------------

    def verify(self, ledger: Ledger) -> None:
        from repro.fuzz import reference_run
        from repro.kernels import expected_exit, load

        oracle: dict[str, int] = {}
        for rnd in self.rounds:
            self.check_cold(rnd, ledger)
            for pair, result in rnd.outcome.results.items():
                kernel = pair[1]
                if kernel not in oracle:
                    oracle[kernel] = reference_run(load(kernel))
                    if oracle[kernel] != expected_exit(kernel):
                        ledger.problem(
                            f"{kernel}: IR interpreter exit {oracle[kernel]} != "
                            f"published expected exit {expected_exit(kernel)}")
                if result.exit_code != oracle[kernel]:
                    ledger.fail(rnd.ops[pair], f"exit {result.exit_code} != "
                                f"IR interpreter {oracle[kernel]}")
        if self.rounds:
            self.check_sample(self.rounds[-1], ledger)

    def check_cold(self, rnd: _Round, ledger: Ledger) -> None:
        """A cold sweep computes every pair and writes one result each."""
        stats, counts = rnd.outcome.stats, rnd.store.entry_count()
        if stats.cache_hits or rnd.store.stats.hits:
            ledger.problem(f"cold sweep served {stats.cache_hits} pair(s) from "
                           f"the store ({rnd.store.root})")
        if counts["results"] != stats.total or counts["blobs"]:
            ledger.problem(f"cold sweep left {counts} in its store for "
                           f"{stats.total} pairs")

    def check_sample(self, rnd: _Round, ledger: Ledger) -> None:
        """Cycles and every counter of a seeded sample of pairs must equal
        the checked reference engine's."""
        from repro.backend import compile_for_machine
        from repro.frontend import compile_source
        from repro.kernels import load
        from repro.machine import build_machine
        from repro.pipeline import result_extras
        from repro.sim import run_compiled

        pairs = sorted(rnd.outcome.results)
        rng = random.Random(self.ctx.seed)
        for machine, kernel in rng.sample(pairs, min(CHECKED_SAMPLE, len(pairs))):
            got = rnd.outcome.results[(machine, kernel)]
            compiled = compile_for_machine(
                compile_source(load(kernel), module_name=kernel),
                build_machine(machine))
            ref = run_compiled(compiled, mode="checked")
            if (ref.cycles, result_extras(ref)) != (got.cycles, got.extras):
                ledger.fail(rnd.ops[(machine, kernel)],
                            f"cycles/counters differ from the checked engine: "
                            f"{got.cycles} != {ref.cycles}")

    # -- traced run ---------------------------------------------------------

    def traced(self, base: Phase, trace_path, probes: dict) -> dict:
        """The same cold sweep with every layer call spanned, in the same
        worker pool; each worker task is one timeline.  The baseline is
        one more untraced sweep right before it: the first sweep of a run
        also pays the workers' first imports, which later sweeps inherit."""
        from perfbench import layers

        t0 = time.perf_counter()
        self._sweep(self.fresh_store("untraced"), self.ctx.jobs)
        untraced_s = time.perf_counter() - t0
        with layers.Instrument(f"{self.name} parent") as ins:
            t0 = time.perf_counter()
            outcome = self._sweep(self.fresh_store("traced"), self.ctx.jobs, trace=True)
            traced_s = time.perf_counter() - t0
        if outcome.errors or len(outcome.traces) != outcome.stats.total:
            raise RuntimeError(f"traced sweep: {len(outcome.errors)} error(s), "
                               f"{len(outcome.traces)} task traces")
        tasks = [payload["spans"] for payload in outcome.traces]
        metrics = layers.layer_metrics([ins.tracer.spans] + tasks, {})
        metrics.update(probes)
        ops = [op for op in base.ledger.ops if op.ok]
        metrics["pipeline.overhead_ms"] = (
            base.wall_s * 1e3 * self.ctx.jobs / len(base.ledger.ops)
            - sum(op.latency_ms for op in ops) / len(ops)
        )
        metrics["obs.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        metrics["obs.span_coverage_pct"] = layers.coverage(tasks, "task.execute")
        payloads = [ins.tracer.to_payload()] + outcome.traces
        return layers.finish(payloads, trace_path, metrics)
