"""``fuzz_campaign``: generated kernels through every engine, cold.

An operation is one :func:`repro.fuzz.run_fuzz` campaign step: one
generated kernel, checked on a TTA and a VLIW design point with the
default engine set (checked, fast, turbo, native, batch), no
minimisation, over a worker pool, against a store that has never seen
it.  Each case pays one native build (``cc``) that is never reused.

Inputs: the run seed orders ``PANEL``, a fixed set of generator seeds
whose kernels cost alike; a run takes kernels from the front of that
order.  The native build time grows with the size of the generated C,
which varies threefold between generated kernels, so drawing kernels
freely would make one run's cost depend on its seed.  The panel was
chosen once (see ``README.md``); it names inputs only, so a change to
the toolkit cannot change which kernels a run gets.
"""

from __future__ import annotations

import random
import time

from perfbench.common import Ledger
from perfbench.workloads import Phase, Workload

MACHINES = ("m-tta-2", "m-vliw-2")
#: generator seeds (kernel index 0) of the kernels a run draws from: of
#: seeds 1..480, those whose generated C is 80-95 KB on both MACHINES and
#: whose campaign step took 5.6-6.1 s on the reference host
PANEL = (85, 97, 104, 178, 228, 329, 336, 341, 386, 422, 432, 468)


class _Step:
    def __init__(self, seed: int, source: str, op, report, cases, blobs: int):
        self.seed = seed
        self.source = source
        self.op = op
        self.report = report
        self.cases = cases  # FuzzCaseReport per machine
        self.blobs = blobs  # store blobs after the step


class FuzzCampaign(Workload):
    name = "fuzz_campaign"
    modules = ("repro.fuzz",)

    def setup(self) -> None:
        from repro.pipeline import ArtifactStore

        self.store = ArtifactStore(self.ctx.store_dir)

    def prepare(self) -> None:
        self.setup()
        self.steps: list[_Step] = []
        order = list(PANEL)
        random.Random(self.ctx.seed).shuffle(order)
        self._order = iter(order)

    def _campaign(self, seed: int, store, jobs: int, progress=None):
        from repro.fuzz import FuzzConfig, run_fuzz

        return run_fuzz(FuzzConfig(
            seed=seed, count=1, machines=MACHINES, jobs=jobs, minimize=False,
            store=store, progress=progress))

    def round(self, ledger: Ledger, deadline: float) -> None:
        from repro.fuzz import generate_kernel

        seed = next(self._order)
        source = generate_kernel(seed, 0).source
        cases = []
        t0 = time.perf_counter()
        report = self._campaign(seed, self.store, self.ctx.jobs,
                                lambda _d, _t, _case, outcome: cases.append(outcome))
        latency = (time.perf_counter() - t0) * 1e3
        op = ledger.add(f"kernel seed {seed}", latency)
        self.steps.append(_Step(seed, source, op, report, cases,
                                self.store.entry_count()["blobs"]))

    # -- checks -----------------------------------------------------------

    def verify(self, ledger: Ledger) -> None:
        from repro.fuzz import reference_run

        blobs = 0
        for step in self.steps:
            self.check_step(step, reference_run(step.source), blobs, ledger)
            blobs = step.blobs

    def check_step(self, step: _Step, oracle: int, blobs_before: int,
                   ledger: Ledger) -> None:
        report = step.report
        if not report.ok or report.cases_ok != len(MACHINES):
            detail = "; ".join(d.summary() for d in report.divergences[:2]) or \
                "; ".join(f"{e.error_type}: {e.message}" for e in report.errors[:2])
            ledger.fail(step.op, f"campaign not clean: {detail}")
            return
        if report.cases_cached:
            ledger.problem(f"cold campaign served {report.cases_cached} verdict(s) "
                           f"from the store")
        for case in step.cases:
            for mode, record in case.runs.items():
                if record["exit_code"] != oracle:
                    ledger.fail(step.op, f"{case.machine}/{mode}: exit "
                                f"{record['exit_code']} != IR interpreter {oracle}")
                    return
        if step.blobs - blobs_before != len(MACHINES):
            # one shared object per native program, or native fell back
            ledger.fail(step.op, f"{step.blobs - blobs_before} native build(s) "
                        f"stored for {len(MACHINES)} programs: the native "
                        f"engine degraded")

    # -- traced run ---------------------------------------------------------

    def _cold_serial(self, seed: int, label: str):
        """One campaign step in this process with a cold native tier."""
        import os

        from repro.pipeline import ArtifactStore
        from repro.sim import native

        store_dir = self.ctx.subdir(label)
        os.environ["REPRO_CACHE_DIR"] = str(store_dir)
        native._LIB_CACHE.clear()  # so no shared object is reused in-process
        try:
            t0 = time.perf_counter()
            self._campaign(seed, ArtifactStore(store_dir), jobs=1)
            return (time.perf_counter() - t0) * 1e3
        finally:
            os.environ["REPRO_CACHE_DIR"] = str(self.ctx.store_dir)

    def traced(self, base: Phase, trace_path, probes: dict) -> dict:
        """The first kernel again, cold and in this process: once untraced
        as the baseline, once with every layer call spanned."""
        from perfbench import layers

        first = self.steps[0]
        serial_ms = self._cold_serial(first.seed, "serial-untraced")
        with layers.Instrument(self.name) as ins:
            with ins.tracer.span("bench.fuzz_campaign"):
                traced_ms = self._cold_serial(first.seed, "serial-traced")
        timelines = [ins.tracer.spans]
        metrics = layers.layer_metrics(timelines, ins.tracer.counters)
        metrics.update(probes)
        cases = len(MACHINES)
        metrics["pipeline.overhead_ms"] = (
            first.op.latency_ms * min(self.ctx.jobs, cases) - serial_ms) / cases
        metrics["obs.trace_overhead_pct"] = 100.0 * (traced_ms / serial_ms - 1.0)
        metrics["obs.span_coverage_pct"] = layers.coverage(timelines, "bench.fuzz_campaign")
        return layers.finish([ins.tracer.to_payload()], trace_path, metrics)
