"""``corpus_replay``: pinned corpus cases re-run on a warm store.

Set-up replays ``CASES`` -- a fixed subset of the pinned corpus -- once
into an empty store with :func:`repro.corpus.replay_entries`, so the
store holds one native shared object per case.  An operation then
re-reads one case's golden from disk and replays that (kernel, machine)
case with all five engines in this process, diffing every engine's
record against the golden.  A round replays every case once, in an
order drawn from the seed.
"""

from __future__ import annotations

import dataclasses
import random
import time

from perfbench.common import Ledger
from perfbench.workloads import Phase, Workload

#: (corpus entry, design point): two regression sentinels and a promoted
#: kernel on three design points, chosen for cold builds of a few seconds
#: (set-up runs three times per run) and for warm latencies far apart
#: (about 15, 60 and 105 ms), so the median is the middle case's own.
CASES = (
    ("sentinel-shift-edges-m-vliw-2", "m-vliw-2"),
    ("sentinel-narrow-store-m-tta-1", "m-tta-1"),
    ("stress-2024-022", "m-vliw-2"),
)


class CorpusReplay(Workload):
    name = "corpus_replay"
    modules = ("repro.corpus",)
    setup_repeats = 3
    setup_fills_store = True

    def _entries(self) -> list:
        """The CASES entries, each narrowed to its one design point."""
        from repro.corpus import discover_entries

        found = {entry.name: entry for entry in discover_entries()}
        entries = []
        for name, machine in CASES:
            entry = found[name]
            if not entry.ok:
                raise RuntimeError(f"corpus entry {name}: {entry.error}")
            golden = dict(entry.golden, machines={machine: entry.golden["machines"][machine]})
            entries.append(dataclasses.replace(entry, golden=golden))
        return entries

    def setup(self) -> None:
        from repro.corpus import replay_entries

        report = replay_entries(self._entries(), jobs=self.ctx.jobs)
        if not report.ok or report.cases != len(CASES):
            raise RuntimeError(f"corpus pre-fill failed: {report.to_dict()}")

    def prepare(self) -> None:
        # set-up already ran in the last set-up probe, into this run's store
        from repro.pipeline import default_store

        self.entries = self._entries()
        self.store = default_store()
        self.blobs_after_setup = self.store.entry_count()["blobs"]
        self.rng = random.Random(self.ctx.seed)
        self.ops: list[tuple[object, object]] = []  # (op, ReplayReport)

    def replay_one(self, entry):
        from repro.corpus import load_golden, replay_entries

        pinned = load_golden(entry.golden_path)
        machine = next(iter(entry.golden["machines"]))
        golden = dict(pinned, machines={machine: pinned["machines"][machine]})
        return replay_entries([dataclasses.replace(entry, golden=golden)], jobs=1)

    def round(self, ledger: Ledger, deadline: float) -> None:
        order = list(self.entries)
        self.rng.shuffle(order)
        for entry in order:
            t0 = time.perf_counter()
            report = self.replay_one(entry)
            op = ledger.add(entry.name, (time.perf_counter() - t0) * 1e3)
            self.ops.append((op, report))

    # -- checks -----------------------------------------------------------

    def verify(self, ledger: Ledger) -> None:
        from repro.fuzz import reference_run

        for entry in self.entries:
            oracle = reference_run(entry.source)
            if oracle != entry.golden["expected_exit"]:
                ledger.problem(f"{entry.name}: golden exit "
                               f"{entry.golden['expected_exit']} != IR "
                               f"interpreter {oracle}")
        for op, report in self.ops:
            if not report.ok or report.cases != 1:
                ledger.fail(op, "; ".join((report.drift + report.broken)[:2])
                            or "case not replayed")
        if self.blobs_after_setup != len(CASES):
            # no shared object per program: native ran as turbo
            for op, _report in self.ops:
                ledger.fail(op, f"{self.blobs_after_setup} native build(s) "
                            f"stored for {len(CASES)} programs: the native "
                            f"engine degraded")
        new = self.store.entry_count()["blobs"] - self.blobs_after_setup
        if new:
            ledger.problem(f"warm replay built {new} new native object(s)")

    # -- traced run ---------------------------------------------------------

    def traced(self, base: Phase, trace_path, probes: dict) -> dict:
        """The untraced phase's operations again, in the same order, with
        every layer call spanned."""
        from perfbench import layers

        by_name = {entry.name: entry for entry in self.entries}
        with layers.Instrument(self.name) as ins:
            with ins.tracer.span("bench.corpus_replay"):
                t0 = time.perf_counter()
                for op in base.ledger.ops:
                    with ins.tracer.span("corpus.case"):
                        self.replay_one(by_name[op.name])
                traced_ms = (time.perf_counter() - t0) * 1e3
        timelines = [ins.tracer.spans]
        metrics = layers.layer_metrics(timelines, ins.tracer.counters)
        metrics.update(probes)
        metrics["obs.trace_overhead_pct"] = 100.0 * (
            traced_ms / sum(op.latency_ms for op in base.ledger.ops) - 1.0)
        metrics["obs.span_coverage_pct"] = layers.coverage(timelines, "bench.corpus_replay")
        return layers.finish([ins.tracer.to_payload()], trace_path, metrics)
