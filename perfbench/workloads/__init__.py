"""The benchmark's workloads: one class per real workflow.

A workload is driven in four steps.  :meth:`Workload.setup` is the
set-up a user pays before the first operation; it runs in a fresh
interpreter several times per run to measure ``setup_s``.
:meth:`Workload.prepare` repeats it in the measuring process and makes
the seeded inputs.  :meth:`Workload.round` performs one whole round of
operations inside the timed region.  :meth:`Workload.verify` then checks
every output against a reference computed apart from the code under
test, and the cache state against what a cold (or warm) run must show.

Workload modules import :mod:`repro` only inside methods, so a set-up
probe can time the toolkit's import on its own.
"""

from __future__ import annotations

import importlib

from perfbench.common import Ledger, RunContext

NAMES = {
    "paper_sweep": "PaperSweep",
    "fuzz_campaign": "FuzzCampaign",
    "corpus_replay": "CorpusReplay",
    "serve_mixed": "ServeMixed",
}


def load(name: str) -> type["Workload"]:
    if name not in NAMES:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    module = importlib.import_module(f"perfbench.workloads.{name}")
    return getattr(module, NAMES[name])


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    #: modules a user of this workflow imports (timed as ``proc.import_ms``)
    modules: tuple[str, ...] = ()
    #: set-up repetitions per run (each in a fresh interpreter)
    setup_repeats = 9
    #: whether set-up fills the store the timed operations then use
    setup_fills_store = False

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        #: workload-specific set-up figures, reported by set-up probes
        self.setup_metrics: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        self.setup()

    def round(self, ledger: Ledger, deadline: float) -> None:
        raise NotImplementedError

    def verify(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def traced(self, base: "Phase", trace_path, probes: dict) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class Phase:
    """The untraced timed region of a run: its ledger, wall, CPU, rounds."""

    def __init__(self, ledger: Ledger, wall_s: float, cpu_s: float, rounds: int):
        self.ledger = ledger
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rounds = rounds


def run_phase(workload: Workload, seconds: float) -> Phase:
    """Whole rounds of *workload* until at least *seconds* have passed."""
    import time

    from perfbench.common import Timer

    ledger = Ledger()
    rounds = 0
    with Timer() as timer:
        deadline = time.perf_counter() + seconds
        while True:
            workload.round(ledger, deadline)
            rounds += 1
            if time.perf_counter() >= deadline:
                break
    return Phase(ledger, timer.wall_s, timer.cpu_s, rounds)
