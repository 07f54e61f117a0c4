"""Per-layer spans recorded from the benchmark's side of each call.

:class:`Instrument` wraps the public entry points of every layer the
workloads drive -- frontend, IR passes, backend, simulators, FPGA
model, artifact store, pipeline, fuzz and corpus -- with a span, and
restores them on exit.  Nothing inside the program is changed.  The
spans go to whichever :mod:`repro.obs` tracer is active: the
instrument's own in this process, or the per-task tracer a traced
:func:`repro.pipeline.sweep` installs in each pool worker (the wrappers
are inherited by the forked workers).  The program's own spans and
counters land on the same tracers; metrics use only the spans named
here (``LAYER_SPANS``), the program's are kept for trace viewers.

Self time of a span is its duration minus that of its direct layer
children; a timeline's coverage is the share of its root span that
layer spans account for.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name) of every wrapped entry point
ENTRY_POINTS = (
    ("repro.frontend", "compile_source", "frontend.compile"),
    ("repro.ir.passes", "optimize_module", "ir.passes"),
    ("repro.backend", "compile_for_machine", "backend.compile"),
    ("repro.sim", "run_compiled", None),  # sim.<mode>, see _sim_wrapper
    ("repro.sim", "run_batch", "sim.batch"),
    ("repro.sim.native", "build_native_program", "sim.cgen"),
    ("repro.fpga", "synthesize", "fpga.synth"),
    ("repro.machine", "encode_machine", "fpga.synth"),
    ("repro.pipeline", "sweep", "pipeline.sweep"),
    ("repro.fuzz", "run_fuzz", "fuzz.campaign"),
    ("repro.fuzz", "reference_run", "ir.oracle"),
    ("repro.fuzz.harness", "generate_kernel", "fuzz.gen"),
    ("repro.fuzz.harness", "reference_run", "ir.oracle"),
    ("repro.fuzz.harness", "execute_fuzz_task", "fuzz.case"),
    ("repro.corpus", "replay_entries", "corpus.replay"),
    ("repro.corpus", "load_golden", "corpus.golden"),
    ("repro.corpus.replay", "diff_runs", "corpus.golden"),
    ("repro.corpus.replay", "execute_fuzz_task", "fuzz.case"),
)

_STORE_GETS = ("load_result", "load_json", "load_blob", "load_program")
_STORE_PUTS = ("store_result", "store_json", "store_blob", "store_program")

SIM_MODES = ("checked", "fast", "turbo", "batch", "scalar")

#: span names recorded by the benchmark (``bench.*`` roots included)
LAYER_SPANS = frozenset(
    {name for _module, _attr, name in ENTRY_POINTS if name}
    | {f"sim.{mode}" for mode in SIM_MODES + ("native", "native_warm")}
    | {"pipeline.store_get", "pipeline.store_put", "pipeline.blob_put",
       "corpus.case", "serve.cold", "serve.hit"}
)


def is_layer_span(name: str) -> bool:
    return name in LAYER_SPANS or name.startswith("bench.")


#: per-layer metrics of a traced run: name -> unit (BENCHMARK.json order)
PER_LAYER = {
    "proc.import_ms": "ms",
    "frontend.compile_ms": "ms",
    "ir.optimize_ms": "ms",
    "backend.compile_ms": "ms",
    "backend.instructions": "count",
    "ir.oracle_ms": "ms",
    "fuzz.gen_ms": "ms",
    "fuzz.case_ms": "ms",
    "sim.fast_ms": "ms",
    "sim.scalar_ms": "ms",
    "sim.fast_mcps": "Mcycles/s",
    "sim.scalar_mcps": "Mcycles/s",
    "sim.checked_ms": "ms",
    "sim.turbo_ms": "ms",
    "sim.batch_ms": "ms",
    "sim.checked_mcps": "Mcycles/s",
    "sim.turbo_mcps": "Mcycles/s",
    "sim.batch_mcps": "Mcycles/s",
    "sim.cgen_ms": "ms",
    "sim.native_build_ms": "ms",
    "sim.native_builds_per_exec": "builds/exec",
    "sim.native_warm_ms": "ms",
    "sim.native_mcps": "Mcycles/s",
    "sim.cycles": "count",
    "fpga.synth_ms": "ms",
    "pipeline.store_hits": "count",
    "pipeline.store_misses": "count",
    "pipeline.store_writes": "count",
    "pipeline.blob_writes": "count",
    "pipeline.store_get_ms": "ms",
    "pipeline.store_put_ms": "ms",
    "pipeline.overhead_ms": "ms",
    "corpus.case_ms": "ms",
    "corpus.golden_ms": "ms",
    "serve.cold_ms": "ms",
    "serve.hit_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.first_request_ms": "ms",
    "serve.executed": "count",
    "serve.cache_hits": "count",
    "serve.coalesced": "count",
    "obs.trace_overhead_pct": "%",
    "obs.span_coverage_pct": "%",
}


class Instrument:
    """Context manager: wrap the layer entry points, trace, restore."""

    def __init__(self, process: str):
        from repro import obs

        self.tracer = obs.Tracer(process=process)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Instrument":
        from repro import obs
        from repro.pipeline.store import ArtifactStore

        for module_name, attr, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            fn = getattr(owner, attr)
            self._patch(owner, attr, _sim_wrapper(fn) if name is None
                        else _span_wrapper(fn, name))
        for attr in _STORE_GETS:
            self._patch(ArtifactStore, attr, _store_wrapper(
                getattr(ArtifactStore, attr), "pipeline.store_get", True))
        for attr in _STORE_PUTS:
            name = "pipeline.blob_put" if attr == "store_blob" else "pipeline.store_put"
            self._patch(ArtifactStore, attr, _store_wrapper(
                getattr(ArtifactStore, attr), name, False))
        self._ambient = obs.disable()
        obs.enable(self.tracer)
        return self

    def __exit__(self, *exc) -> None:
        from repro import obs

        obs.disable()
        if self._ambient is not None:
            obs.enable(self._ambient)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _span_wrapper(fn, name: str):
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name) as sp:
            result = fn(*args, **kwargs)
            if sp is not obs.NOOP_SPAN:
                _annotate(sp, name, result)
        return result

    return wrapper


def _annotate(sp, name: str, result) -> None:
    if name == "backend.compile":
        sp.attrs["instructions"] = result.instruction_count
    elif name == "sim.batch":
        sp.attrs["cycles"] = sum(getattr(r, "cycles", 0) for r in result)


def _sim_wrapper(fn):
    from repro import obs

    @functools.wraps(fn)
    def run_compiled(compiled, *args, **kwargs):
        from repro.machine.machine import MachineStyle

        mode = kwargs.get("mode", args[2] if len(args) > 2 else "fast")
        if compiled.machine.style is MachineStyle.SCALAR:
            mode = "scalar"
        with obs.span(f"sim.{mode}") as sp:
            result = fn(compiled, *args, **kwargs)
            if sp is obs.NOOP_SPAN:
                return result
            sp.attrs["cycles"] = result.cycles
        if mode == "native":
            # the program's engine is now built and cached: a second
            # call measures the warm execution alone
            with obs.span("sim.native_warm") as warm:
                warm.attrs["cycles"] = fn(compiled, *args, **kwargs).cycles
        return result

    return run_compiled


def _store_wrapper(fn, name: str, getter: bool):
    from repro import obs

    @functools.wraps(fn)
    def wrapper(store, *args, **kwargs):
        with obs.span(name) as sp:
            result = fn(store, *args, **kwargs)
            if getter and sp is not obs.NOOP_SPAN:
                sp.attrs["hit"] = result is not None
        return result

    return wrapper


# ---------------------------------------------------------------------------
# self time and coverage
# ---------------------------------------------------------------------------


def self_times(spans: list[dict], root: str = "") -> list[dict]:
    """Layer spans (and *root* spans) of one timeline annotated with
    ``self`` (µs) and ``nested`` (whether an enclosing span has the same
    name).

    Spans of one timeline (one thread) are properly nested; their order
    in *spans* does not matter.  Other spans are left out, so a layer's
    self time includes the program's own sub-spans.
    """
    ordered = sorted((s for s in spans
                      if s["name"] == root or is_layer_span(s["name"])),
                     key=lambda s: (s["ts"], -s["dur"]))
    out: list[dict] = []
    stack: list[dict] = []
    for rec in ordered:
        while stack and rec["ts"] >= stack[-1]["_end"] - 1e-6:
            stack.pop()
        node = dict(rec, _end=rec["ts"] + rec["dur"], self=rec["dur"],
                    nested=any(s["name"] == rec["name"] for s in stack))
        if stack:
            stack[-1]["self"] -= rec["dur"]
        stack.append(node)
        out.append(node)
    for node in out:
        node["self"] = max(0.0, node["self"])
        del node["_end"]
    return out


def coverage(timelines: list[list[dict]], root: str) -> float:
    """Percentage of the *root* spans' time that layer spans under them
    account for, over all *timelines*."""
    covered = wall = 0.0
    for spans in timelines:
        for node in self_times(spans, root):
            if node["name"] == root and not node["nested"]:
                wall += node["dur"]
                covered += node["dur"] - node["self"]
    return 100.0 * covered / wall if wall else 0.0


def layer_metrics(timelines: list[list[dict]], counters: dict) -> dict[str, float]:
    """Per-layer metrics over traced *timelines* (see ``PER_LAYER``)."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for spans in timelines:
        for node in self_times(spans):
            by_name[node["name"]].append(node)

    def per_call_ms(name: str) -> float:
        group = by_name.get(name, [])
        calls = sum(1 for n in group if not n["nested"])
        return sum(n["self"] for n in group) / 1e3 / calls if calls else 0.0

    def cycles(name: str) -> int:
        return sum(n.get("args", {}).get("cycles", 0) for n in by_name.get(name, []))

    def mcps(name: str, time_key: str = "self") -> float:
        seconds = sum(n[time_key] for n in by_name.get(name, [])) / 1e6
        return cycles(name) / seconds / 1e6 if seconds else 0.0

    out = {
        "frontend.compile_ms": per_call_ms("frontend.compile"),
        "ir.optimize_ms": per_call_ms("ir.passes"),
        "backend.compile_ms": per_call_ms("backend.compile"),
        "ir.oracle_ms": per_call_ms("ir.oracle"),
        "fuzz.gen_ms": per_call_ms("fuzz.gen"),
        "fuzz.case_ms": per_call_ms("fuzz.case"),
        "sim.cgen_ms": per_call_ms("sim.cgen"),
        "fpga.synth_ms": per_call_ms("fpga.synth"),
        "pipeline.store_get_ms": per_call_ms("pipeline.store_get"),
        "pipeline.store_put_ms": per_call_ms("pipeline.store_put"),
    }
    compiled = by_name.get("backend.compile", [])
    out["backend.instructions"] = (
        sum(n["args"]["instructions"] for n in compiled) / len(compiled)
        if compiled else 0.0
    )
    sim_calls = 0
    for mode in SIM_MODES:
        out[f"sim.{mode}_ms"] = per_call_ms(f"sim.{mode}")
        out[f"sim.{mode}_mcps"] = mcps(f"sim.{mode}")
        sim_calls += len(by_name.get(f"sim.{mode}", []))
    first = by_name.get("sim.native", [])
    warm = by_name.get("sim.native_warm", [])
    if first and warm:
        out["sim.native_warm_ms"] = sum(n["dur"] for n in warm) / 1e3 / len(warm)
        out["sim.native_mcps"] = mcps("sim.native_warm", "dur")
        out["sim.native_build_ms"] = (
            sum(n["dur"] for n in first) / 1e3 / len(first) - out["sim.native_warm_ms"])
        out["sim.native_builds_per_exec"] = (
            counters.get("sim.native.so_compiled", 0) / len(first))
    sim_calls += len(first)
    total_cycles = sum(cycles(f"sim.{mode}") for mode in SIM_MODES + ("native",))
    out["sim.cycles"] = total_cycles / sim_calls if sim_calls else 0.0
    gets = by_name.get("pipeline.store_get", [])
    out["pipeline.store_hits"] = sum(1 for n in gets if n["args"]["hit"])
    out["pipeline.store_misses"] = sum(1 for n in gets if not n["args"]["hit"])
    out["pipeline.store_writes"] = len(by_name.get("pipeline.store_put", []))
    out["pipeline.blob_writes"] = len(by_name.get("pipeline.blob_put", []))
    cases = by_name.get("corpus.case", [])
    if cases:
        out["corpus.case_ms"] = sum(n["dur"] for n in cases) / 1e3 / len(cases)
        out["corpus.golden_ms"] = (
            sum(n["self"] for n in by_name["corpus.golden"]) / 1e3 / len(cases))
    return out


def finish(payloads: list[dict], path: Path, metrics: dict) -> dict:
    """Write the Chrome trace and return every per-layer metric, with
    zeros for layers the workload did not exercise."""
    from repro.obs import to_chrome_trace, write_trace

    path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(path, to_chrome_trace(payloads))
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
