"""``serve_mixed``: a ``repro serve`` process under a closed client loop.

Set-up starts ``repro serve`` (through :mod:`perfbench.serve_main`,
which keeps the job fork server's socket path short) on an empty
store, in the run directory, waits for
``/healthz`` and sends one warm-up ``/v1/run`` (the first request starts
the job fork server).  The timed loop is one client that sends
``/v1/run`` requests and waits for every reply before the next (a closed
loop: the service's callers are scripts that wait).  One client, not
one per CPU: the server routes a job to a shard by its content key, so
two clients' jobs land on the same shard about half the time and queue
behind each other while the other shard idles; the median latency then
sat between those two modes and moved 27 % with the request order.

Requests come in groups of ``GROUP``: ``GROUP - 1`` cold requests that
carry MiniC sources the server has not seen, then one repeat of the
group's first source, which the store must answer (``cached: true``).
The 4:1 mix keeps the median latency inside the cold mode.  A round
sends one pool of ``POOL_GROUPS`` groups.

Round *r*'s pool is the first generated kernels of generator seed
``POOL_SEED + r`` whose source has ``SOURCE_BAND`` characters; the run
seed shuffles the pool, which decides the order of the requests and
which sources are repeated.  Small kernels keep the per-request overhead
in view.  The pools are fixed, like the paper's matrix: the compute of
generated kernels spreads by half its median even within the band, and
a new pool per seed moved the throughput 14 % between seeds.
"""

from __future__ import annotations

import itertools
import random
import signal
import subprocess
import sys
import time
from contextlib import nullcontext

from perfbench.common import Ledger, median
from perfbench.workloads import Phase, Workload

MACHINE = "m-tta-2"
MODE = "fast"
GROUP = 5
#: groups per round (about 15 s of requests on the reference host)
POOL_GROUPS = 24
#: generator seed of round 0's pool (never the warm-up's)
POOL_SEED = 1000
#: length of the generated sources sent as cold requests
SOURCE_BAND = (1200, 1700)
#: generator seed of the fixed warm-up source
WARMUP_SEED = 0
#: seconds to wait for the server's banner
START_TIMEOUT = 60.0


def reference(source: str) -> dict:
    """The same job computed in this process, plus the IR interpreter."""
    from repro.backend import compile_for_machine
    from repro.fpga import synthesize
    from repro.frontend import compile_source
    from repro.fuzz import reference_run
    from repro.machine import build_machine, encode_machine
    from repro.pipeline import result_extras
    from repro.sim import run_compiled

    t0 = time.perf_counter()
    machine = build_machine(MACHINE)
    compiled = compile_for_machine(
        compile_source(source, module_name="request"), machine)
    result = run_compiled(compiled, mode=MODE)
    encode_machine(machine)
    synthesize(machine)
    compute_ms = (time.perf_counter() - t0) * 1e3
    return {
        "exit_code": result.exit_code,
        "cycles": result.cycles,
        "stats": result_extras(result),
        "oracle": reference_run(source),
        "compute_ms": compute_ms,
    }


class _Request:
    __slots__ = ("kind", "source", "response", "latency_ms", "error", "op")

    def __init__(self, kind, source, response, latency_ms, error):
        self.kind = kind
        self.source = source
        self.response = response
        self.latency_ms = latency_ms
        self.error = error
        self.op = None


class ServeMixed(Workload):
    name = "serve_mixed"
    modules = ("repro.serve",)
    setup_repeats = 4

    # -- the server -----------------------------------------------------------

    def setup(self, store_dir=None) -> None:
        from repro.fuzz import generate_kernel
        from repro.serve import ServeClient

        store_dir = store_dir or self.ctx.store_dir
        log_path = store_dir.parent / f"{store_dir.name}-server.log"
        self._log = open(log_path, "w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serve_main", "--port", "0",
             "--jobs", str(self.ctx.jobs), "--cache-dir", str(store_dir)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log, env=self.ctx.env(), cwd=self.ctx.dir)
        self.port = self._wait_banner(log_path)
        with ServeClient("127.0.0.1", self.port, timeout=120) as client:
            client.healthz()
            t0 = time.perf_counter()
            client.run(MACHINE, source=generate_kernel(WARMUP_SEED, 0).source,
                       mode=MODE)
            self.setup_metrics["serve.first_request_ms"] = (
                time.perf_counter() - t0) * 1e3

    def _wait_banner(self, log_path) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = log_path.read_text()
            if "serving on http://" in text:
                address = text.split("serving on http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"repro serve did not start: {log_path.read_text()[-500:]}")

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=10)
        if getattr(self, "_log", None) is not None:
            self._log.close()

    def stats(self) -> dict:
        from repro.serve import ServeClient

        with ServeClient("127.0.0.1", self.port, timeout=60) as client:
            return client.stats()

    # -- inputs and the closed loop -------------------------------------------

    def prepare(self) -> None:
        self.setup()
        self.requests: list[_Request] = []
        self._pools = [self._pool(0)]  # later rounds' pools are made on demand
        self._sent = 0
        self.stats_before = self.stats()

    def _pool(self, index: int) -> list[list[str]]:
        """Round *index*'s request groups (their cold sources)."""
        from repro.fuzz import generate_kernel

        lo, hi = SOURCE_BAND
        sources: list[str] = []
        for i in itertools.count():
            source = generate_kernel(POOL_SEED + index, i).source
            if lo <= len(source) <= hi:
                sources.append(source)
                if len(sources) == POOL_GROUPS * (GROUP - 1):
                    break
        random.Random(f"{self.ctx.seed}/{index}").shuffle(sources)
        return [sources[k:k + GROUP - 1] for k in range(0, len(sources), GROUP - 1)]

    def _loop(self, tracer=None) -> list[_Request]:
        """Send the next round's pool, waiting for each reply."""
        from repro.serve import ServeClient, ServeError

        if len(self._pools) <= self._sent:
            self._pools.append(self._pool(len(self._pools)))
        groups = self._pools[self._sent]
        self._sent += 1
        out: list[_Request] = []
        with ServeClient("127.0.0.1", self.port, timeout=120) as client:
            for group in groups:
                for kind, source in [("cold", s) for s in group] + [("hit", group[0])]:
                    with tracer.span(f"serve.{kind}") if tracer else nullcontext():
                        t0 = time.perf_counter()
                        try:
                            response = client.run(MACHINE, source=source, mode=MODE)
                            error = ""
                        except (ServeError, OSError, TimeoutError) as exc:
                            response, error = None, f"{type(exc).__name__}: {exc}"
                        out.append(_Request(kind, source, response,
                                            (time.perf_counter() - t0) * 1e3, error))
        return out

    def round(self, ledger: Ledger, deadline: float) -> None:
        for req in self._loop():
            req.op = ledger.add(f"{req.kind} request", req.latency_ms,
                                ok=not req.error, detail=req.error)
            self.requests.append(req)

    # -- checks -----------------------------------------------------------

    def _references(self, sources: list[str]) -> dict[str, dict]:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: this process runs no other thread, and a spawn context
        # would leave a resource-tracker process alive until it exits
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(self.ctx.jobs, mp_context=ctx) as pool:
            return dict(zip(sources, pool.map(reference, sources)))

    def verify(self, ledger: Ledger) -> None:
        self.stats_after = self.stats()
        cold = [r for r in self.requests if r.kind == "cold" and not r.error]
        refs = self._references(sorted({r.source for r in cold}))
        self.check(self.requests, refs, ledger)
        self.check_counts(self.stats_before, self.stats_after, self.requests, ledger)

    def check(self, requests: list[_Request], refs: dict, ledger: Ledger) -> None:
        """Every reply equals the in-process computation of its source;
        every repeat is a store hit with the cold reply's result."""
        first: dict[str, dict] = {}
        for req in requests:
            if req.error:
                continue
            result = req.response["result"]
            if req.kind == "cold":
                ref = refs[req.source]
                got = (result["exit_code"], result["cycles"], result["stats"])
                want = (ref["exit_code"], ref["cycles"], ref["stats"])
                if got != want or result["exit_code"] != ref["oracle"]:
                    ledger.fail(req.op, f"reply {got[:2]} != in-process {want[:2]} "
                                f"(IR interpreter {ref['oracle']})")
                if req.response.get("cached"):
                    ledger.problem("a cold request was served from the store")
                first[req.source] = result
            elif not req.response.get("cached") or first.get(req.source) != result:
                ledger.fail(req.op, "repeat request not served from the store "
                            "with the cold reply's result")

    def check_counts(self, before: dict, after: dict, requests, ledger: Ledger) -> None:
        delta = {key: after["dedup"][key] - before["dedup"][key]
                 for key in ("executed", "cache_hits", "coalesced")}
        ok = [r for r in requests if not r.error]
        want = {"executed": sum(1 for r in ok if r.kind == "cold"),
                "cache_hits": sum(1 for r in ok if r.kind == "hit"),
                "coalesced": 0}
        if delta != want:
            ledger.problem(f"server dedup counters {delta} != expected {want}")

    # -- traced run ---------------------------------------------------------

    def traced(self, base: Phase, trace_path, probes: dict) -> dict:
        from repro import obs

        from perfbench import layers

        # the same pools again, to a fresh server on an empty store
        self.teardown()
        self.setup(self.ctx.subdir("traced-store"))
        self._sent = 0
        before = self.stats()
        tracer = obs.Tracer(process="serve client")
        requests = []
        with tracer.span("bench.client"):
            for _ in range(base.rounds):
                requests += self._loop(tracer)
        after = self.stats()
        check = Ledger()
        for req in requests:
            req.op = check.add(req.kind, req.latency_ms, ok=not req.error,
                               detail=req.error)
        sources = sorted({r.source for r in requests if r.kind == "cold" and not r.error})
        with layers.Instrument(f"{self.name} in-process compute") as ins:
            refs = {source: reference(source) for source in sources}
        self.check(requests, refs, check)
        self.check_counts(before, after, requests, check)
        if check.failed or check.problems:
            raise RuntimeError(f"traced requests failed their checks: "
                               f"{(check.failures() + check.problems)[:3]}")

        payloads = [tracer.to_payload(), ins.tracer.to_payload()]
        metrics = layers.layer_metrics([ins.tracer.spans], ins.tracer.counters)
        metrics.update(probes)
        cold = [s["dur"] / 1e3 for s in tracer.spans if s["name"] == "serve.cold"]
        hits = [s["dur"] / 1e3 for s in tracer.spans if s["name"] == "serve.hit"]
        metrics["serve.cold_ms"] = median(cold)
        metrics["serve.hit_ms"] = median(hits) if hits else 0.0
        metrics["serve.compute_ms"] = median(r["compute_ms"] for r in refs.values())
        metrics["serve.overhead_ms"] = metrics["serve.cold_ms"] - metrics["serve.compute_ms"]
        for key in ("executed", "cache_hits", "coalesced"):
            metrics[f"serve.{key}"] = after["dedup"][key] - before["dedup"][key]
        if after.get("store") and before.get("store"):
            for key, name in (("hits", "store_hits"), ("misses", "store_misses"),
                              ("writes", "store_writes")):
                metrics[f"pipeline.{name}"] = after["store"][key] - before["store"][key]
        metrics["obs.trace_overhead_pct"] = 100.0 * (
            sum(r.latency_ms for r in requests)
            / sum(op.latency_ms for op in base.ledger.ops) - 1.0)
        metrics["obs.span_coverage_pct"] = layers.coverage([tracer.spans], "bench.client")
        return layers.finish(payloads, trace_path, metrics)
