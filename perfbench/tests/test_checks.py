"""The workloads' output and cache-state checks catch what they must.

Each test drives a shrunken workload (one design point, one kernel) or
feeds a check a hand-made outcome, so the suite takes seconds.
"""

from dataclasses import replace

from perfbench.common import Ledger
from perfbench.workloads.fuzz_campaign import MACHINES, FuzzCampaign, _Step
from perfbench.workloads.paper_sweep import PaperSweep
from perfbench.workloads.serve_mixed import ServeMixed, _Request


class TinySweep(PaperSweep):
    machines = ("m-tta-2",)
    kernels = ("mips",)


def _one_round(ctx):
    workload = TinySweep(ctx)
    workload.prepare()
    ledger = Ledger()
    workload.round(ledger, deadline=0.0)
    return workload, ledger


def test_cold_sweep_passes_its_checks(run_ctx):
    workload, ledger = _one_round(run_ctx)
    workload.verify(ledger)
    assert (ledger.attempted, ledger.failed, ledger.problems) == (1, 0, [])
    assert ledger.ops[0].latency_ms > 0


def test_injected_wrong_exit_code_is_a_failed_operation(run_ctx):
    workload, ledger = _one_round(run_ctx)
    results = workload.rounds[0].outcome.results
    pair = ("m-tta-2", "mips")
    results[pair] = replace(results[pair], exit_code=results[pair].exit_code + 1)
    workload.verify(ledger)
    assert ledger.failed == 1
    assert "exit" in ledger.ops[0].detail
    assert ledger.problems == []  # the run stays correct about the rest


def test_prewarmed_store_fails_the_cold_check(run_ctx):
    from repro.pipeline import ArtifactStore, sweep

    # fill the store the first round will use before the round runs
    sweep(machines=TinySweep.machines, kernels=TinySweep.kernels,
          store=ArtifactStore(run_ctx.subdir("sweep-0")))
    workload, ledger = _one_round(run_ctx)
    workload.verify(ledger)
    assert any("served 1 pair(s) from the store" in p for p in ledger.problems)


def _fuzz_step(ledger, exit_code=3, blobs=2):
    from repro.fuzz import FuzzCaseReport, FuzzReport

    cases = [FuzzCaseReport(machine=m, kernel="k", expected_exit=3,
                            runs={"fast": {"exit_code": exit_code}})
             for m in MACHINES]
    report = FuzzReport(seed=1, count=1, cases_total=2, cases_ok=2)
    return _Step(1, "int main() { return 3; }", ledger.add("k", 1.0), report,
                 cases, blobs)


def test_fuzz_checks(run_ctx):
    workload = FuzzCampaign(run_ctx)
    good, wrong, degraded = Ledger(), Ledger(), Ledger()
    workload.check_step(_fuzz_step(good), 3, 0, good)
    workload.check_step(_fuzz_step(wrong, exit_code=4), 3, 0, wrong)
    # no shared object stored for a native program: native fell back
    workload.check_step(_fuzz_step(degraded, blobs=1), 3, 0, degraded)
    assert (good.failed, wrong.failed, degraded.failed) == (0, 1, 1)
    assert "degraded" in degraded.ops[0].detail


def test_serve_checks(run_ctx):
    workload = ServeMixed(run_ctx)
    ref = {"exit_code": 5, "cycles": 90, "stats": {"moves": 7}, "oracle": 5}
    reply = {"result": {"exit_code": 5, "cycles": 90, "stats": {"moves": 7}},
             "cached": False}
    ledger = Ledger()
    requests = [
        _Request("cold", "a", reply, 1.0, ""),
        _Request("cold", "b", {**reply, "result": {**reply["result"], "exit_code": 6}},
                 1.0, ""),
        _Request("hit", "a", {**reply, "cached": True}, 1.0, ""),
        _Request("hit", "b", reply, 1.0, ""),  # recomputed, not a store hit
    ]
    for req in requests:
        req.op = ledger.add(req.kind, req.latency_ms)
    workload.check(requests, {"a": ref, "b": ref}, ledger)
    assert [op.ok for op in ledger.ops] == [True, False, True, False]
    assert ledger.problems == []


def test_serve_setup_in_a_deep_run_directory(tmp_path):
    """The job fork server's AF_UNIX socket (at most 107 bytes) stays
    short however deep the checkout, so the warm-up job succeeds."""
    from perfbench.common import RunContext

    root = tmp_path / ("d" * 120) / "run"
    ctx = RunContext("serve_mixed", 7, 1.0, 1, root=root).create()
    assert len(str(ctx.tmp_dir)) > 107
    workload = ServeMixed(ctx)
    try:
        workload.setup()
        assert workload.stats()["dedup"]["executed"] == 1
    finally:
        workload.teardown()
    assert workload.server.returncode is not None
