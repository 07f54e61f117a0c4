"""Statistics helpers, self time, and host-fingerprint comparison."""

import statistics

import pytest

from perfbench.common import Ledger, median, quartiles, spread, worse_by
from perfbench.host import mismatches
from perfbench.layers import coverage, self_times


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == median(values) == 5.5


def test_spread_is_interquartile_share_of_median():
    values = [10.0] * 4 + [12.0] * 4
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([3.0, 3.0, 3.0]) == 0.0


def test_single_value_is_its_own_quartiles():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    with pytest.raises(ValueError):
        quartiles([])
    with pytest.raises(ValueError):
        median([])


def test_worse_by_follows_direction():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(10.0, 8.0, "higher") == pytest.approx(0.20)


def test_ledger_counts_failed_operations_and_problems_apart():
    ledger = Ledger()
    ok = ledger.add("a", 1.0)
    ledger.add("b", 2.0, ok=False, detail="boom")
    ledger.fail(ok, "wrong output")
    ledger.fail(ok, "second reason is ignored")
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert ledger.failures() == ["a: wrong output", "b: boom"]
    assert not ledger.problems


def _span(name, ts, dur):
    return {"name": name, "ts": ts, "dur": dur, "depth": 0}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("bench.x", 0.0, 100.0),
        _span("frontend.compile", 10.0, 30.0),
        _span("ir.passes", 15.0, 10.0),
        _span("sim.fast", 50.0, 40.0),
        _span("sim.run", 55.0, 20.0),  # a program span: not a layer
    ]
    got = {n["name"]: n["self"] for n in self_times(spans)}
    assert got == {"bench.x": 30.0, "frontend.compile": 20.0,
                   "ir.passes": 10.0, "sim.fast": 40.0}
    assert coverage([spans], "bench.x") == pytest.approx(70.0)


def test_nested_same_name_is_marked():
    spans = [_span("fpga.synth", 0.0, 10.0), _span("fpga.synth", 2.0, 3.0)]
    nodes = sorted(self_times(spans), key=lambda n: n["ts"])
    assert [n["nested"] for n in nodes] == [False, True]
    assert [n["self"] for n in nodes] == [7.0, 3.0]


def test_fingerprint_mismatches_name_the_differing_fields():
    a = {"nproc": 2, "cc": "gcc 12", "commit": "x"}
    assert mismatches([a, dict(a)]) == []
    assert mismatches([a, dict(a, cc="clang 17")]) == ["cc"]
