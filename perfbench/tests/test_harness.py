"""Tests of the benchmark harness itself (not of kappatwist).

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

import layers
import run
import workloads
import worker
from spans import Tracer, self_times
from workloads import Op, Workload, check_cli, check_rexpand

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_the_union_of_child_intervals():
    # parent 0-10; children 1-3 and 2-5 overlap, 9-12 ends after the
    # parent; 1.5-2.5 is a grandchild and only counts against its parent
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - (4 + 1), 2 - 1, 3, 3, 1])


def test_tracer_totals_count_recursive_spans_once():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("fact", fact)
    assert traced(3) == 6
    # spans: fact(3) 0-5, fact(2) 1-4, fact(1) 2-3
    summary = tracer.summary()["fact"]
    assert summary["calls"] == 3
    assert summary["total_s"] == 5.0
    assert summary["self_s"] == pytest.approx(2 + 2 + 1)
    assert tracer.parent.tolist() == [-1, 0, 1]


def test_percentile_reports_how_many_samples_lie_above_it():
    assert run.percentile(list(range(1, 101)), 0.9) == (90, 10)
    assert run.percentile(list(range(1, 101)), 0.5) == (50, 50)
    assert run.percentile([7.0], 0.9) == (7.0, 0)
    assert "fewer than 10 above" not in run.percentile_note(list(range(100)), 0.9)
    assert "fewer than 10 above" in run.percentile_note(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def _order1(c1):
    data = {"order": 1, "status": "unique", "c1": c1, "c2": "0", "d1": "0", "d2": "1"}
    return 0, json.dumps(data), ""


def _op(key, result):
    def run_():
        if isinstance(result, Exception):
            raise result
        return result

    return Op(
        key,
        run_,
        lambda r: r[1].encode(),
        lambda r: check_cli(r, lambda d: check_rexpand(1, d)),
    )


def _error_rate(ops, golden):
    checker = worker.Checker(golden)
    worker.measure(Workload("t", ops), lambda results: [checker.add(*r) for r in results], 0)
    res = checker.summary()
    return res["failed"], res["attempted"]


def test_wrong_output_raises_the_error_rate():
    good = _op("good", _order1("-1"))
    assert _error_rate([good], {}) == (0, 1)
    assert _error_rate([good, _op("wrong", _order1("1"))], {}) == (1, 2)
    assert _error_rate([good, _op("exit", (2, "", "parse error"))], {}) == (1, 2)
    assert _error_rate([good, _op("raises", RuntimeError("boom"))], {}) == (1, 2)
    # right by the paper's check, but not the bytes recorded for the input
    assert _error_rate([good], {"good": "0" * 16}) == (1, 1)


def test_traced_request_prints_the_same_bytes_and_hooks_come_off():
    import sys

    from kappatwist import cli, hopf

    tensor = sys.modules["kappatwist.tensor"]  # the package exports a function of that name
    op = workloads.build("rexpand-ladder", 0).ops[0]
    result = op.run()
    plain = op.render(result), op.verify(result)
    instr = layers.Instrumentation(Tracer())
    # modules that imported the name directly see the hook too
    assert cli.canonicalize is hopf.canonicalize is tensor.canonicalize
    assert hasattr(cli.canonicalize, "__wrapped__")
    result = op.run()
    traced = op.render(result), op.verify(result)
    instr.remove()
    assert traced == plain and plain[1] == ""
    metrics = instr.per_layer({})
    assert metrics["linsolve.solve.calls"] == 1
    assert metrics["rexpand.equations"] == 7
    assert metrics["scalars.Scalar.mul.calls"] > 0
    assert 0 < metrics["algebra.monomial_product.hit_ratio"] <= 1
    assert set(metrics) == set(layers.metric_units()) - {"trace.overhead_ratio"}
    # every binding is back to the original function
    assert hopf.canonicalize is tensor.canonicalize
    assert not hasattr(tensor.canonicalize, "__wrapped__")
    assert not hasattr(hopf.TwistContext.coproduct, "__wrapped__")


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
