"""Self-time arithmetic and span recording on small synthetic traces."""

import pytest

from spans import Tracer, layer_times, per_layer_metrics, self_times


def test_self_time_of_nested_trace():
    spans = [
        ["cli", None, 0.0, 10.0],
        ["quadrature.contract", 0, 1.0, 9.0],
        ["fields.eval", 1, 2.0, 4.0],
        ["quadrature.reduce", 1, 5.0, 6.0],
        ["fields.eval", 2, 2.5, 3.0],  # nested eval inside eval
        ["cli", 0, 9.5, 10.0],
    ]
    assert self_times(spans) == pytest.approx([1.5, 5.0, 1.5, 1.0, 0.5, 0.5])
    totals = layer_times(spans)
    assert totals["cli"] == pytest.approx(2.0)
    assert totals["fields.eval"] == pytest.approx(2.0)
    # self times add up to the root span
    assert sum(totals.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [["a", None, 0.0, 10.0], ["b", 0, 1.0, 5.0], ["b", 0, 3.0, 7.0], ["b", 0, 9.0, 12.0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_wrap_records_nesting_and_only_outermost_recursion():
    tracer = Tracer(clock=fake_clock(range(100)))

    def reduce(n):
        return 0 if n == 0 else 1 + reduce_w(n - 1)

    reduce_w = tracer.wrap(reduce, "quadrature.reduce", outermost_only=True)
    outer = tracer.wrap(lambda: reduce_w(3), "quadrature.contract")
    assert outer() == 3
    assert [s[:2] for s in tracer.spans] == [["quadrature.contract", None],
                                             ["quadrature.reduce", 0]]
    assert self_times(tracer.spans) == [2, 1]


def test_per_layer_metrics_from_trace():
    trace = {
        "spans": [["laue_lab.import", None, 0.0, 0.5], ["cli", None, 1.0, 4.0],
                  ["exterior.hodge", 1, 1.5, 3.5]],
        "counts": {"exterior.hodge_points": 1000},
        "sample_bytes": 2_000_000,
        "sampled_points": 300,
        "distinct_nodes": 100,
    }
    metrics = per_layer_metrics(trace)
    assert metrics["laue_lab.import_s"] == pytest.approx(0.5)
    assert metrics["cli.self_s"] == pytest.approx(1.0)
    assert metrics["exterior.hodge_s"] == pytest.approx(2.0)
    assert metrics["exterior.hodge_points"] == 1000
    assert metrics["fields.fd_points"] == 0
    assert metrics["quadrature.resample_ratio"] == 3.0
    assert metrics["quadrature.sample_mb"] == 2.0
