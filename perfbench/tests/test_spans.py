import threading

import pytest

from spans import Tracer, self_times, summarize


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        ["root", 0.0, 10.0, 1, 0, 7],
        ["a", 1.0, 3.0, 2, 1, 7],
        ["b", 2.0, 4.0, 3, 1, 7],  # overlaps a: together they cover 1..4
        ["c", 8.0, 12.0, 4, 1, 7],  # only 8..10 lies inside root
        ["grandchild", 1.5, 2.5, 5, 2, 7],  # counts against a, not root
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)


def test_summarize_totals_self_and_extent():
    spans = [
        ["block", 0.0, 4.0, 1, 0, 1],
        ["kernel", 1.0, 2.0, 2, 1, 1],
        ["block", 5.0, 6.0, 3, 0, 1],
    ]
    s = summarize(spans)
    assert s["block"] == {"total": 5.0, "self": 4.0, "calls": 2, "first": 0.0, "last": 6.0}
    assert s["kernel"]["self"] == 1.0


def test_tracer_nests_per_thread():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("main")

    def worker():
        tracer.wrap("block", lambda: tracer.wrap("kernel", lambda: None)())()

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(outer)
    by_name = {s[0]: s for s in tracer.spans}
    assert by_name["block"][4] == 0  # a worker's span does not nest under main
    assert by_name["kernel"][4] == by_name["block"][3]
    assert by_name["main"][4] == 0


def test_iterate_records_one_span_per_item_and_counts():
    tracer = Tracer()
    items = list(tracer.iterate("next", iter([1, 2, 3]), lambda item: ("sum", item)))
    assert items == [1, 2, 3]
    assert [s[0] for s in tracer.spans] == ["next"] * 4  # three items and the final stop
    assert tracer.counters["sum"] == 6


def test_wrap_counts_from_result():
    tracer = Tracer()
    f = tracer.wrap("f", lambda x: x * 2, lambda args, kwargs, result: ("out", result))
    assert f(5) == 10
    assert tracer.counters["out"] == 10
