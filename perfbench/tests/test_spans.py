"""Span recording, self time and inclusive busy time."""

import pytest

from spans import Span, Tracer, busy_times, call_counts, self_times


def span(sid, name, start, end, parent=None):
    return Span(sid=sid, name=name, start=start, end=end, parent=parent, request=None)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(1, "outer", 0.0, 10.0),
        span(2, "child", 1.0, 3.0, parent=1),
        span(3, "child", 2.0, 5.0, parent=1),
        span(4, "child", 8.0, 12.0, parent=1),
        span(5, "grandchild", 1.5, 2.5, parent=2),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own["child"] == pytest.approx((2.0 - 1.0) + 3.0 + 4.0)
    assert own["grandchild"] == pytest.approx(1.0)


def test_self_times_sum_to_the_root_duration_for_nested_calls():
    spans = [
        span(1, "unit", 0.0, 10.0),
        span(2, "generation", 0.0, 4.0, parent=1),
        span(3, "analysis", 4.0, 9.0, parent=1),
        span(4, "paths", 5.0, 7.0, parent=3),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_busy_time_counts_recursive_calls_once():
    spans = [
        span(1, "f", 0.0, 4.0),
        span(2, "f", 1.0, 3.0, parent=1),
        span(3, "g", 5.0, 6.0),
    ]
    assert busy_times(spans) == {"f": 4.0, "g": 1.0}
    assert call_counts(spans) == {"f": 2, "g": 1}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_parents_requests_and_failures():
    tracer = Tracer(clock=FakeClock())

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    traced_inner = tracer.wrap("inner", inner)

    def outer(request_id, x):
        return traced_inner(x)

    traced_outer = tracer.wrap("outer", outer, request=lambda request_id, x: request_id)
    assert traced_outer("r1", 3) == 6
    with pytest.raises(ValueError):
        traced_outer("r2", -1)

    by_request = {}
    for recorded in tracer.spans:
        by_request.setdefault(recorded.request, []).append(recorded)
    first_inner, first_outer = by_request["r1"]
    assert (first_inner.name, first_outer.name) == ("inner", "outer")
    assert first_inner.parent == first_outer.sid and first_outer.parent is None
    assert first_outer.start < first_inner.start < first_inner.end < first_outer.end
    assert [s.failed for s in by_request["r2"]] == [True, True]


def test_tracer_names_spans_from_arguments_and_observes_results():
    tracer = Tracer()
    seen = []
    wrapped = tracer.wrap(lambda name: f"layer.{name}", lambda name: name.upper(),
                          observe=lambda result, name: seen.append(result))
    assert wrapped("a") == "A"
    assert [s.name for s in tracer.spans] == ["layer.a"]
    assert seen == ["A"]


class Owner:
    def method(self):
        return "original"


def test_patch_and_restore_class_attributes():
    tracer = Tracer()
    original = Owner.__dict__["method"]
    tracer.patch(Owner, "method", "owner.method")
    assert Owner().method() == "original"
    assert [s.name for s in tracer.spans] == ["owner.method"]
    tracer.restore()
    assert Owner.__dict__["method"] is original
