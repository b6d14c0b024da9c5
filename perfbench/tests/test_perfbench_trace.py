"""Span bookkeeping and self-time arithmetic of the traced run."""

from __future__ import annotations

import pytest

from perfbench.trace import (
    Span,
    Tracer,
    TracedView,
    self_times,
    stage_totals,
    stage_name,
)


def _span(span_id, parent, name, start, end, rolled=False, busy=None, calls=1):
    return Span(span_id, parent, 1, name, start, end,
                end - start if busy is None else busy, calls, rolled)


def test_self_time_subtracts_children():
    spans = [
        _span(1, None, "request", 0.0, 10.0),
        _span(2, 1, "decompose", 0.0, 2.0),
        _span(3, 1, "assemble", 3.0, 9.0),
        _span(4, 3, "search[0]", 4.0, 8.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)  # 10 - (2 + 6)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)  # 6 - 4
    assert own[4] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once_and_clipped():
    spans = [
        _span(1, None, "request", 0.0, 10.0),
        _span(2, 1, "dispatch", 1.0, 5.0),
        _span(3, 1, "dispatch", 4.0, 6.0),   # overlaps the first
        _span(4, 1, "submit", 9.0, 12.0),    # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_rolled_up_children_count_their_busy_time():
    spans = [
        _span(1, None, "request", 0.0, 10.0),
        _span(2, 1, "search[0]", 0.0, 10.0),
        # Calls spread over [1, 9] but busy for 3 s in total.
        _span(3, 2, "materialize", 1.0, 9.0, rolled=True, busy=3.0, calls=40),
    ]
    own = self_times(spans)
    assert own[2] == pytest.approx(7.0)
    assert own[3] == pytest.approx(3.0)
    assert own[1] == pytest.approx(0.0)
    by_stage = stage_totals(spans)
    assert {k: v["self"] for k, v in by_stage.items()} == pytest.approx(
        {"request": 0.0, "search": 7.0, "materialize": 3.0})
    assert by_stage["materialize"]["calls"] == 40
    assert by_stage["request"]["busy"] == pytest.approx(10.0)


def test_stage_name_folds_subquery_index():
    assert stage_name("search[2]") == "search"
    assert stage_name("assemble") == "assemble"


def test_tracer_nests_spans_and_skips_same_name_reentry():
    tracer = Tracer()
    root = tracer.open_request(7, 0.0)

    def step():
        return "stepped"

    def next_match():
        # next_match drives step: one search span, not one per step.
        return tracer.call("search[0]", step) + "!"

    assert tracer.call("assemble", tracer.call, "search[0]", next_match) == "stepped!"
    tracer.leave_request(root)
    tracer.close_request(root, 1e12)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("request", None), ("assemble", root.span_id),
                     ("search[0]", tracer.spans[1].span_id)]
    assert all(s.request == 7 for s in tracer.spans)


def test_tracer_rolls_up_leaf_calls_and_drains_generators():
    tracer = Tracer()
    root = tracer.open_request(1, 0.0)

    def incident():
        yield from range(3)

    for _ in range(5):
        assert tracer.rolled("materialize", incident) == [0, 1, 2]
    tracer.leave_request(root)
    rolled = [s for s in tracer.spans if s.rolled_up]
    assert len(rolled) == 1
    assert rolled[0].calls == 5
    assert rolled[0].parent == root.span_id
    assert rolled[0].busy <= rolled[0].end - rolled[0].start + 1e-9


def test_calls_outside_a_request_are_not_recorded():
    tracer = Tracer()
    assert tracer.call("decompose", lambda: 3) == 3
    assert tracer.rolled("materialize", lambda: 4) == 4
    assert tracer.spans == []


def test_traced_view_times_methods_and_passes_attributes():
    class View:
        edges_weighted = 11

        def weighted_incident(self, uid, predicate):
            yield (uid, predicate)

    tracer = Tracer()
    view = TracedView(View(), tracer)
    root = tracer.open_request(1, 0.0)
    assert view.weighted_incident(3, "p") == [(3, "p")]
    assert view.edges_weighted == 11
    tracer.leave_request(root)
    assert [s.name for s in tracer.spans] == ["request", "materialize"]


def test_observed_values():
    tracer = Tracer()
    tracer.observe("pivot_cost", 2.5)
    tracer.observe("pivot_cost", 3.5)
    assert tracer.observed == {"pivot_cost": [2.5, 3.5]}
