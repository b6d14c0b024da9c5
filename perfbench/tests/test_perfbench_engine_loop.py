"""The engine-direct loop: when its passes stop."""

from __future__ import annotations

from perfbench import engine_loop


class _Clock:
    """Stands in for the ``time`` module; its clock moves only when a call
    advances it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


class _Engine:
    """Stands in for an engine: every call takes ``cost`` seconds."""

    def __init__(self, clock: _Clock, cost: float):
        self.clock = clock
        self.cost = cost
        self.calls = 0

    def search(self, query, k):
        self.calls += 1
        self.clock.now += self.cost
        return query


def _run(monkeypatch, seconds, min_passes):
    clock = _Clock()
    monkeypatch.setattr(engine_loop, "time", clock)
    engine = _Engine(clock, 0.02)
    items = [engine_loop.Item("p", f"q{i}", i, engine, []) for i in range(5)]
    calls, _wall, passes = engine_loop.run_passes(
        items, [list(range(5))], None, seconds, min_passes)
    assert len(calls) == engine.calls == 5 * passes
    return passes


def test_min_passes_run_even_past_the_deadline(monkeypatch):
    assert _run(monkeypatch, 0.0, 3) == 3


def test_a_pass_starts_only_if_half_of_it_fits(monkeypatch):
    # A pass takes 0.1 s.  With 0.33 s, three passes end at 0.3 s and a
    # fourth would need 0.05 s of the 0.03 s left, so it does not start;
    # 0.37 s leaves room for half of it, so it does.
    assert _run(monkeypatch, 0.33, 1) == 3
    assert _run(monkeypatch, 0.37, 1) == 4
