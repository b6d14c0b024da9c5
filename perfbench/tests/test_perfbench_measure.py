"""The benchmark's measurement rules: percentiles, failures, the ladder."""

from __future__ import annotations

import pytest

from perfbench import measure


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))  # 100 samples
    tail = measure.tail(values)
    assert tail.percentile == 0.9
    assert tail.samples == 100
    assert tail.value == pytest.approx(measure.harrell_davis(values, 0.9))
    # Ten samples lie beyond the 90th percentile of 100.
    assert sum(1 for v in values if v > tail.value) == 10


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 0.5), (39, 0.5), (40, 0.75), (99, 0.75), (100, 0.9),
     (199, 0.9), (200, 0.95), (999, 0.95), (1000, 0.99), (10000, 0.999)],
)
def test_tail_percentile_depends_only_on_sample_count(n, expected):
    tail = measure.tail([float(i) for i in range(n)], cap=0.999)
    if expected is None:
        assert tail is None
    else:
        assert tail.percentile == expected
        assert tail.samples == n


def test_tail_respects_cap():
    tail = measure.tail([float(i) for i in range(10000)], cap=0.95)
    assert tail.percentile == 0.95


def test_fixed_percentile_refuses_unsupported_sample():
    with pytest.raises(ValueError):
        measure.fixed_percentile(list(range(99)), 0.9)
    assert measure.fixed_percentile(list(range(100)), 0.9) == pytest.approx(89.5, abs=0.1)


def test_harrell_davis_estimates():
    assert measure.harrell_davis([4.0] * 50, 0.9) == pytest.approx(4.0)
    assert measure.harrell_davis([2.0], 0.5) == 2.0
    uniform = [i / 999 for i in range(1000)]
    for q in (0.1, 0.5, 0.9, 0.99):
        assert measure.harrell_davis(uniform, q) == pytest.approx(q, abs=0.005)
    sample = [1.0, 2.0, 3.0, 50.0, 51.0, 400.0] * 20
    estimates = [measure.harrell_davis(sample, q) for q in (0.25, 0.5, 0.75, 0.9)]
    assert estimates == sorted(estimates)
    assert min(sample) <= estimates[0] and estimates[-1] <= max(sample)
    with pytest.raises(ValueError):
        measure.harrell_davis([], 0.5)
    with pytest.raises(ValueError):
        measure.harrell_davis([1.0], 1.0)


def test_failures_count_as_attempts_and_miss_every_limit():
    outcomes = measure.Outcomes()
    for latency in (0.01, 0.02, 0.03):
        outcomes.success(latency)
    outcomes.failure("boom")
    outcomes.failure("boom")
    assert outcomes.attempted == 5
    assert outcomes.failed == 2
    assert outcomes.failed_share == pytest.approx(0.4)
    assert outcomes.latencies == [0.01, 0.02, 0.03]
    assert outcomes.errors == {"boom": 2}
    # A failed request never meets the limit, however generous.
    assert outcomes.within_limit_share(10.0) == pytest.approx(0.6)


def test_outcomes_merge():
    a, b = measure.Outcomes(), measure.Outcomes()
    a.success(0.1)
    b.failure("x")
    a.merge(b)
    assert (a.attempted, a.failed, a.errors) == (2, 1, {"x": 1})


def _rung(rate, latencies, failures=0, backlog=(0, 0, 0)):
    outcomes = measure.Outcomes()
    for latency in latencies:
        outcomes.success(latency)
    for _ in range(failures):
        outcomes.failure("refused")
    return measure.Rung(rate=rate, outcomes=outcomes, backlog=tuple(backlog),
                        backlog_at_end=backlog[-1] if backlog else 0)


def test_backlog_growth_detection():
    assert not measure.backlog_grows([5] * 30, allowance=4)
    assert not measure.backlog_grows([0, 9, 1, 8, 2, 9], allowance=4)
    assert measure.backlog_grows(list(range(30)), allowance=4)
    assert not measure.backlog_grows([0, 50], allowance=4)  # too few samples


def test_rung_passes_on_tail_limit_and_flat_backlog():
    fast = [0.01] * 1000
    assert measure.rung_passes(_rung(50, fast), limit_s=0.5)
    slow_tail = [0.01] * 980 + [0.9] * 20
    assert not measure.rung_passes(_rung(50, slow_tail), limit_s=0.5)
    growing = _rung(50, fast, backlog=list(range(0, 300, 10)))
    assert not measure.rung_passes(growing, limit_s=0.5)


def test_rung_counts_failures_as_missing_the_limit():
    # 2000 fast successes and 40 refusals: the p99 of the successes is
    # fast, but 2% of the attempts missed the limit.
    assert not measure.rung_passes(_rung(50, [0.01] * 2000, failures=40), 0.5)
    assert measure.rung_passes(_rung(50, [0.01] * 2000, failures=10), 0.5)
    assert not measure.rung_passes(_rung(50, [], failures=5), 0.5)


def test_max_rate_is_highest_rung_before_the_first_failure():
    fast = [0.01] * 300
    slow = [0.9] * 300
    rungs = [_rung(400, fast), _rung(50, fast), _rung(100, fast), _rung(200, slow)]
    # 400 would pass on its own, but 200 failed first on the rising ladder.
    assert measure.max_rate(rungs, limit_s=0.5) == 100
    assert measure.max_rate([_rung(50, slow)], limit_s=0.5) == 0.0
    assert measure.max_rate([_rung(50, fast), _rung(100, fast)], 0.5) == 100
