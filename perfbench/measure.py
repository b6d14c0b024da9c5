"""Measurement rules shared by every workload.

- :func:`tail` — a timing is reported as its median plus the highest
  percentile that has at least ten samples beyond it, with the count;
- :func:`fixed_percentile` — a named percentile, refused when the sample
  cannot support it;
- :func:`harrell_davis` — the percentile estimate both report: a
  weighted average of all order statistics, centred on the percentile,
  which moves far less from run to run than any single order statistic
  where the sample is sparse (the slow queries of a small query mix);
- :class:`Outcomes` — failure accounting against attempts (a failed or
  refused request also counts as missing any latency limit);
- :func:`rung_passes` / :func:`max_rate` — the open-loop rate ladder: the
  highest fixed rate whose tail stays under the latency limit without a
  growing backlog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Samples required beyond a reported percentile.
MIN_BEYOND = 10

#: The percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def harrell_davis(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of percentile ``q`` in (0, 1).

    The i-th smallest of ``n`` values is weighted by the mass that a
    Beta(q(n+1), (1-q)(n+1)) distribution puts on ((i-1)/n, i/n]; the
    Beta CDF is integrated numerically (midpoint rule, 64 steps per
    interval), which is exact enough for weights summing to one.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a = q * (n + 1)
    b = (1.0 - q) * (n + 1)
    steps = 64
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    weights = np.diff(cdf[::steps])
    return float(weights @ ordered)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``q``."""
    return n > 0 and (1.0 - q) * n >= MIN_BEYOND - 1e-9


@dataclass(frozen=True)
class Tail:
    """The highest supported percentile of a sample, with its count."""

    percentile: float
    value: float
    samples: int

    def to_json(self) -> dict:
        return {
            "percentile": self.percentile,
            "value": self.value,
            "samples": self.samples,
        }


def tail(values: Sequence[float], cap: float = 0.99) -> Optional[Tail]:
    """The highest percentile at most ``cap`` with ten samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if q <= cap + 1e-12 and supported(n, q):
            return Tail(percentile=q, value=harrell_davis(values, q), samples=n)
    return None


def fixed_percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of ``values`` (Harrell-Davis); raises when the
    sample is too small to have ten values beyond it."""
    if not supported(len(values), q):
        raise ValueError(
            f"{len(values)} samples cannot support p{q * 100:g} "
            f"(needs {MIN_BEYOND} beyond it)"
        )
    return harrell_davis(values, q)


@dataclass
class Outcomes:
    """Attempted/failed accounting plus the latencies of the successes.

    A failed (errored, shed or wrong) request is counted once and never
    contributes a latency, so it can never look like a fast success; it
    counts as missing every latency limit instead.
    """

    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    def success(self, latency: float) -> None:
        self.attempted += 1
        self.latencies.append(latency)

    def failure(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def within_limit_share(self, limit: float) -> float:
        """Share of attempts that succeeded within ``limit``."""
        if not self.attempted:
            return 0.0
        return sum(1 for v in self.latencies if v <= limit) / self.attempted

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies.extend(other.latencies)
        for reason, count in other.errors.items():
            self.errors[reason] = self.errors.get(reason, 0) + count


@dataclass(frozen=True)
class Rung:
    """One fixed-rate step of the open-loop ladder."""

    rate: float
    outcomes: Outcomes
    #: Outstanding requests sampled at regular instants during the step.
    backlog: Tuple[int, ...]
    #: Requests still unresolved when the step's last request was sent.
    backlog_at_end: int


def backlog_grows(samples: Sequence[int], allowance: int) -> bool:
    """Whether the outstanding-request count trends upward over a step.

    Compares the mean of the last third of the samples with the first
    third; growth beyond ``allowance`` requests means the service is
    falling behind the offered rate (a steady queue, however long, is
    not growth).
    """
    if len(samples) < 3:
        return False
    third = len(samples) // 3
    head = sum(samples[:third]) / third
    last = sum(samples[-third:]) / third
    return last - head > allowance


def rung_passes(rung: Rung, limit_s: float, q: float = 0.99) -> bool:
    """A rung passes when its tail meets the limit and its backlog is flat.

    Failed requests count as missing the limit: the share of attempts
    within the limit must reach ``q``.  Where ``q`` itself is not
    supported by the sample, the highest supported percentile is used.
    """
    outcomes = rung.outcomes
    if not outcomes.attempted:
        return False
    measured = tail(outcomes.latencies, cap=q)
    if measured is None or measured.value > limit_s:
        return False
    if outcomes.within_limit_share(limit_s) < measured.percentile:
        return False
    allowance = max(4, int(math.ceil(rung.rate * 0.1)))
    return not backlog_grows(rung.backlog, allowance)


def max_rate(rungs: Sequence[Rung], limit_s: float, q: float = 0.99) -> float:
    """Highest rate of a rising ladder whose rungs all pass, else 0.

    The ladder stops at the first failing rung: a rate above one the
    service cannot sustain is not reported as met.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung_passes(rung, limit_s, q):
            break
        best = rung.rate
    return best
