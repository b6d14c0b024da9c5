"""Answer-cache gate: Zipf-skewed hot traffic must hit, and hit right.

The answer cache (:mod:`repro.serve.answer_cache`) claims that repeated
hot queries are served from memory bit-identically to recomputation, and
much faster.  This module owns the one measurement both the CI smoke
gate (``scripts/bench_smoke.py`` gate 8) and ad-hoc runs make, so the
claim cannot drift from what CI checks:

1. resample the held-out scenario under :data:`DEFAULT_POPULARITY` — a
   seeded Zipf law that turns the uniform workload into hot-key traffic
   (a few queries dominate, a long tail trickles);
2. replay that same request sequence with the answer cache off and on,
   on the inline backend and on a process pool with the shared-memory
   graph — four digests that must all be equal (a cache hit serving
   anything but the engine's exact answer is correctness loss, not a
   perf win);
3. measure the hot path: a sequential inline replay classifies every
   exact request as hit or miss via the service's own counters and
   times it — the gate requires a hot hit rate of at least
   :data:`MIN_HIT_RATE` and a p50 hit at least :data:`MIN_SPEEDUP`
   times faster than a p50 miss.

TBQ items bypass the cache by design (a deadline-bounded answer is a
function of the clock), so they appear in the replay but never in the
hit/miss accounting — same exclusion the scenario digest makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.scenarios.replay import (
    build_resources,
    replay_scenario,
    scenario_items,
)
from repro.scenarios.suite import Workload
from repro.serve.service import QueryService
from repro.serve.workload import PopularitySpec, apply_popularity

#: The gate's traffic shape: Zipf with a hot head (s=1.2) over 4x the
#: unique query count, so the replay contains genuine repetition without
#: the gate taking long.  ``length`` is resolved per-workload in
#: :func:`run_cache_gate` (``None`` here means "4x the item count").
DEFAULT_POPULARITY = PopularitySpec(kind="zipf", s=1.2, length=None)

#: Minimum served-without-search fraction over the exact hot traffic.
MIN_HIT_RATE = 0.5

#: Minimum p50 miss-to-hit latency ratio.  Conservative on purpose: hits
#: are a dict lookup + payload re-inflation (microseconds) against a
#: full A* + TA execution (milliseconds), so an order of magnitude of
#: headroom remains before shared-runner noise could flake the gate.
MIN_SPEEDUP = 5.0

#: Answer-cache capacity used by the gate (far above the unique query
#: count — the gate measures hit behaviour, not eviction pressure).
DEFAULT_CAPACITY = 256


@dataclass
class CacheBenchReport:
    """Everything the answer-cache gate measured and judged."""

    workload: str
    popularity: str
    capacity: int
    workers: int
    requests: int = 0
    unique_queries: int = 0
    #: backend -> {"off": digest, "on": digest}
    digests: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: answer-cache counter deltas of each cache-on replay, per backend.
    answers: Dict[str, Dict[str, int]] = field(default_factory=dict)
    equivalent: bool = False
    hit_rate: float = 0.0
    hits: int = 0
    misses: int = 0
    p50_hit_ms: float = 0.0
    p50_miss_ms: float = 0.0
    min_hit_rate: float = MIN_HIT_RATE
    min_speedup: float = MIN_SPEEDUP

    @property
    def speedup(self) -> float:
        if self.p50_hit_ms <= 0.0:
            return float("inf")
        return self.p50_miss_ms / self.p50_hit_ms

    @property
    def passed(self) -> bool:
        """Digest-identical on and off across backends, hot traffic
        actually hitting, and hits materially faster than misses."""
        return (
            self.equivalent
            and self.hit_rate >= self.min_hit_rate
            and self.speedup >= self.min_speedup
        )

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "popularity": self.popularity,
            "capacity": self.capacity,
            "workers": self.workers,
            "requests": self.requests,
            "unique_queries": self.unique_queries,
            "digests": {
                backend: dict(row) for backend, row in self.digests.items()
            },
            "answers": {
                backend: dict(row) for backend, row in self.answers.items()
            },
            "equivalent": self.equivalent,
            "hit_rate": round(self.hit_rate, 4),
            "hits": self.hits,
            "misses": self.misses,
            "p50_hit_ms": round(self.p50_hit_ms, 4),
            "p50_miss_ms": round(self.p50_miss_ms, 4),
            "speedup": round(min(self.speedup, 1e9), 2),
            "min_hit_rate": self.min_hit_rate,
            "min_speedup": self.min_speedup,
            "passed": self.passed,
        }


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _measure_hot_path(
    workload: Workload,
    resources,
    popularity: PopularitySpec,
    capacity: int,
) -> Dict[str, object]:
    """Sequential inline replay timing every exact request as hit/miss.

    Classification uses the service's own ``answer_hits`` counter delta
    per request — the same signal the stats report exposes — so the
    measurement cannot disagree with the accounting it gates.
    """
    items = apply_popularity(
        scenario_items(workload), popularity, workload.seed
    )
    hit_seconds: List[float] = []
    miss_seconds: List[float] = []
    with QueryService.build(
        resources.kg,
        resources.space,
        resources.library,
        resources.config,
        backend="inline",
        answer_cache=capacity,
    ) as service:
        for item in items:
            if item.deadline is not None:
                service.submit_request(item.to_request()).result()
                continue
            hits_before = service.stats_snapshot().answer_hits
            start = time.perf_counter()
            service.submit_request(item.to_request()).result()
            elapsed = time.perf_counter() - start
            if service.stats_snapshot().answer_hits > hits_before:
                hit_seconds.append(elapsed)
            else:
                miss_seconds.append(elapsed)
    served = len(hit_seconds)
    lookups = served + len(miss_seconds)
    return {
        "hits": len(hit_seconds),
        "misses": len(miss_seconds),
        "hit_rate": served / lookups if lookups else 0.0,
        "p50_hit_ms": _median(hit_seconds) * 1000.0,
        "p50_miss_ms": _median(miss_seconds) * 1000.0,
    }


def run_cache_gate(
    workload: Workload,
    *,
    workers: int = 2,
    capacity: int = DEFAULT_CAPACITY,
    popularity: Optional[PopularitySpec] = None,
) -> CacheBenchReport:
    """Replay ``workload`` Zipf-skewed with the cache off and on; judge.

    The engine inputs are built once and shared by every pass, and the
    popularity draw is seeded by the workload, so the only variable
    between any two digests is the answer cache itself.
    """
    popularity = popularity if popularity is not None else DEFAULT_POPULARITY
    if popularity.length is None:
        popularity = PopularitySpec(
            kind=popularity.kind,
            s=popularity.s,
            length=4 * len(workload.queries),
        )
    report = CacheBenchReport(
        workload=workload.name,
        popularity=popularity.describe(),
        capacity=capacity,
        workers=workers,
        requests=popularity.length or 0,
        unique_queries=len(workload.queries),
    )
    resources = build_resources(workload)

    digests: List[str] = []
    for backend, backend_kwargs in (
        ("inline", {}),
        ("process", {"workers": workers, "shared_graph": True}),
    ):
        off = replay_scenario(
            workload,
            backend=backend,
            resources=resources,
            popularity=popularity,
            **backend_kwargs,
        )
        on = replay_scenario(
            workload,
            backend=backend,
            resources=resources,
            popularity=popularity,
            answer_cache=capacity,
            **backend_kwargs,
        )
        report.digests[backend] = {"off": off.digest, "on": on.digest}
        report.answers[backend] = dict(on.report.answers)
        digests.extend([off.digest, on.digest])
    report.equivalent = len(set(digests)) == 1

    hot = _measure_hot_path(workload, resources, popularity, capacity)
    report.hits = hot["hits"]
    report.misses = hot["misses"]
    report.hit_rate = hot["hit_rate"]
    report.p50_hit_ms = hot["p50_hit_ms"]
    report.p50_miss_ms = hot["p50_miss_ms"]
    return report
