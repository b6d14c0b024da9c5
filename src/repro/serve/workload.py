"""Workload replay driver: arrival processes + latency reporting.

Replays a query mix against a :class:`~repro.serve.service.QueryService`
the way a load generator would hit a deployed system:

- **open loop** — arrivals are scheduled regardless of completions, so
  queueing delay shows up in the latencies exactly as a user would feel
  it.  Two arrival processes: ``uniform`` (fixed ``1/rate`` spacing, the
  deterministic replay) and ``poisson`` (seeded exponential inter-arrival
  gaps at mean rate ``rate`` — the memoryless process real traffic
  approximates, which exercises burst behaviour a uniform replay never
  shows); ``rate=None`` submits the whole workload at once (a pure
  throughput probe);
- **mixed SGQ/TBQ traffic** — :func:`mix_deadlines` stamps a seeded
  fraction of the items with a TBQ deadline, so a replay can model the
  realistic blend of exact and time-bounded requests instead of
  all-or-nothing;
- per-query **latency** is measured from scheduled submission to future
  completion and summarised as nearest-rank percentiles
  (:func:`repro.utils.stats.percentile`), and additionally bucketed by
  the workload's **complexity class** (simple / medium / complex, Table
  VI) when items carry one — a replay report then shows which class the
  tail belongs to;
- the report carries a labelled
  :class:`~repro.serve.service.ServingStatsReport` — *shared* cache
  counters on the inline/thread backends, *summed per-worker* counters on
  the process backend (each worker warms its own caches, so pool-wide
  misses scale with the worker count by design; the label keeps the two
  from being read as the same thing);
- ``breakdown=True`` (CLI: ``--breakdown``) additionally collects each
  query's **search-vs-assembly time split** plus its A*-side counters
  (expansions, τ/visited prunes, peak queue size) from the engine's
  ``QueryResult`` instrumentation, so assembly-bound queries (the D12
  class) can be told apart from search-bound ones; TA round-cap
  truncations are counted on every run.

The module doubles as the ``repro-serve-workload`` console entrypoint
(see ``setup.py``): build a preset dataset bundle, replay its workload for
N passes, and print one report per pass — pass 1 is the cold run, later
passes show the cache steady state.  ``--backend {inline,thread,process}
--workers N`` picks the execution backend.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import OverloadError, ScenarioError, ServeError
from repro.query.model import QueryGraph
from repro.serve.backends import EXECUTION_BACKENDS
from repro.serve.cache import CacheStats
from repro.serve.faults import FaultPlan
from repro.serve.resilience import BackoffPolicy
from repro.serve.service import QueryRequest, QueryService, ServingStatsReport
from repro.utils.rng import derive_rng
from repro.utils.stats import percentile
from repro.utils.timing import Stopwatch

ARRIVAL_PROCESSES = ("uniform", "poisson")


@dataclass(frozen=True)
class WorkloadItem:
    """One replayable query with its serving parameters.

    ``complexity`` is the query's Table VI class (``"simple"`` /
    ``"medium"`` / ``"complex"``); when set, the replay report buckets
    latency percentiles by it.  Empty means unclassified.
    """

    query: QueryGraph
    k: int = 10
    deadline: Optional[float] = None
    qid: str = ""
    complexity: str = ""

    def to_request(self) -> QueryRequest:
        return QueryRequest(
            query=self.query, k=self.k, deadline=self.deadline, tag=self.qid
        )


@dataclass(frozen=True)
class QueryBreakdown:
    """One query's search-vs-assembly split plus A*-side counters."""

    qid: str
    elapsed_seconds: float
    search_seconds: float
    assembly_seconds: float
    ta_rounds: int
    truncated: bool
    expansions: int = 0
    pruned_by_tau: int = 0
    pruned_by_visited: int = 0
    stale_pops: int = 0
    max_queue_size: int = 0

    @property
    def assembly_share(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.assembly_seconds / self.elapsed_seconds


@dataclass
class ReplayReport:
    """Throughput and latency summary of one replay pass.

    ``class_latencies`` buckets the per-query latencies by the workload
    items' complexity class (sorted ascending per bucket); empty when no
    item carried a class.  ``arrival`` names the arrival process
    (``"uniform"`` / ``"poisson"``; meaningless when ``rate`` is
    ``None``), ``deadline_requests`` counts the TBQ share of the mix,
    and ``stats`` is the backend-labelled cache/memo report —
    ``cache_stats`` keeps the bare weight-cache counters for older
    consumers.

    ``resilience`` carries the supervision counters *this pass* caused
    (deltas of the service's monotonic totals): retries, pool_rebuilds,
    shed, crashes, timeouts, fallbacks.  All zero on an unsupervised or
    fault-free run; shed requests are also in ``failed``.

    ``answers`` carries the answer-cache counters this pass caused, the
    same delta way: answer_hits, answer_misses, singleflight_collapsed,
    answer_evictions, answer_invalidations.  All zero without an
    answer cache.
    """

    completed: int
    failed: int
    elapsed_seconds: float
    latencies: List[float]
    rate: Optional[float]
    cache_stats: Optional[CacheStats] = None
    truncated: int = 0
    breakdown: Optional[List[QueryBreakdown]] = None
    class_latencies: Dict[str, List[float]] = field(default_factory=dict)
    arrival: str = "uniform"
    deadline_requests: int = 0
    stats: Optional[ServingStatsReport] = None
    resilience: Dict[str, int] = field(default_factory=dict)
    answers: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def p50(self) -> float:
        return self.latency_percentile(50)

    @property
    def p90(self) -> float:
        return self.latency_percentile(90)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99)

    def describe(self) -> str:
        pacing = (
            f"{self.rate:.1f} qps {self.arrival} open-loop"
            if self.rate
            else "unpaced"
        )
        lines = [
            f"replay: {self.completed} completed, {self.failed} failed "
            f"in {self.elapsed_seconds * 1000:.1f} ms ({pacing})",
            f"throughput: {self.throughput_qps:.1f} qps",
        ]
        if self.deadline_requests:
            total = self.completed + self.failed
            lines.append(
                f"mix: {total - self.deadline_requests} sgq + "
                f"{self.deadline_requests} tbq requests"
            )
        if self.latencies:
            lines.append(
                "latency ms: "
                f"p50={self.p50 * 1000:.2f} "
                f"p90={self.p90 * 1000:.2f} "
                f"p99={self.p99 * 1000:.2f} "
                f"max={max(self.latencies) * 1000:.2f}"
            )
        if self.class_latencies:
            lines.append("latency by complexity class:")
            # Canonical order first, anything else alphabetically after.
            canon = ("simple", "medium", "complex")
            ordered_classes = [c for c in canon if c in self.class_latencies]
            ordered_classes += sorted(set(self.class_latencies) - set(canon))
            for cls in ordered_classes:
                values = self.class_latencies[cls]
                lines.append(
                    f"  {cls} (n={len(values)}): "
                    f"p50={percentile(values, 50) * 1000:.2f} "
                    f"p90={percentile(values, 90) * 1000:.2f} "
                    f"p99={percentile(values, 99) * 1000:.2f} ms"
                )
        if self.stats is not None:
            # Label the aggregation scope: a shared cache's hit rate and a
            # per-worker sum are different quantities (see ServingStatsReport).
            lines.append(
                f"weight cache ({self.stats.scope_label()}): "
                f"{self.stats.cache.describe()}"
            )
        elif self.cache_stats is not None:
            lines.append(f"weight cache: {self.cache_stats.describe()}")
        if self.truncated:
            lines.append(
                f"ta: {self.truncated} queries hit the assembly round cap"
            )
        if self.answers and any(self.answers.values()):
            a = self.answers
            served = a.get("answer_hits", 0) + a.get("singleflight_collapsed", 0)
            lookups = served + a.get("answer_misses", 0)
            rate = served / lookups if lookups else 0.0
            lines.append(
                f"answer cache (shared): {a.get('answer_hits', 0)} hits, "
                f"{a.get('answer_misses', 0)} misses, "
                f"{a.get('singleflight_collapsed', 0)} collapsed "
                f"(hit_rate={rate:.3f}; "
                f"{a.get('answer_evictions', 0)} evictions, "
                f"{a.get('answer_invalidations', 0)} invalidations)"
            )
        if self.resilience and any(self.resilience.values()):
            r = self.resilience
            lines.append(
                f"resilience: {r.get('retries', 0)} retries, "
                f"{r.get('pool_rebuilds', 0)} pool rebuilds, "
                f"{r.get('crashes', 0)} crashes, {r.get('shed', 0)} shed, "
                f"{r.get('timeouts', 0)} timeouts, "
                f"{r.get('fallbacks', 0)} fallback queries"
            )
        if self.breakdown:
            total = sum(b.elapsed_seconds for b in self.breakdown)
            assembly = sum(b.assembly_seconds for b in self.breakdown)
            share = assembly / total if total > 0 else 0.0
            expansions = sum(b.expansions for b in self.breakdown)
            pruned = sum(
                b.pruned_by_tau + b.pruned_by_visited for b in self.breakdown
            )
            stale = sum(b.stale_pops for b in self.breakdown)
            lines.append(
                f"assembly share: {share * 100.0:.1f}% of "
                f"{total * 1000:.1f} ms total query time"
            )
            lines.append(
                f"search totals: {expansions} expansions, {pruned} pruned, "
                f"{stale} stale pops"
            )
            if self.stats is not None:
                lines.append(
                    f"serving stats [{self.stats.backend} backend, "
                    f"{self.stats.scope_label()}]: decomposition memo "
                    f"hits={self.stats.memo_hits} "
                    f"misses={self.stats.memo_misses}; "
                    f"space {self.stats.space.describe()}"
                )
            lines.append("search vs assembly per query (slowest assembly first):")
            ordered = sorted(self.breakdown, key=lambda b: -b.assembly_seconds)
            for row in ordered:
                flag = " TRUNCATED" if row.truncated else ""
                lines.append(
                    f"  {row.qid or '?'}: total {row.elapsed_seconds * 1000:.1f} ms"
                    f" = search {row.search_seconds * 1000:.1f}"
                    f" + assembly {row.assembly_seconds * 1000:.1f}"
                    f" ({row.assembly_share * 100.0:.1f}% assembly,"
                    f" {row.ta_rounds} rounds; {row.expansions} exp,"
                    f" {row.pruned_by_tau}+{row.pruned_by_visited} pruned,"
                    f" q<={row.max_queue_size}){flag}"
                )
        return "\n".join(lines)


def mix_deadlines(
    items: Sequence[WorkloadItem],
    fraction: float,
    deadline: float,
    *,
    seed: int = 0,
) -> List[WorkloadItem]:
    """Stamp a seeded ``fraction`` of the items with a TBQ ``deadline``.

    Models a realistic mixed workload: most traffic exact (SGQ), a slice
    latency-bounded (TBQ).  Selection is a seeded permutation, so the
    same (items, fraction, seed) triple always marks the same queries —
    replay passes stay comparable.  The remaining items keep their own
    deadlines (usually ``None``).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ServeError(f"tbq fraction must be in [0, 1], got {fraction}")
    if deadline <= 0:
        raise ServeError(f"deadline must be positive, got {deadline}")
    count = round(fraction * len(items))
    rng = derive_rng(seed, "workload:tbq-mix")
    chosen = set(rng.permutation(len(items))[:count].tolist())
    return [
        replace(item, deadline=deadline) if index in chosen else item
        for index, item in enumerate(items)
    ]


POPULARITY_KINDS = ("uniform", "zipf")


@dataclass(frozen=True)
class PopularitySpec:
    """How often each workload query repeats in a replay.

    ``uniform`` (the default) replays every item exactly once — the
    historical behaviour, so existing artifacts replay unchanged.
    ``zipf`` resamples the items under a Zipfian popularity law
    (rank ``r`` drawn with probability ∝ ``r^-s``), the shape real
    query traffic approximates — a few hot queries dominate, a long
    tail trickles.  That skew is what makes an answer cache measurable:
    a uniform replay has no hot keys to hit.

    ``s`` is the skew exponent (larger = hotter head); ``length`` the
    resampled request count (``None`` = same as the item count).
    Picklable and versioned into scenario manifests.
    """

    kind: str = "uniform"
    s: float = 1.1
    length: Optional[int] = None

    def __post_init__(self):
        if self.kind not in POPULARITY_KINDS:
            raise ServeError(
                f"unknown popularity kind {self.kind!r} "
                f"(expected one of {POPULARITY_KINDS})"
            )
        if self.kind == "zipf" and self.s <= 0:
            raise ServeError(f"zipf exponent must be positive, got {self.s}")
        if self.length is not None and self.length < 1:
            raise ServeError(
                f"popularity length must be at least 1, got {self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "PopularitySpec":
        """Parse ``"uniform"`` or ``"zipf:<s>[:<length>]"``."""
        parts = text.strip().split(":")
        kind = parts[0]
        if kind == "uniform":
            if len(parts) > 1:
                raise ServeError("uniform popularity takes no parameters")
            return cls()
        if kind != "zipf":
            raise ServeError(
                f"unknown popularity spec {text!r} "
                "(expected 'uniform' or 'zipf:<s>[:<length>]')"
            )
        if len(parts) < 2 or len(parts) > 3:
            raise ServeError(
                f"zipf popularity needs 'zipf:<s>[:<length>]', got {text!r}"
            )
        try:
            s = float(parts[1])
            length = int(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ServeError(f"bad popularity spec {text!r}: {exc}") from None
        return cls(kind="zipf", s=s, length=length)

    def manifest(self) -> Dict[str, object]:
        return {"kind": self.kind, "s": self.s, "length": self.length}

    @classmethod
    def from_manifest(cls, payload: Dict[str, object]) -> "PopularitySpec":
        return cls(
            kind=payload["kind"], s=payload["s"], length=payload["length"]
        )

    def describe(self) -> str:
        if self.kind == "uniform":
            return "uniform (each query once)"
        suffix = f", {self.length} requests" if self.length is not None else ""
        return f"zipf(s={self.s}{suffix})"


def apply_popularity(
    items: Sequence[WorkloadItem],
    spec: Optional[PopularitySpec],
    seed: int,
) -> List[WorkloadItem]:
    """Resample ``items`` under ``spec`` (seeded; identity for uniform).

    Popularity ranks are assigned to items through a seeded permutation
    — which query becomes the hot head is itself part of the draw, not
    an artifact of generation order.  The same ``(items, spec, seed)``
    triple always yields the same request sequence.
    """
    if spec is None or spec.kind == "uniform":
        return list(items)
    if not items:
        return []
    count = len(items)
    length = spec.length if spec.length is not None else count
    rng = derive_rng(seed, "workload:popularity")
    rank_to_item = rng.permutation(count)
    weights = [(rank + 1) ** -spec.s for rank in range(count)]
    total = sum(weights)
    draws = rng.choice(count, size=length, p=[w / total for w in weights])
    return [items[int(rank_to_item[int(rank)])] for rank in draws]


def _arrival_schedule(
    count: int, rate: float, arrival: str, seed: int
) -> List[float]:
    """Scheduled arrival offsets (seconds from replay start) per request."""
    if arrival == "uniform":
        return [index / rate for index in range(count)]
    # Poisson process: i.i.d. exponential gaps with mean 1/rate.  Seeded,
    # so a replay is reproducible; the schedule is fixed up front (open
    # loop — arrivals never wait for completions).
    rng = derive_rng(seed, "workload:poisson-arrivals")
    gaps = rng.exponential(scale=1.0 / rate, size=count)
    schedule: List[float] = []
    clock = 0.0
    for gap in gaps:
        clock += float(gap)
        schedule.append(clock)
    return schedule


def replay(
    service: QueryService,
    items: Sequence[Union[WorkloadItem, QueryRequest, QueryGraph]],
    *,
    rate: Optional[float] = None,
    arrival: str = "uniform",
    seed: int = 0,
    k: int = 10,
    breakdown: bool = False,
    on_result: Optional[Callable] = None,
) -> ReplayReport:
    """Replay ``items`` through ``service`` and measure the experience.

    Args:
        service: the serving front-end under load.
        items: workload items (bare :class:`QueryGraph` entries get ``k``).
        rate: open-loop arrival rate in queries/second; ``None`` submits
            everything immediately.
        arrival: arrival process — ``"uniform"`` (fixed spacing) or
            ``"poisson"`` (seeded exponential gaps at mean rate ``rate``).
        seed: RNG seed for the Poisson schedule.
        breakdown: collect each query's search-vs-assembly split into
            :attr:`ReplayReport.breakdown`.
        on_result: optional ``(index, request, result)`` callback invoked
            (serialised under the report lock) for every successful
            query — the hook scenario replays use to collect answer sets
            without the report having to carry full results.
    """
    if rate is not None and rate <= 0:
        raise ServeError(f"arrival rate must be positive, got {rate}")
    if arrival not in ARRIVAL_PROCESSES:
        raise ServeError(
            f"unknown arrival process {arrival!r} "
            f"(expected one of {ARRIVAL_PROCESSES})"
        )
    requests = []
    classes: List[str] = []
    for item in items:
        if isinstance(item, WorkloadItem):
            requests.append(item.to_request())
            classes.append(item.complexity)
        elif isinstance(item, QueryRequest):
            requests.append(item)
            classes.append("")
        else:
            requests.append(QueryRequest(query=item, k=k))
            classes.append("")

    latencies: List[float] = []
    class_latencies: Dict[str, List[float]] = {}
    failures = [0]
    truncated = [0]
    splits: List[QueryBreakdown] = []
    lock = threading.Lock()
    done = threading.Semaphore(0)
    resilience_keys = (
        "retries",
        "pool_rebuilds",
        "shed",
        "crashes",
        "timeouts",
        "fallbacks",
    )
    answer_keys = (
        "answer_hits",
        "answer_misses",
        "singleflight_collapsed",
        "answer_evictions",
        "answer_invalidations",
    )
    stats_before = service.stats_snapshot()
    watch = Stopwatch()

    def _submit(request: QueryRequest, scheduled: float, index: int) -> None:
        try:
            future = service.submit_request(request)
        except OverloadError:
            # A shed request is a failed request, not a failed replay:
            # the admission queue doing its job under overload must not
            # abort the remaining schedule.
            with lock:
                failures[0] += 1
            done.release()
            return

        def _finish(f) -> None:
            latency = watch.elapsed() - scheduled
            with lock:
                if f.exception() is None:
                    latencies.append(latency)
                    if classes[index]:
                        class_latencies.setdefault(classes[index], []).append(
                            latency
                        )
                    result = f.result()
                    if on_result is not None:
                        on_result(index, request, result)
                    if result.ta_truncated:
                        truncated[0] += 1
                    if breakdown:
                        splits.append(
                            QueryBreakdown(
                                qid=request.tag or f"q{index}",
                                elapsed_seconds=result.elapsed_seconds,
                                search_seconds=result.search_seconds,
                                assembly_seconds=result.assembly_seconds,
                                ta_rounds=result.ta_rounds,
                                truncated=result.ta_truncated,
                                expansions=result.expansions,
                                pruned_by_tau=result.pruned_by_tau,
                                pruned_by_visited=result.pruned_by_visited,
                                stale_pops=result.stale_pops,
                                max_queue_size=result.max_queue_size,
                            )
                        )
                else:
                    failures[0] += 1
            done.release()

        future.add_done_callback(_finish)

    schedule = (
        _arrival_schedule(len(requests), rate, arrival, seed)
        if rate is not None
        else None
    )
    for index, request in enumerate(requests):
        if schedule is None:
            # Unpaced: no schedule exists, so latency starts at the
            # actual submission instant.
            _submit(request, watch.elapsed(), index)
            continue
        scheduled = schedule[index]
        delay = scheduled - watch.elapsed()
        if delay > 0:
            time.sleep(delay)
        # Latency is measured from the *scheduled* arrival even when the
        # generator falls behind — hiding generator lag would be the
        # classic coordinated-omission distortion open-loop replay exists
        # to avoid.
        _submit(request, scheduled, index)

    for _ in requests:
        done.acquire()
    elapsed = watch.elapsed()

    stats = service.serving_stats()
    stats_after = service.stats_snapshot()
    resilience = {
        key: getattr(stats_after, key) - getattr(stats_before, key)
        for key in resilience_keys
    }
    answers = {
        key: getattr(stats_after, key) - getattr(stats_before, key)
        for key in answer_keys
    }
    return ReplayReport(
        completed=len(latencies),
        failed=failures[0],
        elapsed_seconds=elapsed,
        latencies=sorted(latencies),
        rate=rate,
        cache_stats=stats.cache,
        truncated=truncated[0],
        breakdown=splits if breakdown else None,
        class_latencies={
            cls: sorted(values) for cls, values in class_latencies.items()
        },
        arrival=arrival,
        deadline_requests=sum(
            1 for request in requests if request.deadline is not None
        ),
        stats=stats,
        resilience=resilience,
        answers=answers,
    )


# ----------------------------------------------------------------------
# console entrypoint
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-workload",
        description=(
            "Replay a preset query workload through the cache-backed "
            "QueryService and report throughput/latency per pass."
        ),
    )
    parser.add_argument(
        "--preset",
        default="dbpedia",
        choices=("dbpedia", "freebase", "yago2"),
        help="dataset bundle to generate (default: dbpedia)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="PATH",
        help=(
            "replay a frozen scenario Workload artifact (see "
            "repro.scenarios) instead of a preset workload; the artifact "
            "fixes the domain, query set, k, tau, arrival spec and "
            "deadline mix, so --preset/--scale/--seed/--k are ignored and "
            "--rate/--arrival/--deadline/--tbq-fraction are rejected"
        ),
    )
    parser.add_argument("--scale", type=float, default=2.0, help="generator scale")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    parser.add_argument("--k", type=int, default=10, help="top-k per query")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="replay passes over the workload (pass 1 is cold)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in qps (default: unpaced)",
    )
    parser.add_argument(
        "--arrival",
        default="uniform",
        choices=ARRIVAL_PROCESSES,
        help=(
            "arrival process when --rate is set: 'uniform' fixed spacing "
            "or 'poisson' seeded exponential gaps (default: uniform)"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "per-query TBQ deadline in seconds; applies to every query, "
            "or to the --tbq-fraction slice when that is set "
            "(default: exact SGQ)"
        ),
    )
    parser.add_argument(
        "--tbq-fraction",
        type=float,
        default=None,
        help=(
            "fraction of queries (seeded selection) served time-bounded "
            "with --deadline; the rest run exact SGQ (default: all-or-"
            "nothing per --deadline)"
        ),
    )
    parser.add_argument(
        "--backend",
        default="thread",
        choices=EXECUTION_BACKENDS,
        help=(
            "execution backend: 'inline' (caller's thread), 'thread' "
            "(GIL-bound pool, shared caches) or 'process' (true multi-"
            "core parallelism; per-worker engines bootstrapped from a "
            "pickled EngineSpec).  Identical exact results on all three."
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker pool size (threads or processes; ignored by inline)",
    )
    parser.add_argument(
        "--shared-graph",
        action="store_true",
        help=(
            "process backend only: publish the "
            "frozen CSR graph into one shared-memory segment; workers "
            "attach zero-copy instead of unpickling graph arrays "
            "(identical results, O(metadata) worker warmup, one physical "
            "graph copy pool-wide)"
        ),
    )
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help=(
            "report each query's search-vs-assembly time split per pass "
            "(engine instrumentation; identifies assembly-bound queries)"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection spec, e.g. "
            "'crash@3;transient@2,5;latency@4:0.05;seed=7;epochs=2' "
            "(see repro.serve.faults.FaultPlan.parse); implies supervised "
            "serving so the replay recovers from the injected faults"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry budget per request for retryable failures (transient "
            "errors, worker crashes); implies supervised serving "
            "(default: 2 when supervision is on)"
        ),
    )
    parser.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-request wall-clock cap enforced by the supervisor (fails "
            "the request; distinct from a TBQ --deadline, which degrades "
            "the answer); implies supervised serving"
        ),
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission-queue bound: shed submissions beyond N in-flight "
            "requests with OverloadError; implies supervised serving"
        ),
    )
    parser.add_argument(
        "--answer-cache",
        type=int,
        default=0,
        metavar="N",
        help=(
            "enable the front-side result-level answer cache with an LRU "
            "capacity of N entries: exact (SGQ) answers are memoized "
            "under a canonical query fingerprint with singleflight "
            "dedup, so repeated hot queries skip the engine (and IPC on "
            "the process backend) entirely (default: 0 = off)"
        ),
    )
    parser.add_argument(
        "--answer-cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-entry time-to-live for --answer-cache entries; expired "
            "answers recompute on next access (default: no expiry)"
        ),
    )
    parser.add_argument(
        "--popularity",
        default="uniform",
        metavar="SPEC",
        help=(
            "query repetition law: 'uniform' replays each workload query "
            "once (default, the historical behaviour), 'zipf:<s>[:<len>]' "
            "resamples the queries Zipf-skewed with exponent s (seeded), "
            "giving the replay genuine hot keys — the traffic shape that "
            "makes --answer-cache measurable.  With --scenario this "
            "resamples the artifact's fixed query sequence."
        ),
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help=(
            "wrap the backend in the SupervisedBackend even without any "
            "other resilience flag (retries, pool rebuild on worker "
            "crash, circuit-breaker fallback)"
        ),
    )
    return parser


def _resilience_kwargs(args, parser) -> Dict[str, object]:
    """Validate the resilience flags and build QueryService.build kwargs."""
    if args.retries is not None and args.retries < 0:
        parser.error(f"--retries must be non-negative, got {args.retries}")
    if args.hard_timeout is not None and args.hard_timeout <= 0:
        parser.error(
            f"--hard-timeout must be positive, got {args.hard_timeout}"
        )
    if args.max_pending is not None and args.max_pending < 1:
        parser.error(
            f"--max-pending must be at least 1, got {args.max_pending}"
        )
    kwargs: Dict[str, object] = {}
    if args.fault_plan is not None:
        try:
            kwargs["fault_plan"] = FaultPlan.parse(args.fault_plan)
        except ServeError as exc:
            parser.error(f"--fault-plan: {exc}")
    if args.retries is not None:
        kwargs["retry_policy"] = BackoffPolicy(retries=args.retries)
    if args.hard_timeout is not None:
        kwargs["hard_timeout"] = args.hard_timeout
    if args.max_pending is not None:
        kwargs["max_pending"] = args.max_pending
    if args.supervised or kwargs:
        kwargs["supervised"] = True
    return kwargs


def _answer_cache_kwargs(args, parser) -> Dict[str, object]:
    """Validate the answer-cache flags and build QueryService.build kwargs."""
    if args.answer_cache < 0:
        parser.error(
            f"--answer-cache must be non-negative, got {args.answer_cache}"
        )
    if args.answer_cache_ttl is not None:
        if args.answer_cache == 0:
            parser.error("--answer-cache-ttl requires --answer-cache")
        if args.answer_cache_ttl <= 0:
            parser.error(
                f"--answer-cache-ttl must be positive, "
                f"got {args.answer_cache_ttl}"
            )
    kwargs: Dict[str, object] = {}
    if args.answer_cache:
        kwargs["answer_cache"] = args.answer_cache
        if args.answer_cache_ttl is not None:
            kwargs["answer_cache_ttl"] = args.answer_cache_ttl
    return kwargs


def _parse_popularity(args, parser) -> PopularitySpec:
    try:
        return PopularitySpec.parse(args.popularity)
    except ServeError as exc:
        parser.error(f"--popularity: {exc}")


def _run_scenario(args, parser) -> int:
    """Replay a frozen scenario artifact (the ``--scenario`` path)."""
    if (
        args.rate is not None
        or args.arrival != "uniform"
        or args.deadline is not None
        or args.tbq_fraction is not None
    ):
        parser.error(
            "--scenario fixes the arrival spec and deadline mix; "
            "--rate/--arrival/--deadline/--tbq-fraction cannot override it"
        )
    # Deferred import: scenario replay pulls in the generator stack.
    from repro.scenarios.replay import (
        answer_digest,
        build_resources,
        scenario_items,
    )
    from repro.scenarios.suite import Workload
    # Under ``python -m repro.serve.workload`` this file runs as
    # ``__main__`` while the scenario machinery imports the canonical
    # ``repro.serve.workload`` module — two distinct ``WorkloadItem``
    # classes.  Replay through the canonical module so its isinstance
    # checks see the class ``scenario_items`` actually constructed.
    from repro.serve.workload import replay as canonical_replay

    try:
        workload = Workload.from_pickle(args.scenario)
    except FileNotFoundError:
        parser.error(f"--scenario: no such artifact: {args.scenario}")
    except ScenarioError as exc:
        parser.error(f"--scenario: {exc}")
    resources = build_resources(workload)
    counts = workload.intent_counts()
    mix = workload.deadline_mix
    print(
        f"scenario {workload.name}: domain {workload.domain} @ scale "
        f"{workload.scale} ({resources.kg.num_entities} entities, "
        f"{resources.kg.num_edges} edges), {len(workload.queries)} queries, "
        f"k={workload.k}, tau={workload.tau} "
        f"({args.backend} backend)"
    )
    print(
        "intent mix: "
        + ", ".join(f"{intent}={count}" for intent, count in counts.items())
    )
    if mix is not None and mix.fraction > 0:
        print(
            f"deadline mix: {mix.fraction:.0%} of queries time-bounded "
            f"at {mix.deadline:.2f} s (seeded selection)"
        )
    items = scenario_items(workload)
    popularity = _parse_popularity(args, parser)
    if popularity.kind != "uniform":
        # Explicit resampling on top of the artifact's fixed sequence
        # (the artifact's own popularity, if any, is already applied by
        # scenario_items) — seeded by the workload, so repeatable.
        items = apply_popularity(items, popularity, workload.seed)
        print(
            f"popularity: {popularity.describe()} — resampled to "
            f"{len(items)} requests"
        )
    kg = resources.kg
    resilience_kwargs = _resilience_kwargs(args, parser)
    answer_kwargs = _answer_cache_kwargs(args, parser)
    plan = resilience_kwargs.get("fault_plan")
    if plan is not None:
        print(f"fault plan: {plan.describe()}")
    if answer_kwargs:
        ttl = answer_kwargs.get("answer_cache_ttl")
        ttl_note = f", ttl {ttl} s" if ttl is not None else ""
        print(f"answer cache: {args.answer_cache} entries{ttl_note}")
    with QueryService.build(
        resources.kg,
        resources.space,
        resources.library,
        resources.config,
        backend=args.backend,
        workers=args.workers,
        shared_graph=args.shared_graph,
        **resilience_kwargs,
        **answer_kwargs,
    ) as service:
        if args.backend == "process":
            warmed = service.warmup()
            graph_note = " (shared graph)" if args.shared_graph else ""
            print(
                f"warmed {warmed}/{service.workers} process workers"
                f"{graph_note}"
            )
        for run in range(1, args.repeats + 1):
            service.reset_serving_stats()
            answers: Dict[str, List[str]] = {}

            def _collect(index, request, result) -> None:
                if request.deadline is None:
                    answers[request.tag] = sorted(
                        kg.entity(uid).name for uid in result.answer_uids()
                    )

            report = canonical_replay(
                service,
                items,
                rate=workload.arrival.rate,
                arrival=(
                    workload.arrival.process
                    if workload.arrival.rate is not None
                    else "uniform"
                ),
                seed=workload.seed,
                breakdown=args.breakdown,
                on_result=_collect,
            )
            label = "cold" if run == 1 else "warm"
            print(f"\n--- pass {run}/{args.repeats} ({label}) ---")
            print(report.describe())
            # The determinism contract: identical seeds must print an
            # identical digest on every pass, run and backend.
            print(
                f"exact-match digest: {answer_digest(answers)} "
                f"({len(answers)} exact queries)"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-serve-workload`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.k < 1:
        parser.error(f"--k must be at least 1, got {args.k}")
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.rate is not None and args.rate <= 0:
        parser.error(f"--rate must be positive, got {args.rate}")
    if args.arrival == "poisson" and args.rate is None:
        parser.error("--arrival poisson requires --rate")
    if args.deadline is not None and args.deadline <= 0:
        parser.error(f"--deadline must be positive, got {args.deadline}")
    if args.tbq_fraction is not None:
        if not 0.0 <= args.tbq_fraction <= 1.0:
            parser.error(
                f"--tbq-fraction must be in [0, 1], got {args.tbq_fraction}"
            )
        if args.deadline is None and args.tbq_fraction > 0:
            parser.error("--tbq-fraction requires --deadline")
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.shared_graph and args.backend != "process":
        parser.error("--shared-graph requires --backend process")
    if args.scenario is not None:
        return _run_scenario(args, parser)
    # Deferred import: bundle generation pulls in the full bench stack.
    from repro.bench.datasets import load_bundle

    bundle = load_bundle(args.preset, scale=args.scale, seed=args.seed)
    print(
        f"{args.preset}: {bundle.kg.num_entities} entities, "
        f"{bundle.kg.num_edges} edges, {len(bundle.workload)} queries "
        f"({args.backend} backend)"
    )
    # With a --tbq-fraction only the seeded slice gets the deadline;
    # without one the historical all-or-nothing semantics apply.
    per_item_deadline = None if args.tbq_fraction is not None else args.deadline
    items = [
        WorkloadItem(
            query=q.query,
            k=args.k,
            deadline=per_item_deadline,
            qid=q.qid,
            complexity=q.complexity,
        )
        for q in bundle.workload
    ]
    if args.tbq_fraction:
        items = mix_deadlines(
            items, args.tbq_fraction, args.deadline, seed=args.seed
        )
    popularity = _parse_popularity(args, parser)
    if popularity.kind != "uniform":
        items = apply_popularity(items, popularity, args.seed)
        print(
            f"popularity: {popularity.describe()} — resampled to "
            f"{len(items)} requests"
        )
    resilience_kwargs = _resilience_kwargs(args, parser)
    answer_kwargs = _answer_cache_kwargs(args, parser)
    plan = resilience_kwargs.get("fault_plan")
    if plan is not None:
        print(f"fault plan: {plan.describe()}")
    if answer_kwargs:
        ttl = answer_kwargs.get("answer_cache_ttl")
        ttl_note = f", ttl {ttl} s" if ttl is not None else ""
        print(f"answer cache: {args.answer_cache} entries{ttl_note}")
    with QueryService.build(
        bundle.kg,
        bundle.space,
        bundle.library,
        backend=args.backend,
        workers=args.workers,
        shared_graph=args.shared_graph,
        **resilience_kwargs,
        **answer_kwargs,
    ) as service:
        if args.backend == "process":
            warmed = service.warmup()
            graph_note = " (shared graph)" if args.shared_graph else ""
            print(
                f"warmed {warmed}/{service.workers} process workers"
                f"{graph_note}"
            )
        for run in range(1, args.repeats + 1):
            service.reset_serving_stats()
            report = replay(
                service,
                items,
                rate=args.rate,
                arrival=args.arrival,
                seed=args.seed,
                breakdown=args.breakdown,
            )
            label = "cold" if run == 1 else "warm"
            print(f"\n--- pass {run}/{args.repeats} ({label}) ---")
            print(report.describe())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
