"""Batched query serving on top of the SGQ/TBQ engine.

The engine answers one query at a time; a production deployment sees a
*workload* — many queries, often repeated, often with per-query latency
budgets.  :class:`QueryService` is the serving seam between the two:

- a pluggable **execution backend** (:mod:`repro.serve.backends`) runs
  the searches: ``inline`` (caller's thread — the reference), ``thread``
  (request-level concurrency, shared caches, GIL-bound compute) or
  ``process`` (true multi-core parallelism; each worker bootstraps a
  private engine once from a pickled
  :class:`~repro.core.engine.EngineSpec` and reuses it across requests);
- a shared :class:`~repro.serve.cache.SemanticGraphCache` backs every
  query's semantic-graph view on the shared-memory backends, so the
  workload amortises edge weighting and ``m(u)`` derivation across
  queries; process workers each own a private cache with the same role;
- **decomposition memoization**: repeated query shapes (same nodes, edges,
  pivot policy) reuse the minCost decomposition instead of re-running the
  Eq. 1 cost model — per service on shared-memory backends, per worker on
  the process backend;
- an optional **result-level answer cache**
  (:mod:`repro.serve.answer_cache`): exact answers memoized under a
  canonical query fingerprint (permutation/alias-insensitive, bound to
  the graph epoch) with singleflight dedup, front-of-process so hits
  skip the execution backend entirely;
- **per-query deadlines** map onto the existing
  :class:`~repro.core.time_bounded.TimeBoundedCoordinator` — a request
  with ``deadline=T`` runs the paper's TBQ (Algorithms 2-3) with the time
  already spent waiting in the worker queue subtracted from ``T`` (a
  deadline bounds latency, not service time), while requests without a
  deadline get exact SGQ semantics.

``submit`` returns a future; ``submit_batch`` and ``search_many`` are the
batch conveniences.  Exact (SGQ) results are bit-identical to calling
``engine.search`` sequentially on **every** backend: caches store pure
functions of the graph/space, memoized decompositions are deterministic,
worker scheduling never reorders per-query state, and a process worker's
engine is built from a pickle-faithful copy of the same graph, space and
library.  The cross-backend conformance suite
(``tests/test_serve_backends.py``) and CI gate 4
(``scripts/bench_smoke.py``) pin this.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import SearchConfig
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.core.results import QueryResult, QueryResultPayload
from repro.embedding.predicate_space import PredicateSpace, SpaceCacheStats
from repro.errors import ServeError
from repro.kg.compact import CompactGraph, SharedCompactGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.shm import leaked_segments
from repro.query.model import QueryGraph
from repro.query.transform import TransformationLibrary
from repro.serve.answer_cache import (
    AnswerCache,
    AnswerCacheStats,
    EngineFingerprint,
    canonicalize,
)
from repro.serve.backends import (
    EXECUTION_BACKENDS,
    MIN_TIME_BOUND,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    WorkerSnapshot,
    _EngineRunner,
    aggregate_snapshots,
    diff_snapshots,
)
from repro.serve.cache import CacheStats, SemanticGraphCache
from repro.serve.faults import FaultPlan
from repro.serve.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    ResilienceStats,
    SupervisedBackend,
)

__all__ = [
    "QueryRequest",
    "QueryService",
    "ServiceStats",
    "ServingStatsReport",
    "MIN_TIME_BOUND",
    "query_shape_key",
]


@dataclass(frozen=True)
class QueryRequest:
    """One unit of serving work.

    ``deadline`` (seconds) switches the request to the time-bounded TBQ
    path; ``None`` means exact SGQ.  ``pivot``/``strategy`` pass through to
    decomposition; ``tag`` is an opaque caller label echoed in errors.

    Requests are picklable (the query graph is plain value objects), so
    one request value serves every execution backend unchanged.
    """

    query: QueryGraph
    k: int = 10
    deadline: Optional[float] = None
    pivot: Optional[str] = None
    strategy: str = "min_cost"
    tag: Optional[str] = None


@dataclass
class ServiceStats:
    """Serving counters (monotonic over the service's lifetime).

    Writers mutate the live object under the service's stats lock;
    reading the attributes directly is unsynchronised (fine for quiescent
    services and monotonic counters, but ``in_flight`` combines three of
    them) — monitoring code should use :meth:`QueryService.stats_snapshot`.

    ``backend`` names the execution backend serving the counters, so a
    report can say which stats-aggregation semantics apply (shared
    structures vs summed per-worker copies — see
    :meth:`QueryService.serving_stats`).

    The resilience counters (``retries`` … ``fallbacks``) stay zero on
    an unsupervised service; under supervision they mirror the
    :class:`~repro.serve.resilience.SupervisedBackend` event stream.  A
    shed or timed-out request is *also* counted in ``failed`` (its
    future resolves with an error); a retried request is counted
    ``completed`` or ``failed`` exactly once, by its final outcome.

    The answer-cache counters (``answer_hits`` … ``answer_invalidations``)
    stay zero without an :class:`~repro.serve.answer_cache.AnswerCache`.
    A hit or collapsed follower is still ``submitted`` and ``completed``
    — it just never reached the execution backend.  ``answer_evictions``
    and ``answer_invalidations`` live inside the cache and are mirrored
    into :meth:`QueryService.stats_snapshot` copies (the live object
    keeps them zero).
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    time_bounded: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    shed: int = 0
    crashes: int = 0
    timeouts: int = 0
    fallbacks: int = 0
    answer_hits: int = 0
    answer_misses: int = 0
    singleflight_collapsed: int = 0
    answer_evictions: int = 0
    answer_invalidations: int = 0
    backend: str = "thread"

    @property
    def in_flight(self) -> int:
        return self.submitted - self.completed - self.failed


@dataclass(frozen=True)
class ServingStatsReport:
    """Cache/memo statistics with their aggregation scope spelled out.

    ``scope`` is ``"shared"`` when the numbers read live shared
    structures (inline/thread backends: one weight cache, one space, one
    memo) and ``"per-worker-sum"`` when they are summed over per-worker
    copies (process backend) — a distinction reports must label, because
    a summed hit rate describes pool-wide behaviour, not any single
    cache, and misses repeated once per worker are expected there.

    The answer cache is the exception: it sits front-of-process in the
    service, one instance regardless of backend, so ``answers`` carries
    its own ``answer_scope`` — always ``"shared"``, even while the
    worker caches above report a per-worker sum.
    """

    backend: str
    scope: str
    workers_reporting: int
    queries: int
    cache: CacheStats
    space: SpaceCacheStats
    memo_hits: int
    memo_misses: int
    answers: Optional[AnswerCacheStats] = None
    answer_scope: str = "shared"

    @property
    def memo_hit_rate(self) -> float:
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    def scope_label(self) -> str:
        if self.scope == "per-worker-sum":
            return (
                f"per-worker sum, {self.workers_reporting} worker"
                f"{'s' if self.workers_reporting != 1 else ''} reporting"
            )
        return "shared"

    def describe(self) -> str:
        lines = [
            f"stats scope [{self.backend} backend]: {self.scope_label()}",
            f"weight cache ({self.scope_label()}): {self.cache.describe()}",
            f"space {self.space.describe()}",
            f"decomposition memo: hits={self.memo_hits} "
            f"misses={self.memo_misses} "
            f"hit_rate={self.memo_hit_rate:.3f}",
        ]
        if self.answers is not None:
            # Deliberately not scope_label(): the answer cache is one
            # front-side instance even over the process backend.
            lines.append(
                f"answer cache ({self.answer_scope}): "
                f"{self.answers.describe()}"
            )
        return "\n".join(lines)


def query_shape_key(
    query: QueryGraph, pivot: Optional[str], strategy: str
) -> Tuple:
    """A canonical, hashable key for a query's decomposition inputs.

    Two structurally identical query graphs (same labelled nodes with the
    same names/types, same labelled edges) decompose identically under the
    same pivot policy, so they may share one memoized decomposition.
    """
    # None-ness is encoded explicitly: a target node (name=None) and a
    # specific node literally named "" are different queries.
    nodes = tuple(
        sorted(
            (n.label, n.etype is None, n.etype or "", n.name is None, n.name or "")
            for n in query.nodes()
        )
    )
    edges = tuple(
        sorted((e.label, e.source, e.predicate, e.target) for e in query.edges())
    )
    return (nodes, edges, pivot or "", strategy)


def _share_graph(spec: EngineSpec) -> Tuple[EngineSpec, SharedCompactGraph]:
    """Rewrite a spec to ship its graph by shared-memory reference.

    Freezes the CSR kernel if the spec does not already carry one,
    publishes its columns into one segment, and returns the worker-bound
    spec — ``kg`` and ``compact_graph`` dropped, ``graph_handle`` set, so
    its pickle is O(metadata) — together with the owning lease the caller
    must keep alive while workers are attached and close afterwards.
    """
    compact_graph = spec.compact_graph
    if compact_graph is None:
        assert spec.kg is not None
        compact_graph = CompactGraph.freeze(spec.kg)
    lease = compact_graph.to_shared()
    shared_spec = replace(
        spec, kg=None, compact_graph=None, graph_handle=lease.handle
    )
    return shared_spec, lease


class QueryService:
    """Concurrent, cache-backed front-end over one query engine.

    Args:
        engine: the engine to serve (shared-memory backends execute on it
            directly; the process backend ships ``engine.to_spec()`` to
            its workers).  May be ``None`` when ``spec`` is given — the
            process backend then never builds a parent-side engine at
            all.
        spec: a picklable :class:`~repro.core.engine.EngineSpec`
            describing the engine; required (directly or via ``engine``)
            for the process backend.
        backend: ``"inline"``, ``"thread"`` (default) or ``"process"``.
        max_workers: worker-pool size for the pooled backends (ignored by
            ``inline``).  ``workers`` is an alias that wins when given.
        cache: explicit :class:`SemanticGraphCache` to share (e.g. between
            services over the same graph); default builds a private one.
            Shared-memory backends only — process workers own private
            caches by construction.
        memoize_decompositions: reuse decompositions across identical
            query shapes.
        max_memoized: LRU bound on the decomposition memo.
        start_method: multiprocessing start method for the process
            backend (``None`` = platform default).
        shared_graph: process backend only — publish the frozen
            :class:`~repro.kg.compact.CompactGraph` into one shared-memory
            segment and ship workers a
            :class:`~repro.kg.compact.CompactGraphHandle` instead of the
            graph arrays.  Workers attach zero-copy (O(metadata) warmup,
            one physical graph copy pool-wide); results stay bit-identical.
            The service owns the segment: it is
            unlinked on :meth:`close` (after the pool is down) and by a
            finalizer if the owner crashes.
        supervised: wrap the backend in a
            :class:`~repro.serve.resilience.SupervisedBackend` — retries
            for retryable failures, in-place pool rebuild on
            ``BrokenProcessPool`` (releasing and re-acquiring the shared
            graph lease), circuit-breaker fallback to an inline engine,
            optional hard timeout and load shedding.  Implied by any of
            ``fault_plan`` / ``retry_policy`` / ``hard_timeout`` /
            ``max_pending``.
        fault_plan: a :class:`~repro.serve.faults.FaultPlan` injected
            into the serving path (process workers receive it through
            the spec; shared-memory backends activate it in-process) for
            deterministic chaos runs.
        retry_policy: a :class:`~repro.serve.resilience.BackoffPolicy`
            overriding the default retry budget and backoff shape.
        hard_timeout: per-request wall-clock bound (seconds) on future
            resolution; fires :class:`~repro.errors.RequestTimeoutError`.
            Distinct from a TBQ ``deadline``, which budgets the search.
        max_pending: bounded admission — submissions beyond this many
            unresolved requests raise
            :class:`~repro.errors.OverloadError` instead of queueing.
        breaker_threshold / breaker_cooldown: consecutive pool breaks
            that open the circuit, and seconds before a half-open probe.
        answer_cache: result-level answer caching
            (:mod:`repro.serve.answer_cache`).  An ``int`` enables a
            private LRU of that capacity; an
            :class:`~repro.serve.answer_cache.AnswerCache` instance is
            shared (e.g. across services over the same graph — it binds
            to this engine's fingerprint and self-clears on epoch
            change); ``None``/``0`` (default) disables.  The cache sits
            *front-of-process*: hits and collapsed singleflight
            followers never reach the execution backend — a hit skips
            IPC on the process backend and, under supervision, consumes
            no retry budget and never counts toward ``max_pending``
            admission.  Only exact (SGQ) requests participate;
            time-bounded requests always execute.
        answer_cache_ttl: optional per-entry time-to-live (seconds) for
            the private cache built from an ``int`` ``answer_cache``.

    Use as a context manager or call :meth:`close` to release the pool.
    """

    def __init__(
        self,
        engine: Optional[SemanticGraphQueryEngine] = None,
        *,
        spec: Optional[EngineSpec] = None,
        backend: str = "thread",
        max_workers: int = 4,
        workers: Optional[int] = None,
        cache: Optional[SemanticGraphCache] = None,
        memoize_decompositions: bool = True,
        max_memoized: int = 1024,
        start_method: Optional[str] = None,
        shared_graph: bool = False,
        supervised: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[BackoffPolicy] = None,
        hard_timeout: Optional[float] = None,
        max_pending: Optional[int] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        answer_cache: Union[None, int, AnswerCache] = None,
        answer_cache_ttl: Optional[float] = None,
    ):
        if backend not in EXECUTION_BACKENDS:
            raise ServeError(
                f"unknown execution backend {backend!r} "
                f"(expected one of {EXECUTION_BACKENDS})"
            )
        if workers is not None:
            max_workers = workers
        if max_workers < 1:
            raise ServeError(f"max_workers must be at least 1, got {max_workers}")
        if max_memoized < 1:
            raise ServeError(f"max_memoized must be at least 1, got {max_memoized}")
        if engine is None and spec is None:
            raise ServeError("QueryService needs an engine or an EngineSpec")
        if shared_graph and backend != "process":
            raise ServeError(
                "shared_graph only applies to the process backend — "
                "shared-memory backends already share the one in-process "
                "graph"
            )
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ServeError(
                f"fault_plan must be a FaultPlan, got {type(fault_plan).__name__}"
            )
        supervised = bool(
            supervised
            or fault_plan is not None
            or retry_policy is not None
            or hard_timeout is not None
            or max_pending is not None
        )

        self.backend_name = backend
        self.workers = max_workers if backend != "inline" else 1
        self.stats = ServiceStats(backend=backend)
        self._stats_lock = threading.Lock()
        self._lock = threading.Lock()
        self._closed = False
        self._stats_baseline: Optional[WorkerSnapshot] = None
        self._graph_lease: Optional[SharedCompactGraph] = None
        self._supervised = supervised
        self._fault_plan = fault_plan
        self._retry_policy = (
            retry_policy if retry_policy is not None else BackoffPolicy()
        )
        self._hard_timeout = hard_timeout
        self._max_pending = max_pending
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown

        if backend == "process":
            if cache is not None:
                raise ServeError(
                    "the process backend cannot share a SemanticGraphCache "
                    "across workers — each worker owns a private cache; "
                    "drop the cache argument"
                )
            if spec is None:
                assert engine is not None
                spec = engine.to_spec()  # raises on unpicklable setups
            self.engine = engine
            self.cache = None
            # The pre-share spec (graph arrays still by value) is what a
            # pool *rebuild* republishes the shared segment from, and
            # what the circuit-breaker fallback builds its inline engine
            # from; self.spec below is the worker-bound (possibly
            # handle-carrying) variant of the current pool generation.
            self._base_spec = spec
            self._shared_graph = shared_graph
            self._pool_settings = dict(
                memoize_decompositions=memoize_decompositions,
                max_memoized=max_memoized,
                start_method=start_method,
            )
            self.spec: Optional[EngineSpec] = spec
            # Fingerprint from the pre-share base spec: a pool rebuild
            # republishes the same graph, so the epoch is unchanged.
            self._init_answer_cache(
                answer_cache,
                answer_cache_ttl,
                EngineFingerprint.from_spec(self._base_spec),
            )
            inner: ExecutionBackend = self._build_pool()
            self._backend: ExecutionBackend = (
                self._supervise(inner, rebuildable=True) if supervised else inner
            )
            return

        if engine is None:
            assert spec is not None
            engine = build_engine(spec)
        if cache is not None:
            engine.weight_cache = cache
        elif engine.weight_cache is None:
            engine.weight_cache = SemanticGraphCache()
        self.engine = engine
        self.cache = engine.weight_cache
        self.spec = spec
        faults = None
        if fault_plan is not None and fault_plan.active:
            # In-process injection: crashes surface as WorkerCrashError
            # (killing the only process would defeat the point).
            faults = fault_plan.activate(allow_kill=False)
        runner = _EngineRunner(
            engine,
            memoize_decompositions=memoize_decompositions,
            max_memoized=max_memoized,
            shape_key=query_shape_key,
            faults=faults,
        )
        self._runner = runner
        self._init_answer_cache(
            answer_cache, answer_cache_ttl, EngineFingerprint.from_engine(engine)
        )
        on_complete = None if supervised else self._record_outcome
        if backend == "inline":
            inner = InlineBackend(runner, on_complete=on_complete)
        else:
            inner = ThreadBackend(runner, self.workers, on_complete=on_complete)
        self._backend = (
            self._supervise(inner, rebuildable=False) if supervised else inner
        )

    def _init_answer_cache(
        self,
        answer_cache: Union[None, int, AnswerCache],
        answer_cache_ttl: Optional[float],
        fingerprint: EngineFingerprint,
    ) -> None:
        """Resolve the ``answer_cache`` argument and bind the epoch."""
        if answer_cache is None or answer_cache == 0:
            if answer_cache_ttl is not None:
                raise ServeError(
                    "answer_cache_ttl needs an answer cache; pass "
                    "answer_cache=N to enable one"
                )
            self._answer_cache: Optional[AnswerCache] = None
            self._fingerprint: Optional[EngineFingerprint] = None
            return
        if isinstance(answer_cache, AnswerCache):
            if answer_cache_ttl is not None:
                raise ServeError(
                    "a shared AnswerCache instance carries its own ttl; "
                    "drop answer_cache_ttl or pass a capacity int instead"
                )
            cache = answer_cache
        elif isinstance(answer_cache, int) and not isinstance(answer_cache, bool):
            cache = AnswerCache(answer_cache, ttl_seconds=answer_cache_ttl)
        else:
            raise ServeError(
                "answer_cache must be None, a capacity int or an "
                f"AnswerCache, got {type(answer_cache).__name__}"
            )
        cache.bind(fingerprint)
        self._answer_cache = cache
        self._fingerprint = fingerprint

    def _supervise(
        self, inner: ExecutionBackend, *, rebuildable: bool
    ) -> SupervisedBackend:
        return SupervisedBackend(
            inner,
            policy=self._retry_policy,
            hard_timeout=self._hard_timeout,
            max_pending=self._max_pending,
            breaker=CircuitBreaker(
                threshold=self._breaker_threshold,
                cooldown_seconds=self._breaker_cooldown,
            ),
            rebuild=self._rebuild_pool if rebuildable else None,
            fallback_factory=self._build_fallback if rebuildable else None,
            on_complete=self._record_outcome,
            on_event=self._record_event,
        )

    def _build_pool(self) -> ProcessBackend:
        """Construct a process pool generation from the base spec.

        Stamps the current fault plan into the worker-bound spec (so
        chaos rides the same vehicle as the engine description) and, for
        shared-graph services, publishes a fresh shared-memory segment.
        On construction failure the just-acquired lease is released with
        a stranded-segment probe — the pool never came up, so nobody
        else will.
        """
        spec = self._base_spec
        plan = self._fault_plan
        if plan is not None and plan.active:
            spec = replace(spec, fault_plan=plan)
        lease = None
        if self._shared_graph:
            spec, lease = _share_graph(spec)
        try:
            backend = ProcessBackend(
                spec,
                self.workers,
                on_complete=None if self._supervised else self._record_outcome,
                **self._pool_settings,
            )
        except BaseException:
            if lease is not None:
                self._release_lease(lease)
            raise
        self._graph_lease = lease
        self.spec = spec
        return backend

    def _rebuild_pool(self) -> ProcessBackend:
        """Replace a broken pool in place (supervisor callback).

        Runs under the supervisor's pool lock, strictly after the broken
        pool's shutdown was initiated: release the old shared-memory
        lease (probing that its segment really left ``/dev/shm``),
        advance the fault plan one epoch so a chaos plan does not crash
        the replacement pool forever, and re-acquire exactly one fresh
        lease via :meth:`_build_pool`.
        """
        lease, self._graph_lease = self._graph_lease, None
        if lease is not None:
            self._release_lease(lease)
        if self._fault_plan is not None:
            self._fault_plan = self._fault_plan.next_epoch()
        return self._build_pool()

    @staticmethod
    def _release_lease(lease: SharedCompactGraph) -> None:
        """Release an owned shm lease, asserting the segment vanished."""
        name = lease.name
        lease.close()
        if name in leaked_segments():
            raise ServeError(
                f"shared-memory segment {name!r} is still present in "
                "/dev/shm after its lease was released — refusing to "
                "continue with a leak"
            )

    def _build_fallback(self) -> ExecutionBackend:
        """Degraded-mode backend: an inline engine in this process.

        Built from the pre-share base spec with the fault plan stripped
        (the fallback exists to survive chaos, not to re-inject it).
        """
        spec = replace(self._base_spec, fault_plan=None)
        engine = build_engine(spec, weight_cache=SemanticGraphCache())
        runner = _EngineRunner(
            engine,
            shape_key=query_shape_key,
            **{
                k: v
                for k, v in self._pool_settings.items()
                if k in ("memoize_decompositions", "max_memoized")
            },
        )
        return InlineBackend(runner, on_complete=None)

    # ------------------------------------------------------------------
    # construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        kg: KnowledgeGraph,
        space: PredicateSpace,
        library: Optional[TransformationLibrary] = None,
        config: Optional[SearchConfig] = None,
        *,
        backend: str = "thread",
        workers: Optional[int] = None,
        **kwargs,
    ) -> "QueryService":
        """Build an engine (or spec) and wrap it in one call.

        ``backend``/``workers`` pick the execution backend and pool size.
        For the process backend the graph is frozen once here and the
        snapshot shipped, so N workers do not each redo the O(V+E)
        freeze; ``shared_graph=True`` publishes it into shared memory
        instead, so workers attach zero-copy.  Exact results are
        identical on every backend.
        """
        spec = EngineSpec(kg=kg, space=space, library=library, config=config)
        if backend == "process":
            spec = replace(spec, compact_graph=CompactGraph.freeze(kg))
            return cls(spec=spec, backend=backend, workers=workers, **kwargs)
        return cls(build_engine(spec), backend=backend, workers=workers, **kwargs)

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        query: QueryGraph,
        k: int = 10,
        *,
        deadline: Optional[float] = None,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        tag: Optional[str] = None,
    ) -> "Future[QueryResult]":
        """Enqueue one query; returns a future resolving to its result."""
        return self.submit_request(
            QueryRequest(
                query=query,
                k=k,
                deadline=deadline,
                pivot=pivot,
                strategy=strategy,
                tag=tag,
            )
        )

    def submit_request(self, request: QueryRequest) -> "Future[QueryResult]":
        # The backend submit happens under the same lock close() takes
        # before shutting the backend down, so a closed-check that passes
        # can never race into a shut-down pool.
        with self._lock:
            if self._closed:
                raise ServeError("QueryService is closed")
            # Count before executing: the inline backend completes the
            # request inside submit, and `submitted` must already cover it
            # when its completion is recorded.
            with self._stats_lock:
                self.stats.submitted += 1
                if request.deadline is not None:
                    self.stats.time_bounded += 1
            # TBQ results are clock-dependent (anytime semantics): they
            # bypass the answer cache unconditionally.
            if self._answer_cache is not None and request.deadline is None:
                return self._submit_cached(request)
            try:
                return self._backend.submit(request, time.time())
            except BaseException:
                # The request never entered the pool (e.g. a broken
                # process pool): no on_complete will ever fire, so settle
                # the accounting here or in_flight drifts forever.
                self._record_outcome(False)
                raise

    def _submit_cached(self, request: QueryRequest) -> "Future[QueryResult]":
        """Front-side answer-cache path for one exact request.

        Runs under ``self._lock``.  Hits and singleflight followers are
        served without touching the execution backend at all — so on
        the process backend a hit skips IPC, and under supervision a
        hit can never be shed by ``max_pending`` admission or spend
        retry budget (it never becomes an attempt).
        """
        cache = self._answer_cache
        assert cache is not None and self._fingerprint is not None
        key = canonicalize(request, self._fingerprint)
        state, value = cache.acquire(key)
        if state == "hit":
            with self._stats_lock:
                self.stats.answer_hits += 1
            self._record_outcome(True)
            future: "Future[QueryResult]" = Future()
            future.set_result(value.to_result())
            return future
        if state == "follow":
            with self._stats_lock:
                self.stats.singleflight_collapsed += 1
            # Outcome is recorded when the leader settles the flight.
            return value
        flight = value
        with self._stats_lock:
            self.stats.answer_misses += 1
        try:
            inner = self._backend.submit(request, time.time())
        except BaseException as exc:
            self._record_outcome(False)
            followers, _payload, _error = cache.complete(flight, error=exc)
            for follower in followers:
                self._record_outcome(False)
                follower.set_exception(exc)
            raise
        inner.add_done_callback(lambda fut: self._settle_flight(flight, fut))
        return inner

    def _settle_flight(self, flight, fut: "Future[QueryResult]") -> None:
        """Leader completion: cache the payload, resolve the followers.

        Runs as a done-callback on the leader's backend future — i.e.
        after the leader's own outcome was recorded by the backend (or
        synchronously inside ``submit`` on the inline backend).  Each
        follower is a distinct submitted request, so it gets its own
        ``_record_outcome`` before its future resolves, preserving the
        completion-before-resolution ordering every backend guarantees.
        """
        cache = self._answer_cache
        assert cache is not None
        try:
            error = fut.exception()
        except BaseException as exc:  # pragma: no cover - cancelled leader
            error = exc
        if error is None:
            payload = QueryResultPayload.from_result(fut.result())
            followers, payload, _ = cache.complete(flight, payload=payload)
            for follower in followers:
                self._record_outcome(True)
                follower.set_result(payload.to_result())
        else:
            followers, _, _ = cache.complete(flight, error=error)
            for follower in followers:
                self._record_outcome(False)
                follower.set_exception(error)

    def _record_outcome(self, success: bool) -> None:
        # Runs on the execution path, strictly before the request's
        # future resolves (see ExecutionBackend.on_complete).  Under
        # supervision it fires exactly once per request (final outcome),
        # never once per attempt.
        with self._stats_lock:
            if success:
                self.stats.completed += 1
            else:
                self.stats.failed += 1

    _EVENT_COUNTERS = {
        "retry": "retries",
        "pool_rebuild": "pool_rebuilds",
        "shed": "shed",
        "crash": "crashes",
        "timeout": "timeouts",
        "fallback": "fallbacks",
    }

    def _record_event(self, kind: str) -> None:
        # Mirror of the SupervisedBackend event stream into ServiceStats.
        name = self._EVENT_COUNTERS.get(kind)
        if name is None:  # pragma: no cover - supervisor contract
            return
        with self._stats_lock:
            setattr(self.stats, name, getattr(self.stats, name) + 1)

    def submit_batch(
        self, requests: Sequence[Union[QueryRequest, QueryGraph]]
    ) -> List["Future[QueryResult]"]:
        """Enqueue a batch; futures are returned in submission order."""
        return [self.submit_request(self._coerce(r)) for r in requests]

    def search_many(
        self,
        queries: Sequence[Union[QueryRequest, QueryGraph]],
        k: int = 10,
        *,
        deadline: Optional[float] = None,
    ) -> List[QueryResult]:
        """Run a batch to completion; results in submission order.

        Bare :class:`QueryGraph` items pick up ``k``/``deadline``;
        :class:`QueryRequest` items keep their own parameters.
        """
        futures = [
            self.submit_request(self._coerce(item, k=k, deadline=deadline))
            for item in queries
        ]
        return [future.result() for future in futures]

    @staticmethod
    def _coerce(
        item: Union[QueryRequest, QueryGraph],
        k: int = 10,
        deadline: Optional[float] = None,
    ) -> QueryRequest:
        if isinstance(item, QueryRequest):
            return item
        return QueryRequest(query=item, k=k, deadline=deadline)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> ServiceStats:
        """A consistent copy of the counters, taken under the lock.

        Eviction/invalidation counts live inside the
        :class:`AnswerCache` (they happen on cache-internal paths, not
        per-request) and are mirrored into the snapshot here.
        """
        answers = (
            self._answer_cache.stats() if self._answer_cache is not None else None
        )
        with self._stats_lock:
            snapshot = replace(self.stats)
        if answers is not None:
            snapshot.answer_evictions = answers.evictions
            snapshot.answer_invalidations = answers.invalidations
        return snapshot

    def warmup(self, timeout: Optional[float] = None) -> int:
        """Make the first real request pay no construction latency.

        For the process backend this spins up (up to) all workers and
        builds their engines; shared-memory backends are warm by
        construction.  Returns the number of workers confirmed ready.
        """
        return self._backend.warmup(timeout=timeout)

    def worker_snapshots(self) -> List[WorkerSnapshot]:
        """Per-worker statistics rows straight from the backend."""
        return self._backend.snapshots()

    def serving_stats(self) -> ServingStatsReport:
        """Cache/memo statistics with their aggregation scope labelled.

        Shared-memory backends read the live shared cache, space and
        memo (scope ``"shared"``); the process backend sums the latest
        per-worker snapshots (scope ``"per-worker-sum"`` — each worker
        warms its own caches, so pool-wide misses scale with the worker
        count by design).  :meth:`reset_serving_stats` rebases the
        counters so per-phase rates can be reported on any backend.
        """
        snapshots = self._backend.snapshots()
        total = aggregate_snapshots(snapshots)
        with self._stats_lock:
            baseline = self._stats_baseline
        total = diff_snapshots(total, baseline)
        if total is None:
            total = WorkerSnapshot(
                worker_id="none",
                queries=0,
                cache=CacheStats(),
                space=SpaceCacheStats(),
                memo_hits=0,
                memo_misses=0,
            )
        scope = (
            "per-worker-sum"
            if self._backend.stats_scope == "per-worker"
            else "shared"
        )
        return ServingStatsReport(
            backend=self.backend_name,
            scope=scope,
            workers_reporting=len(snapshots),
            queries=total.queries,
            cache=total.cache,
            space=total.space,
            memo_hits=total.memo_hits,
            memo_misses=total.memo_misses,
            answers=(
                self._answer_cache.stats()
                if self._answer_cache is not None
                else None
            ),
            # One front-side instance regardless of backend — labelled
            # shared even when the worker caches above are summed.
            answer_scope="shared",
        )

    def reset_serving_stats(self) -> None:
        """Zero the cache/memo counters reported by :meth:`serving_stats`.

        Backend-neutral: shared-memory backends could reset the live
        structures, but process workers cannot be reached synchronously —
        so *all* backends rebase against a baseline snapshot instead
        (entries/gauges are never rebased; they describe the present).
        Lets a workload driver report per-phase hit rates — e.g. reset
        after a cold pass so the warm pass's rate is not diluted.
        """
        total = aggregate_snapshots(self._backend.snapshots())
        with self._stats_lock:
            self._stats_baseline = total

    @property
    def memo_hits(self) -> int:
        """Decomposition-memo hits (summed per worker on ``process``)."""
        total = aggregate_snapshots(self._backend.snapshots())
        return total.memo_hits if total is not None else 0

    @property
    def memo_misses(self) -> int:
        total = aggregate_snapshots(self._backend.snapshots())
        return total.memo_misses if total is not None else 0

    @property
    def memo_hit_rate(self) -> float:
        total = aggregate_snapshots(self._backend.snapshots())
        if total is None:
            return 0.0
        lookups = total.memo_hits + total.memo_misses
        return total.memo_hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Reject new work and (optionally) wait for in-flight queries."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Outside the lock (a draining close must not block submitters
        # into a lock wait; they observe `_closed` and get a clean
        # ServeError), but strictly after `_closed` is set: any submit
        # that already passed its closed check finished its
        # backend.submit while it held the lock, so the backend never
        # sees a submit after shutdown.
        self._backend.close(wait=wait)
        # Strictly after the pool is down: unlinking first would strand a
        # worker that had not attached yet (workers attach lazily on
        # their first task).  Workers that are already attached only hold
        # mappings, which die with their processes.  Released through the
        # leak probe, which asserts the segment left /dev/shm.
        lease, self._graph_lease = self._graph_lease, None
        if lease is not None:
            self._release_lease(lease)

    @property
    def graph_lease(self) -> Optional[SharedCompactGraph]:
        """The shared-memory graph lease (``None`` unless shared_graph).

        Under supervision the lease changes identity across pool
        rebuilds (release old, publish fresh); read it anew rather than
        caching the object.
        """
        return self._graph_lease

    @property
    def supervised(self) -> bool:
        """Whether the backend runs under a :class:`SupervisedBackend`."""
        return self._supervised

    @property
    def answer_cache(self) -> Optional[AnswerCache]:
        """The front-side answer cache (``None`` when disabled)."""
        return self._answer_cache

    def resilience(self) -> Optional[ResilienceStats]:
        """Supervision counters (``None`` on an unsupervised service).

        The same events are mirrored into :class:`ServiceStats`; this
        report adds what only the supervisor knows — per-rebuild
        recovery latency and the live circuit-breaker state.
        """
        backend = self._backend
        if isinstance(backend, SupervisedBackend):
            return backend.resilience_stats()
        return None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
