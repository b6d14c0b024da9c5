"""Serving layer: shared weight cache, batched query service, load driver.

The paper's engine (``repro.core``) answers one query at a time and
rebuilds its semantic-graph state per call.  This package amortises that
state across a workload:

- :class:`~repro.serve.cache.SemanticGraphCache` — thread-safe,
  LRU-bounded cross-query store of weight and ``m(u)`` rows, with
  hit/miss statistics;
- :class:`~repro.serve.service.QueryService` — pool front-end with
  ``submit`` / ``submit_batch`` / ``search_many``, decomposition
  memoization and per-query deadlines (mapped onto the TBQ coordinator),
  running on a pluggable execution backend;
- :mod:`repro.serve.backends` — the execution-backend seam: ``inline``
  (caller's thread), ``thread`` (GIL-bound pool, shared caches) and
  ``process`` (true multi-core parallelism; workers bootstrap private
  engines from a pickled :class:`~repro.core.engine.EngineSpec`);
- :mod:`repro.serve.workload` — open-loop replay driver (uniform or
  Poisson arrivals, mixed SGQ/TBQ) reporting throughput and latency
  percentiles (also the ``repro-serve-workload`` console script);
- :mod:`repro.serve.resilience` + :mod:`repro.serve.faults` — the
  fault-tolerance layer: :class:`~repro.serve.resilience.SupervisedBackend`
  (retries with seeded backoff, in-place pool rebuild, circuit-breaker
  fallback, hard timeouts, load shedding) driven in tests and CI by a
  deterministic, picklable :class:`~repro.serve.faults.FaultPlan`.

See ``docs/architecture.md`` for how these layers fit together.
"""

from repro.serve.backends import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    WorkerSnapshot,
)
from repro.serve.cache import CacheStats, SemanticGraphCache
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    ResilienceStats,
    SupervisedBackend,
)
from repro.serve.service import (
    QueryRequest,
    QueryService,
    ServiceStats,
    ServingStatsReport,
    query_shape_key,
)

__all__ = [
    "CacheStats",
    "SemanticGraphCache",
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "ProcessBackend",
    "WorkerSnapshot",
    "FaultPlan",
    "FaultInjector",
    "BackoffPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "SupervisedBackend",
    "QueryRequest",
    "QueryService",
    "ServiceStats",
    "ServingStatsReport",
    "query_shape_key",
]
