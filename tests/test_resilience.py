"""Fault-tolerant serving: supervision, fault injection, recovery.

The contract under test: queries are read-only, so any fault the
supervision layer recovers from must leave the answers **bit-identical**
to a fault-free run — retries, pool rebuilds and fallbacks change cost
and counters, never results.  Faults come from two directions:

- *planned* — a seeded :class:`~repro.serve.faults.FaultPlan` riding the
  EngineSpec into workers (deterministic chaos, what CI replays);
- *external* — ``os.kill(SIGKILL)`` on a live worker pid mid-replay (the
  unplanned crash the planned one models).

Process-pool tests also pin the resource side of recovery: an in-place
rebuild must release the old shared-memory graph lease and publish
exactly one new one, leaving ``/dev/shm`` leak-free.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import (
    OverloadError,
    RequestTimeoutError,
    RetryExhaustedError,
    ServeError,
    TransientEngineError,
)
from repro.kg.shm import leaked_segments
from repro.serve.faults import FaultPlan
from repro.serve.resilience import BackoffPolicy, CircuitBreaker
from repro.serve.service import QueryService

#: Zero-delay retries keep the unit tests fast; determinism is covered
#: by the seeded-schedule tests, not by actually sleeping.
FAST_POLICY = BackoffPolicy(retries=5, base_seconds=0.0, cap_seconds=0.0)


def _signatures(results):
    """The bit-identity signature: (pivot, score) per match, per query."""
    return [[(m.pivot_uid, m.score) for m in r.matches] for r in results]


def _queries(bundle, count=6):
    return [q.query for q in bundle.workload[:count]]


@pytest.fixture(scope="module")
def reference(request):
    """Inline, unsupervised answers — the baseline every recovery must hit."""
    bundle = request.getfixturevalue("small_bundle")
    with QueryService.build(
        bundle.kg, bundle.space, bundle.library, backend="inline"
    ) as service:
        return _signatures(service.search_many(_queries(bundle), k=5))


class TestBackoffPolicy:
    def test_schedule_is_seeded_and_capped(self):
        policy = BackoffPolicy(
            retries=4, base_seconds=0.01, cap_seconds=0.02, multiplier=2.0,
            jitter=0.5, seed=3,
        )
        first = policy.schedule("token")
        assert first == policy.schedule("token")
        assert len(first) == 4
        # Jitter only ever shortens: every delay is within (0, cap].
        assert all(0.0 < delay <= 0.02 for delay in first)
        assert first != policy.schedule("other-token")

    def test_zero_retries_means_empty_schedule(self):
        assert BackoffPolicy(retries=0).schedule("x") == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"base_seconds": -0.1},
            {"base_seconds": 0.5, "cap_seconds": 0.1},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ServeError):
            BackoffPolicy(**kwargs)


class TestFaultPlanSpec:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "crash@3;transient@2,5;fatal@9;latency@4:0.05;shm-attach;"
            "seed=7;epochs=2"
        )
        assert plan.crash_at == (3,)
        assert plan.transient_at == (2, 5)
        assert plan.fatal_at == (9,)
        assert plan.latency_at == (4,)
        assert plan.latency_seconds == 0.05
        assert plan.fail_shm_attach
        assert plan.seed == 7 and plan.epochs == 2
        assert plan.active

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "explode@3",
            "crash@zero",
            "crash@0",
            "latency@4",
            "latency@4:soon",
            "jitter=5",
            "seed=pi",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ServeError):
            FaultPlan.parse(spec)

    def test_epochs_scope_the_plan(self):
        plan = FaultPlan(crash_at=(1,), epochs=1)
        assert plan.active
        healed = plan.next_epoch()
        assert not healed.active
        assert not healed.next_epoch().active  # floor at zero, no wrap

    def test_inactive_plan_injects_nothing(self):
        injector = FaultPlan(transient_at=(1,), epochs=0).activate()
        injector.on_request()  # would raise if the plan were active
        assert injector.requests_seen == 0


class TestCircuitBreaker:
    def test_threshold_opens_and_success_closes(self):
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=600.0)
        assert breaker.state == "closed"
        breaker.record_break()
        assert breaker.state == "closed" and breaker.allow_pool()
        breaker.record_break()
        assert breaker.state == "open"
        assert not breaker.allow_pool()  # cooldown far away
        breaker.record_pool_success()
        assert breaker.state == "closed"

    def test_cooldown_half_opens_for_a_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=0.01)
        breaker.record_break()
        assert breaker.state == "open"
        time.sleep(0.02)
        assert breaker.allow_pool()  # the probe
        assert breaker.state == "half-open"
        breaker.record_break()  # probe failed
        assert breaker.state == "open"


class TestInlineSupervision:
    """Supervision semantics on the shared-memory backends (no pool)."""

    def test_transient_faults_are_retried_to_identical_results(
        self, small_bundle, reference
    ):
        plan = FaultPlan(transient_at=(2, 4), seed=5)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
            fault_plan=plan, retry_policy=FAST_POLICY,
        ) as service:
            results = service.search_many(_queries(small_bundle), k=5)
            stats = service.stats_snapshot()
            assert service.supervised
        assert _signatures(results) == reference
        assert stats.retries == 2
        assert stats.failed == 0
        assert stats.completed == len(reference)

    def test_fatal_faults_are_not_retried(self, small_bundle):
        plan = FaultPlan(fatal_at=(1,))
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
            fault_plan=plan, retry_policy=FAST_POLICY,
        ) as service:
            future = service.submit(_queries(small_bundle)[0], k=5)
            with pytest.raises(ServeError, match="injected fatal"):
                future.result(timeout=30)
            stats = service.stats_snapshot()
        assert stats.retries == 0
        assert stats.failed == 1

    def test_retry_budget_exhaustion_wraps_the_last_failure(self, small_bundle):
        # Faults on every request the budget allows: 1 try + 2 retries.
        plan = FaultPlan(transient_at=(1, 2, 3))
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
            fault_plan=plan,
            retry_policy=BackoffPolicy(retries=2, base_seconds=0.0,
                                       cap_seconds=0.0),
        ) as service:
            future = service.submit(_queries(small_bundle)[0], k=5, tag="D1")
            with pytest.raises(RetryExhaustedError, match="3 attempts") as info:
                future.result(timeout=30)
            assert isinstance(info.value.__cause__, TransientEngineError)
            stats = service.stats_snapshot()
        assert stats.retries == 2
        assert stats.failed == 1

    def test_healthy_supervised_service_is_a_passthrough(
        self, small_bundle, reference
    ):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=2, supervised=True,
        ) as service:
            results = service.search_many(_queries(small_bundle), k=5)
            stats = service.stats_snapshot()
            resilience = service.resilience()
        assert _signatures(results) == reference
        assert (stats.retries, stats.pool_rebuilds, stats.crashes) == (0, 0, 0)
        assert (stats.shed, stats.timeouts, stats.fallbacks) == (0, 0, 0)
        assert resilience is not None
        assert resilience.breaker_state == "closed"

    def test_unsupervised_service_reports_no_resilience(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
        ) as service:
            assert not service.supervised
            assert service.resilience() is None


class TestSheddingAndTimeout:
    def test_overload_sheds_beyond_max_pending(self, small_bundle):
        # Latency faults pin the worker down so submissions pile up.
        plan = FaultPlan(latency_at=(1, 2, 3), latency_seconds=0.3)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=1,
            fault_plan=plan, max_pending=1,
        ) as service:
            queries = _queries(small_bundle, count=3)
            futures = [service.submit(queries[0], k=5)]
            shed = 0
            for query in queries[1:]:
                try:
                    futures.append(service.submit(query, k=5))
                except OverloadError as exc:
                    assert "max_pending=1" in str(exc)
                    shed += 1
            assert shed >= 1
            for future in futures:
                future.result(timeout=30)
            stats = service.stats_snapshot()
        assert stats.shed == shed
        assert stats.failed == shed  # shed requests count as failures too

    def test_hard_timeout_is_not_a_tbq_deadline(self, small_bundle):
        plan = FaultPlan(latency_at=(1,), latency_seconds=5.0)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=1,
            fault_plan=plan, hard_timeout=0.1,
        ) as service:
            future = service.submit(_queries(small_bundle)[0], k=5)
            with pytest.raises(RequestTimeoutError, match="distinct from a TBQ"):
                future.result(timeout=30)
            stats = service.stats_snapshot()
        assert stats.timeouts == 1
        assert stats.failed == 1


class TestWarmupTimeout:
    def test_warmup_timeout_is_a_clear_serve_error(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            with pytest.raises(ServeError, match="'process' backend warmup"):
                service.warmup(timeout=1e-6)
            # The pool itself is fine — workers just weren't ready inside
            # the budget; a real warmup afterwards succeeds.
            assert service.warmup() >= 1


class TestProcessRecovery:
    """The acceptance path: crash a process worker, converge anyway."""

    def test_planned_crash_rebuilds_pool_and_answers_identically(
        self, small_bundle, reference
    ):
        plan = FaultPlan(crash_at=(3,), transient_at=(2,), seed=11)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2, shared_graph=True,
            fault_plan=plan,
            retry_policy=BackoffPolicy(retries=5, base_seconds=0.005,
                                       cap_seconds=0.05, seed=11),
        ) as service:
            service.warmup()
            old_lease = service.graph_lease.name
            results = service.search_many(_queries(small_bundle), k=5)
            new_lease = service.graph_lease.name
            stats = service.stats_snapshot()
            resilience = service.resilience()
        assert _signatures(results) == reference
        assert stats.failed == 0
        assert stats.crashes == 1
        assert stats.pool_rebuilds == 1
        assert len(resilience.rebuild_seconds) == 1
        # The rebuild released the old lease and published exactly one
        # new segment; neither may outlive the service.
        assert new_lease != old_lease
        assert leaked_segments() == []

    def test_external_sigkill_mid_replay_recovers(
        self, small_bundle, reference
    ):
        queries = _queries(small_bundle)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2, shared_graph=True,
            supervised=True, retry_policy=FAST_POLICY,
        ) as service:
            service.warmup()
            old_lease = service.graph_lease.name
            # A first wave populates the per-worker snapshots with live
            # pids (snapshot rows are keyed on the worker's os.getpid()).
            first = service.search_many(queries, k=5)
            pids = [
                int(row.worker_id)
                for row in service.worker_snapshots()
                if row.worker_id.isdigit()
            ]
            assert pids, "no worker pids reported"
            # Kill a live worker with requests in flight: submit the next
            # wave first so its futures are en route when the pool breaks.
            futures = [service.submit(query, k=5) for query in queries]
            os.kill(pids[0], signal.SIGKILL)
            second = [f.result(timeout=60) for f in futures]
            new_lease = service.graph_lease.name
            stats = service.stats_snapshot()
        assert _signatures(first) == reference
        assert _signatures(second) == reference
        assert stats.failed == 0
        assert stats.pool_rebuilds >= 1
        assert stats.crashes >= 1
        assert new_lease != old_lease
        assert leaked_segments() == []

    def test_breaker_opens_onto_inline_fallback(self, small_bundle, reference):
        # Every rebuild is poisoned too (worker init fails for many
        # epochs), so the breaker must open and route to the fallback.
        plan = FaultPlan(fail_shm_attach=True, epochs=10)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
            fault_plan=plan, retry_policy=FAST_POLICY,
            breaker_threshold=2, breaker_cooldown=600.0,
        ) as service:
            results = service.search_many(_queries(small_bundle), k=5)
            stats = service.stats_snapshot()
            resilience = service.resilience()
        assert _signatures(results) == reference
        assert stats.failed == 0
        assert stats.fallbacks >= 1
        assert resilience.breaker_state == "open"
        assert leaked_segments() == []
