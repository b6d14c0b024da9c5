"""Cross-backend conformance suite for the execution-backend seam.

The seam's contract (`repro.serve.backends`): exact (SGQ) results are
bit-identical on the inline, thread and process backends — same final
matches, bit-equal scores, same components, same TA bookkeeping and the
same per-sub-query decision counters — under both view kernels.  Cache
materialisation counters (``nodes_touched`` / ``edges_weighted``) are
excluded: they measure cache warmth, which per-worker caches change by
design (same exclusion the view-kernel conformance suite makes).
"""

import pytest

from repro.bench.equivalence import (
    final_matches_differ,
    lazy_oracle_engine,
    search_stats_differ,
)
from repro.core.engine import SemanticGraphQueryEngine
from repro.errors import ServeError
from repro.query.builder import QueryGraphBuilder
from repro.serve.backends import EXECUTION_BACKENDS
from repro.serve.cache import SemanticGraphCache
from repro.serve.service import QueryService

K = 5


def _product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def _assert_identical(label, expected, actual):
    problem = final_matches_differ(label, expected.matches, actual.matches)
    assert problem is None, problem
    assert expected.ta_accesses == actual.ta_accesses, label
    assert expected.ta_rounds == actual.ta_rounds, label
    assert expected.ta_truncated == actual.ta_truncated, label
    assert expected.approximate == actual.approximate, label
    assert len(expected.subquery_stats) == len(actual.subquery_stats), label
    for index, (sa, sb) in enumerate(
        zip(expected.subquery_stats, actual.subquery_stats)
    ):
        problem = search_stats_differ(f"{label}/g{index}", sa, sb)
        assert problem is None, problem


@pytest.fixture(scope="module")
def reference_results(small_bundle):
    """Sequential results per (oracle, qid) — the ground truth.

    The ``lazy`` entries come from the lazy oracle engine (lazy view,
    reference A* and TA), the ``compact`` ones from a directly
    constructed default engine.
    """
    out = {}
    engines = {
        False: lazy_oracle_engine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        ),
        True: SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        ),
    }
    for compact, engine in engines.items():
        for q in small_bundle.workload[:4]:
            out[(compact, q.qid)] = engine.search(q.query, k=K)
    return out


class TestCrossBackendConformance:
    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    @pytest.mark.parametrize("compact", [False, True], ids=["lazy", "compact"])
    def test_backend_matches_sequential_engine(
        self, small_bundle, reference_results, backend, compact
    ):
        queries = small_bundle.workload[:4]
        with QueryService.build(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            backend=backend,
            workers=2,
        ) as service:
            # Two passes: warm caches/memos must not change results.
            for run in (1, 2):
                results = service.search_many([q.query for q in queries], k=K)
                for q, result in zip(queries, results):
                    _assert_identical(
                        f"{backend}/{'compact' if compact else 'lazy'}"
                        f"/pass{run}/{q.qid}",
                        reference_results[(compact, q.qid)],
                        result,
                    )

    def test_process_equals_thread_on_repeated_shapes(self, small_bundle):
        """Memoized decompositions (per service vs per worker) agree."""
        query = _product_query()
        batch = [query] * 6
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=2,
        ) as thread_svc:
            thread_results = thread_svc.search_many(batch, k=K)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as process_svc:
            process_results = process_svc.search_many(batch, k=K)
            memo_hits = process_svc.memo_hits
        for index, (a, b) in enumerate(zip(thread_results, process_results)):
            _assert_identical(f"repeat{index}", a, b)
        # Both process workers memoize independently; the pool still
        # hits on repeats once each worker has seen the shape.
        assert memo_hits >= 1


class TestProcessBackend:
    def test_deadline_requests_run_time_bounded(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            result = service.submit(_product_query(), k=K, deadline=0.5).result()
            assert result.approximate is True
            assert 0 < result.time_bound <= 0.5
            assert service.stats.time_bounded == 1

    def test_failures_cross_the_pool_and_are_counted(self, small_bundle):
        from repro.errors import SearchError

        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=1,
        ) as service:
            future = service.submit(_product_query(), k=0)
            with pytest.raises(SearchError):
                future.result()
            assert service.stats.failed == 1
            assert service.stats.completed == 0

    def test_warmup_reports_ready_workers(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            warmed = service.warmup()
            assert 1 <= warmed <= 2
            # Warm workers serve without rebuilding the engine.
            result = service.submit(_product_query(), k=K).result()
            assert result.matches

    def test_serving_stats_are_labelled_per_worker_sum(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2,
        ) as service:
            service.search_many([_product_query()] * 4, k=K)
            report = service.serving_stats()
        assert report.backend == "process"
        assert report.scope == "per-worker-sum"
        assert 1 <= report.workers_reporting <= 2
        assert report.queries == 4
        assert report.cache.lookups > 0
        assert "per-worker sum" in report.describe()

    def test_reset_rebases_counters(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=1,
        ) as service:
            service.search_many([_product_query()] * 2, k=K)
            before = service.serving_stats()
            assert before.queries == 2
            service.reset_serving_stats()
            assert service.serving_stats().queries == 0
            service.search_many([_product_query()], k=K)
            after = service.serving_stats()
            assert after.queries == 1
            # The repeat runs fully warm in its worker: no new misses.
            assert after.cache.misses == 0
            assert after.cache.hits > 0

    def test_shared_cache_rejected(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        with pytest.raises(ServeError):
            QueryService(
                engine, backend="process", cache=SemanticGraphCache()
            )

    def test_unknown_backend_rejected(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        with pytest.raises(ServeError):
            QueryService(engine, backend="greenlet")


class TestSharedBackends:
    def test_inline_backend_shares_service_cache(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
        ) as service:
            service.search_many([_product_query()] * 2, k=K)
            report = service.serving_stats()
            assert report.scope == "shared"
            assert report.backend == "inline"
            assert service.cache is not None
            assert report.cache.hits == service.cache.stats.hits

    def test_inline_counts_stats_like_thread(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
        ) as service:
            service.search_many([_product_query()] * 3, k=K)
            assert service.stats.submitted == 3
            assert service.stats.completed == 3
            assert service.stats.in_flight == 0
            assert service.stats.backend == "inline"

    def test_thread_reset_rebases_shared_counters(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=2,
        ) as service:
            service.search_many([_product_query()], k=K)
            service.reset_serving_stats()
            assert service.serving_stats().cache.misses == 0
            service.search_many([_product_query()], k=K)
            after = service.serving_stats()
            assert after.cache.misses == 0  # fully warm repeat
            assert after.cache.hits > 0


class TestSeededReplayDeterminism:
    """Seeded replay schedules and deadline mixes are backend-invariant.

    The scenario subsystem freezes ``(arrival, seed)`` and a deadline mix
    into replayable artifacts, so the primitives underneath must be
    strictly deterministic: the same seed always yields the same Poisson
    schedule and stamps the same items time-bounded, and a seeded replay
    returns payload-identical results on every execution backend.
    """

    def test_poisson_schedule_is_seed_deterministic(self):
        from repro.serve.workload import _arrival_schedule

        first = _arrival_schedule(20, 200.0, "poisson", seed=7)
        second = _arrival_schedule(20, 200.0, "poisson", seed=7)
        assert first == second  # bit-equal floats, not approximate
        assert len(first) == 20
        assert all(b > a for a, b in zip(first, second[1:]))
        other = _arrival_schedule(20, 200.0, "poisson", seed=8)
        assert other != first

    def test_mix_deadlines_selection_is_seed_deterministic(self, small_bundle):
        from repro.serve.workload import WorkloadItem, mix_deadlines

        items = [
            WorkloadItem(query=q.query, k=K, qid=q.qid)
            for q in small_bundle.workload[:8]
        ]
        first = mix_deadlines(items, 0.25, 5.0, seed=3)
        second = mix_deadlines(items, 0.25, 5.0, seed=3)
        assert [i.deadline for i in first] == [i.deadline for i in second]
        assert sum(1 for i in first if i.deadline is not None) == 2
        # A different seed is allowed to pick a different slice; the
        # stamped count stays fixed either way.
        other = mix_deadlines(items, 0.25, 5.0, seed=4)
        assert sum(1 for i in other if i.deadline is not None) == 2

    def test_seeded_replay_payloads_identical_across_backends(
        self, small_bundle
    ):
        """poisson arrivals + seeded TBQ mix -> identical payloads."""
        from repro.core.results import QueryResultPayload
        from repro.serve.workload import WorkloadItem, mix_deadlines, replay

        items = [
            WorkloadItem(query=q.query, k=K, qid=q.qid)
            for q in small_bundle.workload[:4]
        ]
        # A deliberately generous deadline: the TBQ slice runs through the
        # time-bounded coordinator (approximate results by contract) but
        # never actually truncates on these millisecond queries, so its
        # decisions stay deterministic and comparable across backends.
        items = mix_deadlines(items, 0.25, 5.0, seed=3)

        def run(backend):
            payloads = {}

            def _collect(index, request, result):
                payloads[index] = QueryResultPayload.from_result(result)

            with QueryService.build(
                small_bundle.kg,
                small_bundle.space,
                small_bundle.library,
                backend=backend,
                workers=2,
            ) as service:
                report = replay(
                    service,
                    items,
                    rate=200.0,
                    arrival="poisson",
                    seed=7,
                    on_result=_collect,
                )
            assert report.failed == 0
            assert report.deadline_requests == 1
            return payloads

        reference = run("inline")
        assert len(reference) == len(items)
        for backend in ("thread", "process"):
            payloads = run(backend)
            assert payloads.keys() == reference.keys()
            for index in reference:
                expected, actual = reference[index], payloads[index]
                # Payload-level identity on everything except wall time.
                assert actual.answer_uids() == expected.answer_uids()
                assert actual.approximate == expected.approximate
                _assert_identical(
                    f"{backend}/item{index}",
                    expected.to_result(),
                    actual.to_result(),
                )


class TestAnswerCacheConformance:
    """The answer cache must be invisible to results: cache on vs off,
    cold vs warm, every backend — bit-identical exact answers."""

    @pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
    def test_cache_on_off_bit_identical_cold_and_warm(
        self, small_bundle, reference_results, backend
    ):
        queries = small_bundle.workload[:4]
        with QueryService.build(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            backend=backend,
            workers=2,
            answer_cache=32,
        ) as service:
            # Pass 1 is all cold misses; pass 2 is all warm hits.  Both
            # must reproduce the sequential engine bit for bit.
            for run in (1, 2):
                results = service.search_many([q.query for q in queries], k=K)
                for q, result in zip(queries, results):
                    _assert_identical(
                        f"{backend}/cache/pass{run}/{q.qid}",
                        reference_results[(True, q.qid)],
                        result,
                    )
            snap = service.stats_snapshot()
        # The warm pass was served without a single extra engine run.
        assert snap.answer_misses == len(queries)
        assert snap.answer_hits + snap.singleflight_collapsed == len(queries)
        assert snap.completed == 2 * len(queries)
