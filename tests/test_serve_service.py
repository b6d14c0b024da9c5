"""Tests for the batched QueryService (repro.serve.service)."""

import pytest

from repro.core.engine import SemanticGraphQueryEngine
from repro.errors import SearchError, ServeError
from repro.serve.cache import SemanticGraphCache
from repro.serve.service import QueryRequest, QueryService, query_shape_key
from repro.query.builder import QueryGraphBuilder


def _results_equal(left, right):
    assert [m.pivot_uid for m in left.matches] == [m.pivot_uid for m in right.matches]
    for a, b in zip(left.matches, right.matches):
        assert a.score == pytest.approx(b.score, abs=1e-12)


def _product_query():
    return (
        QueryGraphBuilder()
        .target("v1", "Automobile")
        .specific("v2", "Germany", "Country")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


@pytest.fixture()
def service(small_bundle):
    svc = QueryService.build(
        small_bundle.kg, small_bundle.space, small_bundle.library, max_workers=2
    )
    yield svc
    svc.close()


class TestEquivalence:
    def test_search_many_matches_sequential_engine(self, small_bundle, service):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        queries = [q.query for q in small_bundle.workload]
        sequential = [engine.search(q, k=10) for q in queries]
        served = service.search_many(queries, k=10)
        assert len(served) == len(sequential)
        for seq, srv in zip(sequential, served):
            _results_equal(seq, srv)

    def test_cached_engine_matches_uncached_across_repeats(self, small_bundle):
        """Cache-backed search equals plain search on every pass (warm too)."""
        plain = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        cached = SemanticGraphQueryEngine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            weight_cache=SemanticGraphCache(),
        )
        queries = [q.query for q in small_bundle.workload]
        baseline = [plain.search(q, k=8) for q in queries]
        for _ in range(2):  # pass 1 populates the cache, pass 2 runs warm
            for query, expected in zip(queries, baseline):
                _results_equal(expected, cached.search(query, k=8))

    def test_equivalence_under_tight_lru(self, small_bundle):
        """Eviction churn never changes results, only recompute cost."""
        cached = SemanticGraphQueryEngine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            weight_cache=SemanticGraphCache(max_rows=2),
        )
        plain = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        for workload_query in small_bundle.workload[:4]:
            _results_equal(
                plain.search(workload_query.query, k=5),
                cached.search(workload_query.query, k=5),
            )
        assert cached.weight_cache.stats.evictions > 0


class TestCacheSharing:
    def test_cross_query_hits_accumulate(self, service):
        query = _product_query()
        service.submit(query, k=5).result()
        cold = service.cache.stats
        assert cold.hits == 0 and cold.misses > 0
        service.submit(query, k=5).result()
        warm = service.cache.stats
        # The repeat pass alone: every lookup lands in the shared cache.
        pass_hits = warm.hits - cold.hits
        pass_misses = warm.misses - cold.misses
        assert pass_hits > 0
        assert pass_misses == 0
        assert warm.hit_rate > cold.hit_rate

    def test_explicit_cache_is_attached_and_shared(self, small_bundle):
        cache = SemanticGraphCache()
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        with QueryService(engine, cache=cache, max_workers=1) as svc:
            assert engine.weight_cache is cache
            assert svc.cache is cache
            svc.submit(_product_query(), k=3).result()
        assert cache.stats.misses > 0

    def test_engine_keeps_preexisting_cache(self, small_bundle):
        cache = SemanticGraphCache()
        engine = SemanticGraphQueryEngine(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            weight_cache=cache,
        )
        with QueryService(engine, max_workers=1) as svc:
            assert svc.cache is cache


class TestDecompositionMemo:
    def test_repeated_shape_hits_memo(self, service):
        query = _product_query()
        service.submit(query, k=3).result()
        assert service.memo_misses == 1
        assert service.memo_hits == 0
        # A structurally identical but distinct query object also hits.
        service.submit(_product_query(), k=3).result()
        assert service.memo_hits == 1
        assert service.memo_hit_rate == pytest.approx(0.5)

    def test_different_pivot_policy_is_a_different_shape(self, service, small_bundle):
        medium = next(
            q for q in small_bundle.workload if q.complexity == "medium"
        )
        service.submit(medium.query, k=3).result()
        service.submit(medium.query, k=3, strategy="random").result()
        assert service.memo_misses == 2

    def test_shape_key_ignores_declaration_order(self):
        forward = _product_query()
        reordered = (
            QueryGraphBuilder()
            .specific("v2", "Germany", "Country")
            .target("v1", "Automobile")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        assert query_shape_key(forward, None, "min_cost") == query_shape_key(
            reordered, None, "min_cost"
        )

    def test_memo_can_be_disabled(self, small_bundle):
        with QueryService.build(
            small_bundle.kg,
            small_bundle.space,
            small_bundle.library,
            max_workers=1,
            memoize_decompositions=False,
        ) as svc:
            query = _product_query()
            svc.submit(query, k=3).result()
            svc.submit(query, k=3).result()
            assert svc.memo_hits == 0
            assert svc.memo_misses == 0


class TestSubmission:
    def test_submit_batch_preserves_order(self, service, small_bundle):
        requests = [
            QueryRequest(query=q.query, k=4, tag=q.qid)
            for q in small_bundle.workload[:3]
        ]
        futures = service.submit_batch(requests)
        results = [f.result() for f in futures]
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        for request, result in zip(requests, results):
            _results_equal(engine.search(request.query, k=4), result)

    def test_deadline_maps_to_time_bounded_search(self, service):
        result = service.submit(_product_query(), k=5, deadline=0.5).result()
        assert result.approximate is True
        # Queue wait counts against the deadline: the search gets only the
        # remaining budget, never more than asked for.
        assert 0 < result.time_bound <= 0.5
        assert service.stats.time_bounded == 1

    def test_mixed_batch_requests_keep_own_parameters(self, service):
        plain = _product_query()
        results = service.search_many(
            [plain, QueryRequest(query=plain, k=2, deadline=0.5)], k=5
        )
        assert results[0].approximate is False
        assert results[1].approximate is True
        assert len(results[1].matches) <= 2

    def test_failure_is_counted_and_raised(self, service):
        future = service.submit(_product_query(), k=0)
        with pytest.raises(SearchError):
            future.result()
        assert service.stats.failed == 1
        assert service.stats.completed + service.stats.failed == service.stats.submitted

    def test_stats_track_completion(self, service, small_bundle):
        service.search_many([q.query for q in small_bundle.workload[:3]], k=3)
        assert service.stats.submitted == 3
        assert service.stats.completed == 3
        assert service.stats.in_flight == 0


class TestLifecycle:
    def test_submit_after_close_raises(self, small_bundle):
        svc = QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library, max_workers=1
        )
        svc.close()
        assert svc.closed
        with pytest.raises(ServeError):
            svc.submit(_product_query(), k=3)

    def test_context_manager_closes(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library, max_workers=1
        ) as svc:
            svc.submit(_product_query(), k=3).result()
        assert svc.closed

    def test_invalid_construction(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        with pytest.raises(ServeError):
            QueryService(engine, max_workers=0)
        with pytest.raises(ServeError):
            QueryService(engine, max_memoized=0)
