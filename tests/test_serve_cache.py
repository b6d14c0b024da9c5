"""Tests for the shared semantic-graph row cache (repro.serve.cache)."""

import threading

import pytest

from repro.core.compact_view import CompactSemanticGraphView
from repro.core.semantic_graph import SemanticGraphView
from repro.errors import ServeError
from repro.kg.compact import CompactGraph
from repro.serve.cache import SemanticGraphCache


def _view(kg, space, **kwargs):
    return CompactSemanticGraphView(CompactGraph.freeze(kg), space, **kwargs)


class TestLruBounds:
    def test_weight_capacity_is_enforced(self):
        cache = SemanticGraphCache(max_rows=4)
        for i in range(10):
            cache.put_row("weights", f"p{i}", [0.5])
        stats = cache.stats
        assert stats.entries == 4
        assert stats.evictions == 6
        # The four most recent entries survive.
        assert cache.get_row("weights", "p9") == [0.5]
        assert cache.get_row("weights", "p5") is None

    def test_adjacency_capacity_is_enforced(self):
        # m(u) adjacency bounds live in "bounds" rows of the same LRU.
        cache = SemanticGraphCache(max_rows=3)
        for i in range(7):
            cache.put_row("bounds", f"p{i}", [0.9])
        stats = cache.stats
        assert stats.entries == 3
        assert stats.evictions == 4

    def test_get_refreshes_recency(self):
        cache = SemanticGraphCache(max_rows=2)
        cache.put_row("weights", "a", [0.1])
        cache.put_row("weights", "b", [0.2])
        assert cache.get_row("weights", "a") == [0.1]  # refresh "a"
        cache.put_row("weights", "c", [0.3])  # evicts "b", not "a"
        assert cache.get_row("weights", "a") == [0.1]
        assert cache.get_row("weights", "b") is None

    def test_put_existing_key_does_not_evict(self):
        cache = SemanticGraphCache(max_rows=2)
        cache.put_row("weights", "a", [0.1])
        cache.put_row("weights", "b", [0.2])
        cache.put_row("weights", "a", [0.15])  # overwrite, no growth
        stats = cache.stats
        assert stats.entries == 2
        assert stats.evictions == 0
        assert cache.get_row("weights", "a") == [0.15]

    def test_row_capacity_is_enforced(self):
        cache = SemanticGraphCache(max_rows=2)
        for i in range(5):
            cache.put_row("weights", f"p{i}", [float(i)])
        stats = cache.stats
        assert stats.entries == 2
        assert stats.evictions == 3
        assert cache.get_row("weights", "p4") == [4.0]
        assert cache.get_row("weights", "p0") is None

    def test_row_kinds_are_distinct_keys(self):
        cache = SemanticGraphCache()
        cache.put_row("weights", "product", [0.9])
        cache.put_row("bounds", "product", [0.8])
        assert cache.get_row("weights", "product") == [0.9]
        assert cache.get_row("bounds", "product") == [0.8]
        stats = cache.stats
        assert stats.entries == 2
        assert stats.hits == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServeError):
            SemanticGraphCache(max_rows=0)


class TestStats:
    def test_hit_miss_accounting(self):
        cache = SemanticGraphCache()
        assert cache.get_row("weights", "q") is None
        cache.put_row("weights", "q", [0.7])
        assert cache.get_row("weights", "q") == [0.7]
        assert cache.get_row("bounds", "q") is None
        cache.put_row("bounds", "q", [0.9])
        assert cache.get_row("bounds", "q") == [0.9]
        stats = cache.stats
        assert stats.hits == 2 and stats.misses == 2
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.5)
        assert "hit_rate=0.500" in stats.describe()

    def test_empty_cache_hit_rate_is_zero(self):
        assert SemanticGraphCache().stats.hit_rate == 0.0

    def test_reset_stats_keeps_entries(self):
        cache = SemanticGraphCache()
        cache.put_row("weights", "q", [0.4])
        cache.get_row("weights", "q")
        cache.reset_stats()
        stats = cache.stats
        assert stats.hits == 0 and stats.misses == 0
        assert cache.get_row("weights", "q") == [0.4]  # entry survived

    def test_clear_drops_entries_keeps_binding(self):
        cache = SemanticGraphCache()
        cache.bind(("fp",))
        cache.put_row("weights", "q", [0.4])
        cache.put_row("bounds", "q", [0.2])
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(ServeError):
            cache.bind(("other",))


class TestBinding:
    def test_rebind_same_fingerprint_ok(self):
        cache = SemanticGraphCache()
        cache.bind((1, 2, 0.0))
        cache.bind((1, 2, 0.0))

    def test_rebind_different_fingerprint_raises(self):
        cache = SemanticGraphCache()
        cache.bind((1, 2, 0.0))
        with pytest.raises(ServeError):
            cache.bind((1, 2, 0.5))

    def test_views_with_different_min_weight_cannot_share(self, fig2_kg, fig2_space):
        cache = SemanticGraphCache()
        compact = CompactGraph.freeze(fig2_kg)
        CompactSemanticGraphView(compact, fig2_space, cache=cache)
        with pytest.raises(ServeError):
            CompactSemanticGraphView(compact, fig2_space, min_weight=0.5, cache=cache)


class TestViewIntegration:
    def test_second_view_hits_shared_weights(self, fig2_kg, fig2_space):
        cache = SemanticGraphCache()
        compact = CompactGraph.freeze(fig2_kg)
        first = CompactSemanticGraphView(compact, fig2_space, cache=cache)
        value = first.weight("product", "assembly")
        # One row: the query predicate against every graph predicate.
        assert first.edges_weighted == len(compact.predicate_names)
        assert first.cache_hits == 0

        second = CompactSemanticGraphView(compact, fig2_space, cache=cache)
        assert second.weight("product", "assembly") == value
        assert second.edges_weighted == 0 and second.cache_hits == 1

    def test_second_view_hits_shared_adjacency(self, fig2_kg, fig2_space):
        cache = SemanticGraphCache()
        compact = CompactGraph.freeze(fig2_kg)
        germany = fig2_kg.entities_named("Germany")[0]
        first = CompactSemanticGraphView(compact, fig2_space, cache=cache)
        bound = first.max_adjacent_weight(germany, "product")

        second = CompactSemanticGraphView(compact, fig2_space, cache=cache)
        assert second.max_adjacent_weight(germany, "product") == bound
        # Served from the shared bounds row: no weight row, no segment-max.
        assert second.edges_weighted == 0
        assert second.cache_hits == 1

    def test_cached_view_weights_equal_uncached(self, fig2_kg, fig2_space):
        cache = SemanticGraphCache()
        warm = _view(fig2_kg, fig2_space, cache=cache)
        plain = SemanticGraphView(fig2_kg, fig2_space)
        predicates = ["product", "assembly", "designer", "language"]
        for qp in predicates:
            for gp in predicates:
                assert warm.weight(qp, gp) == plain.weight(qp, gp)
        # Re-read through a fresh cached view: identical again.
        reread = CompactSemanticGraphView(warm.graph, fig2_space, cache=cache)
        for qp in predicates:
            for gp in predicates:
                assert reread.weight(qp, gp) == plain.weight(qp, gp)
        assert reread.cache_hits > 0

    def test_min_weight_zeroing_is_cached_consistently(self, fig2_kg, fig2_space):
        cache = SemanticGraphCache()
        view = _view(fig2_kg, fig2_space, min_weight=0.5, cache=cache)
        assert view.weight("product", "language") == 0.0
        again = CompactSemanticGraphView(
            view.graph, fig2_space, min_weight=0.5, cache=cache
        )
        assert again.weight("product", "language") == 0.0
        assert again.cache_hits == 1

    def test_view_without_cache_unchanged(self, fig2_kg, fig2_space):
        view = _view(fig2_kg, fig2_space)
        view.weight("product", "assembly")
        view.weight("product", "assembly")
        assert view.edges_weighted == len(view.graph.predicate_names)
        assert view.cache_hits == 0


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = SemanticGraphCache(max_rows=64)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(300):
                    cache.put_row("weights", f"q{worker}-{i % 80}", [0.5])
                    cache.get_row("weights", f"q{worker}-{(i + 1) % 80}")
                    cache.put_row("bounds", f"q{worker}-{i % 80}", [0.25])
                    cache.get_row("bounds", f"q{worker}-{(i + 1) % 80}")
                    if i % 50 == 0:
                        cache.stats  # snapshot under contention
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats
        assert stats.entries <= 64
        assert stats.lookups == 8 * 300 * 2
