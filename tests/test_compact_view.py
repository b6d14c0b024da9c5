"""Cross-view conformance: the compact CSR kernel must be indistinguishable
from the lazy semantic-graph view oracle — same weights, same m(u) bounds,
same matches — standalone and backed by a shared SemanticGraphCache."""

from __future__ import annotations

import pickle

import pytest

from repro.bench.equivalence import lazy_oracle_engine
from repro.core.compact_view import CompactSemanticGraphView, CompactViewFactory
from repro.core.engine import EngineSpec, SemanticGraphQueryEngine, build_engine
from repro.core.semantic_graph import SemanticGraphView
from repro.errors import ServeError
from repro.kg.compact import CompactGraph
from repro.serve.cache import SemanticGraphCache
from repro.utils.rng import derive_rng


# ----------------------------------------------------------------------
# CompactGraph structure
# ----------------------------------------------------------------------
class TestCompactGraphFreeze:
    def test_counts_and_tables(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        assert compact.num_nodes == fig2_kg.num_entities
        assert compact.num_edges == fig2_kg.num_edges
        assert compact.predicate_names == fig2_kg.predicates()
        assert compact.type_names == fig2_kg.types()
        assert len(compact.indptr) == compact.num_nodes + 1
        assert compact.indptr[-1] == 2 * compact.num_edges

    def test_slot_order_mirrors_incident(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        for uid in range(fig2_kg.num_entities):
            expected = list(fig2_kg.incident(uid))
            start, end = int(compact.indptr[uid]), int(compact.indptr[uid + 1])
            got = [
                (compact.edge(int(compact.slot_edge[s])), int(compact.slot_neighbor[s]))
                for s in range(start, end)
            ]
            assert got == expected
            # the python mirror agrees with the arrays
            assert [(e, n) for e, n, _pid in compact.node_slots[uid]] == expected

    def test_edges_are_shared_not_copied(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        kg_edges = {e for uid in range(fig2_kg.num_entities) for e in fig2_kg.out_edges(uid)}
        assert all(compact.edge(eid) in kg_edges for eid in range(compact.num_edges))
        # identity, not mere equality: match paths reuse kg's objects
        assert all(
            any(compact.edge(eid) is e for e in kg_edges)
            for eid in range(compact.num_edges)
        )

    def test_to_edge_roundtrip_and_forward_flag(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        for uid in range(fig2_kg.num_entities):
            for s in range(int(compact.indptr[uid]), int(compact.indptr[uid + 1])):
                edge = compact.to_edge(int(compact.slot_edge[s]))
                assert edge.other(uid) == int(compact.slot_neighbor[s])
                assert bool(compact.slot_forward[s]) == (edge.source == uid)
                pid = int(compact.slot_predicate[s])
                assert compact.predicate_names[pid] == edge.predicate

    def test_degrees_match(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        for uid in range(fig2_kg.num_entities):
            assert compact.degree(uid) == fig2_kg.degree(uid)

    def test_staleness_detection(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        assert not compact.is_stale()
        extra = fig2_kg.add_entity("Porsche", "Automobile")
        assert compact.is_stale()
        fig2_kg.add_edge(extra.uid, "assembly", 3)
        assert compact.is_stale(fig2_kg)

    def test_pickle_roundtrip(self, fig2_kg, fig2_space):
        compact = CompactGraph.freeze(fig2_kg)
        clone = pickle.loads(pickle.dumps(compact))
        assert clone.num_nodes == compact.num_nodes
        assert clone.num_edges == compact.num_edges
        assert clone.predicate_names == compact.predicate_names
        assert (clone.indptr == compact.indptr).all()
        assert (clone.slot_neighbor == compact.slot_neighbor).all()
        # Derived object state is rebuilt, not shipped: the payload
        # excludes the source graph entirely...
        assert clone.kg is None
        assert not clone.is_stale()
        # ...yet the rebuilt edge table and slot mirror are equal.
        assert [clone.edge(i) for i in range(clone.num_edges)] == compact.edges
        assert clone.node_slots == compact.node_slots
        # A view over the shipped kernel answers like the original.
        original = CompactSemanticGraphView(compact, fig2_space)
        shipped = CompactSemanticGraphView(clone, fig2_space)
        for uid in range(compact.num_nodes):
            assert list(shipped.weighted_incident(uid, "product")) == list(
                original.weighted_incident(uid, "product")
            )
            assert shipped.max_adjacent_weight(uid, "product") == (
                original.max_adjacent_weight(uid, "product")
            )

    def test_pickle_payload_excludes_object_graph(self, fig2_kg):
        compact = CompactGraph.freeze(fig2_kg)
        state = compact.__getstate__()
        assert "kg" not in state
        assert "node_slots" not in state
        assert "_edges" not in state

    def test_factory_refreezes_on_growth(self, fig2_kg):
        factory = CompactViewFactory()
        first = factory.compact_graph(fig2_kg)
        assert factory.compact_graph(fig2_kg) is first  # stable while unchanged
        extra = fig2_kg.add_entity("Porsche", "Automobile")
        fig2_kg.add_edge(extra.uid, "assembly", 3)
        second = factory.compact_graph(fig2_kg)
        assert second is not first
        assert second.num_nodes == fig2_kg.num_entities


# ----------------------------------------------------------------------
# view-level conformance: weights and m(u)
# ----------------------------------------------------------------------
def _views(kg, space, *, min_weight=0.0):
    lazy = SemanticGraphView(kg, space, min_weight=min_weight)
    compact = CompactSemanticGraphView(
        CompactGraph.freeze(kg), space, min_weight=min_weight
    )
    return lazy, compact


class TestViewConformance:
    @pytest.mark.parametrize("min_weight", [0.0, 0.5])
    def test_weighted_incident_identical(self, fig2_kg, fig2_space, min_weight):
        lazy, compact = _views(fig2_kg, fig2_space, min_weight=min_weight)
        for uid in range(fig2_kg.num_entities):
            for predicate in fig2_space.predicates():
                a = list(lazy.weighted_incident(uid, predicate))
                b = list(compact.weighted_incident(uid, predicate))
                assert a == b  # same edges, same order, bit-equal weights

    def test_unknown_graph_predicate_weighs_zero(self, fig2_kg, fig2_space):
        fig2_kg.add_edge(0, "mystery_predicate", 4)  # not in the space
        lazy, compact = _views(fig2_kg, fig2_space)
        a = list(lazy.weighted_incident(0, "product"))
        b = list(compact.weighted_incident(0, "product"))
        assert a == b
        weights = {e.predicate: w for e, _n, w in b}
        assert weights["mystery_predicate"] == 0.0

    def test_unknown_query_predicate_zeroes_row(self, fig2_kg, fig2_space):
        lazy, compact = _views(fig2_kg, fig2_space)
        a = list(lazy.weighted_incident(3, "no_such_predicate"))
        b = list(compact.weighted_incident(3, "no_such_predicate"))
        assert a == b
        assert all(w == 0.0 for _e, _n, w in b)

    @pytest.mark.parametrize("min_weight", [0.0, 0.5])
    def test_m_u_bounds_identical(self, fig2_kg, fig2_space, min_weight):
        lazy, compact = _views(fig2_kg, fig2_space, min_weight=min_weight)
        predicates = fig2_space.predicates()
        for uid in range(fig2_kg.num_entities):
            for predicate in predicates:
                assert lazy.max_adjacent_weight(uid, predicate) == (
                    compact.max_adjacent_weight(uid, predicate)
                )
            assert lazy.max_adjacent_weight_any(uid, predicates) == (
                compact.max_adjacent_weight_any(uid, predicates)
            )

    def test_m_u_isolated_node_is_zero(self, fig2_kg, fig2_space):
        loner = fig2_kg.add_entity("Loner", "Person")
        _lazy, compact = _views(fig2_kg, fig2_space)
        assert compact.max_adjacent_weight(loner.uid, "product") == 0.0

    def test_scalar_weight_api(self, fig2_kg, fig2_space):
        lazy, compact = _views(fig2_kg, fig2_space)
        for qp in ("product", "language"):
            for gp in ("assembly", "designer", "language"):
                assert compact.weight(qp, gp) == lazy.weight(qp, gp)

    def test_bundle_views_agree_on_random_probes(self, small_bundle):
        kg, space = small_bundle.kg, small_bundle.space
        lazy, compact = _views(kg, space)
        rng = derive_rng(7, "compact-conformance")
        predicates = space.predicates()
        for _ in range(200):
            uid = int(rng.integers(kg.num_entities))
            predicate = predicates[int(rng.integers(len(predicates)))]
            assert list(lazy.weighted_incident(uid, predicate)) == list(
                compact.weighted_incident(uid, predicate)
            )
            assert lazy.max_adjacent_weight(uid, predicate) == (
                compact.max_adjacent_weight(uid, predicate)
            )


# ----------------------------------------------------------------------
# engine-level conformance: identical matches, with and without caches
# ----------------------------------------------------------------------
def _assert_same_results(a, b):
    assert len(a.matches) == len(b.matches)
    for ma, mb in zip(a.matches, b.matches):
        assert ma.pivot_uid == mb.pivot_uid
        assert ma.score == mb.score  # bit-equal, not approx
        assert sorted(ma.components) == sorted(mb.components)
        for index, part in ma.components.items():
            assert part.pss == mb.components[index].pss
            assert part.path == mb.components[index].path


class TestEngineConformance:
    def test_identical_matches_uncached(self, small_bundle):
        bundle = small_bundle
        lazy = lazy_oracle_engine(bundle.kg, bundle.space, bundle.library)
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        for workload_query in bundle.workload:
            _assert_same_results(
                lazy.search(workload_query.query, k=10),
                engine.search(workload_query.query, k=10),
            )

    def test_identical_matches_each_with_own_shared_cache(self, small_bundle):
        # Both search kernels over compact views, each engine backed by
        # its own row cache: warm rows change cost, never answers.
        bundle = small_bundle
        reference = SemanticGraphQueryEngine(
            bundle.kg, bundle.space, bundle.library,
            weight_cache=SemanticGraphCache(),
            search_kernel="reference", assembly_kernel="reference",
        )
        engine = SemanticGraphQueryEngine(
            bundle.kg, bundle.space, bundle.library,
            weight_cache=SemanticGraphCache(),
        )
        for _pass in range(2):  # pass 2 serves from warm caches
            for workload_query in bundle.workload:
                _assert_same_results(
                    reference.search(workload_query.query, k=10),
                    engine.search(workload_query.query, k=10),
                )

    def test_lazy_oracle_matches_cache_backed_engine(self, small_bundle):
        # The lazy oracle recomputes everything; the engine serves pass 2
        # from rows it published in pass 1.  Answers must not move.
        bundle = small_bundle
        cache = SemanticGraphCache()
        lazy = lazy_oracle_engine(bundle.kg, bundle.space, bundle.library)
        engine = SemanticGraphQueryEngine(
            bundle.kg, bundle.space, bundle.library, weight_cache=cache
        )
        for _pass in range(2):
            for workload_query in bundle.workload:
                _assert_same_results(
                    lazy.search(workload_query.query, k=10),
                    engine.search(workload_query.query, k=10),
                )
        stats = cache.stats
        assert stats.entries > 0  # the engine published rows
        assert stats.hits > 0  # and pass 2 reused them

    def test_compact_view_hits_shared_rows_across_queries(self, small_bundle):
        bundle = small_bundle
        cache = SemanticGraphCache()
        engine = SemanticGraphQueryEngine(
            bundle.kg, bundle.space, bundle.library, weight_cache=cache
        )
        query = bundle.workload[0].query
        engine.search(query, k=5)
        cold = cache.stats
        engine.search(query, k=5)
        warm = cache.stats
        assert warm.hits > cold.hits  # second query reused rows

    def test_time_bounded_equivalent_under_budget_clock(self, small_bundle):
        # With a generous deterministic budget the oracle and the engine
        # harvest the same matches through the TBQ path.
        from repro.utils.timing import BudgetClock

        bundle = small_bundle
        query = bundle.workload[0].query
        results = [
            engine.search_time_bounded(
                query, k=5, time_bound=1e6, clock=BudgetClock(1e-4)
            )
            for engine in (
                lazy_oracle_engine(bundle.kg, bundle.space, bundle.library),
                SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library),
            )
        ]
        _assert_same_results(results[0], results[1])

    @pytest.mark.parametrize("shipped_kernel", [False, True])
    def test_graph_growth_under_live_cache_raises(
        self, fig2_kg, fig2_space, shipped_kernel
    ):
        # Cached m(u) bounds and weight rows are invalidated by graph
        # growth; the binding fingerprint carries the entity/edge counts,
        # so the next view construction fails loudly instead of serving
        # stale bounds — whether the engine froze the graph itself or was
        # built from a spec shipping an already-frozen (pickled) kernel.
        cache = SemanticGraphCache()
        if shipped_kernel:
            spec = EngineSpec(
                kg=fig2_kg,
                space=fig2_space,
                compact_graph=pickle.loads(
                    pickle.dumps(CompactGraph.freeze(fig2_kg))
                ),
            )
            engine = build_engine(spec, weight_cache=cache)
        else:
            engine = SemanticGraphQueryEngine(
                fig2_kg, fig2_space, weight_cache=cache
            )
        engine._make_view()  # binds at the current shape
        grown = fig2_kg.add_entity("Porsche", "Automobile")
        fig2_kg.add_edge(grown.uid, "assembly", 3)
        with pytest.raises(ServeError):
            engine._make_view()

    def test_engine_stats_populated_by_compact_view(self, small_bundle):
        bundle = small_bundle
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        result = engine.search(bundle.workload[0].query, k=5)
        total = result.total_stats()
        assert total.nodes_touched > 0
        assert total.edges_weighted > 0

    def test_touched_nodes_match_lazy_view_uncached(self, small_bundle):
        # Kernel comparisons read nodes_touched; the counts must agree
        # (compact counts bound consultations exactly where lazy
        # materialises incidence to derive the bound).
        bundle = small_bundle
        lazy = lazy_oracle_engine(bundle.kg, bundle.space, bundle.library)
        engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
        for workload_query in bundle.workload:
            a = lazy.search(workload_query.query, k=5).total_stats()
            b = engine.search(workload_query.query, k=5).total_stats()
            assert a.nodes_touched == b.nodes_touched
