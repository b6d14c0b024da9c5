"""Cross-kernel conformance: array-backed A* search vs the reference.

The vectorized kernel (`repro.core.search_kernel`) must make the same
decision as the linked-state reference search at every step under both
visited policies — so drained match streams (pivots, bit-equal pss,
emission order, paths down to shared ``Edge`` objects) and every search
counter (expansions, τ/visited/bound prunes, stale pops, queue peak)
must be identical, across randomized graphs, multi-segment sub-queries,
τ sweeps and mid-stream ``next_match`` resumption.  The identity
predicates (`repro.bench.equivalence`) are shared with the workload
conformance suite, so the two cannot drift in what they check.
"""

import pytest

from repro.bench.datasets import load_bundle
from repro.bench.equivalence import (
    final_matches_differ,
    path_matches_differ,
    search_stats_differ,
)
from repro.core.astar import (
    SEARCH_KERNELS,
    SubQuerySearch,
    brute_force_matches,
    build_subquery_search,
)
from repro.core.compact_view import CompactViewFactory
from repro.core.config import SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.search_kernel import (
    VectorizedSubQuerySearch,
    supports_vectorized_search,
)
from repro.core.semantic_graph import SemanticGraphView
from repro.errors import SearchError
from repro.utils.timing import BudgetClock

BUNDLE_SPECS = (("dbpedia", 1.0, 11), ("dbpedia", 0.6, 3), ("freebase", 0.8, 5))
TAUS = (0.0, 0.5, 0.8, 0.95)


@pytest.fixture(scope="module", params=BUNDLE_SPECS, ids=lambda s: f"{s[0]}-s{s[2]}")
def rand_bundle(request):
    preset, scale, seed = request.param
    return load_bundle(preset, scale=scale, seed=seed)


def build_pair(bundle, subquery, matcher, config, view=None):
    """Reference and vectorized searches over one shared compact view."""
    if view is None:
        view = CompactViewFactory()(
            bundle.kg, bundle.space, min_weight=config.min_weight
        )
    reference = build_subquery_search(
        view, subquery, matcher, config, kernel="reference"
    )
    vectorized = build_subquery_search(
        view, subquery, matcher, config, kernel="vectorized"
    )
    assert isinstance(reference, SubQuerySearch)
    assert isinstance(vectorized, VectorizedSubQuerySearch)
    return reference, vectorized


class TestRandomizedConformance:
    """Drained streams and counters identical on generated graphs."""

    @pytest.mark.parametrize("policy", list(VisitedPolicy))
    def test_full_drain_identical(self, rand_bundle, policy):
        engine = SemanticGraphQueryEngine(
            rand_bundle.kg, rand_bundle.space, rand_bundle.library
        )
        exercised_stale = 0
        for tau in TAUS:
            config = SearchConfig(tau=tau, visited_policy=policy)
            for query in rand_bundle.workload:
                decomposition = engine.decompose(query.query)
                for index, subquery in enumerate(decomposition.subqueries):
                    reference, vectorized = build_pair(
                        rand_bundle, subquery, engine.matcher, config
                    )
                    ref_matches = reference.run(10**6)
                    vec_matches = vectorized.run(10**6)
                    label = f"{query.qid}/g{index}/tau={tau}"
                    problem = path_matches_differ(label, ref_matches, vec_matches)
                    assert problem is None, problem
                    problem = search_stats_differ(
                        label, reference.stats, vectorized.stats
                    )
                    assert problem is None, problem
                    assert reference.exhausted and vectorized.exhausted
                    exercised_stale += vectorized.stats.stale_pops
        if policy is VisitedPolicy.EXPAND:
            # The suite must actually exercise the stale-pop path (lazy
            # decrease-key re-opening), not just agree on zeros.
            assert exercised_stale > 0
        else:
            assert exercised_stale == 0  # GENERATE never re-opens

    def test_midstream_resumption_identical(self, rand_bundle):
        """Pull-by-pull interleaving pauses and resumes both kernels."""
        engine = SemanticGraphQueryEngine(
            rand_bundle.kg, rand_bundle.space, rand_bundle.library
        )
        config = SearchConfig(tau=0.5)
        query = rand_bundle.workload[-1]
        decomposition = engine.decompose(query.query)
        for index, subquery in enumerate(decomposition.subqueries):
            reference, vectorized = build_pair(
                rand_bundle, subquery, engine.matcher, config
            )
            pulled = 0
            while True:
                ref_match = reference.next_match()
                vec_match = vectorized.next_match()
                if ref_match is None or vec_match is None:
                    assert ref_match is None and vec_match is None
                    break
                problem = path_matches_differ(
                    f"{query.qid}/g{index}#{pulled}", [ref_match], [vec_match]
                )
                assert problem is None, problem
                pulled += 1
                # Stats agree mid-stream, not only at exhaustion.
                problem = search_stats_differ(
                    f"{query.qid}/g{index}@{pulled}",
                    reference.stats,
                    vectorized.stats,
                )
                assert problem is None, problem
            assert reference.exhausted == vectorized.exhausted

    @pytest.mark.parametrize("policy", list(VisitedPolicy))
    def test_tbq_harvest_identical(self, rand_bundle, policy):
        """Algorithm 2 harvesting produces the same M̂_i per sub-query."""
        engine = SemanticGraphQueryEngine(
            rand_bundle.kg, rand_bundle.space, rand_bundle.library
        )
        config = SearchConfig(tau=0.5, visited_policy=policy)
        query = rand_bundle.workload[0]
        decomposition = engine.decompose(query.query)
        for index, subquery in enumerate(decomposition.subqueries):
            reference, vectorized = build_pair(
                rand_bundle, subquery, engine.matcher, config
            )
            harvests = ({}, {})
            for search, harvest in zip((reference, vectorized), harvests):
                while not search.exhausted:
                    search.step(harvest=harvest)
            ref_harvest, vec_harvest = harvests
            assert list(ref_harvest) == list(vec_harvest)  # insertion order
            problem = path_matches_differ(
                f"{query.qid}/g{index}/harvest",
                list(ref_harvest.values()),
                list(vec_harvest.values()),
            )
            assert problem is None, problem
            problem = search_stats_differ(
                f"{query.qid}/g{index}/harvest",
                reference.stats,
                vectorized.stats,
            )
            assert problem is None, problem

    def test_max_expansions_cap_identical(self, rand_bundle):
        engine = SemanticGraphQueryEngine(
            rand_bundle.kg, rand_bundle.space, rand_bundle.library
        )
        config = SearchConfig(tau=0.5, max_expansions=25)
        query = rand_bundle.workload[0]
        decomposition = engine.decompose(query.query)
        reference, vectorized = build_pair(
            rand_bundle, decomposition.subqueries[0], engine.matcher, config
        )
        ref_matches = reference.run(10**6)
        vec_matches = vectorized.run(10**6)
        assert path_matches_differ("cap", ref_matches, vec_matches) is None
        assert reference.stats.expansions == vectorized.stats.expansions <= 25


class TestBruteForceOracle:
    """Theorem 2 spot-checks: the vectorized kernel against the
    exhaustive oracle (mirrors the reference's own oracle tests)."""

    @pytest.fixture(scope="class")
    def setup(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        return small_bundle, engine

    @pytest.mark.parametrize("query_index", [0, 1, 2])
    def test_matches_brute_force_per_pivot(self, setup, query_index):
        bundle, engine = setup
        config = SearchConfig(
            tau=0.8, path_bound=2, visited_policy=VisitedPolicy.EXPAND
        )
        query = bundle.workload[query_index]
        decomposition = engine.decompose(query.query)
        subquery = decomposition.subqueries[0]
        view = CompactViewFactory()(
            bundle.kg, bundle.space, min_weight=config.min_weight
        )
        astar = build_subquery_search(
            view, subquery, engine.matcher, config, kernel="vectorized"
        ).run(10**6)
        oracle = brute_force_matches(
            SemanticGraphView(bundle.kg, bundle.space),
            subquery,
            engine.matcher,
            config,
        )
        astar_by_pivot = {m.pivot_uid: m.pss for m in astar}
        for match in oracle:
            # The A* may additionally reach pivots via non-simple
            # prefixes the oracle skips, so it dominates per pivot.
            assert match.pivot_uid in astar_by_pivot
            assert astar_by_pivot[match.pivot_uid] >= match.pss - 1e-9
        if oracle:
            first = max(astar, key=lambda m: m.pss)
            assert first.pss == pytest.approx(oracle[0].pss)


class TestDispatch:
    """The kernel seam: the vectorized default, forcing, and rejection."""

    def test_auto_picks_vectorized_on_compact_view(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        view = engine._make_view()
        assert supports_vectorized_search(view)
        search = build_subquery_search(
            view, decomposition.subqueries[0], engine.matcher, engine.config
        )
        assert isinstance(search, VectorizedSubQuerySearch)

    def test_vectorized_rejects_lazy_view(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        view = SemanticGraphView(small_bundle.kg, small_bundle.space)
        assert not supports_vectorized_search(view)
        with pytest.raises(SearchError):
            build_subquery_search(
                view,
                decomposition.subqueries[0],
                engine.matcher,
                engine.config,
                kernel="vectorized",
            )

    def test_unknown_kernel_rejected(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        with pytest.raises(SearchError):
            build_subquery_search(
                engine._make_view(),
                decomposition.subqueries[0],
                engine.matcher,
                engine.config,
                kernel="numba",
            )

    def test_engine_validates_search_kernel(self, small_bundle):
        with pytest.raises(SearchError):
            SemanticGraphQueryEngine(
                small_bundle.kg,
                small_bundle.space,
                small_bundle.library,
                search_kernel="simd",
            )
        assert SEARCH_KERNELS == ("vectorized", "reference")

    def test_pool_arrays_export(self, small_bundle):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        decomposition = engine.decompose(small_bundle.workload[0].query)
        search = build_subquery_search(
            engine._make_view(),
            decomposition.subqueries[0],
            engine.matcher,
            engine.config,
            kernel="vectorized",
        )
        search.run(5)
        pool = search.pool_arrays()
        assert search.pool_size > 0
        assert set(pool) == {
            "uid", "segment", "hops_total", "hops_in_segment", "log_product",
            "weight_sum", "priority", "parent", "slot",
        }
        for column in pool.values():
            assert column.shape == (search.pool_size,)


class TestEngineCallSites:
    """The kernels are interchangeable through every engine path."""

    @pytest.fixture(scope="class")
    def engines(self, small_bundle):
        return {
            kernel: SemanticGraphQueryEngine(
                small_bundle.kg,
                small_bundle.space,
                small_bundle.library,
                search_kernel=kernel,
            )
            for kernel in ("reference", "vectorized")
        }

    def test_sgq_identical(self, engines, small_bundle):
        for item in small_bundle.workload:
            reference = engines["reference"].search(item.query, k=10)
            vectorized = engines["vectorized"].search(item.query, k=10)
            problem = final_matches_differ(
                item.qid, reference.matches, vectorized.matches
            )
            assert problem is None, problem
            assert reference.ta_accesses == vectorized.ta_accesses, item.qid
            assert reference.expansions == vectorized.expansions, item.qid
            assert reference.stale_pops == vectorized.stale_pops, item.qid
            assert reference.max_queue_size == vectorized.max_queue_size, item.qid

    def test_tbq_identical_under_budget_clock(self, engines, small_bundle):
        item = small_bundle.workload[0]
        results = {}
        for kernel, engine in engines.items():
            clock = BudgetClock(seconds_per_tick=0.001)
            results[kernel] = engine.search_time_bounded(
                item.query, k=10, time_bound=0.05, clock=clock
            )
        reference, vectorized = results["reference"], results["vectorized"]
        problem = final_matches_differ("tbq", reference.matches, vectorized.matches)
        assert problem is None, problem
        assert reference.ta_accesses == vectorized.ta_accesses

    def test_view_stats_comparable_across_kernels(self, engines, small_bundle):
        """nodes_touched/edges_weighted stay kernel-independent (the
        vectorized kernel reports the nodes the reference's view calls
        would have touched)."""
        for item in small_bundle.workload[:3]:
            a = engines["reference"].search(item.query, k=5).total_stats()
            b = engines["vectorized"].search(item.query, k=5).total_stats()
            assert a.nodes_touched == b.nodes_touched, item.qid
            assert a.edges_weighted == b.edges_weighted, item.qid

    def test_query_result_counters_aggregate(self, engines, small_bundle):
        result = engines["vectorized"].search(small_bundle.workload[0].query, k=5)
        total = result.total_stats()
        assert result.expansions == total.expansions > 0
        assert result.pruned_by_tau == total.pruned_by_tau
        assert result.pruned_by_visited == total.pruned_by_visited
        assert result.stale_pops == total.stale_pops
        assert result.max_queue_size == total.max_queue_size > 0
