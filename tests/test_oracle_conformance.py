"""One production path, checked against the reference oracles.

The engine runs one pipeline: the compact CSR view, the array-backed A*
and the vectorized TA.  The lazy semantic-graph view, the reference A*
and the reference TA assembler survive only as oracles, and this suite
holds the production path to them on the dbpedia scale-1 bundle
(``small_bundle``, generator seed 11) at k=5:

- lazy view oracle ≡ compact view, every workload query
  (:mod:`repro.bench.compactbench`);
- reference TA ≡ vectorized TA, on the synthetic smoke cases plus one
  end-to-end engine query (:mod:`repro.bench.assemblybench`);
- reference A* ≡ array-backed A*, every workload query drained under
  both visited policies plus one end-to-end engine query
  (:mod:`repro.bench.searchbench`).

The harnesses also time both sides; those numbers are informational.
"""

import pytest

import repro.core.engine as engine_module
from repro.bench.assemblybench import (
    compare_assembly_kernels,
    d12_comparison,
    default_cases,
)
from repro.bench.compactbench import compare_kernels
from repro.bench.searchbench import compare_search_kernels, d12_search_comparison
from repro.core.compact_view import CompactSemanticGraphView, CompactViewFactory
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.search_kernel import VectorizedSubQuerySearch
from repro.kg.compact import CompactGraph
from repro.serve.service import QueryService

K = 5


@pytest.fixture
def built_searches(monkeypatch):
    """Every sub-query search the engine builds, captured at the seam."""
    built = []
    build = engine_module.build_subquery_search

    def capture(*args, **kwargs):
        search = build(*args, **kwargs)
        built.append(search)
        return search

    monkeypatch.setattr(engine_module, "build_subquery_search", capture)
    return built


class TestOneProductionPath:
    def test_default_engine_runs_vectorized_search_on_compact_view(
        self, small_bundle, built_searches
    ):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        assert engine.search_kernel == "vectorized"
        assert engine.assembly_kernel == "vectorized"
        engine.search(small_bundle.workload[0].query, k=K)
        engine.search_time_bounded(
            small_bundle.workload[0].query, k=K, time_bound=1.0
        )
        assert built_searches
        for search in built_searches:
            assert type(search) is VectorizedSubQuerySearch
            assert type(search.view) is CompactSemanticGraphView

    def test_default_service_runs_the_same_path(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
        ) as service:
            engine = service.engine
            assert isinstance(engine.view_factory, CompactViewFactory)
            assert engine.search_kernel == "vectorized"
            assert engine.assembly_kernel == "vectorized"
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=1,
        ) as service:
            # Workers receive the parent's frozen kernel, not a choice.
            assert service.spec.compact_graph is not None

    def test_freeze_leaves_the_object_slot_mirror_unbuilt(self, small_bundle):
        assert CompactGraph.freeze(small_bundle.kg)._node_slots is None
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        graph = engine.view_factory.frozen_graph
        assert graph._node_slots is None
        query = small_bundle.workload[-1].query
        engine.search(query, k=K)
        engine.search_time_bounded(query, k=K, time_bound=0.05)
        # The vectorized path reads the flat CSR arrays only.
        assert graph._node_slots is None

    def test_segment_weight_columns_are_per_graph_predicate(
        self, small_bundle, built_searches
    ):
        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        engine.search(small_bundle.workload[-1].query, k=K)
        num_predicates = len(small_bundle.kg.predicates())
        tables = [t for s in built_searches for t in s._tables.values()]
        assert tables
        for table in tables:
            assert len(table.w_l) == num_predicates
            assert len(table.lw_l) == num_predicates
            assert len(table.pos_l) == num_predicates


class TestOracleConformance:
    def test_lazy_view_oracle_matches_compact_view(self, small_bundle):
        comparison = compare_kernels(small_bundle, k=K, passes=1, scale=1.0)
        assert comparison.num_queries == len(small_bundle.workload)
        assert comparison.equivalent, comparison.mismatches[:10]

    def test_reference_ta_matches_vectorized_ta(self, small_bundle):
        assembly = compare_assembly_kernels(default_cases("smoke"), passes=1)
        assembly.d12 = d12_comparison(small_bundle, k=K, passes=1)
        assert assembly.num_cases == 5
        assert assembly.d12["equivalent"], assembly.d12["mismatch"]
        assert assembly.equivalent, assembly.mismatches[:10]

    def test_reference_astar_matches_vectorized_astar(self, small_bundle):
        search = compare_search_kernels(small_bundle, passes=1)
        search.d12 = d12_search_comparison(small_bundle, k=K, passes=1)
        # Every workload query under both visited policies.
        assert search.num_cases == 2 * len(small_bundle.workload)
        assert search.d12["equivalent"], search.d12["mismatch"]
        assert search.equivalent, search.mismatches[:10]
