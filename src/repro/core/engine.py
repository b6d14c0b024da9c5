"""The SGQ / TBQ query engine — the paper's Fig. 5 pipeline, online half.

Wires together decomposition (Section III-A), the on-demand semantic graph
(Section IV-B), per-sub-query A* semantic search (Section V-B), TA final-
match assembly (Section V-C) and the time-bounded approximate mode
(Section VI) behind two calls:

    engine = SemanticGraphQueryEngine(kg, predicate_space, library)
    result = engine.search(query, k=100)                      # SGQ
    result = engine.search_time_bounded(query, k=100, T=0.05) # TBQ

The SGQ path is fully lazy: TA sorted access pulls matches straight out of
the still-running A* searches, which realises the paper's "repeat the A*
semantic search for each g_i until sufficient final matches are returned"
without guessing how many matches each sub-query must contribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.assembly import ASSEMBLY_KERNELS, MatchStream, assemble_top_k
from repro.core.astar import SEARCH_KERNELS, SubQuerySearch, build_subquery_search
from repro.core.compact_view import CompactViewFactory
from repro.core.config import SearchConfig
from repro.core.results import QueryResult
from repro.core.semantic_graph import WeightCache, WeightedGraphView
from repro.core.time_bounded import TimeBoundedCoordinator
from repro.embedding.predicate_space import PredicateSpace
from repro.errors import SearchError
from repro.kg.compact import (
    CompactGraph,
    CompactGraphHandle,
    CompactKnowledgeGraph,
)
from repro.kg.graph import KnowledgeGraph
from repro.query.decompose import Decomposition, decompose_query
from repro.query.model import QueryGraph
from repro.query.transform import NodeMatcher, TransformationLibrary
from repro.utils.timing import Clock, Stopwatch, WallClock


class _PullTimer:
    """Accumulates wall time spent inside sorted-access pulls.

    For SGQ the TA's sorted access *is* the A* search, so the engine
    subtracts pull time from the assembly wall time to report an honest
    search-vs-assembly split (``QueryResult.assembly_seconds``).
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, pull: Callable) -> Callable:
        def timed():
            started = time.perf_counter()
            try:
                return pull()
            finally:
                self.seconds += time.perf_counter() - started

        return timed


@dataclass(frozen=True)
class EngineSpec:
    """A frozen, picklable description of one engine configuration.

    The construction half of the engine split: everything
    :func:`build_engine` needs to bootstrap a
    :class:`SemanticGraphQueryEngine` in another process — the graph, the
    predicate space, the transformation library and the search config —
    with **no** live runtime state (no weight cache, no worker pool).  A
    ``ProcessPoolExecutor`` worker unpickles one spec in its initializer,
    builds its engine once, and serves every subsequent request from it.

    ``compact_graph`` optionally carries the pre-frozen CSR kernel so a
    worker does not redo the O(V+E) freeze; on unpickle the snapshot's
    source-graph reference is dropped (``CompactGraph.__setstate__``) and
    the engine keeps it as long as its counts still match ``kg``.

    ``graph_handle`` is the zero-copy alternative: a
    :class:`~repro.kg.compact.CompactGraphHandle` naming a shared-memory
    segment published by the service process
    (``QueryService.build(shared_graph=True)``).  A spec carrying a
    handle may drop ``kg`` entirely — workers attach the segment and
    serve the graph API through a
    :class:`~repro.kg.compact.CompactKnowledgeGraph` facade, so the spec
    pickle is O(metadata) instead of O(graph).  ``compact_graph`` and
    ``graph_handle`` are mutually exclusive (arrays by value vs by
    reference).

    ``fault_plan`` optionally carries a picklable chaos-injection plan
    (see :class:`repro.serve.faults.FaultPlan`) to the worker
    initializer.  It is deliberately untyped here: the core layer never
    interprets it (a typed field would pull a serve import into core),
    it only rides along so deterministic fault injection reaches process
    workers through the same vehicle as the engine description.

    Everything here must stay picklable: ``KnowledgeGraph`` is plain
    dataclasses and dicts, ``PredicateSpace`` drops its lock on pickle,
    ``CompactGraph`` ships only its numeric tables, and a handle ships
    only segment names and column manifests.
    """

    kg: Optional[KnowledgeGraph]
    space: PredicateSpace
    library: Optional[TransformationLibrary] = None
    config: Optional[SearchConfig] = None
    compact_graph: Optional[CompactGraph] = None
    graph_handle: Optional[CompactGraphHandle] = None
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if self.graph_handle is not None and self.compact_graph is not None:
            raise SearchError(
                "pass either compact_graph (arrays by value) or "
                "graph_handle (arrays by shared-memory reference), not both"
            )
        if self.kg is None and self.graph_handle is None:
            raise SearchError(
                "a spec without kg needs a graph_handle to rebuild the "
                "graph surface from"
            )

    def build(self, *, weight_cache: Optional[WeightCache] = None
              ) -> "SemanticGraphQueryEngine":
        """Alias of :func:`build_engine` for fluent call sites."""
        return build_engine(self, weight_cache=weight_cache)


def build_engine(
    spec: EngineSpec, *, weight_cache: Optional[WeightCache] = None
) -> "SemanticGraphQueryEngine":
    """Materialise the engine an :class:`EngineSpec` describes.

    ``weight_cache`` is deliberately *not* part of the spec — it is
    per-process runtime state; a multiprocess worker passes its own
    private cache here.  A spec's pre-frozen ``compact_graph`` is used
    instead of re-freezing.  A ``graph_handle`` is *attached* from shared
    memory (zero-copy, O(metadata)) and — absent an explicit ``kg`` —
    the graph API is served by a
    :class:`~repro.kg.compact.CompactKnowledgeGraph` facade over the
    shared columns.
    """
    graph = spec.compact_graph
    kg = spec.kg
    if spec.graph_handle is not None:
        graph = CompactGraph.from_handle(spec.graph_handle)
        if kg is None:
            kg = CompactKnowledgeGraph(graph)
    engine = SemanticGraphQueryEngine(
        kg,
        spec.space,
        spec.library,
        spec.config,
        weight_cache=weight_cache,
        _graph=graph,
    )
    engine._spec = spec
    return engine


class SemanticGraphQueryEngine:
    """Top-k semantic similarity search over one knowledge graph.

    Every query runs one pipeline: a per-query compact ``SG_Q`` view over
    the graph's frozen CSR kernel
    (:class:`~repro.core.compact_view.CompactSemanticGraphView`), the
    array-backed A* per sub-query
    (:class:`~repro.core.search_kernel.VectorizedSubQuerySearch`) and the
    incremental TA assembly kernel (:mod:`repro.core.assembly_kernel`).

    Args:
        kg: the knowledge graph to query.
        space: predicate semantic space (trained embedding or oracle).
        library: synonym/abbreviation transformation library for node
            matching; ``None`` allows identical matches only.
        config: search configuration (paper defaults when omitted).
        weight_cache: optional cross-query
            :class:`~repro.core.semantic_graph.WeightCache` (e.g. the
            serving layer's ``SemanticGraphCache``).  When set, every
            query's view shares weight and ``m(u)`` rows through it, so
            repeated queries stop re-deriving them; when ``None`` each
            query builds a private view, the paper's one-shot behaviour.
        assembly_kernel: ``"vectorized"`` (default) or ``"reference"``,
            the pure-Python Eq. 8-11 transcription kept as a test oracle.
        search_kernel: ``"vectorized"`` (default) or ``"reference"``, the
            Algorithm 1 transcription (:mod:`repro.core.astar`) kept as a
            test oracle.  Both oracles give identical results; only cost
            changes.

    ``view_factory`` is the per-query view seam, an instance attribute
    called as ``(kg, space, *, min_weight, cache)``; the conformance
    suites swap in the lazy
    :class:`~repro.core.semantic_graph.SemanticGraphView` oracle there.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateSpace,
        library: Optional[TransformationLibrary] = None,
        config: Optional[SearchConfig] = None,
        *,
        weight_cache: Optional[WeightCache] = None,
        assembly_kernel: str = "vectorized",
        search_kernel: str = "vectorized",
        _graph: Optional[CompactGraph] = None,
    ):
        if assembly_kernel not in ASSEMBLY_KERNELS:
            raise SearchError(
                f"unknown assembly kernel {assembly_kernel!r} "
                f"(expected one of {ASSEMBLY_KERNELS})"
            )
        if search_kernel not in SEARCH_KERNELS:
            raise SearchError(
                f"unknown search kernel {search_kernel!r} "
                f"(expected one of {SEARCH_KERNELS})"
            )
        self.assembly_kernel = assembly_kernel
        self.search_kernel = search_kernel
        self.kg = kg
        self.space = space
        self.library = library
        self.config = config if config is not None else SearchConfig()
        self.matcher = NodeMatcher(kg, library)
        self.weight_cache = weight_cache
        self._spec: Optional[EngineSpec] = None
        # Freeze eagerly: construction is the predictable place to pay
        # the O(V+E) snapshot, not the first query's latency.  _graph is
        # build_engine's pre-frozen or shared-memory kernel, kept as long
        # as its counts still match kg.
        self.view_factory = CompactViewFactory(_graph)
        self.view_factory.compact_graph(kg)

    def to_spec(self) -> EngineSpec:
        """The :class:`EngineSpec` this engine could be rebuilt from.

        Engines built by :func:`build_engine` return their originating
        spec; directly constructed engines derive one, including the
        already-frozen kernel, so workers skip the re-freeze.  An engine
        whose ``view_factory`` was replaced (the lazy oracle) has no spec
        and raises, rather than ship the production pipeline in its name.
        """
        if not isinstance(self.view_factory, CompactViewFactory):
            raise SearchError(
                "an engine with a replaced view_factory cannot be described "
                "by an EngineSpec"
            )
        if self._spec is None:
            self._spec = EngineSpec(
                kg=self.kg,
                space=self.space,
                library=self.library,
                config=self.config,
                compact_graph=self.view_factory.frozen_graph,
            )
        return self._spec

    def _make_view(self) -> WeightedGraphView:
        """A per-query ``SG_Q`` view, shared-cache-backed when configured."""
        return self.view_factory(
            self.kg,
            self.space,
            min_weight=self.config.min_weight,
            cache=self.weight_cache,
        )

    # ------------------------------------------------------------------
    def decompose(
        self,
        query: QueryGraph,
        *,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        seed: int = 0,
    ) -> Decomposition:
        """Decompose a query around a pivot (Eq. 1's minCost by default)."""
        return decompose_query(
            query,
            kg=self.kg,
            matcher=self.matcher,
            strategy=strategy,
            pivot=pivot,
            path_bound=self.config.path_bound,
            seed=seed,
        )

    def _build_searches(
        self,
        decomposition: Decomposition,
        view: WeightedGraphView,
        clock: Optional[Clock] = None,
    ) -> List[SubQuerySearch]:
        return [
            build_subquery_search(
                view,
                subquery,
                self.matcher,
                self.config,
                subquery_index=index,
                clock=clock,
                kernel=self.search_kernel,
            )
            for index, subquery in enumerate(decomposition.subqueries)
        ]

    # ------------------------------------------------------------------
    def search(
        self,
        query: QueryGraph,
        k: int = 10,
        *,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        decomposition: Optional[Decomposition] = None,
        exhaustive_assembly: bool = False,
    ) -> QueryResult:
        """SGQ: globally optimal top-k matches (Problem 1 / Eq. 3).

        Args:
            query: the query graph.
            k: number of final matches.
            pivot: force a pivot node label (Table V experiments).
            strategy: pivot-selection strategy when ``pivot`` is ``None``.
            decomposition: reuse a precomputed decomposition.
            exhaustive_assembly: ablation switch disabling TA early
                termination.
        """
        if k < 1:
            raise SearchError("k must be at least 1")
        watch = Stopwatch()
        if decomposition is None:
            decomposition = self.decompose(query, pivot=pivot, strategy=strategy)
        view = self._make_view()
        searches = self._build_searches(decomposition, view)
        pull_timer = _PullTimer()
        streams = [
            MatchStream(pull_timer.wrap(search.next_match)) for search in searches
        ]
        assembly_started = time.perf_counter()
        assembly = assemble_top_k(
            streams, k, exhaustive=exhaustive_assembly, kernel=self.assembly_kernel
        )
        assembly_seconds = max(
            time.perf_counter() - assembly_started - pull_timer.seconds, 0.0
        )
        for search in searches:
            search.stats.nodes_touched = view.touched_nodes
            search.stats.edges_weighted = view.edges_weighted
        return QueryResult(
            matches=assembly.matches,
            elapsed_seconds=watch.elapsed(),
            approximate=False,
            subquery_stats=[search.stats for search in searches],
            ta_accesses=assembly.accesses,
            ta_rounds=assembly.rounds,
            ta_truncated=assembly.truncated,
            assembly_seconds=assembly_seconds,
        )

    # ------------------------------------------------------------------
    def search_time_bounded(
        self,
        query: QueryGraph,
        k: int = 10,
        *,
        time_bound: float,
        pivot: Optional[str] = None,
        strategy: str = "min_cost",
        decomposition: Optional[Decomposition] = None,
        clock: Optional[Clock] = None,
        check_interval: int = 8,
    ) -> QueryResult:
        """TBQ: approximate top-k within ``time_bound`` seconds (Problem 2).

        Harvested non-optimal match sets are assembled with the same TA;
        given enough time the harvest is a superset of the optimal match
        sets, so the result converges to :meth:`search`'s (Theorem 4).
        """
        if k < 1:
            raise SearchError("k must be at least 1")
        watch = Stopwatch()
        if decomposition is None:
            decomposition = self.decompose(query, pivot=pivot, strategy=strategy)
        view = self._make_view()
        run_clock = clock if clock is not None else WallClock()
        searches = self._build_searches(decomposition, view, clock=run_clock)
        coordinator = TimeBoundedCoordinator(
            searches,
            time_bound,
            self.config,
            clock=run_clock,
            check_interval=check_interval,
        )
        outcome = coordinator.run()
        # The M̂ replay (sort + TA) is wholly assembly work: the searches
        # already ran under the coordinator, so no pull-time subtraction.
        assembly_started = time.perf_counter()
        streams = [MatchStream.from_list(harvest) for harvest in outcome.harvests]
        assembly = assemble_top_k(streams, k, kernel=self.assembly_kernel)
        assembly_seconds = time.perf_counter() - assembly_started
        for search in searches:
            search.stats.nodes_touched = view.touched_nodes
            search.stats.edges_weighted = view.edges_weighted
        return QueryResult(
            matches=assembly.matches,
            elapsed_seconds=watch.elapsed(),
            approximate=True,
            subquery_stats=[search.stats for search in searches],
            ta_accesses=assembly.accesses,
            ta_rounds=assembly.rounds,
            ta_truncated=assembly.truncated,
            assembly_seconds=assembly_seconds,
            time_bound=time_bound,
        )
