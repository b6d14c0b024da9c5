"""Vectorized semantic-graph view over the compact CSR kernel.

:class:`CompactSemanticGraphView` is a drop-in
:class:`~repro.core.semantic_graph.WeightedGraphView` whose unit of work
is a **row**, not a pair:

- the weights of a query predicate against *every* graph predicate come
  from one :meth:`~repro.embedding.predicate_space.PredicateSpace
  .similarity_row` matvec, scattered onto the graph's interned predicate
  ids and clamped exactly as the lazy view clamps (Eq. 5, [0, 1],
  ``min_weight`` zeroing);
- ``weighted_incident`` is a CSR slice plus a fancy-index into that row —
  no per-edge dict probes, no ``Edge.other`` branches (the CSR stores the
  other endpoint);
- ``m(u)`` (Lemma 1) for *all* nodes at once is a segment-max
  (``np.maximum.reduceat``) over the per-slot weights, so the A*'s
  Eq. 7 estimates read an array instead of scanning incidence lists.

Rows are exactly the cross-query reuse unit, so when the view is backed
by a shared :class:`~repro.serve.cache.SemanticGraphCache` it gets/puts
whole rows (``kind in {"weights", "bounds"}``) — one cache round-trip per
(query predicate) instead of one per (edge) — and the serving layer's
warm-workload win composes with the kernel's cold-query win.

This is the engine's only view.  The lazy
:class:`~repro.core.semantic_graph.SemanticGraphView` survives as its
test oracle, and equivalence with it is exact, not approximate: both
serve weights from the same cached ``PredicateSpace`` rows, slots keep
``KnowledgeGraph.incident`` order (heap tie-breaks match), and ``Edge``
objects are shared with the source graph (identity included).  The
conformance suites in ``tests/test_compact_view.py`` and
``tests/test_oracle_conformance.py`` pin all of this.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.embedding.predicate_space import PredicateSpace
from repro.errors import UnknownPredicateError
from repro.kg.compact import CompactGraph
from repro.kg.graph import Edge, KnowledgeGraph
from repro.core.semantic_graph import WeightCache

# Per-(frozen graph, space) memo of the graph-predicate-id -> space-index
# mapping: pure, cheap to rebuild, but rebuilt once per *query* without
# the memo.  Weak on both sides — weak-keyed on the kernel so dropping a
# graph drops its entries, and holding only a weakref to the space so a
# retired space (embedding refresh) is not pinned for the kernel's
# lifetime.  A dead or recycled space entry just recomputes.
_SPACE_INDEX_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _space_index_for(
    graph: CompactGraph, space: PredicateSpace
) -> Tuple[np.ndarray, np.ndarray]:
    """``(index, known)`` arrays mapping graph predicate ids into ``space``.

    ``index[pid]`` is the space row of graph predicate ``pid`` (-1 when
    the space cannot embed it — weight 0); ``known`` is the >= 0 mask.
    Races just duplicate a pure computation.
    """
    per_graph = _SPACE_INDEX_MEMO.get(graph)
    if per_graph is None:
        per_graph = {}
        _SPACE_INDEX_MEMO[graph] = per_graph
    entry = per_graph.get(id(space))
    if entry is not None and entry[0]() is space:
        return entry[1], entry[2]
    # Purge entries whose space died so retired spaces' arrays don't
    # accumulate for the kernel's lifetime (one entry per live space).
    dead = [key for key, (ref, _index, _known) in per_graph.items() if ref() is None]
    for key in dead:
        del per_graph[key]
    index = np.full(len(graph.predicate_names), -1, dtype=np.int64)
    for pid, name in enumerate(graph.predicate_names):
        try:
            index[pid] = space.index_of(name)
        except UnknownPredicateError:
            pass
    known = index >= 0
    index.flags.writeable = False
    known.flags.writeable = False
    per_graph[id(space)] = (weakref.ref(space), index, known)
    return index, known


class CompactSemanticGraphView:
    """Weighted view of a :class:`~repro.kg.compact.CompactGraph`.

    Args:
        graph: the frozen CSR kernel.
        space: predicate semantic space providing Eq. 5 similarities.
        min_weight: similarities below this materialise as 0 (same policy
            as :class:`~repro.core.semantic_graph.SemanticGraphView`).
        cache: optional shared
            :class:`~repro.core.semantic_graph.WeightCache` of whole
            rows (``kind in {"weights", "bounds"}``), bound to the
            source graph's fingerprint.
    """

    def __init__(
        self,
        graph: CompactGraph,
        space: PredicateSpace,
        *,
        min_weight: float = 0.0,
        cache: Optional[WeightCache] = None,
    ):
        self.graph = graph
        self.kg = graph.kg
        self.space = space
        self.min_weight = min_weight
        self._cache = cache
        if cache is not None:
            # Rows are functions of the source (graph, space, min_weight)
            # and of the *frozen* shape: if the append-only source graph
            # grew past this kernel (or past the cache's binding),
            # sharing rows would serve stale m(u) bounds; binding raises
            # instead.  An unpickled kernel carries no kg; the kernel
            # object itself is then the identity anchor.
            anchor = graph.kg if graph.kg is not None else graph
            cache.bind((anchor, space, min_weight, graph.num_nodes, graph.num_edges))

        # Interned graph-predicate id -> space row index, memoised per
        # (graph, space) so per-query view construction stays O(1).
        self._space_index, self._known = _space_index_for(graph, space)

        # L1, per query: query predicate -> (row array, row list).  The
        # list mirror serves the scalar hot loop (python floats, no
        # np.float64 boxing per element).
        self._weight_rows: Dict[str, Tuple[np.ndarray, List[float]]] = {}
        # L1, per query: query predicate -> per-node m(u) list, plus the
        # read-only array the vectorized search kernel consumes.
        self._bounds_rows: Dict[str, List[float]] = {}
        self._bounds_arrays: Dict[str, np.ndarray] = {}
        self._touched_nodes: Set[int] = set()
        # Pair weights materialised by this view.  The unit of work is a
        # whole row, so each computed row counts |graph predicates| pairs
        # — a *materialisation* count, deliberately not the lazy view's
        # touched-pair count (vectorisation materialises eagerly; that is
        # the point).  Rows served by the shared cache count zero.
        self.edges_weighted = 0
        self.cache_hits = 0  # rows served by the shared cache

    # ------------------------------------------------------------------
    # row materialisation
    # ------------------------------------------------------------------
    def _weight_row(self, query_predicate: str) -> Tuple[np.ndarray, List[float]]:
        """Clamped weights of ``query_predicate`` per graph-predicate id.

        The shared cache holds the bare read-only ``float64`` vector (the
        documented row contract); the per-view L1 pairs it with a
        plain-list mirror for the scalar hot loop, rebuilt on a shared
        hit (one small ``tolist`` per view per predicate).
        """
        entry = self._weight_rows.get(query_predicate)
        if entry is not None:
            return entry
        if self._cache is not None:
            shared = self._cache.get_row("weights", query_predicate)
            if shared is not None:
                entry = (shared, shared.tolist())
                self._weight_rows[query_predicate] = entry
                self.cache_hits += 1
                return entry
        row = np.zeros(len(self.graph.predicate_names))
        try:
            space_row = self.space.similarity_row(query_predicate)
        except UnknownPredicateError:
            pass  # unknown query predicate: every weight is 0
        else:
            row[self._known] = np.clip(
                space_row[self._space_index[self._known]], 0.0, 1.0
            )
            if self.min_weight > 0.0:
                row[row < self.min_weight] = 0.0
        row.flags.writeable = False
        entry = (row, row.tolist())
        self._weight_rows[query_predicate] = entry
        self.edges_weighted += row.shape[0]
        if self._cache is not None:
            self._cache.put_row("weights", query_predicate, row)
        return entry

    def _bounds_row(self, query_predicate: str) -> List[float]:
        """``m(u)`` of Lemma 1 for every node — one vectorized segment-max.

        The shared cache holds the compact ``float64`` vector (8 bytes
        per node); the per-view L1 holds a plain-list mirror for fast
        scalar reads.  Rebuilding the mirror on a shared hit costs one
        ``tolist`` per (view, predicate) — far below the segment-max it
        replaces — and keeps cache entries 4-5x smaller than boxed
        floats would be.
        """
        bounds = self._bounds_rows.get(query_predicate)
        if bounds is not None:
            return bounds
        if self._cache is not None:
            shared = self._cache.get_row("bounds", query_predicate)
            if shared is not None:
                bounds = shared.tolist()
                self._bounds_rows[query_predicate] = bounds
                self._bounds_arrays[query_predicate] = shared
                self.cache_hits += 1
                return bounds
        row, _row_list = self._weight_row(query_predicate)
        graph = self.graph
        values = np.zeros(graph.num_nodes)
        slot_weights = row[graph.slot_predicate]
        starts = graph.indptr[:-1]
        nonempty = starts < graph.indptr[1:]
        if slot_weights.size:
            # reduceat needs non-empty segments: reduce only rows with
            # incidence, leave isolated nodes at m(u) = 0.
            values[nonempty] = np.maximum.reduceat(slot_weights, starts[nonempty])
        values.flags.writeable = False
        bounds = values.tolist()
        self._bounds_rows[query_predicate] = bounds
        self._bounds_arrays[query_predicate] = values
        if self._cache is not None:
            self._cache.put_row("bounds", query_predicate, values)
        return bounds

    # ------------------------------------------------------------------
    # WeightedGraphView protocol
    # ------------------------------------------------------------------
    def weight(self, query_predicate: str, graph_predicate: str) -> float:
        """Clamped weight of one (query, graph) predicate pair.

        Scalar convenience (tests, debugging); the search reads rows.
        Unknown graph predicates weigh 0, mirroring the lazy view.
        """
        pid = self.graph.predicate_index.get(graph_predicate)
        if pid is None:
            # Predicate absent from the frozen graph: derive the weight
            # directly so the scalar API covers the full space.
            try:
                raw = self.space.similarity(query_predicate, graph_predicate)
            except UnknownPredicateError:
                return 0.0
            clamped = min(max(raw, 0.0), 1.0)
            return 0.0 if clamped < self.min_weight else clamped
        return self._weight_row(query_predicate)[1][pid]

    def weighted_incident(
        self, uid: int, query_predicate: str
    ) -> Iterable[Tuple[Edge, int, float]]:
        """One node's weighted incidence: ``(edge, neighbour, weight)``.

        The scalar surface the reference A* oracle reads (the array-backed
        kernel reads whole rows instead).  Walks the kernel's per-node
        slot mirror — built on first use — and indexes the query
        predicate's weight row; no dict probes, no ``Edge.other``
        branches.  Same contract (and same yield order) as the lazy
        view's ``weighted_incident``; zero-weight edges are yielded for
        the caller's τ-pruning to judge.
        """
        self._touched_nodes.add(uid)
        slots = self.graph.node_slots[uid]
        if not slots:
            return
        entry = self._weight_rows.get(query_predicate)
        if entry is None:
            entry = self._weight_row(query_predicate)
        row_list = entry[1]
        for edge, neighbor, pid in slots:
            yield edge, neighbor, row_list[pid]

    def max_adjacent_weight(self, uid: int, query_predicate: str) -> float:
        """``m(u)`` of Lemma 1 — an array read off the segment-max row."""
        self._touched_nodes.add(uid)
        return self._bounds_row(query_predicate)[uid]

    def max_adjacent_weight_any(
        self, uid: int, query_predicates: Iterable[str]
    ) -> float:
        """``m(u)`` against several remaining query predicates (Lemma 1).

        Called once per generated A* state: the L1 dict probe is inlined
        so the common (row already materialised) case is two lookups.
        Nodes whose bound is consulted count as touched — the lazy view
        materialises their incidence at this point, so counting them
        keeps ``nodes_touched`` comparable across kernels.
        """
        self._touched_nodes.add(uid)
        best = 0.0
        rows = self._bounds_rows
        for predicate in query_predicates:
            row = rows.get(predicate)
            if row is None:
                row = self._bounds_row(predicate)
            weight = row[uid]
            if weight > best:
                best = weight
        return best

    # ------------------------------------------------------------------
    # whole-row surface for the vectorized search kernel
    # ------------------------------------------------------------------
    def weight_row_array(self, query_predicate: str) -> np.ndarray:
        """Read-only clamped weights per interned graph-predicate id.

        The same row :meth:`weighted_incident` serves scalars from, so a
        search kernel indexing it by ``slot_predicate`` sees bit-equal
        weights in CSR slot order.
        """
        return self._weight_row(query_predicate)[0]

    def bounds_row_array(self, query_predicate: str) -> np.ndarray:
        """Read-only ``m(u)`` (Lemma 1) per node, as one float64 vector."""
        array = self._bounds_arrays.get(query_predicate)
        if array is None:
            self._bounds_row(query_predicate)
            array = self._bounds_arrays[query_predicate]
        return array

    def note_touched(self, uids: Iterable[int]) -> None:
        """Record nodes a search kernel consulted out-of-band.

        The vectorized search kernel reads whole-graph rows instead of
        calling :meth:`weighted_incident` / :meth:`max_adjacent_weight_any`
        per node; it reports the nodes those calls *would* have touched
        here, so ``touched_nodes`` stays comparable across kernels.
        """
        self._touched_nodes.update(uids)

    # ------------------------------------------------------------------
    # introspection (parity with SemanticGraphView)
    # ------------------------------------------------------------------
    @property
    def materialized_pairs(self) -> int:
        """Distinct (query predicate, graph predicate) weights held."""
        return sum(len(entry[1]) for entry in self._weight_rows.values())

    @property
    def touched_nodes(self) -> int:
        """Distinct nodes whose incidence or ``m(u)`` bound was consulted.

        Matches the lazy oracle view exactly (it materialises a node's
        incidence to derive its bound).
        """
        return len(self._touched_nodes)

    def materialization_ratio(self) -> float:
        """Fraction of graph nodes ever materialised."""
        if self.graph.num_nodes == 0:
            return 0.0
        return self.touched_nodes / self.graph.num_nodes


class CompactViewFactory:
    """Builds :class:`CompactSemanticGraphView`\\ s over one shared kernel.

    Freezes the graph on first use and re-freezes automatically if the
    append-only graph has grown since (``CompactGraph.is_stale``), so an
    engine can keep one factory for its lifetime.  The engine's
    ``view_factory``.
    """

    def __init__(self, graph: Optional[CompactGraph] = None):
        self._graph = graph
        self._freeze_lock = threading.Lock()

    @property
    def frozen_graph(self) -> Optional[CompactGraph]:
        """The kernel currently held (``None`` before first use)."""
        return self._graph

    def compact_graph(self, kg: KnowledgeGraph) -> CompactGraph:
        """The (re)frozen kernel for ``kg``.

        Locked: concurrent QueryService workers warming up would
        otherwise each run the O(V+E) freeze before racing the
        assignment.  A held kernel whose source graph is gone (an
        unpickled snapshot shipped to a worker process, ``kg is None``)
        is kept as long as its entity/edge counts still match ``kg`` —
        that is the complete staleness check for the append-only store,
        and re-freezing would throw away exactly the work shipping the
        snapshot saved.
        """
        with self._freeze_lock:
            graph = self._graph
            if (
                graph is None
                or graph.is_stale(kg)
                or (graph.kg is not None and graph.kg is not kg)
            ):
                graph = CompactGraph.freeze(kg)
                self._graph = graph
            return graph

    def __call__(
        self,
        kg: KnowledgeGraph,
        space: PredicateSpace,
        *,
        min_weight: float = 0.0,
        cache: Optional[WeightCache] = None,
    ) -> CompactSemanticGraphView:
        return CompactSemanticGraphView(
            self.compact_graph(kg), space, min_weight=min_weight, cache=cache
        )
