"""Partially-materialised semantic graph (Definition 5, Section IV-B).

The straightforward construction of ``SG_Q`` — weight every edge of every
edge match up front — is quadratically wasteful (the paper's Fig. 7
analysis: high traversal cost + redundant operations).  Instead this view
materialises weights *on demand* while the A* search runs: an edge gets a
weight the first time the search looks at it, and the weight cache doubles
as the record of which part of ``SG_Q`` was ever built.

Weights are Eq. 5 cosines **clamped to [0, 1]**: the pss machinery
(geometric means, admissibility proofs) requires weights in (0, 1], and a
negative cosine means "semantically opposite", which the search should
treat as unrelated (weight 0 ⇒ pruned by any τ > 0).

**Role.**  The engine runs every query on the compact CSR view
(:class:`~repro.core.compact_view.CompactSemanticGraphView`).  This lazy
view is kept as its test oracle: a direct transcription of the paper's
on-demand construction, with no shared cache, that the conformance suites
compare the production path against.

Weights depend only on (query predicate, graph predicate) and ``m(u)``
(Lemma 1) only on (node, query predicate), so for a fixed graph, space and
``min_weight`` neither depends on the query instance: the compact view
shares them across queries as whole rows through a :class:`WeightCache`
(see :class:`repro.serve.cache.SemanticGraphCache`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Protocol, Set, Tuple

from repro.embedding.predicate_space import PredicateSpace
from repro.errors import UnknownPredicateError
from repro.kg.graph import Edge, KnowledgeGraph


class WeightCache(Protocol):
    """Cross-query store of semantic-graph *rows*.

    A row is an opaque value covering one query predicate against the
    entire bound graph — the vector of clamped weights per interned graph
    predicate id (``kind="weights"``) or of ``m(u)`` bounds per node
    (``kind="bounds"``).  The cache invariant: every entry is a pure
    function of the (graph, space, ``min_weight``) combination the cache
    was bound to — so entries may be shared by any number of concurrent
    per-query views and evicted at any time without affecting
    correctness (a miss just recomputes).  Rows are immutable by
    contract.
    """

    def bind(self, fingerprint: Tuple) -> None:
        """Pin the cache to one (graph, space, min_weight) combination.

        Raises :class:`~repro.errors.ServeError` when the cache is already
        bound to a different combination — mixing spaces would serve wrong
        weights silently.
        """
        ...

    def get_row(self, kind: str, query_predicate: str) -> Optional[object]:
        ...

    def put_row(self, kind: str, query_predicate: str, row: object) -> None:
        ...


class WeightedGraphView(Protocol):
    """What the reference A* search needs from a semantic-graph view.

    Both the production
    :class:`~repro.core.compact_view.CompactSemanticGraphView` and the
    lazy :class:`SemanticGraphView` oracle satisfy it.
    """

    def weighted_incident(
        self, uid: int, query_predicate: str
    ) -> Iterable[Tuple[Edge, int, float]]:
        ...

    def max_adjacent_weight_any(self, uid: int, query_predicates: Iterable[str]) -> float:
        ...


class SemanticGraphView:
    """Lazy weighted view of a knowledge graph for one query's predicates.

    The test oracle for the compact view.  One view is shared by all
    sub-query searches of a query: weights depend only on (query
    predicate, graph predicate), so the memo is global to the query,
    exactly like the paper's single ``SG_Q``.

    Args:
        kg: the knowledge graph being viewed.
        space: predicate semantic space providing Eq. 5 similarities.
        min_weight: similarities below this materialise as 0.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateSpace,
        *,
        min_weight: float = 0.0,
    ):
        self.kg = kg
        self.space = space
        self.min_weight = min_weight
        # L1, per query: (query predicate, graph predicate) -> clamped weight
        self._weight_cache: Dict[Tuple[str, str], float] = {}
        # L1, per query: (uid, query predicate) -> max adjacent weight
        # (the m(u) of Lemma 1)
        self._max_adjacent_cache: Dict[Tuple[int, str], float] = {}
        self._touched_nodes: Set[int] = set()
        self.edges_weighted = 0  # similarities actually computed by this view

    # ------------------------------------------------------------------
    def weight(self, query_predicate: str, graph_predicate: str) -> float:
        """Semantic-graph weight ``sim(L_Q(e), L(e'))`` clamped to [0, 1].

        A graph predicate unknown to the space (possible when the space was
        trained on a different graph snapshot) gets weight 0 rather than an
        error: an unembeddable predicate carries no usable semantics.
        """
        key = (query_predicate, graph_predicate)
        cached = self._weight_cache.get(key)
        if cached is not None:
            return cached
        try:
            raw = self.space.similarity(query_predicate, graph_predicate)
        except UnknownPredicateError:
            raw = 0.0
        clamped = min(max(raw, 0.0), 1.0)
        if clamped < self.min_weight:
            clamped = 0.0
        self._weight_cache[key] = clamped
        self.edges_weighted += 1
        return clamped

    def weighted_incident(
        self, uid: int, query_predicate: str
    ) -> Iterable[Tuple[Edge, int, float]]:
        """Materialise the 1-hop semantic graph around ``uid``.

        Yields ``(edge, neighbour, weight)`` for every incident edge,
        weighted against the given query predicate (step 2 of the paper's
        lightweight construction).  Zero-weight edges are still yielded —
        the caller's τ-pruning decides their fate — unless ``min_weight``
        zeroed them out *and* τ > 0 would drop them anyway; filtering here
        would duplicate that policy, so we don't.
        """
        self._touched_nodes.add(uid)
        for edge, neighbor in self.kg.incident(uid):
            yield edge, neighbor, self.weight(query_predicate, edge.predicate)

    def max_adjacent_weight(self, uid: int, query_predicate: str) -> float:
        """``m(u)`` of Lemma 1: max weight over edges incident to ``uid``.

        The value upper-bounds the weight of the first unexplored edge of
        any continuation through ``uid``, hence (weights ≤ 1) the whole
        unexplored weight product.
        """
        key = (uid, query_predicate)
        cached = self._max_adjacent_cache.get(key)
        if cached is not None:
            return cached
        best = 0.0
        for _edge, _neighbor, weight in self.weighted_incident(uid, query_predicate):
            if weight > best:
                best = weight
        self._max_adjacent_cache[key] = best
        return best

    def max_adjacent_weight_any(self, uid: int, query_predicates: Iterable[str]) -> float:
        """``m(u)`` against several remaining query predicates.

        Multi-edge sub-queries (g2 of Example 2) may continue from ``uid``
        matching the current segment's predicate or — after advancing at an
        intermediate query node — a later one; the max over all remaining
        predicates upper-bounds both.
        """
        best = 0.0
        for predicate in query_predicates:
            weight = self.max_adjacent_weight(uid, predicate)
            if weight > best:
                best = weight
        return best

    # ------------------------------------------------------------------
    @property
    def materialized_pairs(self) -> int:
        """Distinct (query predicate, graph predicate) weights held."""
        return len(self._weight_cache)

    @property
    def touched_nodes(self) -> int:
        """Distinct graph nodes whose 1-hop view was materialised."""
        return len(self._touched_nodes)

    def materialization_ratio(self) -> float:
        """Fraction of graph nodes ever materialised (Example 5's
        "25% of nodes pruned" is 1 minus this, per sub-query)."""
        if self.kg.num_entities == 0:
            return 0.0
        return self.touched_nodes / self.kg.num_entities
