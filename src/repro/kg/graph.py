"""In-memory knowledge graph store (Definition 1 of the paper).

A knowledge graph ``G = (V, E, L)`` has typed, named entity nodes and
directed predicate-labelled edges.  This module provides:

- :class:`Entity` — an immutable node record ``(uid, name, etype)``;
- :class:`Edge` — an immutable directed edge ``(source, predicate, target)``;
- :class:`KnowledgeGraph` — adjacency storage with the label indexes the
  search layer needs: entities by type, entities by name, predicates by
  (source type, target type) signature, and *undirected* incident-edge
  iteration (the paper's path definition ignores edge direction, footnote 1).

The store is append-only: experiments build a graph once and query it many
times, so there is no node/edge deletion, which keeps the indexes trivially
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import GraphError, UnknownEntityError


@dataclass(frozen=True)
class Entity:
    """A knowledge-graph node: unique id, display name, and entity type."""

    uid: int
    name: str
    etype: str

    def __str__(self) -> str:
        return f"{self.name}<{self.etype}>"


@dataclass(frozen=True)
class Edge:
    """A directed predicate edge between two entity ids."""

    source: int
    predicate: str
    target: int

    def other(self, uid: int) -> int:
        """The endpoint opposite to ``uid`` (undirected traversal helper)."""
        if uid == self.source:
            return self.target
        if uid == self.target:
            return self.source
        raise GraphError(f"entity {uid} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"({self.source})-[{self.predicate}]->({self.target})"


@dataclass
class GraphStatistics:
    """Aggregate statistics used by cost models and reports."""

    num_entities: int = 0
    num_edges: int = 0
    num_types: int = 0
    num_predicates: int = 0
    average_degree: float = 0.0
    max_degree: int = 0


class KnowledgeGraph:
    """Adjacency-indexed knowledge graph (Definition 1).

    >>> kg = KnowledgeGraph()
    >>> audi = kg.add_entity("Audi_TT", "Automobile")
    >>> germany = kg.add_entity("Germany", "Country")
    >>> _ = kg.add_edge(audi.uid, "assembly", germany.uid)
    >>> [e.predicate for e, v in kg.incident(audi.uid)]
    ['assembly']
    """

    def __init__(self, name: str = "kg"):
        self.name = name
        self._entities: List[Entity] = []
        # The adjacency indexes: per node, the Edge objects leaving it and
        # entering it, in insertion order.  Undirected iteration walks
        # out-edges then in-edges (the historical order; search
        # tie-breaks depend on it) and pairs each with its other
        # endpoint on the fly.  Each edge is referenced exactly twice and
        # no per-edge tuple is stored: the search runs on the frozen CSR
        # kernel (repro.kg.compact), so the object graph is sized for
        # memory, not for the hot loop.
        self._out: List[List[Edge]] = []
        self._in: List[List[Edge]] = []
        self._num_edges = 0
        self._by_type: Dict[str, List[int]] = {}
        self._by_name: Dict[str, List[int]] = {}
        self._predicates: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_entity(self, name: str, etype: str) -> Entity:
        """Create an entity and return its record.

        Names need not be unique (e.g. two people named "John Smith"); the
        uid disambiguates.  Empty names or types are rejected.
        """
        if not name or not etype:
            raise GraphError("entity name and type must be non-empty")
        uid = len(self._entities)
        entity = Entity(uid=uid, name=name, etype=etype)
        self._entities.append(entity)
        self._out.append([])
        self._in.append([])
        self._by_type.setdefault(etype, []).append(uid)
        self._by_name.setdefault(name, []).append(uid)
        return entity

    def add_edge(self, source: int, predicate: str, target: int) -> Optional[Edge]:
        """Add a directed edge; returns ``None`` if it already exists.

        Self-loops are rejected: the paper's schema paths never use them and
        they would let the A* search "stall" on a node.
        """
        if not predicate:
            raise GraphError("edge predicate must be non-empty")
        if source == target:
            raise GraphError("self-loop edges are not supported")
        self._check_uid(source)
        self._check_uid(target)
        if self._find_edge(source, predicate, target):
            return None
        edge = Edge(source=source, predicate=predicate, target=target)
        self._out[source].append(edge)
        self._in[target].append(edge)
        self._num_edges += 1
        self._predicates[predicate] = self._predicates.get(predicate, 0) + 1
        return edge

    def _find_edge(self, source: int, predicate: str, target: int) -> bool:
        """Whether the exact directed edge exists (both uids valid).

        Scans the shorter of ``source``'s out-edges and ``target``'s
        in-edges — both hold the edge if it exists — so a hub on one end
        does not make the check O(hub degree).
        """
        outgoing = self._out[source]
        incoming = self._in[target]
        if len(outgoing) <= len(incoming):
            for edge in outgoing:
                if edge.target == target and edge.predicate == predicate:
                    return True
        else:
            for edge in incoming:
                if edge.source == source and edge.predicate == predicate:
                    return True
        return False

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _check_uid(self, uid: int) -> None:
        if not 0 <= uid < len(self._entities):
            raise UnknownEntityError(uid)

    def entity(self, uid: int) -> Entity:
        """The entity record for ``uid``."""
        self._check_uid(uid)
        return self._entities[uid]

    def entities(self) -> Iterator[Entity]:
        """Iterate over all entities in insertion order."""
        return iter(self._entities)

    def entities_of_type(self, etype: str) -> List[int]:
        """All entity ids with the given type (empty list if none)."""
        return list(self._by_type.get(etype, []))

    def entities_named(self, name: str) -> List[int]:
        """All entity ids with the given exact name (empty list if none)."""
        return list(self._by_name.get(name, []))

    def entity_by_name(self, name: str) -> Entity:
        """The unique entity with ``name``; raises if absent or ambiguous."""
        uids = self._by_name.get(name, [])
        if not uids:
            raise UnknownEntityError(name)
        if len(uids) > 1:
            raise GraphError(f"entity name {name!r} is ambiguous ({len(uids)} hits)")
        return self._entities[uids[0]]

    def has_edge(self, source: int, predicate: str, target: int) -> bool:
        """Whether the exact directed edge exists."""
        n = len(self._entities)
        if not (0 <= source < n and 0 <= target < n):
            return False
        return self._find_edge(source, predicate, target)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def out_edges(self, uid: int) -> List[Edge]:
        """Directed edges leaving ``uid``, in insertion order (a copy)."""
        self._check_uid(uid)
        return list(self._out[uid])

    def in_edges(self, uid: int) -> List[Edge]:
        """Directed edges entering ``uid``, in insertion order (a copy)."""
        self._check_uid(uid)
        return list(self._in[uid])

    def out_incident(self, uid: int) -> List[Tuple[Edge, int]]:
        """``(edge, target)`` pairs for edges leaving ``uid``."""
        self._check_uid(uid)
        return [(edge, edge.target) for edge in self._out[uid]]

    def in_incident(self, uid: int) -> List[Tuple[Edge, int]]:
        """``(edge, source)`` pairs for edges entering ``uid``."""
        self._check_uid(uid)
        return [(edge, edge.source) for edge in self._in[uid]]

    def incident(self, uid: int) -> Iterator[Tuple[Edge, int]]:
        """Iterate ``(edge, neighbour_uid)`` over all edges touching ``uid``.

        Traversal is undirected (paper footnote 1): both outgoing and
        incoming edges are yielded, paired with the opposite endpoint —
        outgoing first, then incoming, each in insertion order (the
        historical order; equal-score search tie-breaks depend on it).
        """
        return iter(self.incident_list(uid))

    def incident_list(self, uid: int) -> List[Tuple[Edge, int]]:
        """The ``(edge, neighbour_uid)`` incidence of ``uid`` as a fresh
        list, in :meth:`incident` order."""
        self._check_uid(uid)
        pairs = [(edge, edge.target) for edge in self._out[uid]]
        pairs.extend([(edge, edge.source) for edge in self._in[uid]])
        return pairs

    def degree(self, uid: int) -> int:
        """Undirected degree of ``uid``."""
        self._check_uid(uid)
        return len(self._out[uid]) + len(self._in[uid])

    def neighbors(self, uid: int) -> List[int]:
        """Distinct neighbour ids of ``uid`` (undirected)."""
        seen: Set[int] = set()
        out: List[int] = []
        for _edge, other in self.incident(uid):
            if other not in seen:
                seen.add(other)
                out.append(other)
        return out

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self._entities)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def predicates(self) -> List[str]:
        """All distinct predicates, in first-use order."""
        return list(self._predicates)

    def predicate_frequency(self, predicate: str) -> int:
        """Number of edges carrying ``predicate`` (0 if unused)."""
        return self._predicates.get(predicate, 0)

    def types(self) -> List[str]:
        """All distinct entity types, in first-use order."""
        return list(self._by_type)

    def statistics(self) -> GraphStatistics:
        """Compute aggregate statistics (O(V))."""
        degrees = [self.degree(u) for u in range(self.num_entities)]
        return GraphStatistics(
            num_entities=self.num_entities,
            num_edges=self.num_edges,
            num_types=len(self._by_type),
            num_predicates=len(self._predicates),
            average_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
            max_degree=max(degrees) if degrees else 0,
        )

    def triples(self) -> Iterator[Tuple[str, str, str]]:
        """Iterate ``(head name, predicate, tail name)`` string triples.

        Head/tail are rendered with their uid suffix when names collide, so
        the output round-trips through :mod:`repro.kg.triples`.
        """
        for uid in range(self.num_entities):
            for edge in self._out[uid]:
                yield (
                    self._entities[edge.source].name,
                    edge.predicate,
                    self._entities[edge.target].name,
                )

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(name={self.name!r}, entities={self.num_entities}, "
            f"edges={self.num_edges})"
        )
