"""Compact, numpy-backed knowledge-graph kernel (frozen CSR incidence).

:class:`~repro.kg.graph.KnowledgeGraph` is an object graph — ``Edge``
dataclasses in per-node lists — which is the right shape for construction
and for returning human-readable matches, but the wrong shape for the A*
hot loop: every ``incident`` call walks Python objects, every weight is a
dict probe, and every ``m(u)`` bound (Lemma 1) is a per-node Python scan.

:class:`CompactGraph` freezes that object graph into interned id tables
plus an **undirected-incidence CSR**:

- ``indptr[u] : indptr[u + 1]`` delimits node ``u``'s incidence slots
  (each edge occupies two slots, one per endpoint);
- ``slot_neighbor[s]`` is the *other* endpoint of slot ``s`` — the
  ``Edge.other`` branch is resolved once at freeze time and leaves the
  hot loop;
- ``slot_predicate[s]`` is the interned predicate id, the index into any
  per-query-predicate weight row (see
  :class:`repro.core.compact_view.CompactSemanticGraphView`);
- ``slot_edge[s]`` is the edge id, an index into the edge table for the
  rare moments a real :class:`~repro.kg.graph.Edge` is needed
  (:meth:`CompactGraph.edge` — ``PathMatch`` assembly, result rendering);
- ``name_blob`` / ``name_offsets`` carry the UTF-8 entity names, so a
  snapshot is a *complete* description of the graph: workers attaching a
  shared snapshot rebuild entity records without ever seeing the object
  graph (:class:`CompactKnowledgeGraph`).

Slot order within a node is exactly ``KnowledgeGraph.incident`` order, so
a search over the compact kernel expands states in the same sequence as
one over the object graph — which is what makes the two views'
results byte-identical, heap tie-breaks included.

The store is append-only (no deletions), so freezing is safe: a frozen
kernel is immutable and :meth:`CompactGraph.is_stale` detects a graph
that has since grown.  All index state is plain int arrays — picklable,
unlike the object graph.

Beyond pickling, the columns can live in **named shared memory**
(:mod:`repro.kg.shm`): :meth:`CompactGraph.to_shared` packs them into one
segment and returns an owning :class:`SharedCompactGraph` lease whose
:class:`CompactGraphHandle` pickles at O(metadata);
:meth:`CompactGraph.from_handle` attaches zero-copy in a worker.  Derived
object state (edge table, per-node slot mirror, entity names) is rebuilt
**lazily**, so attaching costs metadata, not O(V + E) — the hot arrays
are served straight from the shared mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import GraphError, UnknownEntityError
from repro.kg.graph import Edge, Entity, GraphStatistics, KnowledgeGraph
from repro.kg.shm import ShmArrayBlock, ShmBlockHandle

#: The columns :meth:`CompactGraph.to_shared` publishes — every numeric
#: table plus the entity-name blob, i.e. everything a worker needs to
#: serve queries without the object graph.
SHARED_COLUMNS = (
    "entity_type",
    "edge_source",
    "edge_target",
    "edge_predicate",
    "indptr",
    "slot_neighbor",
    "slot_predicate",
    "slot_edge",
    "slot_forward",
    "name_blob",
    "name_offsets",
)


class CompactGraph:
    """Frozen CSR snapshot of a :class:`~repro.kg.graph.KnowledgeGraph`.

    Build one with :meth:`freeze`; instances are immutable.  The original
    graph is kept (``self.kg``) so weight caches bound to the object graph
    can be shared with compact views, and so edge objects are *reused*
    rather than copied — a path match from a compact search holds the very
    same ``Edge`` instances a lazy search would.

    >>> kg = KnowledgeGraph()
    >>> a = kg.add_entity("Audi_TT", "Automobile")
    >>> g = kg.add_entity("Germany", "Country")
    >>> _ = kg.add_edge(a.uid, "assembly", g.uid)
    >>> compact = CompactGraph.freeze(kg)
    >>> compact.num_nodes, compact.num_edges
    (2, 1)
    >>> int(compact.slot_neighbor[compact.indptr[0]])
    1
    """

    __slots__ = (
        "__weakref__",  # weak-keyed per-(graph, space) memos in compact_view
        "kg",
        "kg_name",
        "num_nodes",
        "num_edges",
        "predicate_names",
        "predicate_index",
        "type_names",
        "type_index",
        "entity_type",
        "edge_source",
        "edge_target",
        "edge_predicate",
        "indptr",
        "slot_neighbor",
        "slot_predicate",
        "slot_edge",
        "slot_forward",
        "name_blob",
        "name_offsets",
        "_node_slots",
        "_edges",
        "_names",
        "_shm_block",
    )

    # Derived-object state: reconstructable from the arrays, so pickling
    # ships only numeric tables (plus name strings) — not the object
    # graph the kernel exists to replace.  ``_shm_block`` pins the shared
    # mapping of an attached kernel and never travels.
    _TRANSIENT = (
        "__weakref__",
        "kg",
        "_node_slots",
        "_edges",
        "_names",
        "_shm_block",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            if name == "__weakref__":
                continue
            if name in self._TRANSIENT:
                object.__setattr__(self, name, fields.get(name))
            else:
                object.__setattr__(self, name, fields[name])

    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, kg: KnowledgeGraph) -> "CompactGraph":
        """Snapshot ``kg`` into interned tables + an incidence CSR.

        O(V + E); every derived array is written once and never mutated.
        """
        num_nodes = kg.num_entities
        predicate_names = kg.predicates()
        predicate_index = {name: i for i, name in enumerate(predicate_names)}
        type_names = kg.types()
        type_index = {name: i for i, name in enumerate(type_names)}

        entity_type = np.fromiter(
            (type_index[entity.etype] for entity in kg.entities()),
            dtype=np.int32,
            count=num_nodes,
        )

        # Entity names as one UTF-8 blob + offsets: with these on board
        # the snapshot fully describes the graph, which is what lets a
        # shared-memory worker rebuild Entity records without the object
        # graph (see CompactKnowledgeGraph).
        names = [entity.name for entity in kg.entities()]
        encoded = [name.encode("utf-8") for name in names]
        name_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        if encoded:
            np.cumsum([len(b) for b in encoded], out=name_offsets[1:])
        name_blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)

        # Edge table: one deterministic id per directed edge, in per-source
        # insertion order, so a node's out-edges hold consecutive ids.  The
        # Edge objects are shared with kg, not copied; in-edges find their
        # id by object identity (an int-keyed dict, no dataclass hashing).
        edges: List[Edge] = []
        out_counts: List[int] = []
        for uid in range(num_nodes):
            outgoing = kg.out_edges(uid)
            out_counts.append(len(outgoing))
            edges.extend(outgoing)
        num_edges = len(edges)
        edge_id = {id(edge): eid for eid, edge in enumerate(edges)}
        edge_source = np.array([edge.source for edge in edges], dtype=np.int64)
        edge_target = np.array([edge.target for edge in edges], dtype=np.int64)
        edge_predicate = np.array(
            [predicate_index[edge.predicate] for edge in edges], dtype=np.int32
        )

        # Undirected-incidence CSR, slot order == KnowledgeGraph.incident
        # order (out-edges, then in-edges; load-bearing: heap tie-breaks
        # depend on it).  The slot columns are built as Python lists and
        # converted once; the other endpoint and the predicate follow from
        # the edge id and the travel direction.
        degree = [0] * (num_nodes + 1)
        slot_edge_list: List[int] = []
        forward_list: List[bool] = []
        out_start = 0
        for uid, out_count in enumerate(out_counts):
            incoming = kg.in_edges(uid)
            slot_edge_list.extend(range(out_start, out_start + out_count))
            slot_edge_list.extend([edge_id[id(edge)] for edge in incoming])
            forward_list.extend([True] * out_count + [False] * len(incoming))
            degree[uid + 1] = out_count + len(incoming)
            out_start += out_count
        indptr = np.cumsum(degree, dtype=np.int64)
        slot_edge = np.array(slot_edge_list, dtype=np.int64)
        slot_forward = np.array(forward_list, dtype=bool)
        slot_neighbor = np.where(
            slot_forward, edge_target[slot_edge], edge_source[slot_edge]
        )
        slot_predicate = edge_predicate[slot_edge]
        if slot_edge.size != 2 * num_edges:  # pragma: no cover - append-only
            raise GraphError(
                f"incidence slots ({slot_edge.size}) disagree with edge count "
                f"({num_edges}); graph mutated during freeze?"
            )

        return cls(
            kg=kg,
            kg_name=kg.name,
            num_nodes=num_nodes,
            num_edges=num_edges,
            predicate_names=predicate_names,
            predicate_index=predicate_index,
            type_names=type_names,
            type_index=type_index,
            entity_type=entity_type,
            edge_source=edge_source,
            edge_target=edge_target,
            edge_predicate=edge_predicate,
            indptr=indptr,
            slot_neighbor=slot_neighbor,
            slot_predicate=slot_predicate,
            slot_edge=slot_edge,
            slot_forward=slot_forward,
            name_blob=name_blob,
            name_offsets=name_offsets,
            _edges=edges,
            _names=names,
        )

    # ------------------------------------------------------------------
    # shared-memory lifecycle
    # ------------------------------------------------------------------
    def to_shared(self) -> "SharedCompactGraph":
        """Publish the columns into one shared-memory segment.

        Returns the owning :class:`SharedCompactGraph` lease; its
        ``.handle`` is the O(metadata) :class:`CompactGraphHandle` to
        ship to workers.  This kernel keeps serving from its own heap
        arrays — the lease is an independent copy whose lifetime the
        caller controls (close it after the workers are gone).
        """
        block = ShmArrayBlock.create(
            {name: getattr(self, name) for name in SHARED_COLUMNS}
        )
        handle = CompactGraphHandle(
            block=block.handle,
            num_nodes=self.num_nodes,
            num_edges=self.num_edges,
            kg_name=self.kg_name,
            predicate_names=tuple(self.predicate_names),
            type_names=tuple(self.type_names),
        )
        return SharedCompactGraph(handle=handle, block=block)

    @classmethod
    def from_handle(cls, handle: "CompactGraphHandle") -> "CompactGraph":
        """Attach a shared snapshot zero-copy (O(metadata) warmup).

        The arrays are read-only views over the shared mapping; derived
        object state (edge table, slot mirror, names) is rebuilt lazily
        on first use.  Raises :class:`~repro.errors.GraphError` when the
        owner already unlinked the segment (service closed / owner died).
        """
        block = ShmArrayBlock.attach(handle.block)
        predicate_names = list(handle.predicate_names)
        type_names = list(handle.type_names)
        columns = {name: block.array(name) for name in SHARED_COLUMNS}
        return cls(
            kg=None,
            kg_name=handle.kg_name,
            num_nodes=handle.num_nodes,
            num_edges=handle.num_edges,
            predicate_names=predicate_names,
            predicate_index={n: i for i, n in enumerate(predicate_names)},
            type_names=type_names,
            type_index={n: i for i, n in enumerate(type_names)},
            _shm_block=block,
            **columns,
        )

    @property
    def shared(self) -> bool:
        """Whether this kernel serves from an attached shared mapping."""
        return self._shm_block is not None

    # ------------------------------------------------------------------
    # lazily rebuilt derived state
    # ------------------------------------------------------------------
    # The builders are idempotent pure functions of the arrays, so a
    # benign race between threads only duplicates work; the last write
    # wins with an identical value.

    def _edge_table(self) -> List[Edge]:
        if self._edges is None:
            predicate_names = self.predicate_names
            edges = [
                Edge(source=source, predicate=predicate_names[pid],
                     target=target)
                for source, pid, target in zip(
                    self.edge_source.tolist(),
                    self.edge_predicate.tolist(),
                    self.edge_target.tolist(),
                )
            ]
            object.__setattr__(self, "_edges", edges)
        return self._edges

    @property
    def node_slots(self) -> List[Tuple[Tuple[Edge, int, int], ...]]:
        """Per-node ``(edge, neighbor, predicate id)`` triples.

        The object mirror of the CSR that the scalar reference search and
        the :class:`CompactKnowledgeGraph` facade iterate.  Built lazily
        (once, O(V + E)) on first use: the vectorized search kernel reads
        the flat arrays only, so the production path never pays for it.
        """
        if self._node_slots is None:
            edges = self._edge_table()
            indptr = self.indptr.tolist()
            slot_edge = self.slot_edge.tolist()
            slot_neighbor = self.slot_neighbor.tolist()
            slot_predicate = self.slot_predicate.tolist()
            node_slots = [
                tuple(
                    (edges[slot_edge[s]], slot_neighbor[s], slot_predicate[s])
                    for s in range(indptr[uid], indptr[uid + 1])
                )
                for uid in range(self.num_nodes)
            ]
            object.__setattr__(self, "_node_slots", node_slots)
        return self._node_slots

    def entity_names(self) -> List[str]:
        """All entity names, uid-ordered (decoded once from the blob)."""
        if self._names is None:
            blob = self.name_blob.tobytes()
            offsets = self.name_offsets.tolist()
            names = [
                blob[offsets[uid]:offsets[uid + 1]].decode("utf-8")
                for uid in range(self.num_nodes)
            ]
            object.__setattr__(self, "_names", names)
        return self._names

    def entity_name(self, uid: int) -> str:
        """The display name behind entity ``uid``."""
        return self.entity_names()[uid]

    # ------------------------------------------------------------------
    # escape hatches back to the object graph
    # ------------------------------------------------------------------
    def edge(self, eid: int) -> Edge:
        """The real :class:`Edge` behind edge id ``eid``.

        Escape hatch for match assembly and rendering — the returned
        object is the one the source graph stores, so identity-based
        comparisons against lazy-view results hold.
        """
        return self._edge_table()[eid]

    def to_edge(self, eid: int) -> Edge:
        """Alias of :meth:`edge` (the documented escape-hatch name)."""
        return self._edge_table()[eid]

    @property
    def edges(self) -> List[Edge]:
        """The edge table (edge id → :class:`Edge`); do not mutate."""
        return self._edge_table()

    def degree(self, uid: int) -> int:
        """Undirected degree of ``uid`` (CSR row length)."""
        return int(self.indptr[uid + 1] - self.indptr[uid])

    def uid_mask(self, uids) -> np.ndarray:
        """Boolean node mask from an iterable of entity ids.

        The building block for per-boundary φ-match bitmasks: a
        ``NodeMatcher.matches`` candidate list becomes one ``bool`` array
        the search kernel can fancy-index by ``slot_neighbor``, turning
        per-arrival φ tests into one vectorized gather.
        """
        mask = np.zeros(self.num_nodes, dtype=bool)
        uid_list = list(uids)
        if uid_list:
            mask[uid_list] = True
        return mask

    # ------------------------------------------------------------------
    def is_stale(self, kg: Optional[KnowledgeGraph] = None) -> bool:
        """Whether the source graph grew after this freeze.

        Append-only growth is the only possible mutation, so comparing
        entity/edge counts is a complete staleness check.  An unpickled
        kernel has no source graph (``self.kg is None``) and is a shipped
        snapshot by definition — never stale unless a graph is passed in.
        """
        source = kg if kg is not None else self.kg
        if source is None:
            return False
        return (
            source.num_entities != self.num_nodes
            or source.num_edges != self.num_edges
        )

    # ------------------------------------------------------------------
    # Pickle plumbing (__slots__ classes need it explicitly).  Only the
    # numeric tables travel: the source-kg reference, the edge-object
    # table, and the per-node slot mirror are dropped and rebuilt lazily
    # on first use, so shipping a kernel to a worker process costs the
    # arrays — not the object graph the kernel exists to replace.  An
    # unpickled kernel has ``kg is None``; views fall back to the kernel
    # itself as their cache-binding identity.
    def __getstate__(self) -> Dict[str, object]:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._TRANSIENT
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name in self._TRANSIENT:
            if name != "__weakref__":
                object.__setattr__(self, name, None)
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return (
            f"CompactGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"predicates={len(self.predicate_names)}, types={len(self.type_names)})"
        )


# ----------------------------------------------------------------------
# shared-memory handle + owner lease
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompactGraphHandle:
    """Picklable pointer to a shm-resident :class:`CompactGraph`.

    Carries the segment manifest plus the small interned-string tables;
    its pickle is O(predicates + types), independent of V and E — this is
    what an :class:`~repro.core.engine.EngineSpec` ships to process
    workers instead of the arrays.
    """

    block: ShmBlockHandle
    num_nodes: int
    num_edges: int
    kg_name: str
    predicate_names: Tuple[str, ...]
    type_names: Tuple[str, ...]


class SharedCompactGraph:
    """The owner's lease on a shared :class:`CompactGraph` segment.

    Created by :meth:`CompactGraph.to_shared`.  Exactly one process owns
    the segment; it must keep the lease alive while workers are attached
    and :meth:`close` it afterwards (detach + unlink, idempotent).  A
    finalizer performs the same cleanup at interpreter exit, so a crashed
    owner cannot leak ``/dev/shm`` entries.

    Usable as a context manager::

        with compact.to_shared() as lease:
            ship(lease.handle)
    """

    def __init__(self, handle: CompactGraphHandle, block: ShmArrayBlock):
        self.handle = handle
        self._block = block

    @property
    def name(self) -> str:
        return self._block.name

    @property
    def closed(self) -> bool:
        return self._block.closed

    def close(self) -> None:
        """Detach and unlink the segment (idempotent).

        Workers still attached keep their mappings (POSIX unlink removes
        the name, not the memory), but no new attach can succeed — call
        this only after the worker pool is shut down.
        """
        self._block.close()
        self._block.unlink()

    def __enter__(self) -> "SharedCompactGraph":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"SharedCompactGraph({self.name!r}, {state}, "
            f"nodes={self.handle.num_nodes}, edges={self.handle.num_edges})"
        )


# ----------------------------------------------------------------------
# KnowledgeGraph facade over compact columns
# ----------------------------------------------------------------------

class CompactKnowledgeGraph:
    """A read-only :class:`~repro.kg.graph.KnowledgeGraph` facade over a
    :class:`CompactGraph`.

    Process workers attaching a shared snapshot need the *graph API* —
    ``NodeMatcher`` probes names and types, decomposition reads
    ``statistics()``, the lazy view walks ``incident()`` — but shipping
    the object graph is exactly what shared memory exists to avoid.
    This adapter duck-types the ``KnowledgeGraph`` read surface on top of
    the compact columns with **identical ordering semantics** (entities
    in uid order, types/predicates in first-use order, incidence out-then-
    in in insertion order), so every consumer — matcher indexes, pivot
    selection, search tie-breaks — behaves bit-identically to running
    against the source graph.

    Construction is O(1); each index (entity records, by-type, by-name,
    edge set) is derived lazily once on first use.  The store is
    immutable — there are deliberately no ``add_entity`` / ``add_edge``.
    """

    def __init__(self, compact: CompactGraph):
        self._compact = compact
        self.name = compact.kg_name
        self._entities: Optional[List[Entity]] = None
        self._by_type: Optional[Dict[str, List[int]]] = None
        self._by_name: Optional[Dict[str, List[int]]] = None
        self._edge_set: Optional[Set[Tuple[int, str, int]]] = None
        self._predicate_counts: Optional[Dict[str, int]] = None

    @property
    def compact(self) -> CompactGraph:
        """The backing kernel (shared with any compact view factory)."""
        return self._compact

    # ------------------------------------------------------------------
    # lazy indexes
    # ------------------------------------------------------------------
    def _entity_table(self) -> List[Entity]:
        if self._entities is None:
            names = self._compact.entity_names()
            type_names = self._compact.type_names
            self._entities = [
                Entity(uid=uid, name=names[uid], etype=type_names[tid])
                for uid, tid in enumerate(self._compact.entity_type.tolist())
            ]
        return self._entities

    def _type_index(self) -> Dict[str, List[int]]:
        if self._by_type is None:
            # uid-ascending per bucket == KnowledgeGraph insertion order.
            index: Dict[str, List[int]] = {
                etype: [] for etype in self._compact.type_names
            }
            type_names = self._compact.type_names
            for uid, tid in enumerate(self._compact.entity_type.tolist()):
                index[type_names[tid]].append(uid)
            self._by_type = index
        return self._by_type

    def _name_index(self) -> Dict[str, List[int]]:
        if self._by_name is None:
            index: Dict[str, List[int]] = {}
            for uid, name in enumerate(self._compact.entity_names()):
                index.setdefault(name, []).append(uid)
            self._by_name = index
        return self._by_name

    def _edge_keys(self) -> Set[Tuple[int, str, int]]:
        if self._edge_set is None:
            predicate_names = self._compact.predicate_names
            self._edge_set = {
                (source, predicate_names[pid], target)
                for source, pid, target in zip(
                    self._compact.edge_source.tolist(),
                    self._compact.edge_predicate.tolist(),
                    self._compact.edge_target.tolist(),
                )
            }
        return self._edge_set

    # ------------------------------------------------------------------
    # lookups (KnowledgeGraph surface)
    # ------------------------------------------------------------------
    def _check_uid(self, uid: int) -> None:
        if not 0 <= uid < self._compact.num_nodes:
            raise UnknownEntityError(uid)

    def entity(self, uid: int) -> Entity:
        """The entity record for ``uid``."""
        self._check_uid(uid)
        return self._entity_table()[uid]

    def entities(self) -> Iterator[Entity]:
        """Iterate over all entities in insertion (uid) order."""
        return iter(self._entity_table())

    def entities_of_type(self, etype: str) -> List[int]:
        """All entity ids with the given type (empty list if none)."""
        return list(self._type_index().get(etype, []))

    def entities_named(self, name: str) -> List[int]:
        """All entity ids with the given exact name (empty list if none)."""
        return list(self._name_index().get(name, []))

    def entity_by_name(self, name: str) -> Entity:
        """The unique entity with ``name``; raises if absent or ambiguous."""
        uids = self._name_index().get(name, [])
        if not uids:
            raise UnknownEntityError(name)
        if len(uids) > 1:
            raise GraphError(
                f"entity name {name!r} is ambiguous ({len(uids)} hits)"
            )
        return self._entity_table()[uids[0]]

    def has_edge(self, source: int, predicate: str, target: int) -> bool:
        """Whether the exact directed edge exists."""
        return (source, predicate, target) in self._edge_keys()

    # ------------------------------------------------------------------
    # traversal (KnowledgeGraph surface)
    # ------------------------------------------------------------------
    def incident(self, uid: int) -> Iterator[Tuple[Edge, int]]:
        """Iterate ``(edge, neighbour_uid)``, out-then-in insertion order."""
        self._check_uid(uid)
        return iter(
            [(edge, neighbor)
             for edge, neighbor, _pid in self._compact.node_slots[uid]]
        )

    def incident_list(self, uid: int) -> List[Tuple[Edge, int]]:
        """The ``(edge, neighbour_uid)`` incidence in :meth:`incident` order."""
        self._check_uid(uid)
        return [
            (edge, neighbor)
            for edge, neighbor, _pid in self._compact.node_slots[uid]
        ]

    def _directed_incident(self, uid: int, forward: bool) -> List[Tuple[Edge, int]]:
        self._check_uid(uid)
        start = int(self._compact.indptr[uid])
        flags = self._compact.slot_forward
        return [
            (edge, neighbor)
            for index, (edge, neighbor, _pid) in enumerate(
                self._compact.node_slots[uid]
            )
            if bool(flags[start + index]) == forward
        ]

    def out_incident(self, uid: int) -> List[Tuple[Edge, int]]:
        """``(edge, target)`` pairs for edges leaving ``uid``."""
        return self._directed_incident(uid, True)

    def in_incident(self, uid: int) -> List[Tuple[Edge, int]]:
        """``(edge, source)`` pairs for edges entering ``uid``."""
        return self._directed_incident(uid, False)

    def out_edges(self, uid: int) -> List[Edge]:
        """Directed edges leaving ``uid``."""
        return [edge for edge, _other in self._directed_incident(uid, True)]

    def in_edges(self, uid: int) -> List[Edge]:
        """Directed edges entering ``uid``."""
        return [edge for edge, _other in self._directed_incident(uid, False)]

    def degree(self, uid: int) -> int:
        """Undirected degree of ``uid``."""
        self._check_uid(uid)
        return self._compact.degree(uid)

    def neighbors(self, uid: int) -> List[int]:
        """Distinct neighbour ids of ``uid`` (undirected)."""
        seen: Set[int] = set()
        out: List[int] = []
        for _edge, other, _pid in self._compact.node_slots[uid]:
            if other not in seen:
                seen.add(other)
                out.append(other)
        return out

    # ------------------------------------------------------------------
    # aggregate views (KnowledgeGraph surface)
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return self._compact.num_nodes

    @property
    def num_edges(self) -> int:
        return self._compact.num_edges

    def predicates(self) -> List[str]:
        """All distinct predicates, in first-use order."""
        return list(self._compact.predicate_names)

    def predicate_frequency(self, predicate: str) -> int:
        """Number of edges carrying ``predicate`` (0 if unused)."""
        if self._predicate_counts is None:
            counts = np.bincount(
                self._compact.edge_predicate,
                minlength=len(self._compact.predicate_names),
            )
            self._predicate_counts = {
                name: int(counts[pid])
                for pid, name in enumerate(self._compact.predicate_names)
            }
        return self._predicate_counts.get(predicate, 0)

    def types(self) -> List[str]:
        """All distinct entity types, in first-use order."""
        return list(self._compact.type_names)

    def statistics(self) -> GraphStatistics:
        """Aggregate statistics — value-equal to the source graph's.

        ``sum(degrees)`` is the CSR slot count (``indptr[-1]``), so the
        average-degree float the cost models read is the *same* division
        the object graph computes.
        """
        num_entities = self._compact.num_nodes
        if num_entities:
            slots = int(self._compact.indptr[-1])
            average = slots / num_entities
            max_degree = int(np.max(np.diff(self._compact.indptr)))
        else:
            average = 0.0
            max_degree = 0
        return GraphStatistics(
            num_entities=num_entities,
            num_edges=self._compact.num_edges,
            num_types=len(self._compact.type_names),
            num_predicates=len(self._compact.predicate_names),
            average_degree=average,
            max_degree=max_degree,
        )

    def triples(self) -> Iterator[Tuple[str, str, str]]:
        """Iterate ``(head name, predicate, tail name)`` string triples."""
        names = self._compact.entity_names()
        for edge in self._compact.edges:
            yield (names[edge.source], edge.predicate, names[edge.target])

    def __repr__(self) -> str:
        return (
            f"CompactKnowledgeGraph(name={self.name!r}, "
            f"entities={self.num_entities}, edges={self.num_edges}, "
            f"shared={self._compact.shared})"
        )
