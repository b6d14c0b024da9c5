"""Shared, thread-safe semantic-graph weight cache.

The engine's per-query
:class:`~repro.core.compact_view.CompactSemanticGraphView` is correct but
amnesiac: every query re-weights the same knowledge-graph predicates
against the predicate space and re-derives the same ``m(u)`` bounds
(Lemma 1).  Both quantities are pure functions of the (graph, space,
``min_weight``) triple — nothing about a query instance enters them — so a
workload of repeated or overlapping queries can share them.

:class:`SemanticGraphCache` holds one LRU-bounded map of **rows** —
whole-graph vectors keyed by ``(kind, query predicate)`` — the unit of
sharing of the compact CSR view (:mod:`repro.core.compact_view`): one
query predicate against the entire graph (``kind="weights"``: clamped
weight per interned graph-predicate id; ``kind="bounds"``: ``m(u)`` per
node).  Rows are treated as immutable by contract; the cache never
copies them.

Eviction never affects correctness — a miss recomputes — so the LRU bound
is purely a memory ceiling.  All operations take one lock; the critical
sections are dict lookups, far cheaper than the matvec and segment-max
they replace.  Hit/miss/eviction counts are reported by
:class:`CacheStats`.

The cache must be *bound* to exactly one (graph, space, ``min_weight``)
combination before use (views do this automatically); re-binding to a
different combination raises — serving weights from a different predicate
space would corrupt results silently.  The fingerprint views bind also
carries the graph's entity/edge counts, so growing the append-only graph
under a live cache raises at the next view construction instead of
silently serving stale ``m(u)`` bounds or rows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ServeError


@dataclass
class CacheStats:
    """A point-in-time snapshot of cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> str:
        return (
            f"hit_rate={self.hit_rate:.3f} "
            f"(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, entries={self.entries})"
        )


class LruMap:
    """A capacity-bounded LRU dict with hit/miss/eviction counters.

    Not locked — callers (the cache below, the service's decomposition
    memo) synchronise around it.  Values are arbitrary objects; ``None``
    is reserved as the miss sentinel.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ServeError(f"cache capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple):
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Tuple, value) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self.entries.clear()


class SemanticGraphCache:
    """Cross-query LRU cache of semantic-graph weight and ``m(u)`` rows.

    Implements the :class:`~repro.core.semantic_graph.WeightCache`
    protocol; hand one instance to a
    :class:`~repro.core.engine.SemanticGraphQueryEngine` (``weight_cache=``)
    or let :class:`~repro.serve.service.QueryService` own one.

    Args:
        max_rows: capacity of the row map.  The live count is
            ``2 × |query predicates seen|``; the bound caps adversarial
            predicate churn.  Each entry is a whole-graph vector —
            bounds rows cost 8 bytes *per graph node* — so deployments on
            very large graphs should size ``max_rows`` against
            ``8 × num_nodes`` per entry, not treat it as a near-free
            ceiling.
    """

    def __init__(self, *, max_rows: int = 1024):
        self._lock = threading.Lock()
        self._rows = LruMap(max_rows)
        self._fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # WeightCache protocol
    # ------------------------------------------------------------------
    def bind(self, fingerprint: Tuple) -> None:
        """Pin this cache to one (graph, space, min_weight) combination.

        The stored fingerprint keeps strong references to its objects and
        compares them by identity — holding them alive is what guarantees
        a recycled memory address can never impersonate the bound graph
        or space.
        """
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = fingerprint
                return
            same = len(self._fingerprint) == len(fingerprint) and all(
                ours is theirs or ours == theirs
                for ours, theirs in zip(self._fingerprint, fingerprint)
            )
            if not same:
                raise ServeError(
                    "SemanticGraphCache is already bound to a different "
                    "(graph, space, min_weight) combination — or the "
                    "append-only graph has grown since binding, which "
                    "invalidates cached m(u) bounds and rows.  Use one "
                    "cache per engine configuration and rebuild it after "
                    "graph mutation."
                )

    def get_row(self, kind: str, query_predicate: str) -> Optional[object]:
        """One whole-graph row; ``None`` on miss."""
        with self._lock:
            return self._rows.get((kind, query_predicate))

    def put_row(self, kind: str, query_predicate: str, row: object) -> None:
        """Publish a whole-graph row.  Rows are immutable by contract."""
        with self._lock:
            self._rows.put((kind, query_predicate), row)

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Consistent snapshot of counters and entry counts."""
        with self._lock:
            return CacheStats(
                hits=self._rows.hits,
                misses=self._rows.misses,
                evictions=self._rows.evictions,
                entries=len(self._rows.entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows.entries)

    def clear(self) -> None:
        """Drop all entries (the binding and counters survive)."""
        with self._lock:
            self._rows.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries survive).

        Lets a workload driver report per-phase hit rates — e.g. reset
        after a cold pass so the warm pass's rate is not diluted by the
        cold misses.
        """
        with self._lock:
            self._rows.hits = 0
            self._rows.misses = 0
            self._rows.evictions = 0
