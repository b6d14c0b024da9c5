"""Result-level answer cache: canonical query fingerprints + singleflight.

The serving layer caches semantic-graph state (weights, ``m(u)`` bounds,
rows, decompositions) but until now never *answers*: two identical hot
queries each repaid the full A*-search + TA-assembly cost.  This module
closes that gap with three pieces:

- :func:`canonicalize` derives a picklable :class:`CanonicalQueryKey`
  from a request's *structural* form — node-order permutations and
  alias spellings of the same query collapse to one key.  Node names and
  types are canonicalised through the
  :class:`~repro.query.transform.TransformationLibrary` (``Car`` and
  ``Automobile`` share a φ-candidate set, so they may share an answer);
  node labels are erased by a positional binding (nodes sorted by
  signature, edges re-expressed over positions, ties resolved by the
  lexicographically minimal edge encoding); predicates are interned into
  a sorted id table (kept verbatim — predicate *paraphrases* go through
  the embedding space and must **not** collapse).  ``k``, the engine's
  (τ, n̂, ``min_weight``, scoring, visited-policy) configuration and the
  graph epoch all enter the key via the :class:`EngineFingerprint`
  token.
- :class:`AnswerCache` is a bounded, thread-safe LRU (+ optional TTL)
  of detached :class:`~repro.core.results.QueryResultPayload` entries
  with **singleflight** deduplication: N concurrent identical misses
  run the engine exactly once — one leader executes, N−1 followers get
  futures resolved from the leader's payload (their latency is the wait
  for the leader, never a second search).
- **Epoch invalidation**: the cache binds to an
  :class:`EngineFingerprint` the way
  :class:`~repro.serve.cache.SemanticGraphCache.bind` pins a weight
  cache — identity-compared anchors (graph, space) plus a picklable
  token — but *self-clears* on mismatch instead of raising: a rebuilt
  KG invalidates every cached answer and serving continues cold.

Scope and safety:

- Only **exact** (SGQ, ``deadline is None``) results are cached.  A
  time-bounded answer is a function of the clock by design (anytime
  semantics), so TBQ requests always bypass the cache.
- ``strategy="random"`` decomposition is seeded by *declaration order*,
  so permutation collapsing would change which pivot the replayed seed
  picks; those keys keep the literal label binding (identical requests
  still hit, permuted spellings do not).
- An explicit ``pivot`` enters the key as its canonical *position*, so
  forcing different pivots of the same shape never shares an answer.
- Cached payloads are shared by reference between hits (the same
  read-only contract process workers already rely on); a hit re-inflates
  via :meth:`~repro.core.results.QueryResultPayload.to_result` without
  copying the match objects.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.config import SearchConfig
from repro.core.results import QueryResultPayload
from repro.errors import ServeError
from repro.query.model import QueryGraph
from repro.query.transform import TransformationLibrary, normalize_label

__all__ = [
    "AnswerCache",
    "AnswerCacheStats",
    "CanonicalQueryKey",
    "EngineFingerprint",
    "canonicalize",
]

#: Above this many signature-consistent node orderings the canonical
#: binding falls back to declaration order (still correct — identical
#: requests hit — just not permutation-invariant for that one query).
#: Query graphs are tiny (Table VI caps at a handful of nodes), so the
#: cap only ever triggers on adversarial all-identical-node shapes.
PERMUTATION_CAP = 5040


# ----------------------------------------------------------------------
# engine fingerprint (the cache's epoch)
# ----------------------------------------------------------------------

class EngineFingerprint:
    """What an answer is a pure function of, beyond the query itself.

    ``token`` is the picklable epoch stamp embedded into every
    :class:`CanonicalQueryKey`: graph shape (entity/edge counts + name),
    predicate-space shape and the result-relevant
    :class:`~repro.core.config.SearchConfig` knobs (τ, n̂,
    ``min_weight``, scoring mode, visited policy, expansion cap).
    ``anchors`` are strong identity references (graph, space) compared
    the way :meth:`SemanticGraphCache.bind` compares its fingerprint —
    holding them alive guarantees a recycled address can never
    impersonate the bound graph.  ``library`` is the transformation
    library used to canonicalise node aliases (``None`` = identical
    matches only, mirroring :meth:`TransformationLibrary.empty`).
    """

    __slots__ = ("token", "anchors", "library")

    def __init__(
        self,
        token: Tuple,
        *,
        anchors: Tuple = (),
        library: Optional[TransformationLibrary] = None,
    ):
        self.token = token
        self.anchors = anchors
        self.library = library

    @staticmethod
    def _config_token(config: Optional[SearchConfig]) -> Tuple:
        config = config if config is not None else SearchConfig()
        return (
            config.tau,
            config.path_bound,
            config.min_weight,
            config.scoring.value,
            config.visited_policy.value,
            config.max_expansions,
        )

    @classmethod
    def from_engine(cls, engine) -> "EngineFingerprint":
        """Fingerprint a live engine (inline/thread backends)."""
        kg = engine.kg
        token = (
            ("kg", kg.name, kg.num_entities, kg.num_edges),
            ("space", len(engine.space), engine.space.dim),
            cls._config_token(engine.config),
        )
        return cls(token, anchors=(kg, engine.space), library=engine.library)

    @classmethod
    def from_spec(cls, spec) -> "EngineFingerprint":
        """Fingerprint a picklable spec (the process backend's parent side).

        The spec carries the graph by value (``kg``) or, without one, as
        a shared-memory handle (``EngineSpec`` requires one of the two);
        both know their entity/edge counts.
        """
        if spec.kg is not None:
            graph = ("kg", spec.kg.name, spec.kg.num_entities, spec.kg.num_edges)
            anchor = spec.kg
        else:
            handle = spec.graph_handle
            graph = ("handle", handle.kg_name, handle.num_nodes, handle.num_edges)
            anchor = handle
        token = (
            graph,
            ("space", len(spec.space), spec.space.dim),
            cls._config_token(spec.config),
        )
        return cls(token, anchors=(anchor, spec.space), library=spec.library)

    def matches(self, other: "EngineFingerprint") -> bool:
        """Same epoch?  Identity-or-equality, mirroring ``bind()``."""
        if self.token != other.token:
            return False
        if len(self.anchors) != len(other.anchors):
            return False
        return all(
            ours is theirs or ours == theirs
            for ours, theirs in zip(self.anchors, other.anchors)
        )


# ----------------------------------------------------------------------
# canonical query key
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalQueryKey:
    """A picklable, hashable fingerprint of one answerable request.

    ``nodes`` is the sorted multiset of canonical node signatures
    ``(is_target, has_type, canonical type, has_name, canonical name)``;
    ``predicates`` the sorted interned predicate table; ``edges`` the
    minimal encoding ``(source position, predicate id, target position)``
    under the positional binding; ``pivot_position`` the canonical
    position of an explicitly forced pivot (−1 = engine chooses);
    ``labels`` is empty except on the order-faithful fallback paths
    (``strategy="random"`` or a permutation-group blowup), where it pins
    the declaration order the engine's tie-breaking depends on.
    ``fingerprint`` is the :class:`EngineFingerprint` token — the graph
    epoch, space shape and (τ, policy, …) configuration.
    """

    fingerprint: Tuple
    nodes: Tuple
    predicates: Tuple[str, ...]
    edges: Tuple[Tuple[int, int, int], ...]
    k: int
    strategy: str
    pivot_position: int = -1
    labels: Tuple[str, ...] = ()


def _node_signature(
    node, library: Optional[TransformationLibrary]
) -> Tuple[bool, bool, str, bool, str]:
    """Alias-insensitive node signature (None-ness encoded explicitly)."""
    if library is not None:
        ctype = "" if node.etype is None else library.canonical_type(node.etype)
        cname = "" if node.name is None else library.canonical_name(node.name)
    else:
        ctype = "" if node.etype is None else normalize_label(node.etype)
        cname = "" if node.name is None else normalize_label(node.name)
    return (node.name is None, node.etype is None, ctype, node.name is None, cname)


def _canonical_binding(
    query: QueryGraph,
    pivot: Optional[str],
    library: Optional[TransformationLibrary],
) -> Tuple[Tuple, Tuple[str, ...], Tuple, int, Tuple[str, ...]]:
    """The positional node binding: (nodes, predicates, edges, pivot, labels).

    Nodes are sorted by signature; within equal-signature groups every
    consistent ordering is enumerated (bounded by
    :data:`PERMUTATION_CAP`) and the lexicographically minimal
    ``(edge encoding, pivot position)`` wins — a permutation-invariant
    canonical form for the tiny graphs queries are.  Past the cap the
    binding keeps declaration order inside groups and records the label
    sequence, trading invariance for correctness.
    """
    nodes = query.nodes()
    sigs = [_node_signature(node, library) for node in nodes]
    predicates = tuple(sorted({edge.predicate for edge in query.edges()}))
    pred_id = {predicate: i for i, predicate in enumerate(predicates)}
    index_of = {node.label: i for i, node in enumerate(nodes)}
    raw_edges = [
        (index_of[e.source], pred_id[e.predicate], index_of[e.target])
        for e in query.edges()
    ]
    pivot_index = index_of[pivot] if pivot is not None else None

    order = sorted(range(len(nodes)), key=lambda i: sigs[i])
    groups: List[List[int]] = []
    for i in order:
        if groups and sigs[groups[-1][-1]] == sigs[i]:
            groups[-1].append(i)
        else:
            groups.append([i])

    total = 1
    for group in groups:
        for size in range(2, len(group) + 1):
            total *= size
        if total > PERMUTATION_CAP:
            break
    node_tuple = tuple(sigs[i] for i in order)

    if total > PERMUTATION_CAP:
        position = {node_index: p for p, node_index in enumerate(order)}
        edges = tuple(sorted((position[s], p, position[t]) for s, p, t in raw_edges))
        pivot_pos = position[pivot_index] if pivot_index is not None else -1
        return node_tuple, predicates, edges, pivot_pos, tuple(n.label for n in nodes)

    best: Optional[Tuple[Tuple, int]] = None
    for arrangement in itertools.product(
        *(itertools.permutations(group) for group in groups)
    ):
        position = {}
        p = 0
        for group in arrangement:
            for node_index in group:
                position[node_index] = p
                p += 1
        encoding = tuple(
            sorted((position[s], p_, position[t]) for s, p_, t in raw_edges)
        )
        pivot_pos = position[pivot_index] if pivot_index is not None else -1
        candidate = (encoding, pivot_pos)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return node_tuple, predicates, best[0], best[1], ()


def canonicalize(request, engine_fingerprint: EngineFingerprint) -> CanonicalQueryKey:
    """The canonical answer-cache key for one exact request.

    Pure function of ``(request, engine_fingerprint)`` — usable from any
    backend, any process.  Raises :class:`~repro.errors.ServeError` on a
    time-bounded request: TBQ answers are clock-dependent and must never
    be cached.
    """
    if request.deadline is not None:
        raise ServeError(
            "time-bounded (TBQ) requests are never answer-cached — a "
            "deadline-bounded result is a function of the clock"
        )
    nodes, predicates, edges, pivot_pos, labels = _canonical_binding(
        request.query, request.pivot, engine_fingerprint.library
    )
    if request.strategy == "random":
        # The random pivot draw consumes declaration order; collapsing
        # permutations would replay the seed against a different order.
        labels = tuple(n.label for n in request.query.nodes())
    return CanonicalQueryKey(
        fingerprint=engine_fingerprint.token,
        nodes=nodes,
        predicates=predicates,
        edges=edges,
        k=request.k,
        strategy=request.strategy,
        pivot_position=pivot_pos,
        labels=labels,
    )


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------

@dataclass
class AnswerCacheStats:
    """A point-in-time snapshot of answer-cache effectiveness."""

    hits: int = 0
    misses: int = 0
    singleflight_collapsed: int = 0
    evictions: int = 0
    invalidations: int = 0
    expirations: int = 0
    entries: int = 0
    in_flight: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.singleflight_collapsed

    @property
    def hit_rate(self) -> float:
        """Served-without-search fraction (hits + collapsed followers)."""
        lookups = self.lookups
        served = self.hits + self.singleflight_collapsed
        return served / lookups if lookups else 0.0

    def describe(self) -> str:
        return (
            f"hit_rate={self.hit_rate:.3f} "
            f"(hits={self.hits}, misses={self.misses}, "
            f"collapsed={self.singleflight_collapsed}, "
            f"evictions={self.evictions}, "
            f"invalidations={self.invalidations}, entries={self.entries})"
        )


class _Flight:
    """One in-flight computation of a key (singleflight leader state)."""

    __slots__ = ("key", "followers")

    def __init__(self, key: CanonicalQueryKey):
        self.key = key
        self.followers: List[Future] = []


class AnswerCache:
    """Bounded, thread-safe LRU (+ optional TTL) of detached answers.

    Stores :class:`~repro.core.results.QueryResultPayload` values keyed
    by :class:`CanonicalQueryKey`.  One instance is safely shared by
    every request thread of a service — and, being front-of-process,
    by a process backend whose cached hits then skip IPC entirely.

    Args:
        capacity: LRU bound on cached answers (each entry is one top-k
            payload, small; the bound is a memory ceiling, not a
            correctness knob — a miss recomputes).
        ttl_seconds: optional time-to-live; expired entries count as
            misses and are dropped on access.  ``None`` = no expiry.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ServeError(
                f"answer cache capacity must be at least 1, got {capacity}"
            )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ServeError(
                f"answer cache ttl must be positive, got {ttl_seconds}"
            )
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (payload, expiry deadline or None)
        self._entries: "OrderedDict[CanonicalQueryKey, Tuple[QueryResultPayload, Optional[float]]]" = (
            OrderedDict()
        )
        self._flights: dict = {}
        self._fingerprint: Optional[EngineFingerprint] = None
        self._hits = 0
        self._misses = 0
        self._collapsed = 0
        self._evictions = 0
        self._invalidations = 0
        self._expirations = 0

    # -- epoch binding --------------------------------------------------
    def bind(self, fingerprint: EngineFingerprint) -> None:
        """Pin the cache to one engine epoch; **self-clear** on change.

        Mirrors :meth:`SemanticGraphCache.bind` (identity-compared
        anchors + token) with the opposite failure mode: where the
        weight cache raises — serving weights across graphs would be
        silent corruption — the answer cache just drops every entry and
        rebinds, because a cold answer cache is merely slow.  This is
        what keeps a rebuilt/regrown KG correct: the new service's bind
        invalidates every answer computed against the old epoch.
        """
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = fingerprint
                return
            if self._fingerprint.matches(fingerprint):
                # Prefer the newest anchors (keeps the live objects of
                # the binding service alive, not a dead predecessor's).
                self._fingerprint = fingerprint
                return
            self._entries.clear()
            self._invalidations += 1
            self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> Optional[EngineFingerprint]:
        with self._lock:
            return self._fingerprint

    # -- singleflight protocol -----------------------------------------
    def acquire(self, key: CanonicalQueryKey):
        """Classify one lookup atomically.

        Returns one of::

            ("hit", payload)    # cached answer, serve immediately
            ("follow", future)  # identical key in flight; the future
                                # resolves when the leader completes
            ("lead", flight)    # caller must execute and then call
                                # complete(flight, ...) exactly once

        The classification, the follower registration and the counter
        update happen under one lock, so a flight can never complete
        between a caller being told to follow and its future being
        registered.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                payload, expires = entry
                if expires is not None and self._clock() >= expires:
                    del self._entries[key]
                    self._expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return "hit", payload
            flight = self._flights.get(key)
            if flight is not None:
                future: Future = Future()
                flight.followers.append(future)
                self._collapsed += 1
                return "follow", future
            flight = _Flight(key)
            self._flights[key] = flight
            self._misses += 1
            return "lead", flight

    def complete(
        self,
        flight: _Flight,
        payload: Optional[QueryResultPayload] = None,
        error: Optional[BaseException] = None,
    ) -> Tuple[List[Future], Optional[QueryResultPayload], Optional[BaseException]]:
        """Settle a flight: store the payload, detach the followers.

        Returns ``(followers, payload, error)``; the caller resolves the
        follower futures *outside* the cache lock (resolution runs
        arbitrary ``add_done_callback`` code).  On ``error`` nothing is
        cached — the next identical request leads a fresh flight.
        """
        with self._lock:
            self._flights.pop(flight.key, None)
            if error is None and payload is not None:
                expires = (
                    self._clock() + self.ttl_seconds
                    if self.ttl_seconds is not None
                    else None
                )
                self._entries[flight.key] = (payload, expires)
                self._entries.move_to_end(flight.key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            followers = list(flight.followers)
            flight.followers = []
        return followers, payload, error

    # -- plain map access (tests, warm priming) ------------------------
    def lookup(self, key: CanonicalQueryKey) -> Optional[QueryResultPayload]:
        """Counter-free peek (does not classify as hit or miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            payload, expires = entry
            if expires is not None and self._clock() >= expires:
                del self._entries[key]
                self._expirations += 1
                return None
            self._entries.move_to_end(key)
            return payload

    def store(self, key: CanonicalQueryKey, payload: QueryResultPayload) -> None:
        """Insert one answer outside the singleflight protocol."""
        with self._lock:
            expires = (
                self._clock() + self.ttl_seconds
                if self.ttl_seconds is not None
                else None
            )
            self._entries[key] = (payload, expires)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    # -- introspection / maintenance -----------------------------------
    def stats(self) -> AnswerCacheStats:
        with self._lock:
            return AnswerCacheStats(
                hits=self._hits,
                misses=self._misses,
                singleflight_collapsed=self._collapsed,
                evictions=self._evictions,
                invalidations=self._invalidations,
                expirations=self._expirations,
                entries=len(self._entries),
                in_flight=len(self._flights),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (binding, flights and counters survive)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the counters (entries and binding survive)."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._collapsed = 0
            self._evictions = 0
            self._invalidations = 0
            self._expirations = 0
