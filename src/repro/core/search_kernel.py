"""Array-backed A* search kernel: batched frontier expansion over the CSR.

:class:`~repro.core.astar.SubQuerySearch` is the Algorithm 1
transcription — one linked ``_State`` object per arrival, a parent-chain
walk per neighbour for the simple-path check, a ``NodeMatcher.is_match``
probe per boundary arrival and a scalar Eq. 7 estimate assembled from
per-predicate view probes for every generated state.  With weight
materialisation (PR 2) and TA assembly (PR 3) vectorized, that
pop-and-expand loop is where D12-class queries spend ~90% of their time.

:class:`VectorizedSubQuerySearch` re-implements the search over the
compact CSR kernel (:class:`~repro.kg.compact.CompactGraph`, via
:class:`~repro.core.compact_view.CompactSemanticGraphView`):

- the **state pool is struct-of-arrays**: append-only scalar columns for
  uid, segment, hop counters, the Eq. 6 accumulators (log product /
  weight sum), priority, parent index and arrival slot (the slot id
  resolves to the edge id and travel direction) — no per-state Python
  objects, the priority queue holds bare pool indexes, and
  :meth:`pool_arrays` exports the columns as flat numpy arrays for
  vector consumers;
- **per-segment tables** are materialised once with whole-array numpy
  ops — one fancy-index scatters the query predicate's weight row and
  its exact logs onto CSR slots, alongside node-indexed columns for the
  boundary's φ-match bitmask (:meth:`CompactGraph.uid_mask` over
  ``NodeMatcher.matches``) and the segment-max ``m(u)`` bounds — so the
  per-arrival cost of a weight probe, an ``is_match`` call and a
  per-predicate ``m(u)`` scan drops to a handful of list reads;
- expansion is **adaptive**: small CSR rows (the common case) run a
  lean scalar loop over the precomputed tables, hub rows gather the
  τ-positive slots with one vectorized mask first; both paths feed the
  same per-slot body in the same slot order, so the decisions cannot
  diverge;
- the **simple-path check walks no chains**: each pool row carries its
  hop-bounded ancestor tuple (≤ N̂ + 1 uids), and membership is one C
  containment test per arrival.

**Decision identity.**  The kernel makes the same decision as the
reference search at every step under both visited policies: same seeds
in the same order, same arrival order (advance before continue, CSR slot
order), the same τ / visited / bound prunes, the same heap tie-breaking
(monotone insertion counter), and bit-identical priorities — which is
why every transcendental stays on ``math.exp`` / ``math.log``: numpy's
SIMD ``np.exp`` / ``np.log`` loops may differ from libm by an ulp, and
one flipped bit in a priority reorders the heap.  Exact logs are
amortised over *distinct* weights (a weight or ``m(u)`` row draws from
at most one value per graph predicate), so the scalar log cost stays
out of the hot loop.  ``tests/test_search_kernel.py`` pins matches,
pss, emission order and every search counter against the reference
across randomized graphs, policies and τ sweeps, and
``tests/test_oracle_conformance.py`` re-proves it on the workload.

The public surface mirrors :class:`SubQuerySearch` exactly —
``next_match`` / ``run`` / ``step(harvest=)`` / ``exhausted`` /
``stats`` — so TA assembly's sorted access and TBQ's
:class:`~repro.core.time_bounded.TimeBoundedCoordinator` drive either
kernel unchanged.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.pss import LOG_ZERO, estimate_pss, log_weight
from repro.core.results import PathMatch, SearchStats
from repro.errors import SearchError
from repro.kg.paths import Path, PathStep
from repro.query.model import SubQueryGraph
from repro.query.transform import NodeMatcher
from repro.utils.heap import MaxHeap
from repro.utils.timing import Clock, Stopwatch, WallClock

#: Log-product collapse threshold, matching ``estimate_pss`` /
#: ``exact_pss_from_log`` (anything at or below reads as weight 0).
_LOG_PRUNE = LOG_ZERO / 2

#: CSR rows at least this long take the vectorized τ-gather before the
#: scalar admit loop; shorter rows skip straight to it (numpy call
#: overhead beats the mask win on a handful of slots).  Purely a cost
#: knob: both paths run the identical per-slot body in slot order.
_GATHER_MIN_DEGREE = 48


def supports_vectorized_search(view) -> bool:
    """Whether ``view`` exposes the compact surface this kernel needs.

    Duck-typed on the three capabilities the kernel consumes — the
    frozen CSR graph plus whole-graph weight and ``m(u)`` rows — so any
    view over a :class:`~repro.kg.compact.CompactGraph` qualifies without
    inheriting from
    :class:`~repro.core.compact_view.CompactSemanticGraphView`.
    """
    return (
        getattr(view, "graph", None) is not None
        and hasattr(view, "weight_row_array")
        and hasattr(view, "bounds_row_array")
    )


def _exact_log_array(values: np.ndarray) -> np.ndarray:
    """``log_weight`` over an array, bit-identical to the scalar path.

    ``np.log`` is not guaranteed bit-identical to ``math.log`` (numpy
    ships its own SIMD loops, allowed to differ by an ulp), and heap
    order hangs on exact priority bits — so logs go through
    :func:`~repro.core.pss.log_weight`, amortised over the *distinct*
    values: a weight or ``m(u)`` row draws from at most one value per
    graph predicate, so the scalar loop runs tens of times, not
    per-node.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    logs = np.fromiter(
        (log_weight(value) for value in distinct.tolist()),
        dtype=np.float64,
        count=distinct.size,
    )
    return logs[inverse]


class _SegmentTable:
    """Per-segment expansion tables (one fancy-index, reused forever).

    ``pos_l`` / ``w_l`` / ``lw_l`` are indexed by interned graph
    predicate id (one entry per graph predicate; the admit loop reads
    them through the graph's ``slot_predicate`` column); ``pos`` is the
    slot-indexed τ-positive mask for the hub-row gather; ``pos_count``
    / ``phi_l`` / ``m_*`` / ``logm_*`` are node-indexed (per arrival
    endpoint).  Everything the scalar admit loop reads is a plain list.
    ``m_adv_l`` / ``logm_adv_l`` are ``None`` on the last segment, where
    an advance is a goal and gets an exact pss instead of an estimate.
    """

    __slots__ = (
        "pos",
        "pos_l",
        "pos_count",
        "w_l",
        "lw_l",
        "phi_l",
        "m_cont_l",
        "logm_cont_l",
        "m_adv_l",
        "logm_adv_l",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])


class VectorizedSubQuerySearch:
    """Array-backed A* semantic search for one sub-query (Algorithm 1).

    Drop-in sibling of :class:`~repro.core.astar.SubQuerySearch` with the
    same constructor and pull interface; build it through
    :func:`~repro.core.astar.build_subquery_search` rather than directly
    so the kernel seam stays in one place.

    Args:
        view: a compact view (see :func:`supports_vectorized_search`);
            anything else raises :class:`~repro.errors.SearchError`.
        subquery: the path-shaped sub-query to match.
        matcher: node-match relation φ (consulted once per boundary at
            construction to build the φ bitmasks, never in the hot loop).
        config: τ, n̂ and policy knobs.
        subquery_index: position of this sub-query in the decomposition.
        clock: time source; TBQ passes a shared clock.
    """

    def __init__(
        self,
        view,
        subquery: SubQueryGraph,
        matcher: NodeMatcher,
        config: SearchConfig,
        subquery_index: int = 0,
        clock: Optional[Clock] = None,
    ):
        if not supports_vectorized_search(view):
            raise SearchError(
                "vectorized search kernel needs a compact view exposing "
                "graph / weight_row_array / bounds_row_array; "
                f"{type(view).__name__} does not"
            )
        self.view = view
        self.subquery = subquery
        self.matcher = matcher
        self.config = config
        self.subquery_index = subquery_index
        self.clock = clock if clock is not None else WallClock()
        self.stats = SearchStats()

        graph = view.graph
        self.graph = graph
        self._predicates = subquery.predicates()
        self._num_segments = len(self._predicates)
        self._total_bound = self._num_segments * config.path_bound
        self._geometric = config.scoring is PssMode.GEOMETRIC
        self._generate = config.visited_policy is VisitedPolicy.GENERATE
        # Visited-set keys are single ints (cheaper to build and hash
        # than tuples): coarse = uid*(m+1)+segment — the paper's (node,
        # segment) granularity — and fine additionally mixes in both hop
        # counters.  The encodings are injective, so the sets partition
        # states exactly as the reference's tuple keys do.
        self._seg_mult = self._num_segments + 1
        self._hops_mult = self._total_bound + 1
        self._his_mult = config.path_bound + 1
        # Per-boundary φ-match bitmask over entity ids: node_labels[1..m]
        # close segments 0..m-1; matcher.matches is the φ oracle and is
        # consulted exactly once per boundary, here.
        self._phi = [
            graph.uid_mask(matcher.matches(subquery.query.node(label)))
            for label in subquery.node_labels[1:]
        ]

        # CSR columns for the hot loop: memoryviews index straight into
        # the arrays and return python ints (no np-scalar boxing) as fast
        # as a list would, without a resident list copy per graph.
        self._indptr_l = memoryview(graph.indptr)
        self._nbr_l = memoryview(graph.slot_neighbor)
        self._pred_l = memoryview(graph.slot_predicate)
        self._note = getattr(view, "note_touched", None)

        # Lazy per-segment tables and segment-max m(u) columns
        # (array, exact-log array, and their list mirrors).
        self._tables: Dict[int, _SegmentTable] = {}
        self._m_memo: Dict[
            int, Tuple[np.ndarray, np.ndarray, List[float], List[float]]
        ] = {}

        # Struct-of-arrays state pool: append-only scalar columns (an
        # index, once handed to the heap or a PathMatch, stays valid
        # forever).  pool_arrays() exports the columns as flat numpy
        # arrays; the hot loop reads/writes the python columns directly
        # so nothing boxes np scalars per state.
        self._uid_c: List[int] = []
        self._segment_c: List[int] = []
        self._hops_c: List[int] = []
        self._his_c: List[int] = []
        self._lp_c: List[float] = []
        self._ws_c: List[float] = []
        self._priority_c: List[float] = []
        self._parent_c: List[int] = []
        self._slot_c: List[int] = []
        # Encoded visited-policy key per state (fine under EXPAND,
        # coarse under GENERATE): _pop re-checks staleness without
        # rebuilding it.
        self._key_c: List[int] = []
        # Hop-bounded ancestor tuple per state (≤ N̂ + 1 uids): the
        # simple-path check is one containment test, no chain walk.
        self._anc: List[Tuple[int, ...]] = []

        self._queue: MaxHeap[int] = MaxHeap()
        self._visited: Set[int] = set()
        self._best_g: Dict[int, float] = {}
        self._emitted_pivots: Set[int] = set()
        self._exhausted = False
        self._watch = Stopwatch(self.clock)
        self._seed_start_states()

    # ------------------------------------------------------------------
    # precomputed tables
    # ------------------------------------------------------------------
    def _m_any(
        self, segment: int
    ) -> Tuple[np.ndarray, np.ndarray, List[float], List[float]]:
        """``m(u)`` against predicates[segment:] for all nodes, plus logs.

        The elementwise max over the remaining predicates' bounds rows —
        the batched equivalent of the reference's
        ``max_adjacent_weight_any`` scan (max of floats is exact, so the
        values match bit for bit).  Returns the arrays and their list
        mirrors (shared by the seeds and every segment table).
        """
        entry = self._m_memo.get(segment)
        if entry is None:
            rows = [
                self.view.bounds_row_array(predicate)
                for predicate in self._predicates[segment:]
            ]
            m = rows[0] if len(rows) == 1 else np.maximum.reduce(rows)
            log_m = _exact_log_array(m)
            entry = (m, log_m, m.tolist(), log_m.tolist())
            self._m_memo[segment] = entry
        return entry

    def _segment_table(self, segment: int) -> _SegmentTable:
        """Slot-parallel weight/φ/m tables for one segment, built once.

        Built on the segment's first non-isolated expansion — the same
        trigger at which the reference search first materialises the
        segment predicate's weight row — so ``edges_weighted`` stays
        comparable across kernels.
        """
        table = self._tables.get(segment)
        if table is not None:
            return table
        graph = self.graph
        row = self.view.weight_row_array(self._predicates[segment])
        pos_row = row > 0.0
        pos = pos_row[graph.slot_predicate]
        counts = np.zeros(graph.num_nodes, dtype=np.int64)
        starts = graph.indptr[:-1]
        nonempty = starts < graph.indptr[1:]
        if pos.size:
            counts[nonempty] = np.add.reduceat(pos, starts[nonempty])
        # Weight columns stay per graph predicate (tens of entries, read
        # through slot_predicate); the φ and m(u) columns are
        # node-indexed.  No num_slots-sized list is ever built.
        _m, _logm, m_cont_l, logm_cont_l = self._m_any(segment)
        if segment + 1 < self._num_segments:
            _m, _logm, m_adv_l, logm_adv_l = self._m_any(segment + 1)
        else:
            m_adv_l = logm_adv_l = None
        table = _SegmentTable(
            pos=pos,
            pos_l=pos_row.tolist(),
            pos_count=counts.tolist(),
            w_l=row.tolist(),
            lw_l=_exact_log_array(row).tolist(),
            phi_l=self._phi[segment].tolist(),
            m_cont_l=m_cont_l,
            logm_cont_l=logm_cont_l,
            m_adv_l=m_adv_l,
            logm_adv_l=logm_adv_l,
        )
        self._tables[segment] = table
        return table

    # ------------------------------------------------------------------
    # state pool
    # ------------------------------------------------------------------
    def _alloc(
        self,
        uid: int,
        segment: int,
        hops_total: int,
        hops_in_segment: int,
        log_product: float,
        weight_sum: float,
        parent: int,
        slot: int,
        priority: float,
        key: int = -1,
    ) -> int:
        index = len(self._uid_c)
        self._uid_c.append(uid)
        self._segment_c.append(segment)
        self._hops_c.append(hops_total)
        self._his_c.append(hops_in_segment)
        self._lp_c.append(log_product)
        self._ws_c.append(weight_sum)
        self._priority_c.append(priority)
        self._parent_c.append(parent)
        self._slot_c.append(slot)
        self._key_c.append(key)
        if parent >= 0:
            self._anc.append(self._anc[parent] + (uid,))
        else:
            self._anc.append((uid,))
        return index

    @property
    def pool_size(self) -> int:
        """States allocated so far (pruned arrivals never allocate)."""
        return len(self._uid_c)

    def pool_arrays(self) -> Dict[str, np.ndarray]:
        """The state pool as flat numpy arrays (struct-of-arrays export).

        A snapshot for vector consumers — offline analysis, say — of
        every state the search has admitted, column per field.  The search itself reads the python
        columns (np scalar boxing would dominate the pop loop), so this
        materialises on demand rather than per allocation.
        """
        return {
            "uid": np.asarray(self._uid_c, dtype=np.int64),
            "segment": np.asarray(self._segment_c, dtype=np.int32),
            "hops_total": np.asarray(self._hops_c, dtype=np.int32),
            "hops_in_segment": np.asarray(self._his_c, dtype=np.int32),
            "log_product": np.asarray(self._lp_c, dtype=np.float64),
            "weight_sum": np.asarray(self._ws_c, dtype=np.float64),
            "priority": np.asarray(self._priority_c, dtype=np.float64),
            "parent": np.asarray(self._parent_c, dtype=np.int64),
            "slot": np.asarray(self._slot_c, dtype=np.int64),
        }

    # ------------------------------------------------------------------
    # scoring (bit-identical to repro.core.pss on the geometric path)
    # ------------------------------------------------------------------
    def _estimate(
        self,
        log_product: float,
        hops: int,
        weight_sum: float,
        m: float,
        log_m: float,
    ) -> float:
        """ψ̂ (Eq. 7) with the log of ``m`` precomputed.

        The geometric fast path inlines ``estimate_pss`` with
        ``log_weight(m)`` looked up instead of recomputed; the
        arithmetic ablation delegates to the shared function (no
        transcendentals there to amortise).  The expansion loop inlines
        the geometric branch again — this method serves the cold call
        sites (seeds, harvest, arithmetic mode).
        """
        if self._geometric:
            if hops > self._total_bound:
                return 0.0
            if m <= 0.0:
                return 0.0
            if log_product <= _LOG_PRUNE:
                return 0.0
            return math.exp((log_product + log_m) / self._total_bound)
        return estimate_pss(
            log_product,
            hops,
            m,
            self._total_bound,
            mode=self.config.scoring,
            weight_sum=weight_sum,
        )

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def _seed_start_states(self) -> None:
        seeds = self.matcher.matches(self.subquery.start)
        if not seeds:
            return
        if self._note is not None:
            self._note(seeds)
        _m, _logm, m_l, logm_l = self._m_any(0)
        for uid in seeds:
            priority = self._estimate(0.0, 0, 0.0, m_l[uid], logm_l[uid])
            self._push(uid, 0, 0, 0, 0.0, 0.0, -1, -1, priority)

    # ------------------------------------------------------------------
    # queue plumbing (policy-aware, mirrors SubQuerySearch)
    # ------------------------------------------------------------------
    def _push(
        self,
        uid: int,
        segment: int,
        hops_total: int,
        hops_in_segment: int,
        log_product: float,
        weight_sum: float,
        parent: int,
        slot: int,
        priority: float,
    ) -> None:
        """Admit a generated state subject to the visited policy.

        The expansion loop inlines this decision sequence; this method
        serves the cold call sites (seeds, the TBQ harvest fallthrough)
        and documents the contract both share.
        """
        if self._generate:
            key = uid * self._seg_mult + segment
            if key in self._visited:
                self.stats.pruned_by_visited += 1
                return
            self._visited.add(key)
        else:  # EXPAND: lazy decrease-key with re-opening
            key = (
                (uid * self._seg_mult + segment) * self._hops_mult + hops_total
            ) * self._his_mult + hops_in_segment
            best = self._best_g.get(key)
            if best is not None and log_product <= best:
                self.stats.pruned_by_visited += 1
                return
            self._best_g[key] = log_product
        index = self._alloc(
            uid,
            segment,
            hops_total,
            hops_in_segment,
            log_product,
            weight_sum,
            parent,
            slot,
            priority,
            key,
        )
        self._queue.push(priority, index)
        self.stats.states_generated += 1
        if len(self._queue) > self.stats.max_queue_size:
            self.stats.max_queue_size = len(self._queue)

    def _pop(self) -> Optional[int]:
        best_g = self._best_g
        expand = not self._generate
        while self._queue:
            _priority, index = self._queue.pop_max()
            if expand:
                best = best_g.get(self._key_c[index])
                if best is not None and self._lp_c[index] < best:
                    self.stats.stale_pops += 1
                    continue  # superseded by a better path to this state
            return index
        return None

    # ------------------------------------------------------------------
    # expansion (Algorithm 1 lines 3-10, one shot per pop)
    # ------------------------------------------------------------------
    def _make_match(self, index: int) -> PathMatch:
        graph = self.graph
        slot_edge = graph.slot_edge
        slot_forward = graph.slot_forward
        steps: List[PathStep] = []
        cursor = index
        while True:
            parent = self._parent_c[cursor]
            if parent < 0:
                break
            slot = self._slot_c[cursor]
            steps.append(
                PathStep(
                    edge=graph.edge(int(slot_edge[slot])),
                    forward=bool(slot_forward[slot]),
                )
            )
            cursor = parent
        steps.reverse()
        return PathMatch(
            subquery_index=self.subquery_index,
            path=Path(start=self._uid_c[cursor], steps=tuple(steps)),
            pivot_uid=self._uid_c[index],
            pss=self._priority_c[index],
        )

    def _admit_harvest(
        self,
        uid: int,
        segment: int,
        hops_total: int,
        hops_in_segment: int,
        log_product: float,
        weight_sum: float,
        parent: int,
        slot: int,
        priority: float,
        harvest: Dict[int, PathMatch],
    ) -> None:
        """Route one goal arrival into M̂_i (Algorithm 2, lines 10-11).

        The caller already τ-checked; the harvest keeps the best match
        per pivot, mirroring the reference ``_admit`` goal branch.
        """
        if self._generate:
            key = uid * self._seg_mult + segment
            if key in self._visited:
                self.stats.pruned_by_visited += 1
                return
            self._visited.add(key)
        existing = harvest.get(uid)
        if existing is None:
            self.stats.goals_emitted += 1
        elif priority <= existing.pss:
            return
        index = self._alloc(
            uid,
            segment,
            hops_total,
            hops_in_segment,
            log_product,
            weight_sum,
            parent,
            slot,
            priority,
        )
        harvest[uid] = self._make_match(index)

    def _expand(
        self, index: int, segment: int, harvest: Optional[Dict[int, PathMatch]]
    ) -> None:
        # The loop body inlines _estimate (geometric), the τ check and
        # _push: at ~5 generated states per pop, the method-call overhead
        # alone was costing as much as the decisions themselves.  Every
        # branch mirrors the reference _arrivals/_admit/_push sequence
        # exactly — same order, same counters.
        his = self._his_c[index]
        bound = self.config.path_bound
        if his >= bound:
            return  # segment exhausted its n̂ hops; only advances survive
        uid = self._uid_c[index]
        if self._note is not None:
            self._note((uid,))
        start = self._indptr_l[uid]
        end = self._indptr_l[uid + 1]
        if start == end:
            return
        table = self._segment_table(segment)
        stats = self.stats
        stats.pruned_by_tau += (end - start) - table.pos_count[uid]
        if end - start >= _GATHER_MIN_DEGREE:
            # Hub row: gather the τ-positive slots with one vectorized
            # mask before the scalar admit loop.
            candidates = (np.flatnonzero(table.pos[start:end]) + start).tolist()
        else:
            candidates = range(start, end)
        anc = self._anc[index]
        log_product = self._lp_c[index]
        weight_sum = self._ws_c[index]
        hops1 = self._hops_c[index] + 1
        his1 = his + 1
        continuing = his1 < bound
        segment1 = segment + 1
        advance_is_goal = segment1 == self._num_segments
        estimating = continuing or not advance_is_goal
        nbr_l = self._nbr_l
        pred_l = self._pred_l
        pos_l = table.pos_l
        w_l = table.w_l
        lw_l = table.lw_l
        phi_l = table.phi_l
        m_adv_l = table.m_adv_l
        logm_adv_l = table.logm_adv_l
        m_cont_l = table.m_cont_l
        logm_cont_l = table.logm_cont_l
        geometric = self._geometric
        generate = self._generate
        total_bound = self._total_bound
        hops_over = hops1 > total_bound
        tau = self.config.tau
        exp = math.exp
        visited = self._visited
        best_g = self._best_g
        seg_mult = self._seg_mult
        hops_mult = self._hops_mult
        his_mult = self._his_mult
        # Pool columns and the heap, bound as locals: at ~5 generated
        # states per pop the attribute/method dispatch would cost as
        # much as the appends themselves.  The heap counter and queue
        # length are synced back after the loop (only this loop pushes
        # between pops, so the local view is exact).
        anc_c = self._anc
        uid_app = self._uid_c.append
        seg_app = self._segment_c.append
        hops_app = self._hops_c.append
        his_app = self._his_c.append
        lp_app = self._lp_c.append
        ws_app = self._ws_c.append
        pr_app = self._priority_c.append
        par_app = self._parent_c.append
        slot_app = self._slot_c.append
        key_app = self._key_c.append
        anc_app = anc_c.append
        queue = self._queue
        heap = queue._heap
        heap_push = heapq.heappush
        counter = queue._counter
        queue_size = len(heap)
        max_queue = stats.max_queue_size
        pool_n = len(self._uid_c)
        touched: List[int] = [] if estimating else None
        for slot in candidates:
            pid = pred_l[slot]
            if not pos_l[pid]:
                continue  # weight <= 0 (already counted as τ prunes)
            neighbor = nbr_l[slot]
            if neighbor in anc:
                continue  # simple paths only
            lp = log_product + lw_l[pid]
            ws = weight_sum + w_l[pid]
            if phi_l[neighbor]:
                if advance_is_goal:
                    priority = (
                        (0.0 if lp <= _LOG_PRUNE else exp(lp / hops1))
                        if geometric
                        else ws / hops1
                    )
                else:
                    touched.append(neighbor)
                    m = m_adv_l[neighbor]
                    if geometric:
                        priority = (
                            0.0
                            if hops_over or m <= 0.0 or lp <= _LOG_PRUNE
                            else exp((lp + logm_adv_l[neighbor]) / total_bound)
                        )
                    else:
                        priority = self._estimate(lp, hops1, ws, m, 0.0)
                # τ then visited policy then push (the reference _admit
                # sequence, inlined; harvest goals take the cold method).
                if priority < tau:
                    stats.pruned_by_tau += 1
                elif harvest is not None and advance_is_goal:
                    self._admit_harvest(
                        neighbor, segment1, hops1, 0, lp, ws, index, slot,
                        priority, harvest,
                    )
                    pool_n = len(self._uid_c)  # harvest may allocate
                else:
                    if generate:
                        key = neighbor * seg_mult + segment1
                        if key in visited:
                            stats.pruned_by_visited += 1
                            key = None
                        else:
                            visited.add(key)
                    else:
                        key = (
                            (neighbor * seg_mult + segment1) * hops_mult + hops1
                        ) * his_mult
                        best = best_g.get(key)
                        if best is not None and lp <= best:
                            stats.pruned_by_visited += 1
                            key = None
                        else:
                            best_g[key] = lp
                    if key is not None:
                        uid_app(neighbor)
                        seg_app(segment1)
                        hops_app(hops1)
                        his_app(0)
                        lp_app(lp)
                        ws_app(ws)
                        pr_app(priority)
                        par_app(index)
                        slot_app(slot)
                        key_app(key)
                        anc_app(anc + (neighbor,))
                        heap_push(heap, (-priority, counter, pool_n))
                        counter += 1
                        pool_n += 1
                        queue_size += 1
                        stats.states_generated += 1
                        if queue_size > max_queue:
                            max_queue = queue_size
            if continuing:
                touched.append(neighbor)
                m = m_cont_l[neighbor]
                if geometric:
                    priority = (
                        0.0
                        if hops_over or m <= 0.0 or lp <= _LOG_PRUNE
                        else exp((lp + logm_cont_l[neighbor]) / total_bound)
                    )
                else:
                    priority = self._estimate(lp, hops1, ws, m, 0.0)
                if priority < tau:
                    stats.pruned_by_tau += 1
                else:
                    if generate:
                        key = neighbor * seg_mult + segment
                        if key in visited:
                            stats.pruned_by_visited += 1
                            key = None
                        else:
                            visited.add(key)
                    else:
                        key = (
                            (neighbor * seg_mult + segment) * hops_mult + hops1
                        ) * his_mult + his1
                        best = best_g.get(key)
                        if best is not None and lp <= best:
                            stats.pruned_by_visited += 1
                            key = None
                        else:
                            best_g[key] = lp
                    if key is not None:
                        uid_app(neighbor)
                        seg_app(segment)
                        hops_app(hops1)
                        his_app(his1)
                        lp_app(lp)
                        ws_app(ws)
                        pr_app(priority)
                        par_app(index)
                        slot_app(slot)
                        key_app(key)
                        anc_app(anc + (neighbor,))
                        heap_push(heap, (-priority, counter, pool_n))
                        counter += 1
                        pool_n += 1
                        queue_size += 1
                        stats.states_generated += 1
                        if queue_size > max_queue:
                            max_queue = queue_size
            else:
                stats.pruned_by_bound += 1
        queue._counter = counter
        stats.max_queue_size = max_queue
        if touched and self._note is not None:
            # Estimate bookkeeping: the reference touches a neighbour
            # whenever it computes an Eq. 7 estimate for it.
            self._note(touched)

    def step(self, harvest: Optional[Dict[int, PathMatch]] = None) -> Optional[PathMatch]:
        """One pop-and-expand iteration (same contract as the reference)."""
        if self._exhausted:
            return None
        if (
            self.config.max_expansions is not None
            and self.stats.expansions >= self.config.max_expansions
        ):
            self._exhausted = True
            return None
        index = self._pop()
        if index is None:
            self._exhausted = True
            return None
        self.stats.expansions += 1
        self.clock.tick()

        segment = self._segment_c[index]
        if segment == self._num_segments:
            pivot = self._uid_c[index]
            if pivot in self._emitted_pivots:
                return None  # EXPAND policy can re-pop a pivot; keep first
            self._emitted_pivots.add(pivot)
            self.stats.goals_emitted += 1
            return self._make_match(index)

        self._expand(index, segment, harvest)
        return None

    # ------------------------------------------------------------------
    # public pull interface
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def next_match(self) -> Optional[PathMatch]:
        """Run until the next match pops; ``None`` when exhausted."""
        while not self._exhausted:
            match = self.step()
            if match is not None:
                self.stats.elapsed_seconds = self._watch.elapsed()
                return match
        self.stats.elapsed_seconds = self._watch.elapsed()
        return None

    def run(self, k: int) -> List[PathMatch]:
        """Collect up to ``k`` matches (Algorithm 1 in one call)."""
        if k < 1:
            raise SearchError("k must be at least 1")
        matches: List[PathMatch] = []
        while len(matches) < k:
            match = self.next_match()
            if match is None:
                break
            matches.append(match)
        return matches
