"""Result-identity predicates and oracle engines for the conformance suites.

The engine's one pipeline (the compact CSR semantic-graph view, the
array-backed A* search kernel, the vectorized TA assembly kernel) claims
*identical results* to the reference implementations kept as its
oracles — same final matches, bit-equal scores, same components, and for
the search kernel the same per-sub-query emission stream and counters.
This module owns the one definition of those claims and the one way to
build the lazy-view oracle engine, so the benchmark harnesses
(`repro.bench.compactbench`, `repro.bench.assemblybench`,
`repro.bench.searchbench`) and the conformance test suites cannot drift
in what they actually check.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.engine import SemanticGraphQueryEngine
from repro.core.results import FinalMatch, PathMatch, SearchStats
from repro.core.semantic_graph import SemanticGraphView

#: SearchStats counters that must match bit-for-bit across search
#: kernels.  ``nodes_touched`` / ``edges_weighted`` are *view*-level
#: materialisation counters (already documented to differ between lazy
#: and compact views) and ``elapsed_seconds`` is wall time, so they are
#: compared only where the harness controls the view.
SEARCH_STAT_FIELDS = (
    "expansions",
    "states_generated",
    "pruned_by_tau",
    "pruned_by_visited",
    "pruned_by_bound",
    "stale_pops",
    "goals_emitted",
    "max_queue_size",
)


def final_matches_differ(
    label: str,
    expected: Sequence[FinalMatch],
    actual: Sequence[FinalMatch],
) -> Optional[str]:
    """A description of the first difference, or ``None`` if identical.

    Identical means: same match count and order, same pivot uids,
    bit-equal scores, same component sub-queries in the same insertion
    order, and bit-equal pss plus equal path per component.
    """
    if len(expected) != len(actual):
        return f"{label}: match count {len(expected)} != {len(actual)}"
    for rank, (a, b) in enumerate(zip(expected, actual)):
        if a.pivot_uid != b.pivot_uid:
            return f"{label}#{rank}: pivot {a.pivot_uid} != {b.pivot_uid}"
        if a.score != b.score:
            return f"{label}#{rank}: score {a.score!r} != {b.score!r}"
        if list(a.components) != list(b.components):
            return f"{label}#{rank}: component order differs"
        for index, pa in a.components.items():
            pb = b.components[index]
            if pa.pss != pb.pss:
                return f"{label}#{rank}/g{index}: pss {pa.pss!r} != {pb.pss!r}"
            if pa.path != pb.path:
                return f"{label}#{rank}/g{index}: path differs"
    return None


def path_matches_differ(
    label: str,
    expected: Sequence[PathMatch],
    actual: Sequence[PathMatch],
) -> Optional[str]:
    """First difference between two sub-query match streams, or ``None``.

    Identical means: same match count and *emission order*, same pivot
    uids, bit-equal pss, same sub-query index and equal path (down to
    the shared ``Edge`` objects) — the search-kernel half of the
    result-identity claim, before any TA assembly.
    """
    if len(expected) != len(actual):
        return f"{label}: match count {len(expected)} != {len(actual)}"
    for rank, (a, b) in enumerate(zip(expected, actual)):
        if a.pivot_uid != b.pivot_uid:
            return f"{label}#{rank}: pivot {a.pivot_uid} != {b.pivot_uid}"
        if a.pss != b.pss:
            return f"{label}#{rank}: pss {a.pss!r} != {b.pss!r}"
        if a.subquery_index != b.subquery_index:
            return f"{label}#{rank}: subquery index differs"
        if a.path != b.path:
            return f"{label}#{rank}: path differs"
    return None


def search_stats_differ(
    label: str, expected: SearchStats, actual: SearchStats
) -> Optional[str]:
    """First differing search counter (see ``SEARCH_STAT_FIELDS``)."""
    for field in SEARCH_STAT_FIELDS:
        a = getattr(expected, field)
        b = getattr(actual, field)
        if a != b:
            return f"{label}: {field} {a} != {b}"
    return None


def lazy_view(kg, space, *, min_weight: float = 0.0, cache=None) -> SemanticGraphView:
    """The lazy ``SG_Q`` oracle in the engine's ``view_factory`` shape.

    ``cache`` is accepted and ignored: the oracle recomputes every
    weight and ``m(u)`` bound itself.
    """
    return SemanticGraphView(kg, space, min_weight=min_weight)


def lazy_oracle_engine(
    kg, space, library=None, config=None, *, assembly_kernel: str = "reference"
) -> SemanticGraphQueryEngine:
    """An engine running the paper's construction end to end.

    The lazy :class:`~repro.core.semantic_graph.SemanticGraphView`, the
    reference A* (:class:`~repro.core.astar.SubQuerySearch`) and, by
    default, the reference TA assembler.
    """
    engine = SemanticGraphQueryEngine(
        kg,
        space,
        library,
        config,
        assembly_kernel=assembly_kernel,
        search_kernel="reference",
    )
    engine.view_factory = lazy_view
    return engine
