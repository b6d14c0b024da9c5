"""Compact-kernel benchmark harness: equivalence proof + speedup report.

Runs the same cold top-k workload (the Fig. 12-style synthetic workload)
through two engines over one graph — the lazy oracle (the paper's
:class:`~repro.core.semantic_graph.SemanticGraphView` with the reference
A*) and the default engine (the frozen CSR
:class:`~repro.core.compact_view.CompactSemanticGraphView` with the
array-backed A*) — and:

1. asserts **byte-identical results** on every query (pivots, exact
   scores, the very same ``Edge`` objects along every match path);
2. times both kernels (best of ``passes`` full-workload sweeps, fresh
   uncached views per query — the *cold* cost the ISSUE targets) and
   reports the speedup plus the one-off freeze cost.

Shared by ``benchmarks/bench_compact_kernel.py`` (full-scale, pytest) and
``tests/test_oracle_conformance.py`` (small-scale, tier-1): the tests fail
on an equivalence mismatch while treating the perf numbers as
informational.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.datasets import DatasetBundle
from repro.bench.equivalence import final_matches_differ, lazy_oracle_engine
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.results import QueryResult
from repro.errors import ReproError
from repro.kg.compact import CompactGraph


@dataclass
class KernelComparison:
    """Outcome of one lazy-vs-compact workload sweep."""

    preset: str
    scale: float
    num_queries: int
    k: int
    num_entities: int
    num_edges: int
    freeze_seconds: float
    lazy_seconds: float
    compact_seconds: float
    equivalent: bool
    mismatches: List[str] = field(default_factory=list)
    per_query: List[Dict] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Cold-workload wall-time ratio (> 1 means compact wins)."""
        if self.compact_seconds <= 0.0:
            return 0.0
        return self.lazy_seconds / self.compact_seconds

    def to_json(self) -> Dict:
        """The ``BENCH_compact_kernel.json`` payload."""
        return {
            "benchmark": "compact_kernel",
            "preset": self.preset,
            "scale": self.scale,
            "num_queries": self.num_queries,
            "k": self.k,
            "num_entities": self.num_entities,
            "num_edges": self.num_edges,
            "freeze_seconds": self.freeze_seconds,
            "lazy_seconds": self.lazy_seconds,
            "compact_seconds": self.compact_seconds,
            "speedup": self.speedup,
            "equivalent": self.equivalent,
            "mismatches": self.mismatches,
            "per_query": self.per_query,
        }


def _matches_differ(qid: str, lazy: QueryResult, compact: QueryResult) -> Optional[str]:
    """A description of the first result difference, or ``None`` if equal.

    Byte-identical means: same match count and order, same pivot uids,
    bit-equal scores and pss, equal component insertion order, and equal
    path steps per sub-match (the shared
    :func:`repro.bench.equivalence.final_matches_differ` definition).
    """
    return final_matches_differ(qid, lazy.matches, compact.matches)


def _sweep_seconds(engine: SemanticGraphQueryEngine, queries, k: int) -> float:
    """Wall time of one full cold sweep (no shared cache, fresh views)."""
    start = time.perf_counter()
    for query in queries:
        engine.search(query, k=k)
    return time.perf_counter() - start


def compare_kernels(
    bundle: DatasetBundle,
    *,
    k: int = 10,
    passes: int = 2,
    scale: float = 0.0,
    collect_per_query: bool = True,
) -> KernelComparison:
    """Run the lazy-vs-compact comparison over ``bundle``'s workload.

    Args:
        bundle: dataset bundle (graph + space + workload).
        k: top-k per query.
        passes: timed sweeps per kernel; best-of is reported (the usual
            defence against scheduler noise).
        scale: recorded in the report (the bundle does not carry it).
        collect_per_query: include per-query timings in the payload.
    """
    if passes < 1:
        raise ReproError(f"passes must be at least 1, got {passes}")
    queries = [q.query for q in bundle.workload]
    qids = [q.qid for q in bundle.workload]

    # The lazy side keeps the vectorized TA, so only the view and the
    # search kernel differ between the two engines.
    lazy_engine = lazy_oracle_engine(
        bundle.kg, bundle.space, bundle.library, assembly_kernel="vectorized"
    )

    freeze_start = time.perf_counter()
    CompactGraph.freeze(bundle.kg)
    freeze_seconds = time.perf_counter() - freeze_start
    compact_engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)

    # Pre-warm the shared PredicateSpace row cache: both engines read the
    # same space, so whichever kernel ran first would otherwise pay each
    # query predicate's first matvec for both — biasing the per-query
    # comparison (the steady state has warm rows anyway).
    for query in queries:
        for edge in query.edges():
            if edge.predicate in bundle.space:
                bundle.space.similarity_row(edge.predicate)

    # -- equivalence first (also warms matcher memos identically) --------
    mismatches: List[str] = []
    per_query: List[Dict] = []
    for qid, query in zip(qids, queries):
        lazy_start = time.perf_counter()
        lazy_result = lazy_engine.search(query, k=k)
        lazy_elapsed = time.perf_counter() - lazy_start
        compact_start = time.perf_counter()
        compact_result = compact_engine.search(query, k=k)
        compact_elapsed = time.perf_counter() - compact_start
        problem = _matches_differ(qid, lazy_result, compact_result)
        if problem is not None:
            mismatches.append(problem)
        if collect_per_query:
            per_query.append(
                {
                    "qid": qid,
                    "matches": len(lazy_result.matches),
                    "lazy_ms": lazy_elapsed * 1000.0,
                    "compact_ms": compact_elapsed * 1000.0,
                }
            )

    # -- then timing: best-of-N full cold sweeps per kernel --------------
    lazy_seconds = min(_sweep_seconds(lazy_engine, queries, k) for _ in range(passes))
    compact_seconds = min(
        _sweep_seconds(compact_engine, queries, k) for _ in range(passes)
    )

    return KernelComparison(
        preset=bundle.preset,
        scale=scale,
        num_queries=len(queries),
        k=k,
        num_entities=bundle.kg.num_entities,
        num_edges=bundle.kg.num_edges,
        freeze_seconds=freeze_seconds,
        lazy_seconds=lazy_seconds,
        compact_seconds=compact_seconds,
        equivalent=not mismatches,
        mismatches=mismatches,
        per_query=per_query,
    )
