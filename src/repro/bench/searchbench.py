"""A* search kernel benchmark harness: conformance proof + speedup.

Runs every workload query's sub-query searches through both A* kernels —
the reference :class:`~repro.core.astar.SubQuerySearch` and the
array-backed :class:`~repro.core.search_kernel.VectorizedSubQuerySearch`
— over one shared, pre-warmed compact view, and:

1. asserts **decision identity** on every (query, visited policy) case:
   the full drained match stream (pivots, bit-equal pss, emission order,
   paths down to shared ``Edge`` objects) and every search counter
   (expansions, prunes, stale pops, queue peak) must match;
2. times both kernels (best of ``passes`` construct-and-drain sweeps —
   the pop-and-expand loop is the measured object, weight rows are warm
   for both) and reports the speedup;
3. optionally measures the **end-to-end** engine delta on the
   search-bound workload query with the most A* expansions (D12-class
   after PR 3 made assembly cheap) under both kernels.

Shared by ``benchmarks/bench_astar_kernel.py`` (full-scale, pytest,
asserts the ≥2x microbench target) and
``tests/test_oracle_conformance.py`` (small-scale, tier-1): the tests
fail on a decision mismatch while treating the timing numbers as
informational.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.datasets import DatasetBundle
from repro.bench.equivalence import (
    final_matches_differ,
    path_matches_differ,
    search_stats_differ,
)
from repro.core.astar import build_subquery_search
from repro.core.config import SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.results import QueryResult
from repro.errors import ReproError

#: Drain bound per sub-query search: effectively "until exhaustion" on
#: the bench workloads while keeping a worst-case stop.
_DRAIN_K = 10**6


def _drain(search) -> list:
    return search.run(_DRAIN_K)


def _build_case_inputs(
    bundle: DatasetBundle, policies: Sequence[VisitedPolicy], tau: float
) -> Tuple[SemanticGraphQueryEngine, List[Dict]]:
    """Decompose the workload once and pre-warm one view per query."""
    engine = SemanticGraphQueryEngine(
        bundle.kg, bundle.space, bundle.library, SearchConfig(tau=tau)
    )
    cases = []
    for query in bundle.workload:
        decomposition = engine.decompose(query.query)
        view = engine.view_factory(
            bundle.kg, bundle.space, min_weight=engine.config.min_weight
        )
        for policy in policies:
            config = SearchConfig(tau=tau, visited_policy=policy)
            # No explicit warm-up: the equivalence drains in
            # compare_search_kernels run before _time_case on the same
            # shared view, so its weight/bounds rows are always warm by
            # the time anything is timed — timing isolates the expansion
            # loop, not row materialisation (PR 2's subject).
            cases.append(
                {
                    "qid": query.qid,
                    "policy": policy,
                    "config": config,
                    "decomposition": decomposition,
                    "view": view,
                    "matcher": engine.matcher,
                }
            )
    return engine, cases


def _run_case(case: Dict, kernel: str):
    """Fresh searches over the case's shared view; returns per-subquery
    (matches, stats) pairs in decomposition order."""
    out = []
    for index, subquery in enumerate(case["decomposition"].subqueries):
        search = build_subquery_search(
            case["view"], subquery, case["matcher"], case["config"], index,
            kernel=kernel,
        )
        matches = _drain(search)
        out.append((matches, search.stats))
    return out


def _time_case(case: Dict, kernel: str, passes: int) -> float:
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        _run_case(case, kernel)
        best = min(best, time.perf_counter() - started)
    return best


def _case_differs(name: str, reference, vectorized) -> Optional[str]:
    if len(reference) != len(vectorized):  # pragma: no cover - same decomposition
        return f"{name}: sub-query count differs"
    for index, ((ref_matches, ref_stats), (vec_matches, vec_stats)) in enumerate(
        zip(reference, vectorized)
    ):
        problem = path_matches_differ(f"{name}/g{index}", ref_matches, vec_matches)
        if problem is not None:
            return problem
        problem = search_stats_differ(f"{name}/g{index}", ref_stats, vec_stats)
        if problem is not None:
            return problem
    return None


@dataclass
class SearchKernelComparison:
    """Outcome of one reference-vs-vectorized search sweep.

    Mirrors ``assemblybench.AssemblyKernelComparison``: the synthetic
    case problems live in ``case_mismatches``; :attr:`mismatches` and
    :attr:`equivalent` fold in the attached end-to-end comparison
    (``d12``, when present), so every consumer reads one source of
    truth.
    """

    num_cases: int
    reference_seconds: float
    vectorized_seconds: float
    case_mismatches: List[str] = field(default_factory=list)
    per_case: List[Dict] = field(default_factory=list)
    d12: Optional[Dict] = None

    @property
    def mismatches(self) -> List[str]:
        problems = list(self.case_mismatches)
        if self.d12 is not None and not self.d12["equivalent"]:
            problems.append(self.d12["mismatch"])
        return problems

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        """Expansion-loop wall-time ratio (> 1 means the kernel wins)."""
        if self.vectorized_seconds <= 0.0:
            return 0.0
        return self.reference_seconds / self.vectorized_seconds

    def to_json(self) -> Dict:
        """The ``BENCH_astar_kernel.json`` payload."""
        return {
            "benchmark": "astar_kernel",
            "num_cases": self.num_cases,
            "reference_seconds": self.reference_seconds,
            "vectorized_seconds": self.vectorized_seconds,
            "speedup": self.speedup,
            "equivalent": self.equivalent,
            "mismatches": self.mismatches,
            "per_case": self.per_case,
            "d12": self.d12,
        }


def compare_search_kernels(
    bundle: DatasetBundle,
    *,
    passes: int = 2,
    tau: float = 0.8,
    policies: Sequence[VisitedPolicy] = (
        VisitedPolicy.EXPAND,
        VisitedPolicy.GENERATE,
    ),
) -> SearchKernelComparison:
    """Run the conformance + timing sweep over the bundle's workload."""
    if passes < 1:
        raise ReproError(f"passes must be at least 1, got {passes}")
    if not bundle.workload:
        raise ReproError("bundle workload is empty")
    _engine, cases = _build_case_inputs(bundle, policies, tau)
    mismatches: List[str] = []
    per_case: List[Dict] = []
    reference_total = 0.0
    vectorized_total = 0.0
    for case in cases:
        name = f"{case['qid']}/{case['policy'].value}"
        reference = _run_case(case, "reference")
        vectorized = _run_case(case, "vectorized")
        problem = _case_differs(name, reference, vectorized)
        if problem is not None:
            mismatches.append(problem)
        reference_seconds = _time_case(case, "reference", passes)
        vectorized_seconds = _time_case(case, "vectorized", passes)
        reference_total += reference_seconds
        vectorized_total += vectorized_seconds
        expansions = sum(stats.expansions for _m, stats in vectorized)
        matches = sum(len(m) for m, _s in vectorized)
        per_case.append(
            {
                "case": name,
                "policy": case["policy"].value,
                "subqueries": len(case["decomposition"].subqueries),
                "matches": matches,
                "expansions": expansions,
                "stale_pops": sum(s.stale_pops for _m, s in vectorized),
                "reference_ms": reference_seconds * 1000.0,
                "vectorized_ms": vectorized_seconds * 1000.0,
            }
        )
    return SearchKernelComparison(
        num_cases=len(per_case),
        reference_seconds=reference_total,
        vectorized_seconds=vectorized_total,
        case_mismatches=mismatches,
        per_case=per_case,
    )


def _query_results_differ(
    qid: str, reference: QueryResult, vectorized: QueryResult
) -> Optional[str]:
    if reference.ta_accesses != vectorized.ta_accesses:
        return (
            f"{qid}: ta_accesses {reference.ta_accesses} "
            f"!= {vectorized.ta_accesses}"
        )
    if reference.expansions != vectorized.expansions:
        return f"{qid}: expansions {reference.expansions} != {vectorized.expansions}"
    for ref_stats, vec_stats in zip(
        reference.subquery_stats, vectorized.subquery_stats
    ):
        problem = search_stats_differ(qid, ref_stats, vec_stats)
        if problem is not None:
            return problem
    return final_matches_differ(qid, reference.matches, vectorized.matches)


def d12_search_comparison(
    bundle: DatasetBundle, *, qid: str = "D12", k: int = 10, passes: int = 2
) -> Dict:
    """End-to-end engine delta on one search-bound workload query.

    Runs ``engine.search`` under both search kernels (the same compact
    view both sides, so only the A* implementation differs), asserts result
    identity, and reports best-of-``passes`` wall times plus the
    vectorized run's search-vs-assembly split.  Small scales drop D12
    from the workload (empty truth set); the comparison then falls back
    to the query with the most A* expansions, recording the
    substitution in the returned ``qid``.
    """
    if passes < 1:
        raise ReproError(f"passes must be at least 1, got {passes}")
    if not bundle.workload:
        raise ReproError("bundle workload is empty")
    engines = {
        kernel: SemanticGraphQueryEngine(
            bundle.kg,
            bundle.space,
            bundle.library,
            search_kernel=kernel,
        )
        for kernel in ("reference", "vectorized")
    }
    item = next((q for q in bundle.workload if q.qid == qid), None)
    if item is None:
        # The kernel targets the expansion loop, so the fallback is the
        # expansion-heaviest query rather than the assembly-heaviest.
        probe = engines["vectorized"]
        item = max(
            bundle.workload,
            key=lambda q: probe.search(q.query, k=k).expansions,
        )
        qid = item.qid
    # Warm the shared matcher/space memos identically, and check identity.
    reference = engines["reference"].search(item.query, k=k)
    vectorized = engines["vectorized"].search(item.query, k=k)
    mismatch = _query_results_differ(qid, reference, vectorized)
    timings = {}
    for kernel, engine in engines.items():
        best = float("inf")
        split = None
        for _ in range(passes):
            started = time.perf_counter()
            result = engine.search(item.query, k=k)
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
                split = result
        timings[kernel] = (best, split)
    reference_seconds, _ = timings["reference"]
    vectorized_seconds, split = timings["vectorized"]
    return {
        "qid": qid,
        "k": k,
        "matches": len(vectorized.matches),
        "expansions": vectorized.expansions,
        "ta_accesses": vectorized.ta_accesses,
        "reference_ms": reference_seconds * 1000.0,
        "vectorized_ms": vectorized_seconds * 1000.0,
        "speedup": (
            reference_seconds / vectorized_seconds if vectorized_seconds > 0 else 0.0
        ),
        "vectorized_search_ms": split.search_seconds * 1000.0,
        "vectorized_assembly_ms": split.assembly_seconds * 1000.0,
        "equivalent": mismatch is None,
        "mismatch": mismatch,
    }
