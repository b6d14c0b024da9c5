"""Array-backed A* search kernel vs the reference pop-and-expand loop.

Not a figure from the paper: the paper's construction is the linked-state
Algorithm 1 transcription (`src/repro/core/astar.py`); this bench
measures the struct-of-arrays kernel the reproduction adds
(`src/repro/core/search_kernel.py`).  Claims verified:

1. **Decision identity** — every (workload query, visited policy) case
   drains to the same match stream under both kernels: pivots, bit-equal
   pss, emission order, paths, plus every search counter (expansions,
   τ/visited/bound prunes, stale pops, queue peak).  Batching changes
   cost, never decisions.
2. **≥2x expansion-loop speedup** — the construct-and-drain sweep over
   the workload (both policies, shared pre-warmed compact view) runs at
   least 2x faster on the array kernel: precomputed slot tables +
   φ bitmasks + ancestor tuples vs per-arrival state objects, chain
   walks and scalar estimate plumbing.
3. **End-to-end win on the search-bound query** — with assembly
   vectorized (PR 3), the query with the most A* expansions gets faster
   through the whole engine path, with the search-vs-assembly split
   recorded.

Emits ``benchmarks/results/BENCH_astar_kernel.json`` for CI and the
README's performance numbers.
"""

from __future__ import annotations

from repro.bench.reporting import emit, emit_json, format_table
from repro.bench.searchbench import compare_search_kernels, d12_search_comparison

from conftest import BENCH_SCALE  # noqa: F401 (fixture module import idiom)

PASSES = 3
MIN_SPEEDUP = 2.0


def test_astar_kernel_equivalence_and_speedup(dbpedia_bundle, benchmark):
    comparison = compare_search_kernels(dbpedia_bundle, passes=PASSES)
    comparison.d12 = d12_search_comparison(dbpedia_bundle, k=10, passes=PASSES)

    rows = [
        (
            case["case"],
            case["expansions"],
            case["matches"],
            f"{case['reference_ms']:.2f}",
            f"{case['vectorized_ms']:.2f}",
            (
                f"{case['reference_ms'] / case['vectorized_ms']:.2f}x"
                if case["vectorized_ms"]
                else "-"
            ),
        )
        for case in comparison.per_case
    ]
    rows.append(
        (
            "sweep (best of %d)" % PASSES,
            "",
            "",
            f"{comparison.reference_seconds * 1000:.1f}",
            f"{comparison.vectorized_seconds * 1000:.1f}",
            f"{comparison.speedup:.2f}x",
        )
    )
    d12 = comparison.d12
    rows.append(
        (
            f"{d12['qid']} end-to-end",
            d12["expansions"],
            d12["matches"],
            f"{d12['reference_ms']:.1f}",
            f"{d12['vectorized_ms']:.1f}",
            f"{d12['speedup']:.2f}x",
        )
    )
    emit(
        "astar_kernel",
        format_table(
            ("case", "expansions", "matches", "reference (ms)",
             "vectorized (ms)", "speedup"),
            rows,
            title=(
                "Array-backed A* search kernel vs reference — "
                f"{comparison.num_cases} (query, policy) drains + one "
                "end-to-end engine query"
            ),
        ),
    )
    emit_json("BENCH_astar_kernel", comparison.to_json())

    # Claim 1: identical decisions on every case and on the engine query.
    assert comparison.equivalent, comparison.mismatches[:5]
    assert d12["equivalent"], d12["mismatch"]
    # Claim 2: the kernel wins the expansion-loop sweep by ≥2x.
    assert comparison.speedup >= MIN_SPEEDUP, (
        f"vectorized search kernel speedup {comparison.speedup:.2f}x "
        f"below the {MIN_SPEEDUP:.0f}x target"
    )
    # Claim 3: the end-to-end search-bound query gets faster too.
    assert d12["vectorized_ms"] < d12["reference_ms"], d12

    # Steady-state latency of the expansion-heaviest engine query.
    from repro.core.engine import SemanticGraphQueryEngine

    engine = SemanticGraphQueryEngine(
        dbpedia_bundle.kg,
        dbpedia_bundle.space,
        dbpedia_bundle.library,
    )
    item = next(
        (q for q in dbpedia_bundle.workload if q.qid == d12["qid"]),
        dbpedia_bundle.workload[0],
    )
    benchmark(lambda: engine.search(item.query, k=10))
