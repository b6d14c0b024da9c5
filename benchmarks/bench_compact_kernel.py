"""Compact CSR kernel vs lazy semantic-graph view — cold top-k speedup.

Not a figure from the paper: the paper's construction is the lazy view;
this bench measures the numpy-backed kernel the reproduction adds
(`src/repro/kg/compact.py` + `src/repro/core/compact_view.py`).  Claims
verified on the Fig. 12-style synthetic workload:

1. **Byte-identical results** — every benchmarked query returns the same
   top-k matches under both kernels: pivots, bit-equal scores and pss,
   equal paths.  Vectorisation changes cost, never answers.
2. **Cold speedup** — a full uncached workload sweep is faster on the
   compact kernel (CSR slices + one weight-row matvec per query
   predicate + vectorized segment-max `m(u)` bounds, vs per-edge dict
   probes and per-node Python scans).

Emits ``benchmarks/results/BENCH_compact_kernel.json`` for CI and the
README's performance numbers.
"""

from __future__ import annotations

from repro.bench.compactbench import compare_kernels
from repro.bench.reporting import emit, emit_json, format_table
from repro.core.engine import SemanticGraphQueryEngine

from conftest import BENCH_SCALE  # noqa: F401 (fixture module import idiom)

K = 10
PASSES = 3


def test_compact_kernel_equivalence_and_speedup(dbpedia_bundle, benchmark):
    bundle = dbpedia_bundle
    comparison = compare_kernels(bundle, k=K, passes=PASSES, scale=BENCH_SCALE)

    rows = [
        (
            q["qid"],
            q["matches"],
            f"{q['lazy_ms']:.2f}",
            f"{q['compact_ms']:.2f}",
            f"{q['lazy_ms'] / q['compact_ms']:.2f}x" if q["compact_ms"] else "-",
        )
        for q in comparison.per_query
    ]
    rows.append(
        (
            "sweep (best of %d)" % PASSES,
            "",
            f"{comparison.lazy_seconds * 1000:.1f}",
            f"{comparison.compact_seconds * 1000:.1f}",
            f"{comparison.speedup:.2f}x",
        )
    )
    rows.append(("freeze (once)", "", "", f"{comparison.freeze_seconds * 1000:.1f}", ""))
    emit(
        "compact_kernel",
        format_table(
            ("query", "matches", "lazy (ms)", "compact (ms)", "speedup"),
            rows,
            title=(
                "Compact CSR kernel vs lazy view — cold top-k, "
                f"{comparison.num_queries} queries, k={K}, "
                f"{comparison.num_entities} entities / {comparison.num_edges} edges"
            ),
        ),
    )
    emit_json("BENCH_compact_kernel", comparison.to_json())

    # Claim 1: byte-identical top-k on every benchmarked query.
    assert comparison.equivalent, comparison.mismatches[:5]
    # Claim 2: the compact kernel wins the cold sweep outright.
    assert comparison.compact_seconds < comparison.lazy_seconds, (
        f"compact {comparison.compact_seconds:.3f}s not faster than "
        f"lazy {comparison.lazy_seconds:.3f}s"
    )

    # Steady-state single-query latency on the compact kernel (shared
    # frozen graph, fresh view per call — the serving cold path).
    engine = SemanticGraphQueryEngine(bundle.kg, bundle.space, bundle.library)
    query = bundle.workload[0].query
    engine.search(query, k=K)  # freeze + matcher warm-up outside the timer
    benchmark(lambda: engine.search(query, k=K))
