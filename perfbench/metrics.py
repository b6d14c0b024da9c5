"""Metric definitions: the single list ``BENCHMARK.json`` must mirror.

End-to-end metrics are measured with tracing off and reported on every
workload; their meaning per workload is given in ``README.md``.
Per-layer metrics come from the traced run; a layer a workload does not
exercise reports 0.
"""

from __future__ import annotations

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("answered_share", "share", "higher", 0.05),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("recall_at_k", "share", "higher", 0.1),
)

SGQ = "latency_p50_ms on sgq-paper"
# (name, unit, better, the end-to-end metric it should move)
PER_LAYER = (
    ("query.decompose_ms", "ms", "lower",
     f"{SGQ}; near zero on serve-zipf, where the memo absorbs it"),
    ("query.decompose_calls", "count", "lower", SGQ),
    ("query.pivot_cost", "cost", "lower", SGQ),
    ("embedding.space_row_hits", "count", "higher", f"{SGQ}, and setup_s"),
    ("embedding.space_row_misses", "count", "lower", f"{SGQ}, and setup_s"),
    ("core.materialize_ms", "ms", "lower",
     "latency_p50_ms and latency_p95_ms on sgq-paper; small on serve-zipf"),
    ("core.edges_weighted", "count", "lower", "latency_p50_ms on sgq-paper"),
    ("core.nodes_touched", "count", "lower", "latency_p50_ms on sgq-paper"),
    ("core.search_ms", "ms", "lower",
     "latency_p95_ms, throughput_qps on sgq-paper; recall_at_k on tbq-scale16"),
    ("core.expansions", "count", "lower",
     "throughput_qps on sgq-paper; recall_at_k on tbq-scale16"),
    ("core.states_generated", "count", "lower", "throughput_qps on sgq-paper"),
    ("core.pruned_tau", "count", "higher", "throughput_qps on sgq-paper"),
    ("core.pruned_visited", "count", "higher", "throughput_qps on sgq-paper"),
    ("core.stale_pops", "count", "lower", "throughput_qps on sgq-paper"),
    ("core.goals_emitted", "count", "higher", "recall_at_k on tbq-scale16"),
    ("core.expansions_per_goal", "ratio", "lower",
     "latency_p95_ms on sgq-paper; recall_at_k on tbq-scale16"),
    ("core.assemble_ms", "ms", "lower",
     "latency_p95_ms on sgq-paper; near zero on tbq-scale16"),
    ("core.ta_rounds", "count", "lower", "latency_p95_ms on sgq-paper"),
    ("core.ta_accesses", "count", "lower", "latency_p95_ms on sgq-paper"),
    ("core.ta_truncated", "share", "lower", "recall_at_k on sgq-paper"),
    ("core.coordinate_ms", "ms", "lower", "latency_p95_ms on tbq-scale16"),
    ("core.harvested", "count", "higher", "recall_at_k on tbq-scale16"),
    ("core.overrun_ms", "ms", "lower", "latency_p95_ms on tbq-scale16"),
    ("serve.submit_ms", "ms", "lower",
     "latency_p50_ms on serve-zipf; absent on engine-direct workloads"),
    ("serve.answer_hit_ratio", "share", "higher", "latency_p50_ms on serve-zipf"),
    ("serve.singleflight_collapsed", "count", "higher",
     "latency_p95_ms on serve-zipf"),
    ("serve.answer_evictions", "count", "lower", "latency_p50_ms on serve-zipf"),
    ("serve.dispatch_overhead_ms", "ms", "lower",
     "latency_p95_ms and throughput_qps on serve-zipf"),
    ("serve.worker_ms", "ms", "lower", "throughput_qps on serve-zipf"),
    ("serve.queue_depth_max", "count", "lower", "throughput_qps on serve-zipf"),
    ("serve.memo_hit_ratio", "share", "higher", "throughput_qps on serve-zipf"),
    ("serve.weight_cache_hit_ratio", "share", "higher",
     "throughput_qps on serve-zipf"),
    ("serve.warmup_s", "s", "lower", "setup_s on serve-zipf"),
    ("bench.generator_lag_p99_ms", "ms", "lower",
     "none: measurement validity of serve-zipf"),
    ("bench.trace_overhead_share", "share", "lower",
     "none: measurement validity of the traced run"),
    ("bench.trace_uncovered_share", "share", "lower",
     "none: measurement validity of the traced run"),
)


def zero_per_layer() -> dict:
    """Every per-layer metric at 0, for a workload to fill in what it has."""
    return {row[0]: 0.0 for row in PER_LAYER}


def result_line(record: dict, trace: bool) -> dict:
    """The final JSON line: exactly the keys the benchmark contract names."""
    if trace:
        values = record["per_layer"]
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _better, _moves in PER_LAYER
        }
    else:
        values = record["metrics"]
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _better, _bound in END_TO_END
        }
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
