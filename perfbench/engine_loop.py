"""The engine-direct workloads: ``sgq-paper`` and ``tbq-scale16``.

One caller, closed loop: each query is sent when the previous one has
returned.  Engines are built with library defaults only.  Every pass
runs the workload's queries in a seeded order; passes repeat until the
run's seconds are spent (and at least :data:`MIN_PASSES` have run, so
the latency tail is always supported by enough samples).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from perfbench import inputs, measure, reference
from perfbench.metrics import zero_per_layer
from perfbench.trace import EngineShims, Tracer, stage_totals

#: 8 passes of 25 queries leave ten samples beyond the 95th percentile.
MIN_PASSES = 8
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

WORKLOADS = {
    "sgq-paper": {"scale": inputs.SGQ_SCALE, "time_bound": None},
    "tbq-scale16": {"scale": inputs.TBQ_SCALE, "time_bound": inputs.TBQ_TIME_BOUND},
}


def reference_inputs(workload: str) -> dict:
    """What a checked-in reference for ``workload`` was recorded against."""
    return {
        "presets": list(inputs.PRESETS),
        "graph_seed": inputs.PAPER_GRAPH_SEED,
        "space_seed": inputs.SPACE_SEED,
        "scale": WORKLOADS[workload]["scale"],
        "k": inputs.K,
    }


@dataclass
class Item:
    """One query of the workload, bound to its preset's engine."""

    preset: str
    qid: str
    query: object
    engine: object
    exact: reference.Answers


@dataclass
class Call:
    """One measured engine call."""

    item: Item
    latency: float
    result: object


def build_engines(scale: float):
    """Timed set-up: three graphs, spaces, libraries and default engines."""
    from repro.core.engine import SemanticGraphQueryEngine

    graphs = [inputs.build_preset_graph(p, scale) for p in inputs.PRESETS]
    engines = {
        g.preset: SemanticGraphQueryEngine(g.kg, g.space, g.library) for g in graphs
    }
    return graphs, engines


def timed_setup(build, repeats: int) -> tuple:
    """Run ``build`` ``repeats`` times; keep the last, report every time.

    The previous build is dropped and collected before the next starts,
    so repeating the set-up does not raise the memory high-water mark.
    """
    times: List[float] = []
    built = None
    for _ in range(repeats):
        built = None
        gc.collect()
        started = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - started)
    return built, times


def run_call(item: Item, time_bound: Optional[float]):
    if time_bound is None:
        return item.engine.search(item.query, k=inputs.K)
    return item.engine.search_time_bounded(item.query, k=inputs.K, time_bound=time_bound)


def run_passes(items: Sequence[Item], orders, time_bound, seconds: float,
               min_passes: int) -> tuple:
    """Closed-loop passes until ``seconds`` are spent and at least
    ``min_passes`` ran; returns the calls, the wall time and the passes.

    After ``min_passes``, a pass starts only if half of a mean pass still
    fits before the deadline, so a run overshoots its seconds by no more
    than it falls short on average.
    """
    calls: List[Call] = []
    started = time.perf_counter()
    deadline = started + seconds
    passes = 0
    while passes < min_passes or (
        time.perf_counter() + (time.perf_counter() - started) / passes / 2 < deadline
    ):
        for index in orders[passes % len(orders)]:
            item = items[index]
            t0 = time.perf_counter()
            result = run_call(item, time_bound)
            calls.append(Call(item, time.perf_counter() - t0, result))
        passes += 1
    return calls, time.perf_counter() - started, passes


def check_calls(calls: Sequence[Call], time_bound, outcomes: measure.Outcomes) -> List[float]:
    """Check every answer; fill ``outcomes``; return per-call recall."""
    recalls: List[float] = []
    for call in calls:
        got = reference.answers_of(call.result)
        if time_bound is None:
            problem = reference.exact_mismatch(got, call.item.exact)
        else:
            problem = reference.tbq_violation(got, inputs.K, call.item.exact)
        if problem is not None:
            outcomes.failure(f"{call.item.qid}: {problem}")
            continue
        outcomes.success(call.latency)
        recalls.append(reference.recall(got, call.item.exact))
    return recalls


def engine_counters(calls: Sequence[Call], time_bound) -> Dict[str, float]:
    """Per-query means of the engine's own counters."""
    n = len(calls)
    totals: Dict[str, float] = {}

    def add(name, value):
        totals[name] = totals.get(name, 0.0) + value

    for call in calls:
        result = call.result
        stats = result.subquery_stats
        for s in stats:
            add("core.expansions", s.expansions)
            add("core.states_generated", s.states_generated)
            add("core.pruned_tau", s.pruned_by_tau)
            add("core.pruned_visited", s.pruned_by_visited)
            add("core.stale_pops", s.stale_pops)
            add("core.goals_emitted", s.goals_emitted)
        if stats:
            # The engine stamps the shared view's totals on every search.
            add("core.edges_weighted", stats[0].edges_weighted)
            add("core.nodes_touched", stats[0].nodes_touched)
        add("core.ta_rounds", result.ta_rounds)
        add("core.ta_accesses", result.ta_accesses)
        add("core.ta_truncated", 1 if result.ta_truncated else 0)
        if time_bound is not None:
            add("core.overrun_ms", max(result.elapsed_seconds - time_bound, 0.0) * 1e3)
    means = {name: value / n for name, value in totals.items()}
    goals = totals.get("core.goals_emitted", 0.0)
    means["core.expansions_per_goal"] = (
        totals.get("core.expansions", 0.0) / goals if goals else 0.0
    )
    return means


def space_rows(graphs) -> tuple:
    hits = misses = 0
    for graph in graphs:
        stats = graph.space.stats()
        hits += stats.hits
        misses += stats.misses
    return hits, misses


def traced_passes(items, orders, time_bound, seconds, engines):
    """The traced half of a trace run: shims on, spans kept in memory."""
    tracer = Tracer()
    calls: List[Call] = []
    with EngineShims(tracer, engines.values()):
        started = time.perf_counter()
        deadline = started + seconds
        passes = 0
        request = 0
        while passes < 2 or time.perf_counter() < deadline:
            for index in orders[passes % len(orders)]:
                item = items[index]
                request += 1
                t0 = time.perf_counter()
                root = tracer.open_request(request, t0)
                try:
                    result = run_call(item, time_bound)
                finally:
                    t1 = time.perf_counter()
                    tracer.leave_request(root)
                    tracer.close_request(root, t1)
                calls.append(Call(item, t1 - t0, result))
            passes += 1
        wall = time.perf_counter() - started
    return tracer, calls, wall, passes


def stage_metrics(tracer: Tracer, requests: int) -> Dict[str, float]:
    """Per-query mean self time per stage, plus the uncovered share."""
    stages = stage_totals(tracer.spans)

    def per_query_ms(stage: str) -> float:
        return stages.get(stage, {}).get("self", 0.0) / requests * 1e3

    root = stages.get("request", {"self": 0.0, "busy": 0.0})
    return {
        "query.decompose_ms": per_query_ms("decompose"),
        "query.decompose_calls": stages.get("decompose", {}).get("calls", 0) / requests,
        "core.materialize_ms": per_query_ms("materialize"),
        "core.search_ms": per_query_ms("search"),
        "core.assemble_ms": per_query_ms("assemble"),
        "core.coordinate_ms": per_query_ms("coordinate"),
        "bench.trace_uncovered_share": (
            root["self"] / root["busy"] if root["busy"] else 0.0
        ),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    """Run one engine-direct workload; returns the result record."""
    spec = WORKLOADS[workload]
    scale, time_bound = spec["scale"], spec["time_bound"]
    ref = reference.load(workload)
    reference.require_inputs(ref, reference_inputs(workload), workload)
    qids = {preset: list(ref["answers"][preset]) for preset in inputs.PRESETS}
    queries = {p: inputs.paper_queries(p, qids[p]) for p in inputs.PRESETS}

    def build():
        graphs, engines = build_engines(scale)
        # One call per engine builds the lazy matcher indexes and fills
        # the predicate-space rows, as any long-lived caller would.
        for preset, engine in engines.items():
            run_call(Item(preset, "", queries[preset][0].query, engine, []), time_bound)
        return graphs, engines

    (graphs, engines), setup_times = timed_setup(build, SETUP_REPEATS)
    items = [
        Item(preset, q.qid, q.query, engines[preset], ref["answers"][preset][q.qid])
        for preset in inputs.PRESETS
        for q in queries[preset]
    ]
    orders = inputs.pass_orders(seed, len(items), 64)

    record: dict = {
        "setup_s_each": setup_times,
        "engine_defaults": inputs.engine_defaults(
            engines[inputs.PRESETS[0]], queries[inputs.PRESETS[0]][0].query
        ),
        "graphs": {
            g.preset: {"entities": g.kg.num_entities, "edges": g.kg.num_edges}
            for g in graphs
        },
        "queries": len(items),
    }
    outcomes = measure.Outcomes()
    if not trace:
        calls, wall, passes = run_passes(items, orders, time_bound, seconds, MIN_PASSES)
        recalls = check_calls(calls, time_bound, outcomes)
        record.update(passes=passes, wall_s=wall)
        record["latency_ms_by_query"] = latency_by_query(calls)
        record["metrics"] = end_to_end(outcomes, recalls, calls, wall, setup_times)
        record["extra"] = workload_extras(workload, outcomes, calls, graphs, queries,
                                          time_bound)
        return finish(record, outcomes)

    # Trace run: an untraced half, then a traced half over the same orders.
    half = seconds / 2.0
    plain, plain_wall, plain_passes = run_passes(items, orders, time_bound, half, 2)
    rows_before = space_rows(graphs)
    tracer, traced, traced_wall, traced_passes_n = traced_passes(
        items, orders, time_bound, half, engines
    )
    rows_after = space_rows(graphs)
    check_calls(plain, time_bound, outcomes)
    check_calls(traced, time_bound, outcomes)
    if time_bound is None:
        plain_answers = {c.item.qid: reference.answers_of(c.result) for c in plain}
        for call in traced:
            want = plain_answers.get(call.item.qid)
            if want is not None and reference.answers_of(call.result) != want:
                outcomes.failure(f"{call.item.qid}: traced answer differs from untraced")
    n = len(traced)
    per_layer = zero_per_layer()
    per_layer.update(engine_counters(traced, time_bound))
    per_layer.update(stage_metrics(tracer, n))
    for name, metric in (("pivot_cost", "query.pivot_cost"),
                         ("harvested", "core.harvested")):
        values = tracer.observed.get(name)
        per_layer[metric] = statistics.fmean(values) if values else 0.0
    per_layer["embedding.space_row_hits"] = (rows_after[0] - rows_before[0]) / n
    per_layer["embedding.space_row_misses"] = (rows_after[1] - rows_before[1]) / n
    plain_mean = plain_wall / len(plain)
    traced_mean = traced_wall / n
    per_layer["bench.trace_overhead_share"] = traced_mean / plain_mean - 1.0
    record.update(passes=plain_passes + traced_passes_n, spans=len(tracer.spans))
    record["per_layer"] = per_layer
    if out_dir is not None:
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.npz")
    return finish(record, outcomes)


def latency_by_query(calls) -> Dict[str, List[float]]:
    by_qid: Dict[str, List[float]] = {}
    for call in calls:
        by_qid.setdefault(call.item.qid, []).append(call.latency * 1e3)
    return by_qid


def end_to_end(outcomes, recalls, calls, wall, setup_times) -> Dict[str, float]:
    lat_ms = [v * 1e3 for v in outcomes.latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "answered_share": 1.0 - outcomes.failed_share,
        "latency_p50_ms": measure.fixed_percentile(lat_ms, 0.5) if lat_ms else 0.0,
        "latency_p95_ms": measure.fixed_percentile(lat_ms, 0.95) if lat_ms else 0.0,
        "throughput_qps": len(calls) / wall,
        "recall_at_k": statistics.fmean(recalls) if recalls else 0.0,
    }


def workload_extras(workload, outcomes, calls, graphs, queries, time_bound) -> dict:
    """Workload-specific figures recorded beside the gated metrics."""
    lat_ms = [v * 1e3 for v in outcomes.latencies]
    tail = measure.tail(lat_ms, cap=0.99)
    extra = {
        "failed_share": outcomes.failed_share,
        "errors": outcomes.errors,
        "latency_tail_ms": tail.to_json() if tail else None,
    }
    if workload == "sgq-paper":
        extra["precision_at_k"] = precision_at_k(calls, graphs, queries)
    else:
        ratios = [c.result.elapsed_seconds / time_bound for c in calls]
        extra["tbq_bound_ratio_p50"] = measure.harrell_davis(ratios, 0.5)
        ratio_tail = measure.tail(ratios, cap=0.95)
        extra["tbq_bound_ratio_tail"] = ratio_tail.to_json() if ratio_tail else None
    return extra


def precision_at_k(calls, graphs, queries) -> float:
    """Mean share of each answer inside its query's validation set."""
    from repro.bench.groundtruth import compute_truth

    by_preset = {g.preset: g for g in graphs}
    truth = {}
    for preset, qs in queries.items():
        for q in qs:
            truth[q.qid] = compute_truth(by_preset[preset].kg, q)
    return statistics.fmean(
        reference.precision(reference.answers_of(c.result), truth[c.item.qid])
        for c in calls
    )


def finish(record: dict, outcomes: measure.Outcomes) -> dict:
    record["attempted"] = outcomes.attempted
    record["failed"] = outcomes.failed
    record["correct"] = outcomes.failed == 0
    record["problems"] = sorted(outcomes.errors)
    return record
