"""The ``serve-zipf`` workload: open-loop Zipf traffic against the service.

The run opens with a burst: a fixed request sequence (drawn from the
pinned population's seed, so every run does the same work) sent
closed-loop, a fixed number outstanding per worker, into the cold answer
cache.  Its completion rate is the service's throughput on that fixed
work, and it leaves the cache as warm as a steady stream would.  Then one
generator thread sends requests at seeded Poisson arrival times, never
waiting for replies, through a fixed ladder of rates.  Latency is timed
from each request's *scheduled* send, so a stall in the service (or in
the generator) shows up as latency of every request it delays; how late
the generator itself ran is reported as its own figure.

The service is built with library defaults except the three serving
settings the benchmark chooses: ``backend="process"``,
``workers=nproc`` and an answer cache at least as large as the
population, so every miss is a first sighting fixed by the seed.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import inputs, measure, reference
from perfbench.metrics import zero_per_layer
from perfbench.trace import ServeShims, Tracer, stage_totals

ANSWER_CACHE = 1024
#: Set-ups per run (a set-up takes about half a second); ``setup_s`` is
#: their median.
SETUP_REPEATS = 5
#: Requests of the opening burst per second of the run: enough that the
#: ladder meets a cache near its steady hit share.  At the 130-140
#: requests/s a 2-vCPU host completes, the burst takes a third of the run.
BURST_PER_SECOND = 45
#: Requests kept outstanding per worker during the burst.
OUTSTANDING_PER_WORKER = 4
#: The open-loop ladder: (label, offered requests per second, share of
#: the run's seconds), in the order run.  With the burst, the phases
#: fill the run's seconds.
LADDER = (("r50", 50.0, 0.35), ("r100", 100.0, 0.15), ("r200", 200.0, 0.15))
#: Share of the run's seconds the open-loop phases take.
LADDER_SHARE = sum(share for _label, _rate, share in LADDER)
#: Of that share, a trace run spends this much on an untraced 50/s rung
#: and the rest on the traced ladder.
UNTRACED_SHARE = 0.2
#: Requests a rung is long enough to expect however short the run, so its
#: p95 always has ten samples beyond it.
MIN_RUNG_REQUESTS = 300
#: Latency limit of the max-rate ladder.
LATENCY_LIMIT_S = 0.5
#: Longest wait for a phase's outstanding requests to resolve.
DRAIN_TIMEOUT_S = 60.0


def reference_inputs() -> dict:
    return {
        "domain": inputs.SERVE_DOMAIN,
        "graph_seed": inputs.SERVE_GRAPH_SEED,
        "space_seed": inputs.SPACE_SEED,
        "scale": inputs.SERVE_SCALE,
        "scenario_seed": inputs.SCENARIO_SEED,
        "intent_count": inputs.SERVE_INTENT_COUNT,
        "augment": [0.25, 0.25, 0.8],
        "k": inputs.K,
    }


def build_resources(workload):
    from repro.scenarios.replay import build_resources as build

    return build(workload)


def workers() -> int:
    return os.cpu_count() or 1


def build_service(resources):
    """The served configuration: library defaults plus the three settings."""
    from repro.serve.service import QueryService

    return QueryService.build(
        resources.kg, resources.space, resources.library, resources.config,
        backend="process", workers=workers(), answer_cache=ANSWER_CACHE,
    )


@dataclass
class Sent:
    """One request as the generator sent it."""

    item: inputs.ServeItem
    scheduled: float
    sent: float
    returned: float = 0.0
    done: float = 0.0
    result: object = None
    error: Optional[str] = None
    hit: bool = False
    root: object = None


@dataclass
class PhaseLog:
    """Everything one phase sent, with the backlog seen at each send."""

    label: str
    rate: float  # 0 for the closed-loop phase
    sent: List[Sent] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)
    backlog_at_end: int = 0
    window: tuple = (0.0, 0.0)


class Generator:
    """One sending thread; completions arrive by future callbacks."""

    def __init__(self, service, items, order, tracer: Optional[Tracer] = None,
                 position: int = 0):
        self.service = service
        self.items = items
        self.order = order
        self.position = position
        self.tracer = tracer
        self._lock = threading.Lock()
        self._outstanding = 0
        self._idle = threading.Condition(self._lock)
        self.queue_depth_max = 0

    def _complete(self, sent: Sent, future, release) -> None:
        done = time.perf_counter()
        try:
            sent.result = future.result()
        except Exception as exc:  # recorded as a failure of this request
            sent.error = f"{type(exc).__name__}: {exc}"
        sent.done = done
        if self.tracer is not None and sent.root is not None:
            if not sent.hit:
                self.tracer.record(sent.root, "dispatch", sent.returned, done)
            self.tracer.close_request(sent.root, done)
        self._settle(release)

    def _settle(self, release) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._idle.notify_all()
        if release is not None:
            release()

    def _send(self, log: PhaseLog, scheduled: float, release=None) -> None:
        from repro.serve.service import QueryRequest

        item = self.items[self.order[self.position % len(self.order)]]
        self.position += 1
        request = QueryRequest(query=item.query, k=inputs.K, deadline=item.deadline,
                               tag=item.qid)
        with self._lock:
            self._outstanding += 1
            depth = self._outstanding
            self.queue_depth_max = max(self.queue_depth_max, depth)
        log.backlog.append(depth - 1)
        sent = Sent(item=item, scheduled=scheduled, sent=time.perf_counter())
        log.sent.append(sent)
        tracer = self.tracer
        if tracer is not None:
            sent.root = tracer.open_request(self.position, scheduled)
        try:
            future = self.service.submit_request(request)
        except Exception as exc:  # refused at submission
            sent.returned = sent.done = time.perf_counter()
            sent.error = f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.leave_request(sent.root)
                tracer.close_request(sent.root, sent.done)
            self._settle(release)
            return
        sent.returned = time.perf_counter()
        sent.hit = future.done()
        if tracer is not None:
            tracer.leave_request(sent.root)
        future.add_done_callback(lambda f: self._complete(sent, f, release))

    def _drain(self, log: PhaseLog) -> None:
        with self._lock:
            log.backlog_at_end = self._outstanding
            self._idle.wait_for(lambda: self._outstanding == 0,
                                timeout=DRAIN_TIMEOUT_S)
            if self._outstanding:
                raise RuntimeError(
                    f"{self._outstanding} requests still unresolved "
                    f"{DRAIN_TIMEOUT_S:g}s after phase {log.label}"
                )

    def open_phase(self, label: str, rate: float, offsets: List[float]) -> PhaseLog:
        """Send at ``offsets`` (seconds from now), then drain."""
        log = PhaseLog(label=label, rate=rate)
        base = time.perf_counter() + 0.005
        for offset in offsets:
            scheduled = base + offset
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._send(log, scheduled)
        log.window = (base, time.perf_counter())
        self._drain(log)
        return log

    def burst(self, label: str, outstanding: int, count: int) -> PhaseLog:
        """Send ``count`` requests keeping ``outstanding`` in flight; drain."""
        log = PhaseLog(label=label, rate=0.0)
        permits = threading.Semaphore(outstanding)
        start = time.perf_counter()
        for _ in range(count):
            permits.acquire()
            self._send(log, time.perf_counter(), permits.release)
        self._drain(log)
        log.window = (start, time.perf_counter())
        return log


def schedule(seed: int, seconds: float, phases) -> list:
    """``(label, rate, offsets)`` per open-loop phase, each its share long
    (or long enough for :data:`MIN_RUNG_REQUESTS`)."""
    return [
        (label, rate, inputs.poisson_offsets(
            seed, label, rate, max(seconds * share, MIN_RUNG_REQUESTS / rate)))
        for label, rate, share in phases
    ]


def run_open(generator: Generator, phases) -> List[PhaseLog]:
    return [generator.open_phase(label, rate, offsets)
            for label, rate, offsets in phases]


def check(logs: List[PhaseLog], refs: Dict[str, reference.Answers]):
    """Check every answer; per-phase outcomes and per-phase recalls."""
    outcomes: Dict[str, measure.Outcomes] = {}
    recalls: Dict[str, List[float]] = {}
    for log in logs:
        phase = outcomes[log.label] = measure.Outcomes()
        phase_recalls = recalls[log.label] = []
        for sent in log.sent:
            if sent.error is not None:
                phase.failure(sent.error)
                continue
            got = reference.answers_of(sent.result)
            exact = refs[sent.item.qid]
            if sent.item.deadline is None:
                problem = reference.exact_mismatch(got, exact)
            else:
                problem = reference.tbq_violation(got, inputs.K, exact)
            if problem is not None:
                phase.failure(f"{sent.item.qid}: {problem}")
                continue
            phase.success(sent.done - sent.scheduled)
            phase_recalls.append(reference.recall(got, exact))
    return outcomes, recalls


def stats_start(service):
    """Rebase the worker statistics; returns the service counters now."""
    service.reset_serving_stats()
    return service.stats_snapshot()


def stats_delta(service, before) -> dict:
    """Counters and worker statistics since :func:`stats_start`."""
    after = service.stats_snapshot()
    serving = service.serving_stats()
    cache = serving.cache
    return {
        "answer_hits": after.answer_hits - before.answer_hits,
        "answer_misses": after.answer_misses - before.answer_misses,
        "singleflight_collapsed": after.singleflight_collapsed - before.singleflight_collapsed,
        "answer_evictions": after.answer_evictions - before.answer_evictions,
        "memo_hit_ratio": serving.memo_hit_rate,
        "weight_cache_hit_ratio": cache.hits / cache.lookups if cache.lookups else 0.0,
        "space_row_hits": serving.space.hits,
        "space_row_misses": serving.space.misses,
        "worker_rss_kb": sum(s.max_rss_kb for s in service.worker_snapshots()),
        "workers_reporting": serving.workers_reporting,
    }


def timed_setup(workload, repeats: int):
    """Set up ``repeats`` times (closing all but the last service)."""
    setup_times: List[float] = []
    warmup_times: List[float] = []
    service = resources = None
    try:
        for _ in range(repeats):
            if service is not None:
                service.close()
            service = resources = None
            gc.collect()
            started = time.perf_counter()
            resources = build_resources(workload)
            service = build_service(resources)
            warm_started = time.perf_counter()
            service.warmup()
            done = time.perf_counter()
            setup_times.append(done - started)
            warmup_times.append(done - warm_started)
    except BaseException:
        if service is not None:
            service.close()
        raise
    return service, resources, setup_times, warmup_times


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    from repro.core.engine import SemanticGraphQueryEngine

    refs = reference.load("serve-zipf")
    reference.require_inputs(refs, reference_inputs(), "serve-zipf")
    workload = inputs.scenario_workload()
    items = inputs.serve_items(workload)
    order = inputs.zipf_sequence(seed, items, inputs.SERVE_SEQUENCE_LENGTH)
    service, resources, setup_times, warmup_times = timed_setup(workload, SETUP_REPEATS)
    try:
        record = {
            "setup_s_each": setup_times,
            "warmup_s_each": warmup_times,
            "engine_defaults": inputs.engine_defaults(
                SemanticGraphQueryEngine(resources.kg, resources.space,
                                         resources.library, resources.config),
                items[0].query,
            ),
            "service": {"backend": "process", "workers": workers(),
                        "answer_cache": ANSWER_CACHE},
            "population": len(items),
            "graph": {"entities": resources.kg.num_entities,
                      "edges": resources.kg.num_edges},
        }
        traffic = (run_traced if trace else run_plain)(service, items, order,
                                                        seed, seconds)
    finally:
        service.close()

    logs: List[PhaseLog] = traffic["logs"]
    outcomes, recalls = check(logs, refs["answers"])
    total = measure.Outcomes()
    for phase in outcomes.values():
        total.merge(phase)
    record["stats"] = traffic["stats"]
    record["worker_rss_kb"] = traffic["stats"]["worker_rss_kb"]
    record["extra"] = extras(logs, outcomes, total)
    if trace:
        record["per_layer"] = traced_metrics(record, traffic, logs)
        traffic["tracer"].write(out_dir / f"spans-serve-zipf-seed{seed}.npz")
    else:
        open_recalls = [r for log in logs if log.rate for r in recalls[log.label]]
        r50 = [v * 1e3 for v in outcomes["r50"].latencies]
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "answered_share": 1.0 - total.failed_share,
            "latency_p50_ms": measure.fixed_percentile(r50, 0.5),
            "latency_p95_ms": measure.fixed_percentile(r50, 0.95),
            "throughput_qps": window_rate(logs[0]),
            "recall_at_k": statistics.fmean(open_recalls),
        }
    record["attempted"] = total.attempted
    record["failed"] = total.failed
    record["correct"] = total.failed == 0
    record["problems"] = sorted(total.errors)
    return record


def open_burst(service, items, seconds: float) -> PhaseLog:
    """The opening burst, the same requests in every run."""
    count = int(BURST_PER_SECOND * seconds)
    order = inputs.zipf_sequence(inputs.SCENARIO_SEED, items, count)
    return Generator(service, items, order).burst(
        "burst", OUTSTANDING_PER_WORKER * workers(), count)


def run_plain(service, items, order, seed, seconds) -> dict:
    before = stats_start(service)
    logs = [open_burst(service, items, seconds)]
    generator = Generator(service, items, order)
    logs += run_open(generator, schedule(seed, seconds, LADDER))
    return {"logs": logs, "stats": stats_delta(service, before),
            "queue_depth_max": generator.queue_depth_max}


def run_traced(service, items, order, seed, seconds) -> dict:
    """Burst and an untraced r50 rung, then the ladder traced."""
    untraced = [open_burst(service, items, seconds)]
    generator = Generator(service, items, order)
    untraced += run_open(generator, schedule(
        seed, seconds, (("r50-untraced", 50.0, UNTRACED_SHARE),)))
    before = stats_start(service)
    tracer = Tracer()
    traced_generator = Generator(service, items, order, tracer, generator.position)
    scale = (LADDER_SHARE - UNTRACED_SHARE) / LADDER_SHARE
    ladder = tuple((label, rate, share * scale) for label, rate, share in LADDER)
    with ServeShims(tracer):
        traced = run_open(traced_generator, schedule(seed, seconds, ladder))
    return {"logs": untraced + traced, "untraced": untraced[-1], "traced": traced,
            "tracer": tracer, "stats": stats_delta(service, before),
            "queue_depth_max": traced_generator.queue_depth_max}


def window_rate(log: PhaseLog) -> float:
    """Requests answered per second over the phase's window."""
    start, end = log.window
    return sum(1 for s in log.sent if s.error is None) / (end - start)


def extras(logs: List[PhaseLog], outcomes, total: measure.Outcomes) -> dict:
    """Workload-specific figures recorded beside the gated metrics."""
    ladder = [log for log in logs if log.label in {label for label, _r, _s in LADDER}]
    rungs = [
        measure.Rung(rate=log.rate, outcomes=outcomes[log.label],
                     backlog=tuple(log.backlog), backlog_at_end=log.backlog_at_end)
        for log in ladder
    ]
    lags_ms = [(s.sent - s.scheduled) * 1e3 for log in logs if log.rate for s in log.sent]
    lag_tail = measure.tail(lags_ms, cap=0.99)
    phases = []
    for log in logs:
        lat_ms = [v * 1e3 for v in outcomes[log.label].latencies]
        tail = measure.tail(lat_ms, cap=0.99)
        phases.append({
            "label": log.label,
            "rate": log.rate,
            "attempted": outcomes[log.label].attempted,
            "failed": outcomes[log.label].failed,
            "hits": sum(1 for s in log.sent if s.hit),
            "p50_ms": measure.harrell_davis(lat_ms, 0.5) if lat_ms else None,
            "tail_ms": tail.to_json() if tail else None,
            "backlog_at_end": log.backlog_at_end,
            "window_qps": window_rate(log),
        })
    return {
        "failed_share": total.failed_share,
        "errors": total.errors,
        "max_rate_qps": measure.max_rate(rungs, LATENCY_LIMIT_S),
        "rung_passes": {log.label: measure.rung_passes(rung, LATENCY_LIMIT_S)
                        for log, rung in zip(ladder, rungs)},
        "generator_lag_ms": lag_tail.to_json() if lag_tail else None,
        "phases": phases,
    }


def hit_submit_ms(logs: List[PhaseLog]) -> float:
    values = [(s.returned - s.sent) * 1e3 for log in logs for s in log.sent
              if s.hit and s.error is None]
    return statistics.median(values) if values else 0.0


def traced_metrics(record, traffic, logs) -> Dict[str, float]:
    tracer: Tracer = traffic["tracer"]
    traced: List[PhaseLog] = traffic["traced"]
    stats = traffic["stats"]
    stages = stage_totals(tracer.spans)
    root = stages.get("request", {"self": 0.0, "busy": 0.0})
    sent = [s for log in traced for s in log.sent if s.error is None]
    misses = [s for s in sent if not s.hit]
    n = len(sent)
    lookups = stats["answer_hits"] + stats["answer_misses"]
    lags_ms = [(s.sent - s.scheduled) * 1e3 for log in logs if log.rate for s in log.sent]
    lag_tail = measure.tail(lags_ms, cap=0.99)
    untraced_ms = hit_submit_ms([traffic["untraced"]])
    per_layer = zero_per_layer()
    per_layer.update({
        "serve.submit_ms": (
            stages.get("submit", {}).get("busy", 0.0) / n * 1e3 if n else 0.0
        ),
        "serve.answer_hit_ratio": stats["answer_hits"] / lookups if lookups else 0.0,
        "serve.singleflight_collapsed": stats["singleflight_collapsed"],
        "serve.answer_evictions": stats["answer_evictions"],
        "serve.dispatch_overhead_ms": statistics.fmean(
            (s.done - s.returned - s.result.elapsed_seconds) * 1e3 for s in misses
        ) if misses else 0.0,
        "serve.worker_ms": statistics.fmean(
            s.result.elapsed_seconds * 1e3 for s in misses
        ) if misses else 0.0,
        "serve.queue_depth_max": traffic["queue_depth_max"],
        "serve.memo_hit_ratio": stats["memo_hit_ratio"],
        "serve.weight_cache_hit_ratio": stats["weight_cache_hit_ratio"],
        "serve.warmup_s": statistics.median(record["warmup_s_each"]),
        "embedding.space_row_hits": stats["space_row_hits"] / max(len(misses), 1),
        "embedding.space_row_misses": stats["space_row_misses"] / max(len(misses), 1),
        "bench.generator_lag_p99_ms": lag_tail.value if lag_tail else 0.0,
        "bench.trace_overhead_share": (
            hit_submit_ms(traced) / untraced_ms - 1.0 if untraced_ms else 0.0
        ),
        "bench.trace_uncovered_share": (
            root["self"] / root["busy"] if root["busy"] else 0.0
        ),
    })
    if misses:
        per_layer.update(payload_counters(misses))
    record["spans"] = len(tracer.spans)
    return per_layer


def payload_counters(misses: List[Sent]) -> Dict[str, float]:
    """Engine counters of executed requests, from the worker payloads."""
    from perfbench.engine_loop import Call, engine_counters

    calls = [Call(s.item, s.done - s.scheduled, s.result) for s in misses]
    counters = engine_counters(calls, None)
    bounded = [s.result for s in misses if s.result.time_bound is not None]
    counters["core.overrun_ms"] = statistics.fmean(
        max(r.elapsed_seconds - r.time_bound, 0.0) * 1e3 for r in bounded
    ) if bounded else 0.0
    counters["core.search_ms"] = statistics.fmean(
        s.result.search_seconds * 1e3 for s in misses)
    counters["core.assemble_ms"] = statistics.fmean(
        s.result.assembly_seconds * 1e3 for s in misses)
    return counters
