#!/usr/bin/env python
"""CI smoke gate for the execution backends and the serving paths.

Runs five result-equivalence gates on small fixed workloads and exits
non-zero **only** on a mismatch — the one property CI can judge on shared
runners.  Timing numbers are recorded in the artifacts but never gate the
build (CI machines are too noisy for that; the full-scale benches in
``benchmarks/`` assert the speedups on dedicated hardware).  The kernel
conformance checks against the reference oracles (lazy view, reference
TA, reference A*) are tier-1 tests (``tests/test_oracle_conformance.py``):

1. inline vs thread vs process vs process-shm serving backends
   (``repro.bench.parallelbench``: the workload replayed twice per
   backend on a 2-worker pool, process workers bootstrapped from the
   pickled EngineSpec — by value and by shared-memory graph handle) →
   ``benchmarks/results/BENCH_parallel_serving.json``;
2. the held-out scenario suite (``repro.scenarios``: the checked-in
   ``benchmarks/scenarios/held_out_v1.pkl`` workload replayed against
   its recorded golden answers — exact-query result-set equivalence
   plus per-intent p95 latency within the artifact's declared budget) →
   ``benchmarks/results/BENCH_scenarios.json``;
3. the shared-memory graph gate (``compare_shared_graph``: process
   backend with the graph shipped by value vs attached zero-copy from
   shared memory — bit-identical to inline, spec pickle reduced >= 10x,
   no ``/dev/shm`` segment leaked) →
   ``benchmarks/results/BENCH_shared_graph.json``;
4. the chaos gate (``repro.bench.chaosbench``: the held-out scenario
   replayed on a supervised process pool under a deterministic
   FaultPlan that SIGKILLs a worker mid-replay — the pool must rebuild
   in place, the recovered replay must print the fault-free exact-answer
   digest with zero failed requests, and no ``/dev/shm`` segment may
   survive) → ``benchmarks/results/BENCH_resilience.json``;
5. the answer-cache gate (``repro.bench.cachebench``: the held-out
   scenario resampled under a seeded Zipf popularity law and replayed
   with the result-level answer cache off and on, on the inline and
   process+shm backends — all four exact-answer digests must be equal,
   the hot hit rate must reach 0.5 and a p50 cache hit must be at
   least 5x faster than a p50 miss) →
   ``benchmarks/results/BENCH_answer_cache.json``.

Each gate is one row in the :data:`GATES` registry — a name, the
implementing module, the artifact stem, the floors it enforces, and a
runner returning a uniform :class:`GateResult` — so adding gate 6 is a
runner function plus one registry line; the emit/print/judge loop in
:func:`main` never changes.

Usage::

    python scripts/bench_smoke.py [--preset dbpedia] [--scale 1.0]
                                  [--seed 11] [--k 5] [--passes 2]

Run from the repository root; ``src/`` is put on ``sys.path``
automatically so no install step is required.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench.cachebench import run_cache_gate  # noqa: E402
from repro.bench.datasets import load_bundle  # noqa: E402
from repro.bench.chaosbench import run_chaos_gate  # noqa: E402
from repro.bench.parallelbench import (  # noqa: E402
    compare_backends,
    compare_shared_graph,
)
from repro.bench.reporting import emit_json  # noqa: E402
from repro.scenarios import (  # noqa: E402
    Workload,
    load_golden,
    run_scenario_gate,
)

SCENARIO_DIR = REPO / "benchmarks" / "scenarios"


# ----------------------------------------------------------------------
# gate registry machinery
# ----------------------------------------------------------------------

@dataclass
class GateContext:
    """Shared inputs every gate runner draws from (built once)."""

    args: argparse.Namespace
    bundle: object
    workload: Workload
    golden: dict


@dataclass
class GateResult:
    """What one gate produced, in the shape the main loop prints."""

    payload: dict
    passed: bool
    #: informational stdout lines (timings, digests — never gate).
    summary: List[str]
    #: the one-line verdict printed on success.
    ok: str
    #: stderr lines printed on failure (first line is the headline).
    failures: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Gate:
    """One registry row: what runs, where it lands, what it enforces."""

    name: str
    module: str
    artifact: str
    floors: str
    run: Callable[[GateContext], GateResult]


def _clip(problems, limit=10) -> List[str]:
    return [f"  {problem}" for problem in problems[:limit]]


# ----------------------------------------------------------------------
# gate runners
# ----------------------------------------------------------------------

def _gate_backends(ctx: GateContext) -> GateResult:
    args = ctx.args
    backends = compare_backends(
        ctx.bundle, k=args.k, workers=2, passes=args.passes
    )
    return GateResult(
        payload=backends.to_json(),
        passed=backends.equivalent,
        summary=[
            f"backends: inline {backends.seconds['inline'] * 1000:.1f} ms, "
            f"thread {backends.seconds['thread'] * 1000:.1f} ms, "
            f"process {backends.seconds['process'] * 1000:.1f} ms, "
            f"process-shm {backends.seconds['process-shm'] * 1000:.1f} ms "
            f"per pass "
            f"(process/thread {backends.process_speedup_vs_thread:.2f}x, "
            f"informational on {backends.cpu_count} core(s); "
            f"warmup {backends.process_warmup_seconds * 1000:.0f} ms, "
            f"{backends.process_workers_warmed} workers)"
        ],
        ok=(
            f"backend equivalence OK on all {backends.num_queries} queries "
            f"x {backends.passes} passes x (inline, thread, process, "
            f"process-shm)"
        ),
        failures=["RESULT MISMATCH between serving backends:"]
        + _clip(backends.mismatches),
    )


def _gate_scenarios(ctx: GateContext) -> GateResult:
    gate = run_scenario_gate(ctx.workload, ctx.golden)
    summary = [
        f"scenarios: {gate.workload} replayed on the {gate.backend} backend "
        f"({gate.num_queries} queries: {gate.exact_queries} exact, "
        f"{gate.deadline_requests} time-bounded); "
        f"digest {gate.digest.split(':', 1)[1][:12]}"
    ]
    for intent, row in sorted(gate.latency_ms.items()):
        budget = row.get("budget_p95_ms")
        budget_note = f" (budget {budget:.0f} ms)" if budget else ""
        summary.append(
            f"  {intent} (n={row['n']:.0f}): p50={row['p50_ms']:.1f} "
            f"p95={row['p95_ms']:.1f} ms{budget_note}"
        )
    failures: List[str] = []
    if not gate.equivalent:
        failures.append("GOLDEN-ANSWER MISMATCH on the held-out scenario "
                        "suite:")
        failures.extend(_clip(gate.mismatches))
    if not gate.budget_ok:
        failures.append("LATENCY BUDGET EXCEEDED on the held-out scenario "
                        "suite:")
        failures.extend(_clip(gate.budget_violations))
    return GateResult(
        payload=gate.to_json(),
        passed=gate.passed,
        summary=summary,
        ok=(
            f"scenario gate OK: golden equivalence on all "
            f"{gate.exact_queries} exact queries, all intent classes "
            f"within latency budget"
        ),
        failures=failures,
    )


def _gate_shared_graph(ctx: GateContext) -> GateResult:
    args = ctx.args
    shared = compare_shared_graph(
        ctx.bundle, k=args.k, workers=2, passes=args.passes
    )
    failures: List[str] = []
    if not shared.equivalent:
        failures.append("RESULT MISMATCH on the shared-memory graph path:")
        failures.extend(_clip(shared.mismatches))
    if shared.spec_pickle_reduction < 10.0:
        failures.append(
            f"SPEC PICKLE REDUCTION {shared.spec_pickle_reduction:.1f}x "
            "is below the 10x bar"
        )
    if shared.leaked:
        failures.append(f"LEAKED SHM SEGMENTS: {shared.leaked}")
    return GateResult(
        payload=shared.to_json(),
        passed=shared.passed,
        summary=[
            f"shared graph: spec pickle {shared.spec_bytes_arrays} B (arrays) "
            f"-> {shared.spec_bytes_handle} B (handle), "
            f"{shared.spec_pickle_reduction:.1f}x reduction; warmup "
            f"{shared.warmup_seconds_arrays * 1000:.0f} -> "
            f"{shared.warmup_seconds_handle * 1000:.0f} ms "
            f"({shared.workers_warmed_handle} workers)"
        ],
        ok=(
            f"shared-graph gate OK: bit-identical on all "
            f"{shared.num_queries} queries x {shared.passes} passes, "
            f"spec pickle reduced {shared.spec_pickle_reduction:.1f}x "
            f"(>= 10x), no leaked shm segments"
        ),
        failures=failures,
    )


def _gate_chaos(ctx: GateContext) -> GateResult:
    chaos = run_chaos_gate(ctx.workload, workers=2)
    r = chaos.resilience
    failures: List[str] = []
    if not chaos.equivalent:
        failures.append(
            "DIGEST MISMATCH under chaos: "
            f"fault-free {chaos.digest_fault_free} != "
            f"chaos {chaos.digest_chaos}"
        )
    if chaos.failed_requests:
        failures.append(
            f"{chaos.failed_requests} request(s) failed under chaos "
            "(supervision should have recovered them all)"
        )
    if chaos.resilience.get("pool_rebuilds", 0) < 1:
        failures.append(
            "NO POOL REBUILD happened — the injected crash never "
            "fired, so the gate proved nothing"
        )
    if chaos.leaked:
        failures.append(f"LEAKED SHM SEGMENTS: {chaos.leaked}")
    return GateResult(
        payload=chaos.to_json(),
        passed=chaos.passed,
        summary=[
            f"chaos: {chaos.workload} under [{chaos.fault_plan}] on a "
            f"supervised {chaos.workers}-worker pool: "
            f"{r.get('crashes', 0)} crash(es), {r.get('retries', 0)} "
            f"retries, {r.get('pool_rebuilds', 0)} pool rebuild(s) in "
            f"{chaos.recovery_seconds * 1000:.1f} ms"
        ],
        ok=(
            f"chaos gate OK: fault-free digest reproduced on all "
            f"{chaos.exact_queries} exact queries "
            f"({chaos.digest_chaos.split(':', 1)[1][:12]}), "
            f"0 failed requests, no leaked shm segments"
        ),
        failures=failures,
    )


def _gate_answer_cache(ctx: GateContext) -> GateResult:
    cache_gate = run_cache_gate(ctx.workload, workers=2)
    failures: List[str] = []
    if not cache_gate.equivalent:
        failures.append(
            "DIGEST MISMATCH with the answer cache enabled: "
            f"{cache_gate.digests}"
        )
    if cache_gate.hit_rate < cache_gate.min_hit_rate:
        failures.append(
            f"HIT RATE {cache_gate.hit_rate:.2f} is below the "
            f"{cache_gate.min_hit_rate} bar on Zipf-skewed traffic"
        )
    if cache_gate.speedup < cache_gate.min_speedup:
        failures.append(
            f"HIT SPEEDUP {cache_gate.speedup:.1f}x is below the "
            f"{cache_gate.min_speedup:.0f}x bar "
            f"(p50 hit {cache_gate.p50_hit_ms:.3f} ms, "
            f"p50 miss {cache_gate.p50_miss_ms:.3f} ms)"
        )
    return GateResult(
        payload=cache_gate.to_json(),
        passed=cache_gate.passed,
        summary=[
            f"answer cache: {cache_gate.workload} resampled "
            f"{cache_gate.popularity} over {cache_gate.unique_queries} "
            f"unique queries; hot pass {cache_gate.hits} hits / "
            f"{cache_gate.misses} misses "
            f"(hit_rate={cache_gate.hit_rate:.2f}), p50 hit "
            f"{cache_gate.p50_hit_ms:.3f} ms vs miss "
            f"{cache_gate.p50_miss_ms:.3f} ms ({cache_gate.speedup:.0f}x)"
        ],
        ok=(
            "answer-cache gate OK: digest identical cache on/off on "
            "inline and process+shm, hit rate >= "
            f"{cache_gate.min_hit_rate}, hits >= "
            f"{cache_gate.min_speedup:.0f}x faster"
        ),
        failures=failures,
    )


#: The smoke gates, in run order.  Adding a gate = a runner + one row.
GATES: Tuple[Gate, ...] = (
    Gate("parallel-serving", "repro.bench.parallelbench",
         "BENCH_parallel_serving",
         "result equivalence across serving backends", _gate_backends),
    Gate("scenarios", "repro.scenarios",
         "BENCH_scenarios",
         "golden-answer equivalence + per-intent p95 budget",
         _gate_scenarios),
    Gate("shared-graph", "repro.bench.parallelbench",
         "BENCH_shared_graph",
         "bit-identical shm attach, spec pickle >= 10x smaller, no leaks",
         _gate_shared_graph),
    Gate("resilience", "repro.bench.chaosbench",
         "BENCH_resilience",
         "fault-free digest under injected crash, 0 failures, no leaks",
         _gate_chaos),
    Gate("answer-cache", "repro.bench.cachebench",
         "BENCH_answer_cache",
         "digest cache-invariant, hit rate >= 0.5, hits >= 5x faster",
         _gate_answer_cache),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="dbpedia",
                        choices=("dbpedia", "freebase", "yago2"))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--passes", type=int, default=2)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.k < 1:
        parser.error(f"--k must be at least 1, got {args.k}")
    if args.passes < 1:
        parser.error(f"--passes must be at least 1, got {args.passes}")

    bundle = load_bundle(args.preset, scale=args.scale, seed=args.seed)
    print(
        f"{args.preset} @ scale {args.scale}: {bundle.kg.num_entities} "
        f"entities, {bundle.kg.num_edges} edges, "
        f"{len(bundle.workload)} queries"
    )
    ctx = GateContext(
        args=args,
        bundle=bundle,
        workload=Workload.from_pickle(SCENARIO_DIR / "held_out_v1.pkl"),
        golden=load_golden(SCENARIO_DIR / "held_out_v1.golden.json"),
    )

    failed = False
    for index, gate in enumerate(GATES, start=1):
        print(f"-- gate {index}: {gate.name} ({gate.module}) --")
        result = gate.run(ctx)
        path = emit_json(gate.artifact, result.payload)
        for line in result.summary:
            print(line)
        print(f"report: {path}")
        if result.passed:
            print(result.ok)
        else:
            failed = True
            for line in result.failures:
                print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
