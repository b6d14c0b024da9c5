"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 \
        --out perfbench/baseline/<name>.json

Each run is a fresh ``perfbench/run.py`` process.  Per workload and
metric the summary gives every value, the median, the first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, which is what a
metric's bound in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sgq-paper", "tbq-scale16", "serve-zipf")


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(values):
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    record = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    with record.open("r", encoding="utf-8") as handle:
        result["machine"] = json.load(handle)["machine"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            result = run_one(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{result['elapsed_s']:.1f}s", flush=True)
        names = list(runs[0]["metrics"])
        metrics = {
            name: dict(unit=runs[0]["metrics"][name]["unit"],
                       **summarize([r["metrics"][name]["value"] for r in runs]))
            for name in names
        }
        machine = dict(runs[0]["machine"])
        for key in ("workload", "seed", "seconds", "trace"):
            machine.pop(key, None)
        summary["machine"] = machine
        summary["workloads"][workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs),
            "run_seconds": summarize([r["elapsed_s"] for r in runs]),
        }
        for name, m in metrics.items():
            print(f"  {name:32s} median={m['median']:.6g} q1={m['q1']:.6g} "
                  f"q3={m['q3']:.6g} spread={m['spread']:.3f}", flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
