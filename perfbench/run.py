"""Run one benchmark workload and print its result as the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sgq-paper --seed 7 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs an untraced half and a traced half and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (machine, configuration, workload-specific
figures) goes to ``perfbench/out/``.  A wrong answer makes the run fail
(exit code 1) and is never counted as a slow success.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sgq-paper", "tbq-scale16", "serve-zipf")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out",
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(args) -> dict:
    import multiprocessing

    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"error: no repro package under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]

    from perfbench import engine_loop, metrics, serving

    args.out.mkdir(parents=True, exist_ok=True)
    record = {"machine": machine_record(args)}
    started = time.perf_counter()
    if args.workload == "serve-zipf":
        record.update(serving.run(args.seed, args.seconds, bool(args.trace),
                                  args.out))
    else:
        record.update(engine_loop.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.out))
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = (own_kb + record.get("worker_rss_kb", 0)) / 1024.0
    if not args.trace:
        record["metrics"]["peak_rss_mb"] = peak_mb
    record["peak_rss_mb"] = peak_mb
    record["run_s"] = time.perf_counter() - started
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with (args.out / name).open("w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    for problem in list(record.get("problems", []))[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(metrics.result_line(record, bool(args.trace))))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
