"""Record the checked-in reference answers under ``perfbench/reference/``.

Usage, from the repository root::

    python3 perfbench/make_reference.py sgq-paper tbq-scale16 serve-zipf

Exact answers come from an engine on the reference kernels
(``assembly_kernel="reference"``, ``search_kernel="reference"``).  For the
paper workloads a query is kept when its validation set is non-empty on
the pinned graph (as ``load_bundle`` does); ``serve-zipf`` records every
query of the scenario population.  Rerun only when the benchmark's
inputs change.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def paper_reference(workload: str) -> dict:
    from repro.bench.groundtruth import compute_truth
    from repro.bench.workloads import workload_for

    from perfbench import engine_loop, inputs, reference

    scale = engine_loop.WORKLOADS[workload]["scale"]
    answers = {}
    for preset in inputs.PRESETS:
        graph = inputs.build_preset_graph(preset, scale)
        engine = reference.reference_engine(graph.kg, graph.space, graph.library)
        answers[preset] = {}
        for query in workload_for(preset):
            if not compute_truth(graph.kg, query):
                continue
            result = engine.search(query.query, k=inputs.K)
            answers[preset][query.qid] = reference.answers_of(result)
    return {"inputs": engine_loop.reference_inputs(workload), "answers": answers}


def serve_reference() -> dict:
    from perfbench import inputs, reference, serving

    workload = inputs.scenario_workload()
    resources = serving.build_resources(workload)
    engine = reference.reference_engine(resources.kg, resources.space,
                                        resources.library, resources.config)
    answers = {
        item.qid: reference.answers_of(engine.search(item.query, k=inputs.K))
        for item in inputs.serve_items(workload)
    }
    return {"inputs": serving.reference_inputs(), "answers": answers}


def main(argv) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import reference

    for workload in argv or ("sgq-paper", "tbq-scale16", "serve-zipf"):
        started = time.perf_counter()
        payload = serve_reference() if workload == "serve-zipf" else paper_reference(workload)
        reference.save(reference.REFERENCE_DIR / f"{workload}.json", payload)
        print(f"{workload}: recorded in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
