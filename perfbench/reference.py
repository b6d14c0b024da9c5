"""Reference answers and the answer checks every run makes.

Exact answers are compared, in order, as ``[pivot uid, score]`` pairs
with the reference computed by an engine built with
``assembly_kernel="reference"`` and ``search_kernel="reference"``.
The inputs that decide an answer (graphs, queries, ``k``) do not depend
on the benchmark seed, so one checked-in file per workload under
``reference/`` covers every seed; ``make_reference.py`` records them.

A time-bounded answer is checked for its shape: at most ``k`` matches,
scores non-increasing, no score above the exact top-1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Float slack when comparing a TBQ score with the exact top-1: both are
#: products of the same weights, but may be combined in another order.
SCORE_SLACK = 1e-9

Answers = List[List[float]]


class CheckError(Exception):
    """An answer did not match its reference or broke a TBQ invariant."""


def answers_of(result) -> Answers:
    """``[[pivot uid, score], ...]`` of a result, in rank order."""
    return [[match.pivot_uid, match.score] for match in result.matches]


def reference_engine(kg, space, library, config=None):
    """An engine on the reference kernels, the oracle for exact answers."""
    from repro.core.engine import SemanticGraphQueryEngine

    return SemanticGraphQueryEngine(
        kg, space, library, config,
        assembly_kernel="reference", search_kernel="reference",
    )


def exact_mismatch(got: Answers, want: Answers) -> Optional[str]:
    """Why ``got`` differs from the reference ``want`` (``None`` if equal)."""
    if len(got) != len(want):
        return f"{len(got)} matches, reference has {len(want)}"
    for rank, (g, w) in enumerate(zip(got, want)):
        if int(g[0]) != int(w[0]) or float(g[1]) != float(w[1]):
            return f"rank {rank}: got {g}, reference {w}"
    return None


def tbq_violation(got: Answers, k: int, exact: Answers) -> Optional[str]:
    """Why a time-bounded answer is malformed (``None`` if it is sound)."""
    if len(got) > k:
        return f"{len(got)} matches for k={k}"
    scores = [float(score) for _uid, score in got]
    for rank in range(1, len(scores)):
        if scores[rank] > scores[rank - 1]:
            return f"score rises at rank {rank}: {scores[rank - 1]} -> {scores[rank]}"
    if scores:
        top = float(exact[0][1]) if exact else 0.0
        if scores[0] > top + SCORE_SLACK:
            return f"score {scores[0]} above the exact top-1 {top}"
    return None


def recall(got: Answers, exact: Answers) -> float:
    """Share of the exact top-k pivots present in ``got``."""
    if not exact:
        return 1.0
    want = {int(uid) for uid, _score in exact}
    return len(want & {int(uid) for uid, _score in got}) / len(want)


def precision(got: Answers, truth) -> float:
    """Share of the returned pivots inside the validation set."""
    if not got:
        return 0.0
    return sum(1 for uid, _score in got if int(uid) in truth) / len(got)


def load(name: str) -> dict:
    """A checked-in reference file."""
    path = REFERENCE_DIR / f"{name}.json"
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def save(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    tmp.replace(path)


def require_inputs(reference: dict, inputs: dict, name: str) -> None:
    """Refuse a reference recorded for other inputs."""
    if reference.get("inputs") != inputs:
        raise CheckError(
            f"reference {name!r} was recorded for {reference.get('inputs')}, "
            f"this run uses {inputs}"
        )
