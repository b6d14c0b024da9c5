"""Threshold-Algorithm (TA) final-match assembly (Section V-C).

Joins sub-query match streams at the pivot entity without exhausting them:
each round performs one *sorted access* per stream (streams yield matches
in descending pss — for SGQ that is the A* pop order itself, so the TA
lazily drives the searches), maintains per-candidate lower/upper score
bounds (Eq. 8-11), and stops as soon as the k-th best lower bound dominates
every other candidate's upper bound (Theorem 3), including the "virtual"
candidate that has not been seen in any stream yet.

The stream abstraction also serves TBQ: a drained-and-sorted non-optimal
match set M̂_i replays through the same assembler (Section VI's
"approximate final matches M̂ assembly").

Two interchangeable kernels implement the round loop:

- ``kernel="reference"`` — the pure-Python assembler below, a direct
  transcription of Eq. 8-11 / Theorem 3.  It re-sorts every candidate and
  recomputes every upper bound each round (O(C·S + C log C) per round),
  which makes it the easy-to-audit test oracle but a hot spot on
  assembly-heavy queries.
- ``kernel="vectorized"`` (the default) — the incremental numpy kernel in
  :mod:`repro.core.assembly_kernel`: interned candidate table, bounded
  heap over the top-k lower bounds, one matvec per Theorem 3 evaluation
  and monotone fast paths that skip the evaluation entirely.  It makes
  the *same decision at the same round* as the reference on the same
  streams, so results (matches, scores, accesses, rounds) are identical;
  only the cost changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.results import FinalMatch, PathMatch
from repro.errors import SearchError

#: Valid ``kernel=`` names, owned here (the dispatch point); the engine
#: imports this rather than re-hardcoding the set.
ASSEMBLY_KERNELS = ("vectorized", "reference")


class MatchStream:
    """Sorted access over one sub-query's matches.

    ``pull`` is any callable returning the next-best :class:`PathMatch` or
    ``None`` when exhausted (an A* search's ``next_match``, or an iterator
    over a pre-collected list).
    """

    def __init__(self, pull: Callable[[], Optional[PathMatch]]):
        self._pull = pull
        self.exhausted = False
        self.last_pss: Optional[float] = None  # ψ_cur of Eq. 11
        self.accesses = 0

    @classmethod
    def from_list(cls, matches: Sequence[PathMatch]) -> "MatchStream":
        """A stream over an eagerly collected, descending-sorted list."""
        ordered = sorted(matches, key=lambda m: -m.pss)
        iterator: Iterator[PathMatch] = iter(ordered)
        return cls(lambda: next(iterator, None))

    def next(self) -> Optional[PathMatch]:
        if self.exhausted:
            return None
        match = self._pull()
        if match is None:
            # The exhaustion probe is not a sorted access: nothing was
            # read from the stream, the pull merely revealed its end —
            # counting it would inflate the paper's access reporting.
            self.exhausted = True
            return None
        self.accesses += 1
        if self.last_pss is not None and match.pss > self.last_pss + 1e-9:
            raise SearchError(
                "match stream is not sorted by descending pss "
                f"({match.pss} after {self.last_pss})"
            )
        self.last_pss = match.pss
        return match

    @property
    def current_pss(self) -> float:
        """ψ_cur — contribution bound for candidates unseen in this stream.

        Before any access the bound is 1.0 (a pss can never exceed it);
        after exhaustion it is 0.0 (this stream will never contribute to an
        unseen candidate).
        """
        if self.exhausted:
            return 0.0
        if self.last_pss is None:
            return 1.0
        return self.last_pss


@dataclass
class AssemblyResult:
    """Top-k final matches plus TA bookkeeping.

    ``rounds`` counts every TA round, including the final probe round in
    which all streams report exhaustion.  ``truncated`` is True when a
    ``max_rounds`` cap stopped the TA while streams still had matches —
    distinguishable from both a clean drain (``terminated_early=False,
    truncated=False``) and Theorem 3 termination (``terminated_early=
    True``).
    """

    matches: List[FinalMatch]
    accesses: int
    terminated_early: bool
    rounds: int = 0
    truncated: bool = False


def assemble_top_k(
    streams: Sequence[MatchStream],
    k: int,
    *,
    exhaustive: bool = False,
    max_rounds: Optional[int] = None,
    kernel: str = "vectorized",
) -> AssemblyResult:
    """Run the TA until the top-k final matches are certain.

    Args:
        streams: one sorted-access stream per sub-query graph.
        k: number of final matches wanted.
        exhaustive: disable the early-termination check (ablation; drains
            every stream and then ranks — Theorem 3 says the result set is
            identical).
        max_rounds: optional safety cap on TA rounds.
        kernel: ``"vectorized"`` (default) runs the incremental numpy
            kernel (:mod:`repro.core.assembly_kernel`); ``"reference"``
            runs the pure-Python transcription below.  Both return
            identical results.

    Returns ``k`` (or fewer, if the data runs out) final matches sorted by
    descending score; each match records which sub-queries contributed.

    Note on score semantics: like the paper's Eq. 8-11 (and Fagin's NRA —
    sorted access only, no random access), early termination certifies
    top-k *membership*; the reported score of a returned match is its
    lower bound at termination and may undercount components a stream had
    not yet surfaced.  Pass ``exhaustive=True`` to always resolve exact
    scores at the cost of draining every stream.
    """
    if kernel == "vectorized":
        from repro.core.assembly_kernel import assemble_top_k_vectorized

        return assemble_top_k_vectorized(
            streams, k, exhaustive=exhaustive, max_rounds=max_rounds
        )
    if kernel != "reference":
        raise SearchError(
            f"unknown assembly kernel {kernel!r} "
            f"(expected one of {ASSEMBLY_KERNELS})"
        )
    return _assemble_reference(
        streams, k, exhaustive=exhaustive, max_rounds=max_rounds
    )


def _assemble_reference(
    streams: Sequence[MatchStream],
    k: int,
    *,
    exhaustive: bool = False,
    max_rounds: Optional[int] = None,
) -> AssemblyResult:
    """The pure-Python TA (Eq. 8-11 / Theorem 3, conformance baseline)."""
    if k < 1:
        raise SearchError("k must be at least 1")
    if not streams:
        raise SearchError("assembly needs at least one stream")

    num_streams = len(streams)
    candidates: Dict[int, FinalMatch] = {}
    rounds = 0
    terminated_early = False
    truncated = False

    def upper_bound(candidate: FinalMatch) -> float:
        """Eq. 10-11: seen components exactly (the candidate's running
        lower bound), unseen streams at their ψ_cur."""
        total = candidate.score
        for index in range(num_streams):
            if index not in candidate.components:
                total += streams[index].current_pss
        return total

    def unseen_upper_bound() -> float:
        """Bound for a pivot never seen in any stream."""
        return sum(stream.current_pss for stream in streams)

    def termination_reached() -> bool:
        """Theorem 3's check: L_k ≥ U_max over all other candidates."""
        if len(candidates) < k:
            return False
        by_lower = sorted(candidates.values(), key=lambda c: -c.score)
        top = by_lower[:k]
        lower_k = top[-1].score
        rest_upper = max(
            (upper_bound(c) for c in by_lower[k:]), default=0.0
        )
        u_max = max(rest_upper, unseen_upper_bound())
        return lower_k >= u_max

    while True:
        progressed = False
        for index, stream in enumerate(streams):
            match = stream.next()
            if match is None:
                continue
            progressed = True
            candidate = candidates.get(match.pivot_uid)
            if candidate is None:
                candidate = FinalMatch(
                    pivot_uid=match.pivot_uid, expected_components=num_streams
                )
                candidates[match.pivot_uid] = candidate
            candidate.add_component(match)
        rounds += 1
        if not progressed:
            break  # every stream exhausted
        if not exhaustive and termination_reached():
            terminated_early = True
            break
        if max_rounds is not None and rounds >= max_rounds:
            truncated = True
            break

    ranked = sorted(candidates.values(), key=lambda c: (-c.score, c.pivot_uid))
    total_accesses = sum(stream.accesses for stream in streams)
    return AssemblyResult(
        matches=ranked[:k],
        accesses=total_accesses,
        terminated_early=terminated_early,
        rounds=rounds,
        truncated=truncated,
    )
