"""Seeded inputs and the answer checks."""

from __future__ import annotations

import json

import pytest

from perfbench import inputs, reference, serving


def request_bytes(items, order, phases) -> bytes:
    """The requests the ladder would send, serialized canonically."""
    from repro.scenarios.suite import query_to_json

    sends = sum(len(offsets) for _label, _rate, offsets in phases)
    return json.dumps(
        {
            "requests": [
                [items[i].qid, items[i].deadline, query_to_json(items[i].query)]
                for i in order[:sends]
            ],
            "schedule": [[label, rate, offsets] for label, rate, offsets in phases],
        },
        sort_keys=True,
    ).encode("utf-8")


@pytest.fixture(scope="module")
def sequences():
    items = inputs.serve_items(inputs.scenario_workload())

    def build(seed):
        order = inputs.zipf_sequence(seed, items, 3000)
        phases = serving.schedule(seed, 10.0, serving.LADDER)
        return request_bytes(items, order, phases)

    return {"a": build(7), "b": build(7), "c": build(8)}


def test_same_seed_gives_byte_identical_requests(sequences):
    assert sequences["a"] == sequences["b"]


def test_other_seed_gives_other_requests(sequences):
    assert sequences["a"] != sequences["c"]


def test_pass_orders_are_seeded_permutations():
    first = inputs.pass_orders(3, 25, 4)
    assert first == inputs.pass_orders(3, 25, 4)
    assert first != inputs.pass_orders(4, 25, 4)
    assert all(sorted(order) == list(range(25)) for order in first)


def test_zipf_stream_keeps_stratum_shares():
    intents = ("star", "chain")
    items = [inputs.ServeItem(f"q{i}", intents[i % 2], None,
                              0.1 if i % 5 == 0 else None)
             for i in range(500)]
    order = inputs.zipf_sequence(11, items, 20000)
    bounded = sum(1 for i in order if items[i].deadline is not None) / len(order)
    assert bounded == pytest.approx(0.2, abs=0.01)
    stars = sum(1 for i in order if items[i].intent == "star") / len(order)
    assert stars == pytest.approx(0.5, abs=0.01)
    # Zipf inside a stratum: its most popular item dominates the stratum.
    counts = {}
    for i in order:
        counts[i] = counts.get(i, 0) + 1
    assert max(counts.values()) > 0.15 * 0.4 * len(order)
    assert inputs.zipf_sequence(11, items, 20000) == order
    assert inputs.zipf_sequence(12, items, 20000) != order


def test_poisson_offsets_are_seeded_and_bounded():
    offsets = inputs.poisson_offsets(5, "r50", 50.0, 10.0)
    assert offsets == inputs.poisson_offsets(5, "r50", 50.0, 10.0)
    assert offsets != inputs.poisson_offsets(6, "r50", 50.0, 10.0)
    assert all(0 < a < b < 10.0 for a, b in zip(offsets, offsets[1:]))
    assert 400 < len(offsets) < 600


def test_exact_answers_must_match_in_order():
    want = [[1, 0.9], [2, 0.8]]
    assert reference.exact_mismatch([[1, 0.9], [2, 0.8]], want) is None
    assert reference.exact_mismatch([[2, 0.8], [1, 0.9]], want) is not None
    assert reference.exact_mismatch([[1, 0.9]], want) is not None
    assert reference.exact_mismatch([[1, 0.9], [2, 0.8000001]], want) is not None


def test_tbq_answer_shape_checks():
    exact = [[1, 0.9], [2, 0.8], [3, 0.7]]
    assert reference.tbq_violation([[2, 0.8], [5, 0.6]], 3, exact) is None
    assert reference.tbq_violation([], 3, exact) is None
    assert "matches" in reference.tbq_violation([[1, 0.5]] * 4, 3, exact)
    assert "rises" in reference.tbq_violation([[2, 0.6], [5, 0.7]], 3, exact)
    assert "above" in reference.tbq_violation([[9, 0.95]], 3, exact)


def test_recall_and_precision():
    exact = [[1, 0.9], [2, 0.8], [3, 0.7], [4, 0.6]]
    assert reference.recall([[1, 0.9], [4, 0.6], [8, 0.5]], exact) == 0.5
    assert reference.recall([], []) == 1.0
    assert reference.precision([[1, 0.9], [4, 0.6]], {1, 2}) == 0.5
    assert reference.precision([], {1}) == 0.0
