"""``BENCHMARK.json`` mirrors the metric definitions and stays in bounds."""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench import metrics, run

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with (ROOT / "BENCHMARK.json").open("r", encoding="utf-8") as handle:
        return json.load(handle)


def test_keys_and_limits():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])


def test_mirrors_metric_definitions():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == [row[:3] for row in metrics.PER_LAYER]


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_result_line_has_exactly_the_contract_keys():
    record = {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {name: 1.5 for name, *_ in metrics.END_TO_END},
        "per_layer": {name: 0.0 for name, *_ in metrics.PER_LAYER},
    }
    for trace in (False, True):
        line = metrics.result_line(record, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert list(line["metrics"]) == [row[0] for row in expected]
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())
