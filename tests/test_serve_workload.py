"""Tests for the workload replay driver (repro.serve.workload)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ServeError
from repro.serve.service import QueryRequest, QueryService
from repro.serve.workload import ReplayReport, WorkloadItem, mix_deadlines, replay
from repro.serve.workload import main as workload_main
from repro.utils.stats import percentile


class TestPercentile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 25) == 1.0
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 100) == 4.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


@pytest.fixture()
def service(small_bundle):
    svc = QueryService.build(
        small_bundle.kg, small_bundle.space, small_bundle.library, max_workers=2
    )
    yield svc
    svc.close()


class TestReplay:
    def test_unpaced_replay_reports(self, service, small_bundle):
        items = [
            WorkloadItem(query=q.query, k=4, qid=q.qid)
            for q in small_bundle.workload[:4]
        ]
        report = replay(service, items)
        assert report.completed == 4
        assert report.failed == 0
        assert len(report.latencies) == 4
        assert report.throughput_qps > 0
        assert report.p50 <= report.p90 <= report.p99
        assert report.cache_stats is not None
        assert report.cache_stats.lookups > 0
        text = report.describe()
        assert "throughput" in text and "latency" in text and "hit_rate" in text

    def test_mixed_item_kinds_accepted(self, service, small_bundle):
        query = small_bundle.workload[0].query
        report = replay(
            service,
            [query, QueryRequest(query=query, k=2), WorkloadItem(query=query, k=3)],
            k=4,
        )
        assert report.completed == 3

    def test_paced_replay_respects_rate(self, service, small_bundle):
        query = small_bundle.workload[0].query
        # 3 arrivals at 40 qps: the last is scheduled 50 ms in.
        report = replay(service, [query] * 3, rate=40.0)
        assert report.rate == 40.0
        assert report.completed == 3
        assert report.elapsed_seconds >= 2 / 40.0

    def test_failures_are_counted_not_raised(self, service, small_bundle):
        good = small_bundle.workload[0].query
        report = replay(
            service,
            [WorkloadItem(query=good, k=3), WorkloadItem(query=good, k=0)],
        )
        assert report.completed == 1
        assert report.failed == 1

    def test_invalid_rate_rejected(self, service):
        with pytest.raises(ServeError):
            replay(service, [], rate=0.0)

    def test_empty_workload(self, service):
        report = replay(service, [])
        assert report.completed == 0
        assert report.throughput_qps == 0.0

    def test_breakdown_collects_split_per_query(self, service, small_bundle):
        items = [
            WorkloadItem(query=q.query, k=4, qid=q.qid)
            for q in small_bundle.workload[:3]
        ]
        report = replay(service, items, breakdown=True)
        assert report.breakdown is not None
        assert len(report.breakdown) == 3
        qids = {row.qid for row in report.breakdown}
        assert qids == {q.qid for q in items}
        for row in report.breakdown:
            assert row.search_seconds >= 0.0
            assert row.assembly_seconds >= 0.0
            assert 0.0 <= row.assembly_share <= 1.0
            assert row.ta_rounds >= 1
            assert not row.truncated
        text = report.describe()
        assert "assembly share" in text
        assert "search vs assembly per query" in text

    def test_breakdown_off_by_default(self, service, small_bundle):
        report = replay(service, [small_bundle.workload[0].query], k=4)
        assert report.breakdown is None
        assert report.truncated == 0
        assert "assembly share" not in report.describe()

    def test_breakdown_carries_search_counters(self, service, small_bundle):
        items = [
            WorkloadItem(query=q.query, k=4, qid=q.qid)
            for q in small_bundle.workload[:3]
        ]
        report = replay(service, items, breakdown=True)
        assert report.breakdown is not None
        for row in report.breakdown:
            assert row.expansions > 0
            assert row.pruned_by_tau >= 0
            assert row.pruned_by_visited >= 0
            assert row.stale_pops >= 0
            assert row.max_queue_size > 0
        text = report.describe()
        assert "search totals:" in text
        assert "expansions" in text and "stale pops" in text

    def test_class_latency_buckets(self, service, small_bundle):
        items = [
            WorkloadItem(query=q.query, k=4, qid=q.qid, complexity=q.complexity)
            for q in small_bundle.workload[:4]
        ]
        report = replay(service, items)
        assert report.class_latencies  # workload queries carry classes
        assert sum(len(v) for v in report.class_latencies.values()) == 4
        expected = {q.complexity for q in small_bundle.workload[:4]}
        assert set(report.class_latencies) == expected
        for values in report.class_latencies.values():
            assert values == sorted(values)
        text = report.describe()
        assert "latency by complexity class:" in text
        for cls in expected:
            assert f"{cls} (n=" in text

    def test_class_buckets_empty_without_classes(self, service, small_bundle):
        report = replay(service, [small_bundle.workload[0].query], k=4)
        assert report.class_latencies == {}
        assert "latency by complexity class" not in report.describe()

    def test_cache_stats_scope_labelled(self, service, small_bundle):
        report = replay(service, [small_bundle.workload[0].query], k=4)
        assert report.stats is not None
        assert report.stats.scope == "shared"
        assert "weight cache (shared):" in report.describe()


class TestPoissonArrivals:
    def test_poisson_replay_is_seeded_and_reported(self, service, small_bundle):
        query = small_bundle.workload[0].query
        report = replay(
            service, [query] * 4, rate=200.0, arrival="poisson", seed=7
        )
        assert report.completed == 4
        assert report.arrival == "poisson"
        assert "poisson open-loop" in report.describe()

    def test_poisson_schedule_deterministic(self):
        from repro.serve.workload import _arrival_schedule

        first = _arrival_schedule(16, 50.0, "poisson", seed=3)
        again = _arrival_schedule(16, 50.0, "poisson", seed=3)
        other = _arrival_schedule(16, 50.0, "poisson", seed=4)
        assert first == again
        assert first != other
        assert all(b > a for a, b in zip(first, again[1:]))  # increasing
        # Exponential gaps are irregular, unlike the uniform schedule.
        gaps = [b - a for a, b in zip([0.0] + first[:-1], first)]
        assert len({round(g, 9) for g in gaps}) > 1

    def test_uniform_schedule_matches_legacy_pacing(self):
        from repro.serve.workload import _arrival_schedule

        assert _arrival_schedule(3, 40.0, "uniform", seed=0) == [
            0.0, 1 / 40.0, 2 / 40.0,
        ]

    def test_unknown_arrival_rejected(self, service, small_bundle):
        with pytest.raises(ServeError):
            replay(
                service,
                [small_bundle.workload[0].query],
                rate=10.0,
                arrival="bursty",
            )


class TestMixDeadlines:
    def _items(self, small_bundle, n=8):
        query = small_bundle.workload[0].query
        return [WorkloadItem(query=query, k=3, qid=f"q{i}") for i in range(n)]

    def test_fraction_selects_seeded_slice(self, small_bundle):
        items = self._items(small_bundle)
        mixed = mix_deadlines(items, 0.5, 0.2, seed=5)
        with_deadline = [item for item in mixed if item.deadline is not None]
        assert len(with_deadline) == 4
        assert all(item.deadline == 0.2 for item in with_deadline)
        # Deterministic: the same seed marks the same items.
        again = mix_deadlines(items, 0.5, 0.2, seed=5)
        assert [i.deadline for i in mixed] == [i.deadline for i in again]

    def test_extremes(self, small_bundle):
        items = self._items(small_bundle, n=4)
        assert all(
            i.deadline is None for i in mix_deadlines(items, 0.0, 0.2)
        )
        assert all(
            i.deadline == 0.2 for i in mix_deadlines(items, 1.0, 0.2)
        )

    def test_validation(self, small_bundle):
        items = self._items(small_bundle, n=2)
        with pytest.raises(ServeError):
            mix_deadlines(items, 1.5, 0.2)
        with pytest.raises(ServeError):
            mix_deadlines(items, 0.5, 0.0)

    def test_mixed_replay_reports_tbq_share(self, service, small_bundle):
        items = mix_deadlines(
            self._items(small_bundle, n=4), 0.5, 0.5, seed=1
        )
        report = replay(service, items)
        assert report.completed == 4
        assert report.deadline_requests == 2
        assert "mix: 2 sgq + 2 tbq requests" in report.describe()


class TestConsoleEntrypoint:
    def test_module_run_emits_no_runpy_warning(self):
        """``python -m repro.serve.workload`` must not find the module
        already imported by its package (runpy's RuntimeWarning)."""
        src = str(Path(repro.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.serve.workload", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr

    def test_main_smoke(self, capsys):
        code = workload_main(
            [
                "--preset",
                "dbpedia",
                "--scale",
                "1.0",
                "--seed",
                "11",
                "--repeats",
                "2",
                "--k",
                "4",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass 1/2 (cold)" in out
        assert "pass 2/2 (warm)" in out
        assert "throughput" in out
        assert "hit_rate" in out

    def test_main_breakdown_flag(self, capsys):
        code = workload_main(
            [
                "--preset",
                "dbpedia",
                "--scale",
                "1.0",
                "--seed",
                "11",
                "--repeats",
                "1",
                "--k",
                "4",
                "--workers",
                "2",
                "--breakdown",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "assembly share" in out
        assert "search vs assembly per query" in out

    @pytest.mark.parametrize(
        "flag", ["--view", "--search-kernel", "--assembly-kernel"]
    )
    def test_main_rejects_retired_path_flags(self, flag):
        # One engine path: no flag selects a view or a kernel any more.
        with pytest.raises(SystemExit):
            workload_main(
                ["--preset", "dbpedia", "--scale", "1.0", flag, "reference"]
            )

    def test_main_compact_vectorized_search(self, capsys):
        code = workload_main(
            [
                "--preset", "dbpedia", "--scale", "1.0", "--seed", "11",
                "--repeats", "1", "--k", "4", "--workers", "2",
                "--breakdown",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency by complexity class:" in out
        assert "search totals:" in out

    def test_main_compact_view(self, capsys):
        code = workload_main(
            [
                "--preset",
                "dbpedia",
                "--scale",
                "1.0",
                "--seed",
                "11",
                "--repeats",
                "2",
                "--k",
                "4",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(thread backend)" in out
        assert "pass 2/2 (warm)" in out

    def test_main_process_backend(self, capsys):
        code = workload_main(
            [
                "--preset", "dbpedia", "--scale", "1.0", "--seed", "11",
                "--repeats", "2", "--k", "4", "--workers", "2",
                "--backend", "process", "--breakdown",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "process backend" in out
        assert "warmed" in out
        assert "weight cache (per-worker sum" in out
        assert "serving stats [process backend, per-worker sum" in out

    def test_main_poisson_and_tbq_mix(self, capsys):
        code = workload_main(
            [
                "--preset", "dbpedia", "--scale", "1.0", "--seed", "11",
                "--repeats", "1", "--k", "4", "--workers", "2",
                "--rate", "200", "--arrival", "poisson",
                "--deadline", "0.5", "--tbq-fraction", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "poisson open-loop" in out
        assert "tbq requests" in out

    def test_main_poisson_requires_rate(self):
        with pytest.raises(SystemExit):
            workload_main(
                ["--preset", "dbpedia", "--scale", "1.0", "--arrival", "poisson"]
            )

    def test_main_tbq_fraction_requires_deadline(self):
        with pytest.raises(SystemExit):
            workload_main(
                [
                    "--preset", "dbpedia", "--scale", "1.0",
                    "--tbq-fraction", "0.5",
                ]
            )

    def test_report_describe_without_cache_stats(self):
        report = ReplayReport(
            completed=1,
            failed=0,
            elapsed_seconds=0.1,
            latencies=[0.1],
            rate=None,
        )
        assert "weight cache" not in report.describe()


class TestScenarioEntrypoint:
    """``--scenario`` replays a frozen artifact deterministically."""

    ARTIFACT = str(
        Path(__file__).resolve().parent.parent
        / "benchmarks" / "scenarios" / "held_out_v1.pkl"
    )

    def test_scenario_replay_prints_identical_digests(self, capsys):
        code = workload_main(
            ["--scenario", self.ARTIFACT, "--repeats", "2", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "intent mix: star=2, chain=2" in out
        assert "deadline mix: 20%" in out
        digests = [
            line for line in out.splitlines()
            if line.startswith("exact-match digest: sha256:")
        ]
        assert len(digests) == 2
        assert digests[0] == digests[1]
        assert "(8 exact queries)" in digests[0]
        assert "replay: 10 completed, 0 failed" in out

    def test_scenario_rejects_conflicting_flags(self):
        for conflict in (
            ["--rate", "50"],
            ["--arrival", "poisson", "--rate", "10"],
            ["--deadline", "0.1"],
            ["--tbq-fraction", "0.5", "--deadline", "0.1"],
        ):
            with pytest.raises(SystemExit):
                workload_main(["--scenario", self.ARTIFACT] + conflict)

    def test_scenario_rejects_missing_artifact(self):
        with pytest.raises(SystemExit):
            workload_main(["--scenario", "nope/missing.pkl"])
