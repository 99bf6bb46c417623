"""Telemetry on the multicore path, plus reporting/export surfaces.

Each core of a multiprogrammed mix gets its own disjoint telemetry
stream, interval counts follow each core's own eviction stream (not the
mix's), and the new export columns degrade exactly like the old ones
when a sweep cell failed.
"""

import pytest

from repro.core.config import SystemConfig
from repro.experiments.engine import FailedResult, Job, JobResult
from repro.experiments.engine.checkpoint import journal_record
from repro.experiments.engine.job import JobFailure
from repro.experiments.export import FIELDS, export_row
from repro.experiments.reporting import format_table
from repro.experiments.runner import clear_caches, run_multicore
from repro.telemetry import Telemetry, TelemetryConfig

SMALL = SystemConfig.scaled().with_overrides(
    l2_size=4096, interval_evictions=64
)

MIX = ["mst", "health"]


@pytest.fixture(scope="module")
def multicore_run():
    clear_caches()
    telemetry = Telemetry(TelemetryConfig(series=True, trace=True))
    results = run_multicore(MIX, "ecdp+throttle", SMALL, input_set="test")
    clear_caches()
    telemetry_results = run_multicore(
        MIX, "ecdp+throttle", SMALL, input_set="test", telemetry=telemetry
    )
    clear_caches()
    return telemetry, results, telemetry_results


class TestMulticoreStreams:
    def test_one_stream_per_core(self, multicore_run):
        telemetry, __, __results = multicore_run
        assert sorted(telemetry.streams) == ["core0", "core1"]

    def test_streams_disjoint(self, multicore_run):
        telemetry, __, __results = multicore_run
        core0 = telemetry.stream("core0")
        core1 = telemetry.stream("core1")
        assert core0.core is not core1.core
        assert core0.tracer is not core1.tracer
        assert core0.series is not core1.series
        # different benchmarks -> different interval histories
        assert (
            core0.series.intervals_seen != core1.series.intervals_seen
            or core0.series.samples != core1.series.samples
        )
        # every sample was produced by its own core's collector
        for stream in (core0, core1):
            for sample in stream.series.samples:
                assert sample["cycle"] <= stream.core.cycle

    def test_interval_counts_follow_each_cores_evictions(self, multicore_run):
        telemetry, __, results = multicore_run
        for index, result in enumerate(results):
            stream = telemetry.stream(f"core{index}")
            evictions = stream.core.l2.stats.evictions
            assert result.intervals_completed == (
                evictions // SMALL.interval_evictions
            )
            tail = 1 if stream.core.feedback.tail_flushed else 0
            assert stream.series.intervals_seen == (
                result.intervals_completed + tail
            )

    def test_telemetry_does_not_perturb_multicore(self, multicore_run):
        __, plain, traced = multicore_run
        for before, after in zip(plain, traced):
            assert after == before


class TestExportColumns:
    def make_result(self):
        clear_caches()
        from repro.experiments.runner import run_benchmark

        return run_benchmark("mst", "cdp", SMALL, input_set="test")

    def ok_record(self, result):
        job = Job("mst", "cdp", SMALL, input_set="test")
        return journal_record(JobResult(job, "ok", result=result))

    def test_ok_row_carries_intervals_and_series_file(self):
        result = self.make_result()
        record = export_row(self.ok_record(result),
                            series_file="out/mst.series.jsonl")
        assert set(record) == set(FIELDS)
        assert record["intervals_completed"] == result.intervals_completed > 0
        assert record["series_file"] == "out/mst.series.jsonl"

    def test_ok_row_without_telemetry_has_null_series_file(self):
        record = export_row(self.ok_record(self.make_result()))
        assert record["series_file"] is None

    def test_failed_row_keeps_all_metrics_null(self):
        # a cell that never ran (zero attempts), from a journal that
        # predates the policy columns: nothing but the failure is known
        failed = JobResult(
            Job("mst", "cdp", {}), "failed",
            failure=JobFailure("TimeoutError", "exceeded 5s"), attempts=0,
        )
        record = export_row(journal_record(failed),
                            series_file="ignored.jsonl")
        assert record["status"] == "FAILED(TimeoutError: exceeded 5s)"
        # error_type is the one diagnostic column a failed row keeps
        assert record["error_type"] == "TimeoutError"
        for field in FIELDS:
            if field in ("benchmark", "mechanism", "status", "error_type"):
                continue
            assert record[field] is None, field


class TestReportingRendersNewColumns:
    def test_format_table_with_failed_and_null_cells(self):
        failed_row = export_row(journal_record(JobResult(
            Job("mst", "cdp"), "failed",
            failure=JobFailure("WorkerCrash", "signal 9"),
        )))
        failed = FailedResult(JobFailure("WorkerCrash", "signal 9"))
        headers = ["benchmark", "intervals", "series file"]
        rows = [
            ["mst", 13, "out/mst.series.jsonl"],
            ["health", None, None],
            ["em3d", failed, failed],
        ]
        table = format_table(headers, rows, title="telemetry columns")
        lines = table.splitlines()
        assert "intervals" in lines[1] and "series file" in lines[1]
        assert "13" in table and "out/mst.series.jsonl" in table
        assert "FAILED(WorkerCrash)" in table
        # null metric cells render as the standard dash
        health = next(line for line in lines if "health" in line)
        assert health.split()[-1] == "-"
        assert failed_row["status"].startswith("FAILED")
