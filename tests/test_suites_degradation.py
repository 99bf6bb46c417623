"""Graceful degradation: figures render FAILED cells, aggregates skip them."""

import pytest

from repro.core.stats import CoreResult, PrefetcherResult
from repro.experiments.engine import (
    ExecutionEngine,
    FailedResult,
    Job,
    JobFailure,
    JobResult,
    RetryPolicy,
    journal_record,
)
from repro.experiments.export import FIELDS, export_row
from repro.experiments.reporting import format_table
from repro.experiments.suites import (
    accuracy_rows,
    coverage_rows,
    delta_rows,
    summary_line,
    sweep,
)


def ok_result(ipc_scale=1.0):
    return CoreResult(
        retired_instructions=int(1000 * ipc_scale),
        cycles=1000.0,
        bus_transfers=50,
        prefetchers={"cdp": PrefetcherResult(issued=10, used=5)},
    )


def failed_result():
    return FailedResult(JobFailure("JobTimeoutError", "timed out after 5s"))


BASELINES = {"mst": ok_result(1.0), "health": ok_result(1.0)}
RESULTS = {"mst": ok_result(1.2), "health": failed_result()}


class TestRowDegradation:
    def test_delta_rows_mark_failed_benchmarks(self):
        rows = delta_rows(RESULTS, BASELINES)
        by_name = {row[0]: row for row in rows}
        assert by_name["mst"][1] == pytest.approx(20.0)
        assert str(by_name["health"][1]) == "FAILED(JobTimeoutError)"

    def test_failed_baseline_marks_row(self):
        rows = delta_rows(
            {"mst": ok_result()}, {"mst": failed_result()}
        )
        assert str(rows[0][1]).startswith("FAILED")

    def test_summary_excludes_failed(self):
        summary = summary_line(RESULTS, BASELINES)
        # only mst survives: +20% gmean, computed without crashing
        assert summary["gmean_ipc_pct"] == pytest.approx(20.0)

    def test_accuracy_and_coverage_rows_degrade(self):
        per_mechanism = {
            "cdp": {"mst": ok_result(), "health": failed_result()},
        }
        for rows in (
            accuracy_rows(per_mechanism, "cdp"),
            coverage_rows(per_mechanism, "cdp"),
        ):
            cells = dict(rows)
            assert isinstance(cells["mst"][0], float)
            assert str(cells["health"][0]).startswith("FAILED")

    def test_format_table_renders_failed_cells(self):
        rows = delta_rows(RESULTS, BASELINES)
        table = format_table(["bench", "dIPC", "dBPKI"], rows)
        assert "FAILED(JobTimeoutError)" in table

    def test_format_table_renders_none_as_dash(self):
        assert "-" in format_table(["x"], [[None]])


class TestExportDegradation:
    def test_failed_record_has_status_and_null_metrics(self):
        outcome = JobResult(
            Job("health", "cdp"), "failed", failure=failed_result().failure
        )
        record = export_row(journal_record(outcome))
        assert set(record) == set(FIELDS)
        assert record["status"].startswith("FAILED(JobTimeoutError")
        assert record["ipc"] is None

    def test_ok_record_has_ok_status(self):
        outcome = JobResult(Job("mst", "cdp"), "ok", result=ok_result())
        record = export_row(journal_record(outcome))
        assert record["status"] == "ok"
        assert set(record) == set(FIELDS)


def _sweep_worker(job):
    if job.benchmark == "health":
        raise RuntimeError("boom")
    return ok_result()


class TestEngineSweep:
    def test_sweep_through_engine_yields_failed_placeholders(self):
        engine = ExecutionEngine(
            jobs=2,
            retry=RetryPolicy(max_attempts=1),
            worker=_sweep_worker,
        )
        table = sweep(["baseline"], ["mst", "health"], engine=engine)
        assert table["baseline"]["mst"].ipc > 0
        assert str(table["baseline"]["health"]) == "FAILED(RuntimeError)"
