"""Tests for the results export module and CLI --export flag."""

import json

import pytest

from repro.cli import main
from repro.core.stats import CoreResult, PrefetcherResult
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    JobResult,
    journal_record,
)
from repro.experiments.engine.checkpoint import VOLATILE_FIELDS
from repro.experiments.export import (
    FIELDS,
    export_row,
    read_json,
    write_csv,
    write_json,
)
from repro.service import start_server_thread


def fake_result(ipc=1.5):
    return CoreResult(
        retired_instructions=1000,
        cycles=1000 / ipc,
        l2_demand_misses=10,
        bus_transfers=30,
        prefetchers={"cdp": PrefetcherResult(issued=20, used=10)},
    )


def fake_worker(job):
    return fake_result()


def fake_row():
    """The export row of an ok cell that ran fake_result()."""
    outcome = JobResult(Job("mst", "cdp"), "ok", result=fake_result())
    return export_row(journal_record(outcome))


class TestRecords:
    def test_record_has_all_fields(self):
        record = fake_row()
        assert set(record) == set(FIELDS)
        assert record["cdp_accuracy"] == 0.5

    def test_sweep_records_flatten(self, tmp_path):
        # a sweep's journal flattens to one row per cell
        journal = CheckpointJournal(tmp_path / "sweep.jsonl")
        engine = ExecutionEngine(worker=fake_worker, checkpoint=journal)
        try:
            engine.run([
                Job(benchmark, "cdp", input_set="test")
                for benchmark in ("mst", "health")
            ])
        finally:
            engine.close()
        records = [export_row(record) for record in journal.load().values()]
        assert len(records) == 2
        assert {r["benchmark"] for r in records} == {"mst", "health"}
        assert {r["cdp_accuracy"] for r in records} == {0.5}


class TestFiles:
    def test_json_round_trip(self, tmp_path):
        records = [fake_row()]
        path = tmp_path / "r.json"
        write_json(path, records)
        assert read_json(path) == records

    def test_csv_has_header_and_rows(self, tmp_path):
        records = [fake_row()]
        path = tmp_path / "r.csv"
        write_csv(path, records)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == FIELDS
        assert len(lines) == 2


class TestCliExport:
    def test_sweep_export_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert (
            main([
                "sweep", "--benchmarks", "mst", "--mechanisms", "cdp",
                "--input-set", "test", "--export", str(out),
            ])
            == 0
        )
        records = json.loads(out.read_text())
        mechanisms = {r["mechanism"] for r in records}
        assert mechanisms == {"baseline", "cdp"}

    def test_sweep_export_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main([
            "sweep", "--benchmarks", "mst", "--mechanisms", "cdp",
            "--input-set", "test", "--export", str(out),
        ])
        assert out.read_text().startswith("benchmark,")

    def test_local_and_server_routes_export_the_same_rows(
        self, tmp_path, monkeypatch
    ):
        # a cell exports one row whichever route settled it: run here,
        # or fetched from the job service as a journal record
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--smoke", "--export", "local.json"]) == 0
        handle = start_server_thread(
            ExecutionEngine(checkpoint=CheckpointJournal("svc.jsonl"))
        )
        try:
            assert main([
                "sweep", "--smoke", "--server", handle.url,
                "--export", "served.json",
            ]) == 0
        finally:
            handle.stop()
        volatile = set(VOLATILE_FIELDS) & set(FIELDS)

        def content(path):
            return [
                {k: v for k, v in row.items() if k not in volatile}
                for row in read_json(path)
            ]

        local = content("local.json")
        assert len(local) == 4
        assert {row["status"] for row in local} == {"ok"}
        assert content("served.json") == local
