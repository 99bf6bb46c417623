"""Export experiment results to JSON or CSV for external analysis.

The bench harness prints paper-shaped tables; this module serves users
who want the raw numbers — spreadsheets, notebooks, regression tracking
across library versions.  A row is a settled job's journal record
mapped onto :data:`FIELDS` (:func:`export_row`).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments.engine.checkpoint import failure_from_record
from repro.experiments.engine.job import ResultSnapshot

PathLike = Union[str, Path]

#: columns exported per (benchmark, mechanism) result
FIELDS = [
    "benchmark",
    "mechanism",
    "status",
    "ipc",
    "bpki",
    "retired_instructions",
    "cycles",
    "l2_demand_misses",
    "bus_transfers",
    "cdp_accuracy",
    "cdp_coverage",
    "stream_accuracy",
    "stream_coverage",
    "intervals_completed",
    "attempts",
    "backoff_seconds",
    "executor",
    "host",
    "queue_seconds",
    "error_type",
    "series_file",
    "policy",
    "policy_params",
]


def export_row(record: Dict, series_file: Optional[str] = None) -> Dict:
    """Map one settled job's journal record onto :data:`FIELDS`.

    The record is :func:`~repro.experiments.engine.checkpoint.
    journal_record`'s, so a cell exports the same row whether it ran
    here, was resumed from the journal or came back from ``repro sweep
    --server``.

    A failed run exports with ``status`` carrying the failure reason,
    ``error_type`` naming the exception class, and every metric column
    null, so downstream analysis sees the hole — and *how* it failed —
    explicitly instead of a silently missing row.

    ``attempts`` and ``backoff_seconds`` surface the engine's retry
    schedule: how many launches the cell took and how long backoff
    delayed it.  The journal leaves a zero backoff out, and the row says
    ``0.0``.  A record of zero attempts is a cell that never ran (a
    drain stopped the sweep first), and both columns stay null.

    ``executor``, ``host``, and ``queue_seconds`` are execution
    provenance: which backend ran the cell, on which host, and how long
    it sat queued for a free slot.  The journal keeps them for
    successful runs only, so they stay null for FAILED rows, where no
    attempt is *the* one that produced the cell, and for journals
    written before backends existed.

    ``series_file`` optionally points at the per-interval telemetry
    series recorded for this cell (sweeps run with ``--telemetry``
    persist one file per cell beside the checkpoint journal); it stays
    null for failed rows and runs without telemetry.

    ``policy`` and ``policy_params`` record which throttling policy
    (``repro.policy``) governed the run.  Unlike the provenance trio
    they are identity-bearing (part of the config, thus of the job's
    content hash); they stay null for journals written before policies
    existed.  Failed rows keep them — the policy was still part of what
    was asked for.
    """
    ran = bool(record.get("attempts"))
    row: Dict = dict.fromkeys(FIELDS)
    row.update(
        benchmark=record["benchmark"],
        mechanism=record["mechanism"],
        attempts=record["attempts"] if ran else None,
        backoff_seconds=record.get("backoff_seconds", 0.0) if ran else None,
        policy=record.get("policy"),
        policy_params=record.get("policy_params"),
    )
    failure = failure_from_record(record)
    if failure is not None:
        row.update(
            status=f"FAILED({failure.reason})",
            error_type=failure.error_type,
        )
        return row
    result = ResultSnapshot(record.get("metrics"))
    row.update(
        status="ok",
        ipc=result.ipc,
        bpki=result.bpki,
        retired_instructions=result.retired_instructions,
        cycles=result.cycles,
        l2_demand_misses=result.l2_demand_misses,
        bus_transfers=result.bus_transfers,
        cdp_accuracy=result.accuracy("cdp"),
        cdp_coverage=result.coverage("cdp"),
        stream_accuracy=result.accuracy("stream"),
        stream_coverage=result.coverage("stream"),
        intervals_completed=result.intervals_completed,
        executor=record.get("executor"),
        host=record.get("host"),
        queue_seconds=record.get("queue_seconds"),
        series_file=series_file,
    )
    return row


def write_json(path: PathLike, records: List[Dict]) -> None:
    """Write export rows as a JSON array."""
    with open(path, "w") as stream:
        json.dump(records, stream, indent=2)
        stream.write("\n")


def write_csv(path: PathLike, records: List[Dict]) -> None:
    """Write export rows as CSV with the standard column set."""
    with open(path, "w", newline="") as stream:
        writer = csv.DictWriter(stream, fieldnames=FIELDS)
        writer.writeheader()
        for record in records:
            writer.writerow(record)


def read_json(path: PathLike) -> List[Dict]:
    with open(path) as stream:
        return json.load(stream)
