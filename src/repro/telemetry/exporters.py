"""Telemetry exporters: JSONL, CSV, and Chrome trace-event JSON.

The first two are for notebooks and spreadsheets; the third loads
directly in ``chrome://tracing`` / Perfetto.  Chrome's trace-event
format (the "JSON Object Format": ``{"traceEvents": [...]}``) maps
naturally onto the telemetry streams:

* each core is a *process* (``pid`` = core index, named via metadata
  events);
* prefetch issue->fill spans are complete events (``"ph": "X"``) on a
  per-owner thread lane, so in-flight prefetch overlap is visible;
* demand misses / prefetch uses / evictions are instant events
  (``"ph": "i"``);
* per-interval accuracy, coverage, BPKI, occupancies and the throttle
  level ladder are counter events (``"ph": "C"``), which chrome renders
  as stacked time series — the throttle trajectory becomes a staircase.

Timestamps are simulated core cycles reported as microseconds (the
format's native unit); the absolute scale is meaningless, relative
spacing is exact.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

PathLike = Union[str, Path]

#: flat CSV columns for event rows
EVENT_FIELDS = ["core", "ts", "kind", "name", "addr", "dur", "args"]

#: thread lanes per core, in display order
_LANES = ("prefetch", "use", "miss", "evict", "throttle", "interval")


# -- series ------------------------------------------------------------------


def series_rows(stream) -> List[Dict[str, Any]]:
    """Flatten one core's interval series into JSON-safe rows."""
    recorder = stream.series
    if recorder is None:
        return []
    rows = []
    for sample in recorder.samples:
        row = {"core": stream.name}
        row.update(sample)
        rows.append(row)
    return rows


def write_series_jsonl(session_or_stream, path: PathLike) -> int:
    """One JSON object per line per retained interval sample."""
    rows = [
        row
        for stream in _streams(session_or_stream)
        for row in series_rows(stream)
    ]
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


def write_series_csv(session_or_stream, path: PathLike) -> int:
    """Interval series as CSV, per-prefetcher metrics in flat columns."""
    rows = [
        row
        for stream in _streams(session_or_stream)
        for row in series_rows(stream)
    ]
    flat_rows = []
    columns: List[str] = []
    for row in rows:
        flat = {
            key: value
            for key, value in row.items()
            if key != "prefetchers"
        }
        for owner, metrics in row.get("prefetchers", {}).items():
            for metric, value in metrics.items():
                flat[f"{owner}_{metric}"] = value
        flat_rows.append(flat)
        for key in flat:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for flat in flat_rows:
            writer.writerow(flat)
    return len(flat_rows)


# -- events ------------------------------------------------------------------


def event_rows(stream) -> Iterable[Dict[str, Any]]:
    if stream.tracer is None:
        return
    for ts, kind, name, addr, dur, args in stream.tracer.events:
        yield {
            "core": stream.name,
            "ts": ts,
            "kind": kind,
            "name": name,
            "addr": addr,
            "dur": dur,
            "args": args,
        }


def write_events_jsonl(session_or_stream, path: PathLike) -> int:
    count = 0
    with open(path, "w") as fh:
        for stream in _streams(session_or_stream):
            for row in event_rows(stream):
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                count += 1
    return count


def write_events_csv(session_or_stream, path: PathLike) -> int:
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=EVENT_FIELDS)
        writer.writeheader()
        for stream in _streams(session_or_stream):
            for row in event_rows(stream):
                row = dict(row)
                if row["args"] is not None:
                    row["args"] = json.dumps(row["args"], sort_keys=True)
                writer.writerow(row)
                count += 1
    return count


# -- chrome trace-event JSON -------------------------------------------------


def chrome_trace(session_or_stream) -> Dict[str, Any]:
    """Build a ``chrome://tracing``-loadable trace-event payload."""
    events: List[Dict[str, Any]] = []
    for pid, stream in enumerate(_streams(session_or_stream)):
        events.append(_meta(pid, "process_name", name=stream.name))
        for tid, lane in enumerate(_LANES):
            events.append(
                _meta(pid, "thread_name", tid=tid, name=lane)
            )
        lane_of = {lane: tid for tid, lane in enumerate(_LANES)}
        if stream.tracer is not None:
            for ts, kind, name, addr, dur, args in stream.tracer.events:
                tid = lane_of.get(kind, 0)
                event: Dict[str, Any] = {
                    "name": name or kind,
                    "cat": kind,
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                }
                event_args: Dict[str, Any] = dict(args or {})
                if addr is not None:
                    event_args["addr"] = hex(addr)
                if kind == "prefetch":
                    event["ph"] = "X"
                    event["dur"] = dur if dur is not None else 0
                else:
                    event["ph"] = "i"
                    event["s"] = "t"
                if event_args:
                    event["args"] = event_args
                events.append(event)
        recorder = stream.series
        if recorder is not None:
            for sample in recorder.samples:
                ts = sample["cycle"]
                events.append(_counter(pid, ts, "bpki",
                                       {"bpki": sample["bpki"]}))
                events.append(_counter(
                    pid, ts, "pressure",
                    {
                        "dram_occupancy": sample["dram_occupancy"],
                        "mshr_occupancy": sample["mshr_occupancy"],
                    },
                ))
                for owner, metrics in sample["prefetchers"].items():
                    events.append(_counter(
                        pid, ts, f"level {owner}",
                        {"level": metrics["level"]},
                    ))
                    events.append(_counter(
                        pid, ts, f"feedback {owner}",
                        {
                            "accuracy": metrics["accuracy"],
                            "coverage": metrics["coverage"],
                        },
                    ))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro telemetry", "ts_unit": "core cycles"},
    }


def write_chrome_trace(session_or_stream, path: PathLike) -> int:
    payload = chrome_trace(session_or_stream)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return len(payload["traceEvents"])


#: chrome trace phases we emit and the fields each requires
_PHASE_REQUIRED = {
    "X": ("name", "pid", "tid", "ts", "dur"),
    "i": ("name", "pid", "tid", "ts", "s"),
    "C": ("name", "pid", "ts", "args"),
    "M": ("name", "pid"),
}


def validate_chrome_trace(payload_or_path) -> List[str]:
    """Structural validation of a trace-event payload; [] when valid.

    Checks the subset of the trace-event spec we emit: a JSON object
    with a ``traceEvents`` list whose entries carry a known phase and
    that phase's required fields with sane types.  Used by the CI smoke
    step and by tests; returns human-readable problems rather than
    raising so callers can report all of them.
    """
    if isinstance(payload_or_path, (str, Path)):
        try:
            payload = json.loads(Path(payload_or_path).read_text())
        except (OSError, ValueError) as error:
            return [f"unreadable trace JSON: {error}"]
    else:
        payload = payload_or_path
    problems: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["top level must be an object with a traceEvents list"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASE_REQUIRED:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        for field in _PHASE_REQUIRED[phase]:
            if field not in event:
                problems.append(f"{where}: phase {phase} missing {field!r}")
        for field in ("ts", "dur"):
            if field in event and not isinstance(event[field], (int, float)):
                problems.append(f"{where}: {field} must be numeric")
        if "name" in event and not isinstance(event["name"], str):
            problems.append(f"{where}: name must be a string")
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    return problems


# -- paths -------------------------------------------------------------------


def series_path(directory: PathLike, benchmark: str, mechanism: str,
                input_set: str, key: str) -> Path:
    """Canonical per-job series file beside a sweep's checkpoint journal.

    *key* is the job's content hash, so two jobs of one cell that differ
    only in config or profile input write two files.
    """
    slug = re.sub(
        r"[^A-Za-z0-9._+-]+",
        "_",
        f"{benchmark}-{mechanism}-{input_set}-{key}",
    )
    return Path(directory) / f"{slug}.series.jsonl"


# -- helpers -----------------------------------------------------------------


def _streams(session_or_stream) -> List:
    streams = getattr(session_or_stream, "streams", None)
    if streams is None:
        return [session_or_stream]
    return [streams[name] for name in sorted(streams)]


def _meta(pid: int, meta_name: str, tid: int = 0, **args) -> Dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": meta_name, "args": args}


def _counter(pid: int, ts: float, name: str,
             values: Dict[str, Any]) -> Dict[str, Any]:
    return {"ph": "C", "pid": pid, "ts": ts, "name": name, "args": values}
