"""Telemetry subsystem: interval series and event tracing.

Observability for the interval-based feedback machinery the paper is
built on.  End-of-run aggregates (:class:`~repro.core.stats.CoreResult`)
answer *how fast*; telemetry answers *why*: the per-interval accuracy /
coverage / aggressiveness trajectory, DRAM and MSHR pressure over time,
and an event-level trace of every prefetch's life cycle, exportable to
JSONL, CSV, and ``chrome://tracing``.

Usage::

    from repro.telemetry import Telemetry, TelemetryConfig
    from repro.experiments.runner import run_benchmark

    telemetry = Telemetry(TelemetryConfig(series=True, trace=True))
    result = run_benchmark("mst", "ecdp+throttle", telemetry=telemetry)
    stream = telemetry.stream("core0")
    stream.series.samples          # per-interval samples
    stream.trajectory              # throttle decisions, harness-identical
    write_chrome_trace(telemetry, "trace.json")

Telemetry is strictly opt-in and zero-cost when off: with
``telemetry=None`` both engines run their unmodified hot paths and
differential tests remain bit-identical.
"""

from repro.telemetry.exporters import (
    chrome_trace,
    series_path,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_csv,
    write_events_jsonl,
    write_series_csv,
    write_series_jsonl,
)
from repro.telemetry.interval import IntervalSeriesRecorder
from repro.telemetry.session import CoreTelemetry, Telemetry, TelemetryConfig
from repro.telemetry.tracer import EventTracer, TracingFeedbackCollector

__all__ = [
    "CoreTelemetry",
    "EventTracer",
    "IntervalSeriesRecorder",
    "Telemetry",
    "TelemetryConfig",
    "TracingFeedbackCollector",
    "chrome_trace",
    "series_path",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_csv",
    "write_events_jsonl",
    "write_series_csv",
    "write_series_jsonl",
]
