"""Telemetry session: configuration and per-core stream wiring.

A :class:`Telemetry` session owns one :class:`CoreTelemetry` stream per
core (``MultiCoreSystem`` runs get disjoint streams keyed by core name).
Each stream carries an optional event-trace ring and an optional
interval-series recorder.

The overhead contract (enforced by ``benchmarks/
bench_telemetry_overhead.py`` and the CI perf-smoke budget):

* **disabled** (``telemetry=None`` — the default everywhere): the core
  models construct the plain :class:`FeedbackCollector` and both
  engines run their exact pre-telemetry hot paths.  The only residual
  cost is one ``is not None`` test per *issued prefetch* (cold path);
  differential tests stay bit-identical and the kernel benchmark stays
  within 2% of ``BENCH_kernel.json``.
* **series only**: cost is one sample per feedback interval (thousands
  of simulated ops apart) — nothing per memory op.
* **trace**: adds one ring append per prefetch/use/miss/eviction event;
  all arithmetic is unchanged, so results remain bit-identical between
  engines and against a disabled run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.telemetry.interval import IntervalSeriesRecorder
from repro.telemetry.tracer import (
    DEFAULT_CAPACITY,
    EventTracer,
    TracingFeedbackCollector,
)
from repro.throttle.feedback import FeedbackCollector


@dataclass(frozen=True)
class TelemetryConfig:
    """What to record and how much memory to spend on it."""

    #: record the per-interval time series (accuracy/coverage/levels/...)
    series: bool = True
    #: bound on retained series samples; beyond it, decimation doubles
    #: the keep stride (memory stays O(series_max_points) forever)
    series_max_points: int = 4096
    #: record the event ring (prefetch spans, uses, misses, evictions)
    trace: bool = False
    #: event ring capacity; older events fall off and are counted
    trace_capacity: int = DEFAULT_CAPACITY

    def validate(self) -> "TelemetryConfig":
        if self.series_max_points < 2:
            raise ValueError("series_max_points must be at least 2")
        if self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")
        return self


class CoreTelemetry:
    """One core's telemetry stream (tracer + series)."""

    def __init__(self, name: str, config: TelemetryConfig) -> None:
        self.name = name
        self.config = config
        self.tracer: Optional[EventTracer] = (
            EventTracer(config.trace_capacity) if config.trace else None
        )
        self.series: Optional[IntervalSeriesRecorder] = None
        self.core = None

    # -- hooks called by the core model / builder ---------------------------

    def make_collector(
        self, prefetcher_names, interval_evictions: int, clock
    ) -> FeedbackCollector:
        """The feedback collector the core should use.

        With event tracing on, a :class:`TracingFeedbackCollector`
        mirrors feedback events into the ring; otherwise the plain
        collector, so disabled paths are untouched.
        """
        if self.tracer is not None:
            return TracingFeedbackCollector(
                prefetcher_names,
                interval_evictions,
                tracer=self.tracer,
                clock=clock,
            )
        return FeedbackCollector(prefetcher_names, interval_evictions)

    def install(self, core, dram) -> None:
        """Attach recorders to a fully built core.

        Must run *after* the throttling controller's ``attach`` so the
        interval recorder fires after the controller and can snapshot
        its decisions; :func:`repro.experiments.runner.build_core` calls
        this last.
        """
        self.core = core
        if self.config.series:
            self.series = IntervalSeriesRecorder(
                core, dram, max_points=self.config.series_max_points
            )
            core.feedback.on_interval_telemetry = self.series.on_interval

    # -- views ---------------------------------------------------------------

    @property
    def trajectory(self):
        """The recorded throttle-decision trajectory (may be empty)."""
        return self.series.trajectory if self.series is not None else []

    def summary(self) -> Dict:
        out: Dict = {"core": self.name}
        if self.series is not None:
            out["series"] = self.series.summary()
        if self.tracer is not None:
            out["events"] = {
                "appended": self.tracer.appended,
                "retained": len(self.tracer.events),
                "dropped": self.tracer.dropped,
                "by_kind": self.tracer.counts_by_kind(),
            }
        return out


class Telemetry:
    """A session: per-core streams plus session-wide export surface."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = (config or TelemetryConfig()).validate()
        self.streams: Dict[str, CoreTelemetry] = {}

    def stream(self, name: str) -> CoreTelemetry:
        """Get or create the stream for one core (keyed by core name)."""
        stream = self.streams.get(name)
        if stream is None:
            stream = CoreTelemetry(name, self.config)
            self.streams[name] = stream
        return stream

    def summaries(self) -> List[Dict]:
        return [
            self.streams[name].summary() for name in sorted(self.streams)
        ]
