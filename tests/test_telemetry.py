"""Telemetry subsystem: registry, tracer, series, exporters, wiring.

The two invariants everything here circles around:

* recording must never perturb the simulation — a telemetry-enabled run
  is bit-identical to a disabled one on every statistic, on both
  engines;
* the recorded throttle trajectory is *identical* to what the
  differential harness extracts from the controller, not an
  approximation of it.
"""

import json

import pytest

from repro.core.config import SystemConfig
from repro.experiments.runner import clear_caches, run_benchmark
from repro.telemetry import (
    EventTracer,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    TracingFeedbackCollector,
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
from repro.throttle.feedback import FeedbackCollector
from tests.differential.harness import capture

# tiny L2 so the "test" inputs actually evict and complete intervals
SMALL = SystemConfig.scaled().with_overrides(
    l2_size=4096, interval_evictions=64
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def run_with_telemetry(mechanism="ecdp+throttle", benchmark="mst",
                       config=None, **cfg):
    telemetry = Telemetry(TelemetryConfig(series=True, trace=True, **cfg))
    result = run_benchmark(
        benchmark, mechanism, config or SMALL, input_set="test",
        telemetry=telemetry,
    )
    return telemetry, result


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc()
        counter.inc(2)
        registry.gauge("depth", lambda: 7)
        assert registry.sample() == {"events": 3, "depth": 7}
        assert "events" in registry
        assert len(registry) == 2

    def test_prefix_sampling(self):
        registry = MetricsRegistry()
        registry.gauge("core0.cycles", lambda: 1)
        registry.gauge("core1.cycles", lambda: 2)
        assert registry.sample("core0.") == {"core0.cycles": 1}

    def test_core_namespace_bound_after_run(self):
        telemetry, result = run_with_telemetry()
        registry = telemetry.stream("core0").registry
        sample = registry.sample()
        assert sample["core0.cycles"] == result.cycles
        assert sample["core0.retired"] == result.retired_instructions
        assert sample["core0.bus_transfers"] == result.bus_transfers
        assert (
            sample["core0.feedback.intervals"] == result.intervals_completed
        )
        assert "core0.prefetch.cdp.issued" in sample
        assert "core0.dram.demand_requests" in sample


class TestEventTracer:
    def test_ring_drops_oldest(self):
        tracer = EventTracer(capacity=3)
        for ts in range(5):
            tracer.emit(ts, "miss", None, ts)
        assert tracer.appended == 5
        assert tracer.dropped == 2
        assert [event[0] for event in tracer.snapshot()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_counts_by_kind(self):
        tracer = EventTracer()
        tracer.emit(0, "miss")
        tracer.emit(1, "miss")
        tracer.emit(2, "use", "cdp")
        assert tracer.counts_by_kind() == {"miss": 2, "use": 1}


class _Clock:
    cycle = 0.0


class TestTracingFeedbackCollector:
    def drive(self, collector):
        collector.record_issue("cdp", 3)
        collector.record_use("cdp", late=True)
        collector.record_demand_miss(0x1000)
        collector.record_eviction(0x2000, by_prefetch=True,
                                  victim_was_demand=True)
        collector.record_demand_miss(0x2000)  # pollution hit

    def test_arithmetic_identical_to_plain_collector(self):
        plain = FeedbackCollector(["cdp"], interval_evictions=8)
        tracing = TracingFeedbackCollector(
            ["cdp"], interval_evictions=8, tracer=EventTracer(),
            clock=_Clock(),
        )
        self.drive(plain)
        self.drive(tracing)
        assert tracing.accuracy("cdp") == plain.accuracy("cdp")
        assert tracing.coverage("cdp") == plain.coverage("cdp")
        assert tracing.lifetime_misses == plain.lifetime_misses
        assert tracing.lifetime_pollution == plain.lifetime_pollution

    def test_events_mirrored_with_clock_timestamp(self):
        clock = _Clock()
        tracer = EventTracer()
        collector = TracingFeedbackCollector(
            ["cdp"], interval_evictions=8, tracer=tracer, clock=clock,
        )
        clock.cycle = 42.0
        self.drive(collector)
        kinds = [event[1] for event in tracer.snapshot()]
        assert kinds == ["use", "miss", "evict", "miss"]
        assert all(event[0] == 42.0 for event in tracer.snapshot())
        use = tracer.snapshot()[0]
        assert use[2] == "cdp" and use[5] == {"late": True}


class _FakeCore:
    """Minimal core surface the interval recorder samples."""

    def __init__(self):
        self.cycle = 0.0
        self.retired = 0
        self.bus_transfers = 0
        self.name = "core0"
        self._outstanding = []
        self._tracer = None
        self._trained_prefetchers = []
        self.cdp = None


class _FakeDram:
    _in_flight = []


class TestIntervalDecimation:
    def make(self, max_points):
        core = _FakeCore()
        collector = FeedbackCollector([], interval_evictions=1)
        core.feedback = collector
        recorder = IntervalSeriesRecorder(core, _FakeDram(),
                                          max_points=max_points)
        collector.on_interval_telemetry = recorder.on_interval
        return core, collector, recorder

    def test_memory_bounded_with_stride_doubling(self):
        core, collector, recorder = self.make(max_points=8)
        for index in range(100):
            core.cycle = float(index)
            core.retired = index * 10
            collector.record_eviction(0, False, True)
        assert recorder.intervals_seen == 100
        assert len(recorder.samples) <= 8
        assert recorder.stride > 1 and recorder.stride & (recorder.stride - 1) == 0
        assert recorder.decimated == 100 - len(recorder.samples)
        # retained samples keep even spacing at the final stride
        intervals = [s["interval"] for s in recorder.samples]
        assert intervals == sorted(intervals)

    def test_tail_sample_always_kept(self):
        core, collector, recorder = self.make(max_points=8)
        for index in range(97):
            core.cycle = float(index)
            collector.record_eviction(0, False, True)
        core.cycle = 1000.0
        assert collector.flush_partial_interval() is False  # nothing pending
        collector.record_demand_miss(0x40)
        assert collector.flush_partial_interval() is True
        assert recorder.samples[-1]["tail"] is True
        assert recorder.samples[-1]["cycle"] == 1000.0

    def test_min_points_validated(self):
        with pytest.raises(ValueError):
            IntervalSeriesRecorder(_FakeCore(), _FakeDram(), max_points=1)


class TestRunIntegration:
    def test_series_sample_per_interval_plus_tail(self):
        telemetry, result = run_with_telemetry()
        series = telemetry.stream("core0").series
        tails = [s for s in series.samples if s["tail"]]
        assert result.intervals_completed > 0
        assert series.intervals_seen == result.intervals_completed + len(tails)
        assert len(tails) <= 1
        # interval indices are the collector's count at sample time
        assert series.samples[0]["interval"] >= 1 or series.samples[0]["tail"]

    def test_trajectory_identical_to_differential_harness(self):
        snapshot = capture("mst", "ecdp+throttle",
                           SMALL.with_overrides(engine="reference"),
                           input_set="test")
        telemetry, __ = run_with_telemetry()
        assert snapshot["throttle"]  # the cell actually throttles
        assert telemetry.stream("core0").trajectory == snapshot["throttle"]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_enabled_run_bit_identical_to_disabled(self, engine):
        config = SMALL.with_overrides(engine=engine)
        plain = capture("mst", "ecdp+throttle", config, input_set="test")
        telemetry = Telemetry(TelemetryConfig(series=True, trace=True))
        traced = capture("mst", "ecdp+throttle", config, input_set="test",
                         telemetry=telemetry.stream("core0"))
        for key in plain:
            assert traced[key] == plain[key], f"telemetry perturbed {key}"

    def test_engines_record_identical_telemetry(self):
        streams = {}
        for engine in ("reference", "fast"):
            telemetry, __ = run_with_telemetry(
                config=SMALL.with_overrides(engine=engine)
            )
            streams[engine] = telemetry.stream("core0")
        ref, fast = streams["reference"], streams["fast"]
        assert ref.trajectory == fast.trajectory
        assert ref.series.samples == fast.series.samples
        assert ref.tracer.snapshot() == fast.tracer.snapshot()

    def test_result_cache_bypassed_when_telemetry_enabled(self):
        run_benchmark("mst", "cdp", SMALL, input_set="test")  # warm cache
        telemetry = Telemetry(TelemetryConfig(series=True))
        run_benchmark("mst", "cdp", SMALL, input_set="test",
                      telemetry=telemetry)
        assert telemetry.stream("core0").series is not None
        assert telemetry.stream("core0").series.intervals_seen > 0

    def test_intervals_completed_in_result(self):
        result = run_benchmark("mst", "cdp", SMALL, input_set="test")
        assert result.intervals_completed > 0


class TestExporters:
    def test_series_jsonl_and_csv(self, tmp_path):
        telemetry, __ = run_with_telemetry()
        jsonl = tmp_path / "series.jsonl"
        rows = write_series_jsonl(telemetry, jsonl)
        lines = jsonl.read_text().splitlines()
        assert len(lines) == rows > 0
        first = json.loads(lines[0])
        assert first["core"] == "core0"
        assert {"interval", "cycle", "bpki", "prefetchers"} <= set(first)

        csv_path = tmp_path / "series.csv"
        assert write_series_csv(telemetry, csv_path) == rows
        header = csv_path.read_text().splitlines()[0]
        assert "cdp_accuracy" in header and "cdp_level" in header

    def test_events_jsonl_and_csv(self, tmp_path):
        telemetry, __ = run_with_telemetry()
        stream = telemetry.stream("core0")
        count = write_events_jsonl(telemetry, tmp_path / "events.jsonl")
        assert count == len(stream.tracer.events)
        assert write_events_csv(telemetry, tmp_path / "events.csv") == count

    def test_chrome_trace_valid_and_loadable(self, tmp_path):
        telemetry, __ = run_with_telemetry()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(telemetry, path)
        assert written > 0
        assert validate_chrome_trace(path) == []
        payload = json.loads(path.read_text())
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert {"M", "X", "i", "C"} <= phases
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)

    def test_chrome_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad = {"traceEvents": [{"ph": "X", "name": "p", "pid": 0, "tid": 0,
                                "ts": 0}]}  # missing dur
        problems = validate_chrome_trace(bad)
        assert problems and "dur" in problems[0]
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "??"}]}
        ) != []

    def test_chrome_trace_counters_cover_series(self):
        telemetry, __ = run_with_telemetry()
        payload = chrome_trace(telemetry)
        counters = {e["name"] for e in payload["traceEvents"]
                    if e["ph"] == "C"}
        assert "bpki" in counters and "pressure" in counters
        assert any(name.startswith("level ") for name in counters)

    def test_series_path_slug(self, tmp_path):
        path = series_path(tmp_path, "mst", "ecdp+throttle", "test")
        assert path.parent == tmp_path
        assert path.name == "mst-ecdp+throttle-test.series.jsonl"
        weird = series_path(tmp_path, "a/b", "m:1", "x")
        assert "/" not in weird.name and ":" not in weird.name


class TestTelemetryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Telemetry(TelemetryConfig(series_max_points=1))
        with pytest.raises(ValueError):
            Telemetry(TelemetryConfig(trace_capacity=0))

    def test_stream_get_or_create(self):
        telemetry = Telemetry()
        assert telemetry.stream("core0") is telemetry.stream("core0")
        assert telemetry.stream("core1") is not telemetry.stream("core0")

    def test_summaries_sorted_by_core(self):
        telemetry, __ = run_with_telemetry()
        telemetry.stream("extra")
        names = [s["core"] for s in telemetry.summaries()]
        assert names == sorted(names)
