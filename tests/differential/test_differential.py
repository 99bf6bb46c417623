"""The differential matrix: every engine == reference engine, exactly.

Every cell of (workload x mechanism) runs under both engines —
reference and fast — on the ``test`` input set and must produce
identical CoreResults, cache / DRAM / queue counters, final
aggressiveness levels, and (where coordinated throttling is attached)
identical interval-by-interval throttle trajectories.
Mechanisms are chosen to cover every optimized-path branch: the raw
kernel, stream training, CDP scans + recursive deferred scans, compiler
hints, and all three throttling modes.

With a telemetry stream attached (interval series, optionally the event
tracer) the engines must also *record* the same series, trajectory and
trace, and the attached stream must not make their snapshots diverge.
"""

import pytest

from repro.core.config import ENGINES, SystemConfig
from repro.experiments.runner import run_benchmark
from repro.telemetry.session import Telemetry, TelemetryConfig
from tests.differential.harness import (
    assert_identical,
    capture,
    compare_engines,
)

WORKLOADS = ["mst", "health", "libquantum"]

#: prefetcher configuration x throttling mode coverage
MECHANISMS = [
    "no-prefetch",     # raw kernel, no observers
    "baseline",        # stream prefetcher training + issue
    "cdp",             # stream + greedy CDP (fills, recursion, owners)
    "ecdp+throttle",   # hints + coordinated throttling (feedback hooks)
    "ecdp+fdp",        # FDP throttling mode
    "gendler",         # selector throttling mode
]


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_engines_bit_identical(workload, mechanism):
    assert_identical(compare_engines(workload, mechanism))


def test_throttle_trajectory_is_exercised_and_identical():
    """Force several feedback intervals so trajectory equality is not
    vacuous, then require the exact same decision sequence."""
    config = SystemConfig.scaled().with_overrides(
        l2_size=8192, interval_evictions=32
    )
    snapshots = compare_engines("mst", "ecdp+throttle", config=config)
    assert snapshots["reference"]["throttle"], (
        "expected at least one throttle interval"
    )
    assert_identical(snapshots)


@pytest.mark.parametrize("trace_on", [False, True])
@pytest.mark.parametrize(
    "workload,mechanism",
    [("mst", "no-prefetch"), ("mst", "ecdp+throttle")],
)
def test_telemetry_runs_identical(workload, mechanism, trace_on):
    # small caches + short intervals: several boundaries inside one run
    config = SystemConfig.scaled().with_overrides(
        l2_size=4096, interval_evictions=64
    )
    probes = {}
    for engine in ENGINES:
        session = Telemetry(TelemetryConfig(series=True, trace=trace_on))
        stream = session.stream("core0")
        snapshot = capture(
            workload,
            mechanism,
            config.with_overrides(engine=engine),
            telemetry=stream,
        )
        probes[engine] = {
            "snapshot": snapshot,
            "samples": stream.series.samples,
            "trajectory": stream.series.trajectory,
            "trace": stream.tracer.snapshot() if trace_on else None,
        }
    reference = probes["reference"]
    assert reference["samples"], "expected at least one interval sample"
    for engine in ENGINES:
        for key, expected in reference.items():
            assert probes[engine][key] == expected, (
                f"engine {engine!r} diverges on telemetry {key}"
            )


def test_oracle_and_hw_filter_paths_identical():
    """Cover the oracle-LDS fast path and the hardware prefetch filter."""
    for mechanism in ("oracle-lds", "hwfilter+throttle"):
        assert_identical(compare_engines("mst", mechanism))


def test_run_benchmark_respects_engine_field():
    """The public runner entry selects the engine from the config and
    all engines agree through it (memoization keys must not mix)."""
    results = {
        engine: run_benchmark(
            "mst",
            "ecdp+throttle",
            SystemConfig.scaled().with_overrides(engine=engine),
            input_set="test",
            use_cache=False,
        )
        for engine in ENGINES
    }
    reference = results["reference"]
    assert all(result == reference for result in results.values())


def test_capture_reports_nonzero_activity():
    """Guard against a harness that compares empty snapshots."""
    snapshot = capture(
        "mst",
        "baseline",
        SystemConfig.scaled().with_overrides(engine="fast"),
    )
    assert snapshot["result"].retired_instructions > 0
    assert snapshot["l2"].misses > 0
    assert snapshot["levels"]  # the stream prefetcher is registered
