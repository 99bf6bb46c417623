"""The multicore differential: every engine == reference through
``MultiCoreSystem``, exactly.

Figs 14/15 come from multiprogrammed mixes on one shared DRAM, where
each core's requests interleave with the others' in global-cycle order.
Each cell runs under both engines on the ``test`` input, on a machine
small enough that feedback intervals fire, and must produce identical
per-core CoreResults, cache / queue counters, final aggressiveness
levels and throttle trajectories, and identical shared DRAM counters.
Under a telemetry session (interval series plus the event tracer) every
core must also record the same samples, trajectory and trace, and the
session must not perturb the snapshot.
"""

import pytest

from repro.core.config import ENGINES
from repro.telemetry.session import Telemetry, TelemetryConfig
from tests.differential.harness import (
    INTERVAL_HEAVY,
    assert_identical,
    capture_multicore,
)

#: pointer+streaming and pointer+pointer pairs, a 4-core mix, and a mix
#: whose traces differ ~16x in length (sjeng ends long before ammp)
MIXES = {
    "voronoi+bwaves": ("voronoi", "bwaves"),
    "mst+health": ("mst", "health"),
    "4core": ("xalancbmk", "astar", "mst", "ammp"),
    "uneven": ("sjeng", "ammp"),
}

CELLS = [
    ("voronoi+bwaves", "baseline"),
    ("voronoi+bwaves", "ecdp+throttle"),
    ("mst+health", "baseline"),
    ("mst+health", "ecdp+throttle"),
    ("4core", "ecdp+throttle"),
    ("uneven", "ecdp+throttle"),
]


@pytest.mark.parametrize("mix,mechanism", CELLS)
def test_multicore_engines_bit_identical(mix, mechanism):
    assert_identical({
        engine: capture_multicore(
            MIXES[mix],
            mechanism,
            INTERVAL_HEAVY.with_overrides(engine=engine),
        )
        for engine in ENGINES
    })


@pytest.mark.parametrize("mix", ["voronoi+bwaves", "4core", "uneven"])
def test_multicore_telemetry_identical(mix):
    benchmarks = MIXES[mix]
    snapshots = {}
    recordings = {}
    for engine in ENGINES:
        config = INTERVAL_HEAVY.with_overrides(engine=engine)
        session = Telemetry(TelemetryConfig(series=True, trace=True))
        snapshots[engine] = capture_multicore(
            benchmarks, "ecdp+throttle", config, telemetry=session
        )
        assert snapshots[engine] == capture_multicore(
            benchmarks, "ecdp+throttle", config
        ), f"telemetry perturbed the {engine} engine"
        recordings[engine] = {
            name: {
                "samples": stream.series.samples,
                "trajectory": stream.series.trajectory,
                "trace": stream.tracer.snapshot(),
            }
            for name, stream in session.streams.items()
        }
    assert_identical(snapshots)

    reference = recordings["reference"]
    assert sorted(reference) == [f"core{i}" for i in range(len(benchmarks))]
    assert any(rec["samples"] for rec in reference.values())
    assert any(rec["trajectory"] for rec in reference.values())
    for engine in ENGINES:
        for name, expected in reference.items():
            for key, value in expected.items():
                assert recordings[engine][name][key] == value, (
                    f"engine {engine!r} diverges on {name} telemetry {key}"
                )
