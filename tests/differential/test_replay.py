"""The replay differential: a recorded trace reproduces the live run exactly.

A trace artifact (:mod:`repro.workloads.artifacts`) holds the memory
image, the ops, and every memory write the generator made, tagged with
the index of the next op.  A replayed run must match live generation in
every harness snapshot field (CoreResult, cache and queue counters,
DRAM counters, final levels, throttle trajectory) and leave the same
final memory image, under every mechanism whose prefetchers read memory
contents.  Six generators write memory while tracing on the test input
(omnetpp, bisort, health, libquantum, milc, em3d), so a trace without
its writes would diverge on them.

Covered: every registered workload under the five Fig 7 mechanisms and
``dbp`` on the test input; the ref traces of omnetpp, bisort and health
under the Fig 7 mechanisms; the multicore mixes through
``MultiCoreSystem``; and the profiler, whose stored profile must yield
the hint vectors a fresh one does.
"""

import pytest

from repro.compiler.hints import CoarseLoadFilter, HintTable
from repro.core.config import SystemConfig
from repro.experiments import runner
from repro.workloads.artifacts import ArtifactStore
from repro.workloads.base import Workload
from repro.workloads.registry import all_names, get_workload
from tests.differential.harness import (
    INTERVAL_HEAVY,
    capture,
    capture_multicore,
)
from tests.differential.test_multicore import CELLS, MIXES

FIG7_MECHANISMS = ("baseline", "cdp", "ecdp", "cdp+throttle", "ecdp+throttle")

#: generators that write memory while tracing on the test input
WRITERS = {"omnetpp", "bisort", "health", "libquantum", "milc", "em3d"}


def _no_builds(monkeypatch):
    """From here on, a live build fails the test: replays only."""

    def build(self, input_set="ref"):
        raise AssertionError(f"{self.name}/{input_set} was built, not replayed")

    monkeypatch.setattr(Workload, "build", build)


def _assert_same(live, other, label):
    for key in live:
        assert other[key] == live[key], f"{label} diverges on {key}"


def _live_record_replay(
    monkeypatch, tmp_path, benchmark, mechanisms, config, input_set,
    profile_input,
):
    """Live snapshots, one recorded (cdp) and one replayed per mechanism."""
    live = {
        m: capture(benchmark, m, config, input_set, profile_input,
                   with_memory=True)
        for m in mechanisms
    }
    store = ArtifactStore(tmp_path)
    recorded = capture(benchmark, "cdp", config, input_set, profile_input,
                       store=store, with_memory=True)
    _assert_same(live["cdp"], recorded, f"{benchmark}/cdp recording")
    assert len(list(tmp_path.glob(f"{benchmark}.{input_set}.*.trace"))) == 1
    _no_builds(monkeypatch)
    for mechanism in mechanisms:
        replayed = capture(benchmark, mechanism, config, input_set,
                           profile_input, store=store, with_memory=True)
        _assert_same(live[mechanism], replayed, f"{benchmark}/{mechanism} replay")
    return live


@pytest.mark.parametrize("workload", all_names())
def test_replay_matches_live(monkeypatch, tmp_path, workload):
    built = list(get_workload(workload).build("test").memory.iter_words())
    # profiled on the test input so the hinted cells stay cheap; the
    # small L2 makes throttle trajectories non-vacuous
    live = _live_record_replay(
        monkeypatch, tmp_path, workload, FIG7_MECHANISMS + ("dbp",),
        INTERVAL_HEAVY, "test", "test",
    )
    # the writers are why a trace must carry its writes
    assert (live["cdp"]["memory"] != built) == (workload in WRITERS)


@pytest.mark.parametrize("workload", ["omnetpp", "bisort", "health"])
def test_replay_ref_input_matches_live(monkeypatch, tmp_path, workload):
    _live_record_replay(
        monkeypatch, tmp_path, workload, FIG7_MECHANISMS,
        SystemConfig.scaled(), "ref", "train",
    )


@pytest.mark.parametrize("mix,mechanism", CELLS)
def test_replay_multicore_matches_live(monkeypatch, tmp_path, mix, mechanism):
    benchmarks = MIXES[mix]
    live = capture_multicore(benchmarks, mechanism, INTERVAL_HEAVY,
                             with_memory=True)
    store = ArtifactStore(tmp_path)
    recorded = capture_multicore(benchmarks, mechanism, INTERVAL_HEAVY,
                                 store=store, with_memory=True)
    _assert_same(live, recorded, f"{mix}/{mechanism} recording")
    assert len(list(tmp_path.glob("*.trace"))) == len(benchmarks)
    _no_builds(monkeypatch)
    replayed = capture_multicore(benchmarks, mechanism, INTERVAL_HEAVY,
                                 store=store, with_memory=True)
    _assert_same(live, replayed, f"{mix}/{mechanism} replay")


@pytest.mark.parametrize("workload", ["mst", "health", "omnetpp"])
def test_stored_profile_yields_identical_hints(monkeypatch, tmp_path, workload):
    benchmark = workload
    config = SystemConfig.scaled()
    store = ArtifactStore(tmp_path)
    runner.clear_caches()
    fresh = runner.profile_benchmark(benchmark, config, "test")
    runner.clear_caches()
    computed = runner.profile_benchmark(benchmark, config, "test", store)
    assert len(list(tmp_path.glob(f"{benchmark}.test.*.profile"))) == 1
    assert not list(tmp_path.glob("*.trace"))  # a profile stores no trace
    runner.clear_caches()

    def no_profiling(*args, **kwargs):
        raise AssertionError("profile recomputed instead of loaded")

    monkeypatch.setattr(runner, "profile_trace", no_profiling)
    loaded = runner.profile_benchmark(benchmark, config, "test", store)
    runner.clear_caches()
    assert fresh.to_rows() and loaded.to_rows() == fresh.to_rows()
    assert computed.to_rows() == fresh.to_rows()
    pcs = {pc for pc, *_ in fresh.to_rows()}
    fresh_table = HintTable.from_profile(fresh)
    loaded_table = HintTable.from_profile(loaded)
    assert {pc: loaded_table.vector_for(pc) for pc in pcs} == {
        pc: fresh_table.vector_for(pc) for pc in pcs
    }
    fresh_filter = CoarseLoadFilter.from_profile(fresh)
    loaded_filter = CoarseLoadFilter.from_profile(loaded)
    assert {pc: loaded_filter.allows(pc, 0) for pc in pcs} == {
        pc: fresh_filter.allows(pc, 0) for pc in pcs
    }
