"""Harness: run one evaluation cell under every engine, capture everything.

A *snapshot* is every externally observable statistic of one simulation:
the :class:`~repro.core.stats.CoreResult` (cycles, IPC inputs, per-
prefetcher issue/useful/harmful/late counts), both caches' counters, the
DRAM controller's counters, prefetch-queue drops, each throttled
prefetcher's final aggressiveness level, and — when coordinated
throttling is attached — the full interval-by-interval throttle
trajectory (case, action, coverage, accuracy, rival coverage per
decision).

``compare_engines`` produces one snapshot per engine — reference and
fast — for one (workload, mechanism, input set) cell, and the tests
assert field-by-field equality via :func:`assert_identical`.  Floats
are compared *exactly*: the optimized engines claim the same arithmetic
in the same order, so any drift is a bug, not noise.

``capture_multicore`` is the same snapshot for a multiprogrammed mix
driven through :class:`~repro.core.system.MultiCoreSystem` (the
Figs 14/15 path): every core's statistics keyed ``core<i>.<field>``,
plus the shared DRAM controller's counters.

Both take an optional :class:`~repro.workloads.artifacts.ArtifactStore`
(the cell then records its trace into the store, or replays it from
there) and, with ``with_memory``, add each instance's final memory image
to the snapshot (every word, in insertion order), so live and replayed
runs can be compared down to the memory they leave behind.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence

from repro.core.config import ENGINES, SystemConfig
from repro.core.system import MultiCoreSystem
from repro.experiments.configs import get_mechanism
from repro.experiments.runner import (
    build_core,
    hint_filter_for,
    make_dram,
    workload_instance,
)

#: small L2 + short interval => tens of feedback intervals on the test
#: input, so trajectory comparisons are never vacuous
INTERVAL_HEAVY = SystemConfig.scaled().with_overrides(
    l2_size=8192, interval_evictions=32
)


def capture(
    benchmark: str,
    mechanism: str,
    config: SystemConfig,
    input_set: str = "test",
    profile_input: str = "train",
    telemetry=None,
    store=None,
    with_memory: bool = False,
    hints=None,
) -> Dict[str, Any]:
    """Run one cell under ``config.engine`` and snapshot every statistic.

    ``telemetry`` optionally threads a
    :class:`repro.telemetry.CoreTelemetry` stream into the build, so
    telemetry-on runs can be snapshot-compared against plain ones (they
    must be bit-identical — recording must never perturb simulation).
    ``hints``, a :class:`repro.compiler.hints.HintTable`, replaces the
    profiled table of a hinted mechanism, and nothing is profiled.
    """
    mech = get_mechanism(mechanism)
    if hints is not None:
        hint_filter = hints.allows
    else:
        hint_filter = hint_filter_for(
            mech, benchmark, config, profile_input, store
        )
    instance = workload_instance(benchmark, input_set, store)
    dram = make_dram(config, n_cores=1)
    core = build_core(mech, config, instance, dram, hint_filter,
                      telemetry=telemetry)
    result = core.run(instance.trace())
    snapshot = {**_core_snapshot(core, result), "dram": dram.stats}
    if with_memory:
        snapshot["memory"] = list(instance.memory.iter_words())
    return snapshot


def capture_multicore(
    benchmarks: Sequence[str],
    mechanism: str,
    config: SystemConfig,
    input_set: str = "test",
    profile_input: str = "train",
    telemetry=None,
    store=None,
    with_memory: bool = False,
) -> Dict[str, Any]:
    """Run one mix through ``MultiCoreSystem`` under ``config.engine``,
    wired exactly as :func:`repro.experiments.runner.run_multicore`.

    ``telemetry`` is an optional :class:`repro.telemetry.Telemetry`
    session; core *i* records into its ``core<i>`` stream.
    """
    mech = get_mechanism(mechanism)
    dram = make_dram(config, n_cores=len(benchmarks))
    cores = []
    traces = []
    instances = []
    for index, benchmark in enumerate(benchmarks):
        hint_filter = hint_filter_for(
            mech, benchmark, config, profile_input, store
        )
        instance = workload_instance(benchmark, input_set, store)
        name = f"core{index}"
        stream = telemetry.stream(name) if telemetry is not None else None
        cores.append(build_core(mech, config, instance, dram, hint_filter,
                                name=name, telemetry=stream))
        traces.append(instance.trace())
        instances.append(instance)
    results = MultiCoreSystem(cores).run(traces)
    snapshot: Dict[str, Any] = {"dram": dram.stats}
    for core, result, instance in zip(cores, results, instances):
        for key, value in _core_snapshot(core, result).items():
            snapshot[f"{core.name}.{key}"] = value
        if with_memory:
            snapshot[f"{core.name}.memory"] = list(instance.memory.iter_words())
    return snapshot


def _core_snapshot(core, result) -> Dict[str, Any]:
    """Every per-core statistic of one finished core."""
    # duck-typed on the controller exposing a ``decisions`` list, so any
    # PolicyThrottle-driven policy (repro.policy) records a trajectory
    trajectory = None
    hook = core.feedback.on_interval
    controller = getattr(hook, "__self__", None)
    if getattr(controller, "decisions", None) is not None:
        trajectory = [
            (
                decision.owner,
                decision.case,
                decision.action,
                decision.coverage,
                decision.accuracy,
                decision.rival_coverage,
            )
            for decision in controller.decisions
        ]
    return {
        "result": result,
        "l1": core.l1.stats,
        "l2": core.l2.stats,
        "pf_dropped": core.pf_queue.dropped,
        "bus_transfers": core.bus_transfers,
        "levels": {p.name: p.level for p in core._trained_prefetchers},
        "throttle": trajectory,
    }


def compare_engines(
    benchmark: str,
    mechanism: str,
    input_set: str = "test",
    config: Optional[SystemConfig] = None,
    profile_input: str = "train",
) -> Dict[str, Dict[str, Any]]:
    """One snapshot per engine for one cell, keyed by engine."""
    base = config or SystemConfig.scaled()
    return {
        engine: capture(
            benchmark,
            mechanism,
            base.with_overrides(engine=engine),
            input_set=input_set,
            profile_input=profile_input,
        )
        for engine in ENGINES
    }


def assert_identical(snapshots: Dict[str, Dict[str, Any]]) -> None:
    """Field-by-field equality of every engine against the reference,
    with a readable failure naming the engine and the statistic."""
    reference = snapshots["reference"]
    for engine, snapshot in snapshots.items():
        if engine == "reference":
            continue
        for key in reference:
            assert snapshot[key] == reference[key], (
                f"engine {engine!r} diverges on {key}:\n"
                f"  reference: {reference[key]!r}\n"
                f"  {engine}: {snapshot[key]!r}"
            )


def as_plain(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The snapshot with its stat dataclasses as dicts, for a golden."""
    return {
        key: dataclasses.asdict(value)
        if dataclasses.is_dataclass(value) else value
        for key, value in snapshot.items()
    }
