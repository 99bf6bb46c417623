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
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.config import ENGINES, SystemConfig
from repro.experiments.configs import get_mechanism
from repro.experiments.runner import build_core, hint_filter_for, make_dram
from repro.workloads.registry import get_workload


def capture(
    benchmark: str,
    mechanism: str,
    config: SystemConfig,
    input_set: str = "test",
    profile_input: str = "train",
    telemetry=None,
) -> Dict[str, Any]:
    """Run one cell under ``config.engine`` and snapshot every statistic.

    ``telemetry`` optionally threads a
    :class:`repro.telemetry.CoreTelemetry` stream into the build, so
    telemetry-on runs can be snapshot-compared against plain ones (they
    must be bit-identical — recording must never perturb simulation).
    """
    mech = get_mechanism(mechanism)
    hint_filter = hint_filter_for(mech, benchmark, config, profile_input)
    instance = get_workload(benchmark).build(input_set)
    dram = make_dram(config, n_cores=1)
    core = build_core(mech, config, instance, dram, hint_filter,
                      telemetry=telemetry)
    result = core.run(instance.trace())

    # duck-typed on the controller exposing a ``decisions`` list, so
    # both the legacy CoordinatedThrottle and any PolicyThrottle-driven
    # policy (repro.policy) record a comparable trajectory
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
        "dram": dram.stats,
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
