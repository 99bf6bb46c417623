"""Experiment runner: assemble a system for a mechanism and run a workload.

This is the public top of the library: ``run_benchmark("mst",
"ecdp+throttle")`` performs the whole pipeline the paper describes —
profile the train input, derive hint vectors, build the machine, run the
measured input — and returns a :class:`~repro.core.stats.CoreResult`.

Results are memoized per (benchmark, mechanism, input set, config) and
profiles per (benchmark, input set, profiler shape), since the benchmark
harness re-uses the same baselines across many figures.  Given an
:class:`~repro.workloads.artifacts.ArtifactStore`, traces and profiles
are also shared across processes: a stored trace replays exactly, and a
stored profile is read instead of recomputed.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence

from repro.compiler.hints import CoarseLoadFilter, HintTable
from repro.errors import ConfigError
from repro.compiler.profiler import ProfilerConfig, profile_trace
from repro.core.config import ENGINES, SystemConfig
from repro.core.cpu import Core
from repro.core.fastcpu import FastCore
from repro.core.stats import CoreResult
from repro.core.system import MultiCoreSystem
from repro.dram.bus import MemoryBus
from repro.dram.controller import DramController
from repro.experiments.configs import Mechanism, get_mechanism
from repro.prefetch.cdp import ContentDirectedPrefetcher
from repro.prefetch.dbp import DependenceBasedPrefetcher
from repro.prefetch.filter_hw import HardwarePrefetchFilter
from repro.prefetch.ghb import GhbPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.stream import StreamPrefetcher
from repro.prefetch.stride import NextLinePrefetcher, StridePrefetcher
from repro.policy.registry import controller_for
from repro.throttle.fdp import FdpThrottle
from repro.throttle.gendler import GendlerSelector
from repro.workloads.artifacts import ArtifactStore
from repro.workloads.base import WorkloadInstance
from repro.workloads.registry import get_workload

class LruCache:
    """Bounded least-recently-used map with hit/miss/eviction counters.

    The old module-level dict caches grew without bound — a long sweep
    over many configs would hold every profile and CoreResult it ever
    computed.  This keeps the memoization (baselines recur across
    figures) while bounding footprint and making behaviour observable.
    """

    def __init__(self, capacity: int = 128):
        if not isinstance(capacity, int) or capacity < 1:
            raise ConfigError(
                f"cache capacity must be a positive integer (got {capacity!r})"
            )
        self.capacity = capacity
        self._data: "OrderedDict" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, default=None):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def resize(self, capacity: int) -> None:
        """Change the bound, evicting LRU entries if shrinking."""
        if not isinstance(capacity, int) or capacity < 1:
            raise ConfigError(
                f"cache capacity must be a positive integer (got {capacity!r})"
            )
        self.capacity = capacity
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop entries and reset counters."""
        self._data.clear()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def _default_cache_capacity() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_CACHE_SIZE", "128")))
    except ValueError:
        return 128


_PROFILE_CACHE = LruCache(_default_cache_capacity())
_RESULT_CACHE = LruCache(_default_cache_capacity())


def clear_caches() -> None:
    """Drop memoized profiles and results (tests use this)."""
    _PROFILE_CACHE.clear()
    _RESULT_CACHE.clear()


def set_cache_capacity(capacity: int) -> None:
    """Re-bound both memoization caches (evicting LRU entries if needed)."""
    _PROFILE_CACHE.resize(capacity)
    _RESULT_CACHE.resize(capacity)


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters for both memoization caches."""
    return {
        "profiles": _PROFILE_CACHE.stats,
        "results": _RESULT_CACHE.stats,
    }


def profiler_config(config: SystemConfig) -> ProfilerConfig:
    """The functional profiler mirrors the target machine's L2 and CDP."""
    return ProfilerConfig(
        l2_size=config.l2_size,
        l2_ways=config.l2_ways,
        block_size=config.block_size,
        compare_bits=config.cdp_compare_bits,
        max_recursion_depth=4,
    )


def workload_instance(
    benchmark: str,
    input_set: str,
    store: Optional[ArtifactStore] = None,
    record: bool = True,
) -> WorkloadInstance:
    """A built workload: replayed from *store* when it holds the trace,
    else live (and, with *record* and a recording store, recorded)."""
    if store is None:
        return get_workload(benchmark).build(input_set)
    return store.instance(benchmark, input_set, record)


def profile_benchmark(
    benchmark: str,
    config: SystemConfig,
    input_set: str = "train",
    store: Optional[ArtifactStore] = None,
):
    """Run the profiling compiler pass; returns a PointerGroupProfile.

    Memoized by what the profiler reads, not by the whole config: cells
    that differ only in engine, DRAM timing or throttling policy share
    one profile.  With a *store*, a stored profile is read instead of
    recomputed, and a computed one is stored (its trace is not).
    """
    shape = profiler_config(config)
    key = (benchmark, input_set, shape)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    profile = (
        store.load_profile(benchmark, input_set, shape) if store else None
    )
    if profile is None:
        instance = workload_instance(benchmark, input_set, store, record=False)
        profile = profile_trace(instance.memory, instance.trace(), shape)
        if store is not None:
            store.save_profile(benchmark, input_set, shape, profile)
    _PROFILE_CACHE.put(key, profile)
    return profile


def hint_filter_for(
    mechanism: Mechanism,
    benchmark: str,
    config: SystemConfig,
    profile_input: str = "train",
    store: Optional[ArtifactStore] = None,
) -> Optional[Callable[[int, int], bool]]:
    """Build the CDP hint filter the mechanism calls for (None = greedy)."""
    if mechanism.hints == "none":
        return None
    profile = profile_benchmark(benchmark, config, profile_input, store)
    if mechanism.hints == "ecdp":
        return HintTable.from_profile(profile).allows
    if mechanism.hints in ("grp", "loadfilter"):
        return CoarseLoadFilter.from_profile(profile).allows
    raise ConfigError(f"unknown hint mode {mechanism.hints!r}")


def make_dram(config: SystemConfig, n_cores: int = 1) -> DramController:
    bus = MemoryBus(config.bus_bytes_per_cycle, config.bus_frequency_ratio)
    return DramController(
        n_banks=config.dram_banks,
        bank_occupancy=config.dram_bank_occupancy,
        controller_overhead=config.dram_controller_overhead,
        bus=bus,
        block_size=config.block_size,
        request_buffer_size=config.request_buffer_per_core * n_cores,
    )


#: engine name -> core implementation
ENGINE_CLASSES = {"reference": Core, "fast": FastCore}


def core_class_for(config: SystemConfig):
    """The Core implementation selected by ``config.engine``."""
    try:
        return ENGINE_CLASSES[config.engine]
    except KeyError:
        raise ConfigError(
            f"unknown engine {config.engine!r}; choose from {ENGINES}"
        ) from None


def build_core(
    mechanism: Mechanism,
    config: SystemConfig,
    instance: WorkloadInstance,
    dram: DramController,
    hint_filter: Optional[Callable[[int, int], bool]] = None,
    name: str = "core0",
    telemetry=None,
) -> Core:
    """Wire up one core with the mechanism's prefetchers and controller.

    ``telemetry`` is an optional :class:`repro.telemetry.CoreTelemetry`
    stream; it is installed *after* the throttling controller attaches so
    the interval recorder observes post-decision state.
    """
    core_cls = core_class_for(config)
    stream = (
        StreamPrefetcher(config.block_size, config.stream_count)
        if mechanism.stream
        else None
    )
    cdp = (
        ContentDirectedPrefetcher(
            config.block_size,
            compare_bits=config.cdp_compare_bits,
            hint_filter=hint_filter,
        )
        if mechanism.cdp
        else None
    )
    correlation = []
    dbp = None
    if mechanism.correlation == "markov":
        correlation.append(MarkovPrefetcher(config.block_size))
    elif mechanism.correlation == "ghb":
        correlation.append(GhbPrefetcher(config.block_size))
    elif mechanism.correlation == "dbp":
        dbp = DependenceBasedPrefetcher(config.block_size)
    elif mechanism.correlation == "stride":
        correlation.append(StridePrefetcher(config.block_size))
    elif mechanism.correlation == "nextline":
        correlation.append(NextLinePrefetcher(config.block_size))
    elif mechanism.correlation != "none":
        raise ConfigError(
            f"unknown correlation prefetcher {mechanism.correlation!r}"
        )
    hw_filter = HardwarePrefetchFilter() if mechanism.hw_filter else None

    throttled = [p for p in (stream, cdp, *correlation, dbp) if p is not None]
    gendler = None
    if mechanism.throttle == "gendler":
        gendler = GendlerSelector(throttled)

    core = core_cls(
        config,
        instance.memory,
        dram,
        name=name,
        stream=stream,
        cdp=cdp,
        correlation_prefetchers=correlation,
        dbp=dbp,
        hw_filter=hw_filter,
        gendler=gendler,
        oracle_pcs=instance.lds_pcs if mechanism.oracle_lds else None,
        telemetry=telemetry,
    )

    if mechanism.throttle == "coordinated":
        # the pluggable policy seam (repro.policy): the config names the
        # controller, "table3" (paper Table 3) by default.  controller_for
        # returns None when the policy needs more prefetchers than this
        # core has, which leaves the levels alone.
        controller = controller_for(throttled, config)
        if controller is not None:
            controller.attach(core.feedback)
    elif mechanism.throttle == "fdp":
        FdpThrottle(throttled).attach(core.feedback)
    elif mechanism.throttle == "gendler":
        gendler.attach(core.feedback)
    elif mechanism.throttle != "none":
        raise ConfigError(f"unknown throttle mode {mechanism.throttle!r}")
    if telemetry is not None:
        telemetry.install(core, dram)
    return core


def run_benchmark(
    benchmark: str,
    mechanism: str,
    config: Optional[SystemConfig] = None,
    input_set: str = "ref",
    profile_input: str = "train",
    use_cache: bool = True,
    telemetry=None,
    store: Optional[ArtifactStore] = None,
) -> CoreResult:
    """Run one benchmark under one mechanism on a single core.

    With a :class:`repro.telemetry.Telemetry` session, the run records
    into the session's ``core0`` stream, and the result cache is
    bypassed (a memoized result would carry no recordings).  With an
    :class:`~repro.workloads.artifacts.ArtifactStore`, the trace and the
    profile come from the store when it holds them and go into it when
    it does not (the trace only if the store records); the result is
    identical either way.
    """
    config = config or SystemConfig.scaled()
    mech = get_mechanism(mechanism)
    key = (benchmark, mechanism, input_set, profile_input, config)
    if telemetry is not None:
        use_cache = False
    if use_cache:
        cached = _RESULT_CACHE.get(key)
        if cached is not None:
            return cached
    hint_filter = hint_filter_for(mech, benchmark, config, profile_input, store)
    instance = workload_instance(benchmark, input_set, store)
    dram = make_dram(config, n_cores=1)
    stream_telemetry = (
        telemetry.stream("core0") if telemetry is not None else None
    )
    core = build_core(
        mech, config, instance, dram, hint_filter, telemetry=stream_telemetry
    )
    result = core.run(instance.trace())
    if use_cache:
        _RESULT_CACHE.put(key, result)
    return result


def run_multicore(
    benchmarks: Sequence[str],
    mechanism: str,
    config: Optional[SystemConfig] = None,
    input_set: str = "ref",
    profile_input: str = "train",
    telemetry=None,
) -> List[CoreResult]:
    """Run a multiprogrammed mix, one benchmark per core, shared DRAM.

    With a :class:`repro.telemetry.Telemetry` session, core *i* records
    into the session's ``core<i>`` stream — streams stay disjoint even
    though the cores share one DRAM controller.
    """
    config = config or SystemConfig.scaled()
    mech = get_mechanism(mechanism)
    dram = make_dram(config, n_cores=len(benchmarks))
    cores = []
    traces = []
    for index, benchmark in enumerate(benchmarks):
        hint_filter = hint_filter_for(mech, benchmark, config, profile_input)
        instance = get_workload(benchmark).build(input_set)
        name = f"core{index}"
        stream_telemetry = (
            telemetry.stream(name) if telemetry is not None else None
        )
        core = build_core(
            mech, config, instance, dram, hint_filter, name=name,
            telemetry=stream_telemetry,
        )
        cores.append(core)
        traces.append(instance.trace())
    return MultiCoreSystem(cores).run(traces)
