"""System configuration (paper Table 5) with paper-scale and scaled presets.

``SystemConfig.paper()`` reproduces Table 5 exactly.  ``SystemConfig.scaled()``
shrinks caches, DRAM latency and the feedback interval together so that
scaled-down traces (10^4-10^5 memory ops instead of 200M instructions) show
the same miss, pollution and contention behaviour in tractable time — the
substitution DESIGN.md Section 2 documents.  All mechanism parameters
(thresholds, aggressiveness ladders, compare bits) are identical at both
scales.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import ConfigError

#: fields that must be strictly positive integers
_POSITIVE_FIELDS = (
    "issue_width",
    "rob_size",
    "block_size",
    "l1_size",
    "l1_ways",
    "l1_latency",
    "l2_size",
    "l2_ways",
    "l2_latency",
    "l2_mshrs",
    "dram_banks",
    "dram_bank_occupancy",
    "bus_bytes_per_cycle",
    "bus_frequency_ratio",
    "request_buffer_per_core",
    "prefetch_queue_size",
    "stream_count",
    "cdp_compare_bits",
    "interval_evictions",
)


#: valid simulation engines: the readable object-per-block reference
#: model and the flat array-backed fast kernel (see DESIGN.md, "Engine
#: internals & performance").  Both produce bit-identical results,
#: enforced by tests/differential/, which treats "reference" as the
#: oracle.
ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class SystemConfig:
    """Every knob of the simulated machine."""

    # -- engine ---------------------------------------------------------------
    #: which core/cache implementation executes the trace.  "fast" (the
    #: default) is the flat-array kernel; "reference" is the original
    #: object-per-access model, kept as the oracle the differential and
    #: golden tests check "fast" against.  Both are behavior-identical,
    #: so this knob trades readability for speed, never results.  It is
    #: part of a job's content hash, so a journal written before "fast"
    #: became the default resumes under engine="reference".
    engine: str = "fast"

    # -- core ---------------------------------------------------------------
    issue_width: int = 4  # decode/retire up to 4 instructions (Table 5)
    rob_size: int = 256  # reorder buffer entries (Table 5)

    # -- caches ---------------------------------------------------------------
    block_size: int = 128  # L2 line size (Table 5)
    l1_size: int = 32 * 1024
    l1_ways: int = 4
    l1_latency: int = 2
    l2_size: int = 1024 * 1024
    l2_ways: int = 8
    l2_latency: int = 15
    l2_mshrs: int = 32  # bounds demand MLP (Table 5: 32 L2 MSHRs)

    # -- DRAM -----------------------------------------------------------------
    dram_banks: int = 8
    dram_controller_overhead: int = 20
    dram_bank_occupancy: int = 350
    bus_bytes_per_cycle: int = 8  # 8B-wide bus (Table 5)
    bus_frequency_ratio: int = 5  # 5:1 core-to-bus ratio (Table 5)
    request_buffer_per_core: int = 32  # buffer = 32 * core count (Table 5)

    # -- prefetching ----------------------------------------------------------
    prefetch_queue_size: int = 128  # per core (Table 5)
    stream_count: int = 32  # 32 streams (Table 5)
    cdp_compare_bits: int = 8  # Section 5
    train_on_stores: bool = True

    # -- throttling -----------------------------------------------------------
    interval_evictions: int = 8192  # Section 4.1
    # Table 4 thresholds.  The paper notes (Section 4.2) that in systems
    # with a relatively small last-level cache or limited bandwidth,
    # "T_coverage and A_low can be increased to trigger Case 2 of Table 3
    # sooner" — the scaled preset does exactly that.
    t_coverage: float = 0.2
    a_low: float = 0.4
    a_high: float = 0.7
    # Which controller sits between the feedback collector and the
    # aggressiveness ladders (see repro.policy): "table3" (the paper's
    # heuristic and the bit-identical default), "qlearn" (a greedy
    # replay of the trained table it requires as q=<table>) or "static".
    # policy_params is a "key=value,key=value" string (kept a string so
    # the frozen config stays hashable for the result cache and
    # content-addressed job identity — the trained Q table embeds here
    # and hashes with the job).
    throttle_policy: str = "table3"
    policy_params: str = ""

    @property
    def min_memory_latency(self) -> float:
        """Unloaded DRAM latency implied by the component latencies."""
        transfer = (self.block_size // self.bus_bytes_per_cycle) * self.bus_frequency_ratio
        return self.dram_controller_overhead + self.dram_bank_occupancy + transfer

    @classmethod
    def paper(cls) -> "SystemConfig":
        """Table 5 exactly; min memory latency composes to 450 cycles."""
        return cls()

    @classmethod
    def scaled(cls) -> "SystemConfig":
        """Proportionally shrunk system for tractable Python simulation.

        L2 shrinks 16x (1 MB -> 64 KB); DRAM latency roughly 2.6x shorter;
        the feedback interval shrinks with the cache so a scaled run still
        completes tens of intervals.  Blocks shrink to 64 B, which is also
        the size used for the paper's FDP comparison (Section 6.5) and the
        hint-vector example (Figure 6: 16-bit vectors).
        """
        return cls(
            block_size=64,
            l1_size=4 * 1024,
            l1_ways=4,
            l2_size=64 * 1024,
            l2_ways=8,
            l2_mshrs=32,
            dram_controller_overhead=10,
            dram_bank_occupancy=120,
            request_buffer_per_core=32,
            interval_evictions=256,
            t_coverage=0.35,
            a_low=0.45,
        )

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> "SystemConfig":
        """Check every knob; raise :class:`ConfigError` naming each bad one.

        Catching bad values here — with field-level messages — is what
        keeps an invalid sweep config from surfacing hours later as a
        deep assert inside the cache or DRAM model.  Returns ``self`` so
        call sites can chain: ``config.validate()``.
        """
        problems: Dict[str, str] = {}
        if self.engine not in ENGINES:
            problems["engine"] = (
                f"must be one of {ENGINES} (got {self.engine!r})"
            )
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                problems[name] = f"must be an integer (got {value!r})"
            elif value <= 0:
                problems[name] = f"must be positive (got {value})"

        def ok(*names: str) -> bool:
            return not any(name in problems for name in names)

        if ok("block_size") and self.block_size & (self.block_size - 1):
            problems["block_size"] = (
                f"must be a power of two (got {self.block_size})"
            )
        if ok("dram_controller_overhead") and not (
            isinstance(self.dram_controller_overhead, int)
            and self.dram_controller_overhead >= 0
        ):
            problems["dram_controller_overhead"] = (
                f"must be a non-negative integer "
                f"(got {self.dram_controller_overhead!r})"
            )
        if ok("block_size", "bus_bytes_per_cycle") and (
            self.block_size % self.bus_bytes_per_cycle
        ):
            problems["bus_bytes_per_cycle"] = (
                f"must divide block_size ({self.block_size}); "
                f"got {self.bus_bytes_per_cycle}"
            )
        for level in ("l1", "l2"):
            size = getattr(self, f"{level}_size")
            ways = getattr(self, f"{level}_ways")
            if not ok(f"{level}_size", f"{level}_ways", "block_size"):
                continue
            if size % self.block_size:
                problems[f"{level}_size"] = (
                    f"must be a multiple of block_size "
                    f"({self.block_size}); got {size}"
                )
            elif ways > size // self.block_size:
                problems[f"{level}_ways"] = (
                    f"exceeds the cache's {size // self.block_size} "
                    f"blocks ({level}_size/block_size); got {ways}"
                )
        if ok("cdp_compare_bits") and self.cdp_compare_bits > 32:
            problems["cdp_compare_bits"] = (
                f"addresses are 32-bit; got {self.cdp_compare_bits}"
            )
        for name in ("t_coverage", "a_low", "a_high"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems[name] = f"must be a fraction in [0, 1] (got {value!r})"
        if ok("a_low", "a_high") and self.a_low >= self.a_high:
            problems["a_low"] = (
                f"must be below a_high ({self.a_high}); got {self.a_low}"
            )
        if not isinstance(self.throttle_policy, str):
            problems["throttle_policy"] = (
                f"must be a string (got {self.throttle_policy!r})"
            )
        elif not isinstance(self.policy_params, str):
            problems["policy_params"] = (
                f"must be a 'key=value,...' string "
                f"(got {self.policy_params!r})"
            )
        else:
            # imported lazily: repro.policy imports prefetcher/throttle
            # modules, which must not load just to construct a config
            from repro.policy.registry import validate_policy

            problems.update(
                validate_policy(self.throttle_policy, self.policy_params)
            )
        if problems:
            details = "; ".join(
                f"{name}: {message}"
                for name, message in sorted(problems.items())
            )
            raise ConfigError(f"invalid SystemConfig: {details}", problems)
        return self
