"""Run-time feedback collection (paper Section 4.1).

Two counters per prefetcher (*total-prefetched*, *total-used*) plus one
shared *total-misses* counter, sampled in intervals delimited by L2
evictions (8192 at paper scale).  At each interval boundary every counter is
halved-and-accumulated:

    CounterValue = 1/2 * CounterValueAtBeginningOfInterval
                 + 1/2 * CounterValueDuringInterval          (paper Eq. 3)

so recent behaviour dominates but history persists.  Accuracy and coverage
(paper Eq. 1, 2) are computed from the smoothed values and consumed by the
throttling controller in the *following* interval.

The collector also maintains the extra signals FDP needs (lateness and a
pollution filter), so the same plumbing serves both our mechanism and the
baseline it is compared against in Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class SmoothedCounter:
    """A counter with interval halving per paper Eq. 3."""

    smoothed: float = 0.0
    during: int = 0

    def add(self, n: int = 1) -> None:
        self.during += n

    def roll(self) -> None:
        self.smoothed = 0.5 * self.smoothed + 0.5 * self.during
        self.during = 0

    @property
    def value(self) -> float:
        """Smoothed history plus the current (incomplete) interval.

        At an interval boundary the controller reads this right after
        :meth:`roll` (when ``during`` is 0), so decisions see exactly the
        paper's Eq. 3 value; mid-interval reads also see current counts.
        """
        return self.smoothed + self.during


@dataclass
class PrefetcherCounters:
    """Per-prefetcher feedback state."""

    total_prefetched: SmoothedCounter = field(default_factory=SmoothedCounter)
    total_used: SmoothedCounter = field(default_factory=SmoothedCounter)
    late: SmoothedCounter = field(default_factory=SmoothedCounter)
    # Lifetime (unsmoothed) tallies, for end-of-run metrics.
    lifetime_prefetched: int = 0
    lifetime_used: int = 0
    lifetime_late: int = 0

    def accuracy(self) -> float:
        """Paper Eq. 1 over smoothed counters."""
        prefetched = self.total_prefetched.value
        return self.total_used.value / prefetched if prefetched else 0.0

    def coverage(self, total_misses: float) -> float:
        """Paper Eq. 2 over smoothed counters."""
        used = self.total_used.value
        denominator = used + total_misses
        return used / denominator if denominator else 0.0


class PollutionFilter:
    """Bit-vector filter tracking demand blocks displaced by prefetches.

    On the eviction of a demand-fetched block to make room for a prefetch,
    the victim's bit is set; a later demand miss that finds its bit set is
    counted as a pollution miss.  This is the mechanism FDP uses (Srinath
    et al., HPCA 2007); our coordinated throttling does not need it but
    shares the collector.
    """

    def __init__(self, n_bits: int = 4096) -> None:
        if n_bits <= 0 or n_bits & (n_bits - 1):
            raise ValueError("pollution filter size must be a power of two")
        self.n_bits = n_bits
        self._bits = bytearray(n_bits)

    def _index(self, block_addr: int) -> int:
        return (block_addr ^ (block_addr >> 13)) & (self.n_bits - 1)

    def mark_displaced(self, block_addr: int) -> None:
        self._bits[self._index(block_addr)] = 1

    def check_and_clear(self, block_addr: int) -> bool:
        index = self._index(block_addr)
        if self._bits[index]:
            self._bits[index] = 0
            return True
        return False


class FeedbackCollector:
    """Event sink for the core model; interval roll-over dispatcher.

    ``on_interval`` (set by the throttling controller) fires after every
    ``interval_evictions`` L2 evictions, *after* counters are rolled, so
    the controller sees smoothed values.  ``on_interval_telemetry`` (set
    by the telemetry layer, see :mod:`repro.telemetry`) fires after the
    controller with ``(collector, tail)``, so recorded samples see both
    the rolled counters and the levels the controller just chose.
    """

    def __init__(
        self,
        prefetcher_names: List[str],
        interval_evictions: int = 8192,
        pollution_filter_bits: int = 4096,
    ) -> None:
        self.counters: Dict[str, PrefetcherCounters] = {
            name: PrefetcherCounters() for name in prefetcher_names
        }
        self.total_misses = SmoothedCounter()
        self.lifetime_misses = 0
        self.pollution = SmoothedCounter()
        self.lifetime_pollution = 0
        self.interval_evictions = interval_evictions
        self._evictions_this_interval = 0
        self.intervals_completed = 0
        self.tail_flushed = False
        self._filter = PollutionFilter(pollution_filter_bits)
        self.on_interval: Optional[Callable[["FeedbackCollector"], None]] = None
        self.on_interval_telemetry: Optional[
            Callable[["FeedbackCollector", bool], None]
        ] = None

    # -- recording hooks (called by the core model) -------------------------

    def record_issue(self, owner: str, n: int = 1) -> None:
        counter = self.counters[owner]
        counter.total_prefetched.add(n)
        counter.lifetime_prefetched += n

    def record_use(self, owner: str, late: bool = False) -> None:
        counter = self.counters[owner]
        counter.total_used.add()
        counter.lifetime_used += 1
        if late:
            counter.late.add()
            counter.lifetime_late += 1

    def record_demand_miss(self, block_addr: int) -> None:
        self.total_misses.add()
        self.lifetime_misses += 1
        if self._filter.check_and_clear(block_addr):
            self.pollution.add()
            self.lifetime_pollution += 1

    def record_eviction(self, victim_addr: int, by_prefetch: bool,
                        victim_was_demand: bool) -> None:
        if by_prefetch and victim_was_demand:
            self._filter.mark_displaced(victim_addr)
        self._evictions_this_interval += 1
        if self._evictions_this_interval >= self.interval_evictions:
            self._roll_interval()

    # -- interval machinery --------------------------------------------------

    def _roll_counters(self) -> None:
        self._evictions_this_interval = 0
        for counter in self.counters.values():
            counter.total_prefetched.roll()
            counter.total_used.roll()
            counter.late.roll()
        self.total_misses.roll()
        self.pollution.roll()

    def _roll_interval(self) -> None:
        self._roll_counters()
        self.intervals_completed += 1
        if self.on_interval is not None:
            self.on_interval(self)
        if self.on_interval_telemetry is not None:
            self.on_interval_telemetry(self, False)

    def _has_partial_interval(self) -> bool:
        """Anything recorded since the last roll-over?"""
        if self._evictions_this_interval:
            return True
        if self.total_misses.during or self.pollution.during:
            return True
        return any(
            counter.total_prefetched.during
            or counter.total_used.during
            or counter.late.during
            for counter in self.counters.values()
        )

    def flush_partial_interval(self) -> bool:
        """Roll the trailing partial interval at end of run.

        A run rarely ends exactly on an eviction boundary; without this
        flush the tail's prefetches, uses and misses never enter the
        smoothed Eq. 3 counters and the recorded interval series stops
        one sample short.  The flush rolls the counters and notifies the
        telemetry hook with ``tail=True`` — it does *not* invoke the
        throttling controller (there is no following interval for a
        decision to act in) and does not count toward
        ``intervals_completed``.  Idempotent; returns True if a partial
        interval was actually flushed.
        """
        if self.tail_flushed or not self._has_partial_interval():
            return False
        self._roll_counters()
        self.tail_flushed = True
        if self.on_interval_telemetry is not None:
            self.on_interval_telemetry(self, True)
        return True

    # -- derived metrics -----------------------------------------------------

    def accuracy(self, owner: str) -> float:
        return self.counters[owner].accuracy()

    def coverage(self, owner: str) -> float:
        return self.counters[owner].coverage(self.total_misses.value)

    def lifetime_coverage(self, owner: str) -> float:
        used = self.counters[owner].lifetime_used
        denominator = used + self.lifetime_misses
        return used / denominator if denominator else 0.0
