"""Generic controller driving any :class:`ThrottlePolicy` per interval.

:class:`PolicyThrottle` is the coordinated-throttling controller: it
attaches to ``FeedbackCollector.on_interval`` (firing after the Eq. 3
roll, before the telemetry recorder) and keeps the two invariants the
differential harness depends on:

* *snapshot-then-act*: every prefetcher's signals are captured before
  any level moves, so decision order among prefetchers cannot matter;
* *trajectory*: each interval's decisions append to ``self.decisions``
  as :class:`~repro.throttle.coordinated.ThrottleDecision` objects with
  owner/coverage/accuracy/rival filled in, the exact shape telemetry's
  duck-typed ``_capture_decisions`` and the harness extract.

System-tier signals (interval BPKI, demand-miss delta, DRAM/MSHR
occupancy) are probed once per interval and only when the policy
declares ``needs_system`` — the default table3 path does no work the
pre-policy controller didn't.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.policy.base import FeedbackSignals, ThrottlePolicy
from repro.prefetch.base import Prefetcher
from repro.throttle.coordinated import ThrottleDecision
from repro.throttle.feedback import FeedbackCollector


class PolicyThrottle:
    """Drives one :class:`ThrottlePolicy` over a core's prefetchers."""

    def __init__(
        self,
        prefetchers: Sequence[Prefetcher],
        policy: ThrottlePolicy,
    ) -> None:
        if len(prefetchers) < policy.min_prefetchers:
            raise ValueError(
                f"policy {policy.name!r} coordinates at least "
                f"{policy.min_prefetchers} prefetchers, got "
                f"{len(prefetchers)}"
            )
        self.prefetchers = list(prefetchers)
        self.policy = policy
        self.decisions: List[ThrottleDecision] = []
        # system-tier probe state, populated by install()
        self._core = None
        self._dram = None
        self._last_bus = 0
        self._last_retired = 0
        self._last_misses = 0

    def install(self, core, dram) -> None:
        """Bind the system-tier probes (called by the runner per core).

        Optional: a controller that is never installed simply reports
        zeros for the system tier, which is also what non-``needs_system``
        policies always see.
        """
        self.policy.reset()
        if not self.policy.needs_system:
            return
        self._core = core
        self._dram = dram
        self._last_bus = core.bus_transfers
        self._last_retired = core.retired
        self._last_misses = core.feedback.lifetime_misses

    def attach(self, collector: FeedbackCollector) -> None:
        collector.on_interval = self.on_interval

    # -- interval hook -------------------------------------------------------

    def _system_signals(self) -> Tuple[float, int, int, int]:
        """(bpki, demand-miss delta, dram occupancy, mshr occupancy)."""
        core = self._core
        if core is None:
            return 0.0, 0, 0, 0
        from repro.telemetry.registry import dram_occupancy

        bus = core.bus_transfers
        retired = core.retired
        misses = core.feedback.lifetime_misses
        d_bus = bus - self._last_bus
        d_retired = retired - self._last_retired
        d_misses = misses - self._last_misses
        self._last_bus = bus
        self._last_retired = retired
        self._last_misses = misses
        return (
            (d_bus / d_retired * 1000.0) if d_retired else 0.0,
            d_misses,
            dram_occupancy(self._dram, core.cycle),
            len(core._outstanding),
        )

    def on_interval(self, collector: FeedbackCollector) -> None:
        interval = collector.intervals_completed
        snapshot: Dict[str, Tuple[float, float, int]] = {}
        for prefetcher in self.prefetchers:
            name = prefetcher.name
            snapshot[name] = (
                collector.coverage(name),
                collector.accuracy(name),
                prefetcher.level,
            )
        if self.policy.needs_system:
            bpki, d_misses, dram_occ, mshr_occ = self._system_signals()
        else:
            bpki, d_misses, dram_occ, mshr_occ = 0.0, 0, 0, 0
        for prefetcher in self.prefetchers:
            name = prefetcher.name
            coverage, accuracy, level = snapshot[name]
            rival_coverage = max(
                (cov for other, (cov, __, ___) in snapshot.items()
                 if other != name),
                default=0.0,
            )
            decision = self.policy.decide(FeedbackSignals(
                owner=name,
                interval=interval,
                coverage=coverage,
                accuracy=accuracy,
                rival_coverage=rival_coverage,
                level=level,
                bpki=bpki,
                demand_misses=d_misses,
                dram_occupancy=dram_occ,
                mshr_occupancy=mshr_occ,
            ))
            decision.owner = name
            decision.coverage = coverage
            decision.accuracy = accuracy
            decision.rival_coverage = rival_coverage
            self.decisions.append(decision)
            if decision.action == "up":
                prefetcher.throttle_up()
            elif decision.action == "down":
                prefetcher.throttle_down()
