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
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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

    def attach(self, collector: FeedbackCollector) -> None:
        collector.on_interval = self.on_interval

    def on_interval(self, collector: FeedbackCollector) -> None:
        snapshot: Dict[str, Tuple[float, float, int]] = {}
        for prefetcher in self.prefetchers:
            name = prefetcher.name
            snapshot[name] = (
                collector.coverage(name),
                collector.accuracy(name),
                prefetcher.level,
            )
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
                coverage=coverage,
                accuracy=accuracy,
                rival_coverage=rival_coverage,
                level=level,
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
