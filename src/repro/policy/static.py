"""Static-level baseline policies: pin every prefetcher at one level.

The tournament's control group.  ``static`` with ``level=3`` reproduces
the no-throttling baseline (every prefetcher starts and stays at
Aggressive); lower levels give the fixed conservative configurations
the paper's Table 2 sweeps by hand.
"""

from __future__ import annotations

from repro.policy.base import FeedbackSignals, ThrottlePolicy
from repro.throttle.coordinated import ThrottleDecision
from repro.throttle.levels import MAX_LEVEL


class StaticLevelPolicy(ThrottlePolicy):
    """Walk every prefetcher to ``level`` and hold it there."""

    name = "static"
    min_prefetchers = 1

    def __init__(self, level: int = MAX_LEVEL) -> None:
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(
                f"static level must be within 0..{MAX_LEVEL}, got {level}"
            )
        self.level = level

    def decide(self, signals: FeedbackSignals) -> ThrottleDecision:
        if signals.level < self.level:
            action = "up"
        elif signals.level > self.level:
            action = "down"
        else:
            action = "hold"
        return ThrottleDecision("", 0, action, 0, 0, 0)
