"""The paper's Table 3 heuristic as a pluggable policy.

This is the *extraction* the policy subsystem is built around: the pure
:func:`~repro.throttle.coordinated.decide_case` mapping behind the
:class:`~repro.policy.base.ThrottlePolicy` interface.
``tests/differential/test_policy.py`` checks its full snapshot and
interval-by-interval trajectory against recorded goldens on every
engine — the default configuration must behave exactly as it did
before policies existed.
"""

from __future__ import annotations

from repro.policy.base import FeedbackSignals, ThrottlePolicy
from repro.throttle.coordinated import ThrottleDecision, decide_case
from repro.throttle.levels import DEFAULT_THRESHOLDS, ThrottleThresholds


class Table3Policy(ThrottlePolicy):
    """Coordinated feedback-directed throttling (paper Section 4.2)."""

    name = "table3"
    needs_system = False
    #: the heuristic is defined over a deciding prefetcher *and* its
    #: best rival; with one prefetcher there is no rival to coordinate
    #: with, matching the pre-policy controller's >= 2 requirement
    min_prefetchers = 2

    def __init__(
        self, thresholds: ThrottleThresholds = DEFAULT_THRESHOLDS
    ) -> None:
        self.thresholds = thresholds

    def decide(self, signals: FeedbackSignals) -> ThrottleDecision:
        thresholds = self.thresholds
        return decide_case(
            thresholds.coverage_is_high(signals.coverage),
            thresholds.accuracy_class(signals.accuracy),
            thresholds.coverage_is_high(signals.rival_coverage),
        )
