"""Coordinated prefetcher throttling (paper Section 4.2, Table 3).

At each feedback interval every prefetcher makes its own decision — the
*deciding* prefetcher — from its coverage and accuracy *and* the coverage of
the best *rival* prefetcher:

    Case  Cov    Acc           Rival Cov   Decision
    1     High   -             -           Throttle Up
    2     Low    Low           -           Throttle Down
    3     Low    Med or High   Low         Throttle Up
    4     Low    Low or Med    High        Throttle Down
    5     Low    High          High        Do Nothing

The heuristics are prefetcher-symmetric and prefetcher-agnostic, so the same
controller coordinates any set of two *or more* prefetchers (the paper notes
the N-ary generalization as ongoing work; we support it and test it).

This module holds the pure Table 3 mapping and its decision record; the
controller that applies them each interval is
:class:`~repro.policy.controller.PolicyThrottle` driving
:class:`~repro.policy.table3.Table3Policy` (the default policy).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ThrottleDecision:
    """One interval's decision for one prefetcher (for diagnostics)."""

    owner: str
    case: int
    action: str  # "up" | "down" | "hold"
    coverage: float
    accuracy: float
    rival_coverage: float


def decide_case(
    coverage_high: bool, accuracy_class: str, rival_coverage_high: bool
) -> ThrottleDecision:
    """Pure implementation of paper Table 3 (owner fields filled by caller)."""
    if coverage_high:
        return ThrottleDecision("", 1, "up", 0, 0, 0)
    if accuracy_class == "low":
        return ThrottleDecision("", 2, "down", 0, 0, 0)
    if not rival_coverage_high:
        return ThrottleDecision("", 3, "up", 0, 0, 0)
    if accuracy_class == "medium":
        return ThrottleDecision("", 4, "down", 0, 0, 0)
    return ThrottleDecision("", 5, "hold", 0, 0, 0)
