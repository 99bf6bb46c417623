"""Prefetcher throttling: feedback collection, coordinated heuristics,
and the FDP / Gendler baselines."""

from repro.throttle.coordinated import ThrottleDecision, decide_case
from repro.throttle.fdp import FdpThresholds, FdpThrottle
from repro.throttle.feedback import (
    FeedbackCollector,
    PollutionFilter,
    PrefetcherCounters,
    SmoothedCounter,
)
from repro.throttle.gendler import GendlerSelector, PrefetchAccuracyBuffer
from repro.throttle.levels import (
    DEFAULT_THRESHOLDS,
    LEVEL_NAMES,
    MAX_LEVEL,
    ThrottleThresholds,
)

__all__ = [
    "DEFAULT_THRESHOLDS",
    "FdpThresholds",
    "FdpThrottle",
    "FeedbackCollector",
    "GendlerSelector",
    "LEVEL_NAMES",
    "MAX_LEVEL",
    "PollutionFilter",
    "PrefetchAccuracyBuffer",
    "PrefetcherCounters",
    "SmoothedCounter",
    "ThrottleDecision",
    "ThrottleThresholds",
    "decide_case",
]
