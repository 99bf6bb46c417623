"""Property tests for the 5-case throttling heuristic (paper Table 3).

Hypothesis drives random inputs through :func:`decide_case`, the
threshold classifiers, and full Table 3 intervals (:class:`PolicyThrottle`
driving :class:`Table3Policy`) on a stub collector, asserting the
invariants the paper's prose states but Table 3 only samples:

* every input lands in exactly one case 1..5 with action up/down/hold;
* the action is monotone: more accuracy or more coverage never throttles
  further down, a stronger rival never throttles further up;
* aggressiveness levels stay inside the Table 2 ladder (0..3, i.e. the
  bounds of ``STREAM_LEVELS``) under any decision sequence, and each
  interval moves a prefetcher at most one step;
* the Table 4 threshold constants are pinned: T_coverage = 0.2,
  A_low = 0.4, A_high = 0.7, matching ``SystemConfig.paper()``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.policy.controller import PolicyThrottle
from repro.policy.table3 import Table3Policy
from repro.prefetch.base import Prefetcher
from repro.prefetch.stream import STREAM_LEVELS, StreamPrefetcher
from repro.throttle.coordinated import decide_case
from repro.throttle.feedback import FeedbackCollector
from repro.throttle.levels import (
    DEFAULT_THRESHOLDS,
    LEVEL_NAMES,
    MAX_LEVEL,
    ThrottleThresholds,
)

ACCURACY_CLASSES = ("low", "medium", "high")

#: action severity used by the monotonicity properties
ACTION_RANK = {"down": 0, "hold": 1, "up": 2}

coverage_bools = st.booleans()
accuracy_classes = st.sampled_from(ACCURACY_CLASSES)
fractions = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_subnormal=False)


class _NullPrefetcher(Prefetcher):
    """Level ladder only — never emits requests."""

    def on_demand_access(self, now, addr, pc, l2_hit):
        return []


# --------------------------------------------------------------------------
# decide_case: totality and the exact Table 3 mapping
# --------------------------------------------------------------------------

@given(coverage_bools, accuracy_classes, coverage_bools)
def test_decide_case_is_total(coverage_high, accuracy_class, rival_high):
    decision = decide_case(coverage_high, accuracy_class, rival_high)
    assert decision.case in (1, 2, 3, 4, 5)
    assert decision.action in ACTION_RANK


def test_decide_case_matches_table3():
    # Table 3, row by row (dashes expanded to both/all values).
    for acc in ACCURACY_CLASSES:
        for rival in (False, True):
            assert decide_case(True, acc, rival).case == 1  # high coverage
            assert decide_case(True, acc, rival).action == "up"
            assert decide_case(False, "low", rival).case == 2
            assert decide_case(False, "low", rival).action == "down"
        assert decide_case(False, acc, False).case in (2, 3)
    assert decide_case(False, "medium", False).action == "up"    # case 3
    assert decide_case(False, "high", False).action == "up"      # case 3
    assert decide_case(False, "medium", True).case == 4
    assert decide_case(False, "medium", True).action == "down"
    assert decide_case(False, "high", True).case == 5
    assert decide_case(False, "high", True).action == "hold"


# --------------------------------------------------------------------------
# decide_case: monotonicity in each documented direction
# --------------------------------------------------------------------------

@given(coverage_bools, coverage_bools)
def test_action_monotone_in_accuracy(coverage_high, rival_high):
    """More accurate never throttles further down (fixed coverages)."""
    ranks = [
        ACTION_RANK[decide_case(coverage_high, acc, rival_high).action]
        for acc in ACCURACY_CLASSES
    ]
    assert ranks == sorted(ranks)


@given(accuracy_classes, coverage_bools)
def test_action_monotone_in_coverage(accuracy_class, rival_high):
    """Gaining coverage never lowers the action."""
    low = ACTION_RANK[decide_case(False, accuracy_class, rival_high).action]
    high = ACTION_RANK[decide_case(True, accuracy_class, rival_high).action]
    assert low <= high


@given(coverage_bools, accuracy_classes)
def test_action_antitone_in_rival_coverage(coverage_high, accuracy_class):
    """A stronger rival never raises the action."""
    weak = ACTION_RANK[decide_case(coverage_high, accuracy_class, False).action]
    strong = ACTION_RANK[decide_case(coverage_high, accuracy_class, True).action]
    assert strong <= weak


# --------------------------------------------------------------------------
# threshold classifiers
# --------------------------------------------------------------------------

@given(fractions, fractions)
def test_accuracy_class_is_monotone(a, b):
    lo, hi = sorted((a, b))
    order = {"low": 0, "medium": 1, "high": 2}
    thresholds = DEFAULT_THRESHOLDS
    assert order[thresholds.accuracy_class(lo)] <= order[
        thresholds.accuracy_class(hi)
    ]


@given(fractions)
def test_classifier_thresholds_are_half_open(value):
    thresholds = DEFAULT_THRESHOLDS
    assert thresholds.coverage_is_high(value) == (value >= 0.2)
    expected = (
        "high" if value >= 0.7 else "medium" if value >= 0.4 else "low"
    )
    assert thresholds.accuracy_class(value) == expected


# --------------------------------------------------------------------------
# level ladder stays inside Table 2 under any decision sequence
# --------------------------------------------------------------------------

@given(st.lists(st.sampled_from(["up", "down", "hold"]), max_size=64))
def test_levels_stay_within_table2_bounds(actions):
    prefetcher = StreamPrefetcher(block_size=64)
    for action in actions:
        if action == "up":
            prefetcher.throttle_up()
        elif action == "down":
            prefetcher.throttle_down()
        assert 0 <= prefetcher.level <= MAX_LEVEL
        distance, degree = STREAM_LEVELS[prefetcher.level]
        assert (distance, degree) == (prefetcher.distance, prefetcher.degree)
    assert len(STREAM_LEVELS) == len(LEVEL_NAMES) == MAX_LEVEL + 1


# --------------------------------------------------------------------------
# Table 3 controller on a stub collector
# --------------------------------------------------------------------------

interval_feeds = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),  # first issued
        st.integers(min_value=0, max_value=200),  # first used
        st.integers(min_value=0, max_value=200),  # second issued
        st.integers(min_value=0, max_value=200),  # second used
        st.integers(min_value=0, max_value=400),  # demand misses
    ),
    min_size=1,
    max_size=12,
)


@settings(deadline=None)
@given(interval_feeds)
def test_coordinated_throttle_moves_one_step_per_interval(feeds):
    """Each interval moves every prefetcher by at most one level, always
    inside the ladder, and logs exactly one decision per prefetcher."""
    first = _NullPrefetcher("first")
    second = _NullPrefetcher("second")
    collector = FeedbackCollector(["first", "second"], interval_evictions=4)
    throttle = PolicyThrottle([first, second], Table3Policy())
    throttle.attach(collector)

    for issued_a, used_a, issued_b, used_b, misses in feeds:
        before = (first.level, second.level)
        collector.record_issue("first", issued_a)
        collector.record_issue("second", issued_b)
        for _ in range(min(used_a, issued_a)):
            collector.record_use("first")
        for _ in range(min(used_b, issued_b)):
            collector.record_use("second")
        for block in range(misses):
            collector.record_demand_miss(block)
        for _ in range(collector.interval_evictions):
            collector.record_eviction(0, by_prefetch=False,
                                      victim_was_demand=True)
        for prefetcher, old in zip((first, second), before):
            assert abs(prefetcher.level - old) <= 1
            assert 0 <= prefetcher.level <= MAX_LEVEL

    assert len(throttle.decisions) == 2 * collector.intervals_completed
    for decision in throttle.decisions:
        assert decision.case in (1, 2, 3, 4, 5)
        assert decision.action in ACTION_RANK
        assert 0.0 <= decision.coverage <= 1.0
        assert 0.0 <= decision.accuracy <= 1.0
        assert 0.0 <= decision.rival_coverage <= 1.0


# --------------------------------------------------------------------------
# pinned Table 4 constants
# --------------------------------------------------------------------------

def test_table4_thresholds_are_pinned():
    assert DEFAULT_THRESHOLDS == ThrottleThresholds(
        t_coverage=0.2, a_low=0.4, a_high=0.7
    )
    paper = SystemConfig.paper()
    assert (paper.t_coverage, paper.a_low, paper.a_high) == (0.2, 0.4, 0.7)
    # the scaled config deliberately retunes for the smaller caches —
    # pin that too so a silent default change cannot masquerade as noise
    scaled = SystemConfig.scaled()
    assert (scaled.t_coverage, scaled.a_low, scaled.a_high) == (
        0.35, 0.45, 0.7
    )
