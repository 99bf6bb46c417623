"""Unit tests for coordinated throttling — every case of paper Table 3."""

import pytest

from repro.policy.controller import PolicyThrottle
from repro.policy.table3 import Table3Policy
from repro.prefetch.stream import StreamPrefetcher
from repro.prefetch.cdp import ContentDirectedPrefetcher
from repro.throttle.coordinated import decide_case
from repro.throttle.feedback import FeedbackCollector
from repro.throttle.levels import DEFAULT_THRESHOLDS, ThrottleThresholds


class TestDecisionTable:
    """decide_case must implement paper Table 3 exactly."""

    def test_case1_high_coverage_up(self):
        for accuracy in ("low", "medium", "high"):
            for rival in (False, True):
                decision = decide_case(True, accuracy, rival)
                assert (decision.case, decision.action) == (1, "up")

    def test_case2_low_cov_low_acc_down(self):
        for rival in (False, True):
            decision = decide_case(False, "low", rival)
            assert (decision.case, decision.action) == (2, "down")

    def test_case3_low_cov_decent_acc_rival_low_up(self):
        for accuracy in ("medium", "high"):
            decision = decide_case(False, accuracy, False)
            assert (decision.case, decision.action) == (3, "up")

    def test_case4_low_cov_medium_acc_rival_high_down(self):
        decision = decide_case(False, "medium", True)
        assert (decision.case, decision.action) == (4, "down")

    def test_case5_low_cov_high_acc_rival_high_hold(self):
        decision = decide_case(False, "high", True)
        assert (decision.case, decision.action) == (5, "hold")


class TestThresholds:
    def test_paper_table4_defaults(self):
        assert DEFAULT_THRESHOLDS.t_coverage == 0.2
        assert DEFAULT_THRESHOLDS.a_low == 0.4
        assert DEFAULT_THRESHOLDS.a_high == 0.7

    def test_accuracy_classes(self):
        thresholds = ThrottleThresholds()
        assert thresholds.accuracy_class(0.39) == "low"
        assert thresholds.accuracy_class(0.4) == "medium"
        assert thresholds.accuracy_class(0.69) == "medium"
        assert thresholds.accuracy_class(0.7) == "high"

    def test_coverage_class(self):
        thresholds = ThrottleThresholds()
        assert not thresholds.coverage_is_high(0.19)
        assert thresholds.coverage_is_high(0.2)


class TestControllerIntegration:
    """Table 3 driven through the controller the runner attaches."""

    def _setup(self):
        stream = StreamPrefetcher(64)
        cdp = ContentDirectedPrefetcher(64)
        stream.set_level(2)
        cdp.set_level(2)
        collector = FeedbackCollector(["stream", "cdp"], interval_evictions=1)
        controller = PolicyThrottle([stream, cdp], Table3Policy())
        controller.attach(collector)
        return stream, cdp, collector, controller

    def _interval(self, collector):
        collector.record_eviction(0, False, True)

    def test_high_coverage_prefetcher_throttles_up(self):
        stream, cdp, collector, __ = self._setup()
        collector.record_issue("stream", 10)
        for __ in range(10):
            collector.record_use("stream")
        self._interval(collector)
        assert stream.level == 3

    def test_useless_prefetcher_throttles_down(self):
        stream, cdp, collector, __ = self._setup()
        collector.record_issue("cdp", 100)  # no uses: acc 0, cov 0
        for __ in range(20):
            collector.record_demand_miss(0)
        self._interval(collector)
        assert cdp.level == 1

    def test_accurate_low_coverage_holds_when_rival_covers(self):
        stream, cdp, collector, __ = self._setup()
        # Stream: high coverage.  CDP: tiny coverage, perfect accuracy.
        collector.record_issue("stream", 50)
        for __ in range(50):
            collector.record_use("stream")
        collector.record_issue("cdp", 2)
        collector.record_use("cdp")
        collector.record_use("cdp")
        for __ in range(100):
            collector.record_demand_miss(0)
        self._interval(collector)
        assert cdp.level == 2  # case 5: do nothing

    def test_decisions_logged(self):
        stream, cdp, collector, controller = self._setup()
        self._interval(collector)
        assert len(controller.decisions) == 2
        owners = {d.owner for d in controller.decisions}
        assert owners == {"stream", "cdp"}

    def test_requires_two_prefetchers(self):
        with pytest.raises(ValueError):
            PolicyThrottle([StreamPrefetcher(64)], Table3Policy())

    def test_three_prefetcher_generalization(self):
        """Paper Section 4.2: the heuristics are N-ary-ready."""
        prefetchers = [
            StreamPrefetcher(64, name="stream"),
            ContentDirectedPrefetcher(64, name="cdp"),
            ContentDirectedPrefetcher(64, name="cdp2"),
        ]
        for p in prefetchers:
            p.set_level(2)
        collector = FeedbackCollector(
            [p.name for p in prefetchers], interval_evictions=1
        )
        controller = PolicyThrottle(prefetchers, Table3Policy())
        controller.attach(collector)
        # cdp2 covers everything; the others are useless.
        collector.record_issue("cdp2", 10)
        for __ in range(10):
            collector.record_use("cdp2")
        collector.record_issue("stream", 50)
        collector.record_issue("cdp", 50)
        collector.record_eviction(0, False, True)
        assert prefetchers[2].level == 3  # case 1
        assert prefetchers[0].level == 1  # case 2
        assert prefetchers[1].level == 1  # case 2

    def test_decisions_simultaneous_not_sequential(self):
        """All decisions must come from the same snapshot: a prefetcher
        throttled down in this interval still counts as the rival it was."""
        stream, cdp, collector, controller = self._setup()
        # Both high coverage -> both case 1, regardless of ordering.
        for name in ("stream", "cdp"):
            collector.record_issue(name, 10)
            for __ in range(10):
                collector.record_use(name)
        self._interval(collector)
        assert stream.level == 3 and cdp.level == 3
