"""Property tests for the pluggable throttling policies (repro.policy).

Hypothesis drives random signal sequences through each policy and the
generic :class:`PolicyThrottle` controller, asserting the invariants
the subsystem's determinism story rests on:

* **level bounds**: any policy driving real prefetcher ladders keeps
  every level inside 0..MAX_LEVEL and moves at most one step per
  interval;
* **training-replay invariance**: training on the same recorded series
  twice yields the bit-identical Q table, and the encode/decode params
  round-trip preserves it exactly.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy import (
    ACTIONS,
    PolicyThrottle,
    QLearningPolicy,
    StaticLevelPolicy,
    Table3Policy,
)
from repro.policy.qlearn import decode_q, encode_q
from repro.policy.training import train_q_table, transitions_from_series
from repro.prefetch.base import Prefetcher
from repro.throttle.feedback import FeedbackCollector
from repro.throttle.levels import MAX_LEVEL
from tests.test_policy import trained_q

fractions = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_subnormal=False)
levels = st.integers(min_value=0, max_value=MAX_LEVEL)

#: one randomized interval observation: (coverage, accuracy, rival)
observations = st.tuples(fractions, fractions, fractions)


class _NullPrefetcher(Prefetcher):
    """Level ladder only — never emits requests."""

    def on_demand_access(self, now, addr, pc, l2_hit):
        return []


# --------------------------------------------------------------------------
# level bounds under any policy
# --------------------------------------------------------------------------

def _drive(policy, sequence):
    """Run a policy through PolicyThrottle on real ladders; return
    the level trace (both prefetchers, one entry per interval)."""
    prefetchers = [_NullPrefetcher("stream"), _NullPrefetcher("cdp")]
    controller = PolicyThrottle(prefetchers, policy)
    collector = FeedbackCollector([p.name for p in prefetchers],
                                  interval_evictions=1)
    controller.attach(collector)
    trace = []
    for cov, acc, rival in sequence:
        for p in prefetchers:
            collector.record_issue(p.name, 3)
            for _ in range(max(1, int(acc * 3))):
                collector.record_use(p.name)
        for _ in range(int(cov * 5) + 1):
            collector.record_demand_miss(0)
        before = {p.name: p.level for p in prefetchers}
        collector.record_eviction(0, False, False)  # rolls the interval
        for p in prefetchers:
            trace.append((before[p.name], p.level))
    return trace


@settings(max_examples=15, deadline=None)
@given(st.lists(observations, min_size=1, max_size=25),
       st.sampled_from(["table3", "static1", "qlearn"]))
def test_levels_stay_in_ladder_and_move_one_step(sequence, which):
    policy = {
        "table3": Table3Policy,
        "static1": lambda: StaticLevelPolicy(level=1),
        "qlearn": lambda: QLearningPolicy(q=trained_q()),
    }[which]()
    for before, after in _drive(policy, sequence):
        assert 0 <= after <= MAX_LEVEL
        assert abs(after - before) <= 1


# --------------------------------------------------------------------------
# training-replay invariance
# --------------------------------------------------------------------------

series_rows = st.lists(
    st.tuples(fractions, fractions, levels, fractions, fractions, levels,
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    min_size=3, max_size=30,
)


def _rows(points):
    rows = []
    for i, (acc1, cov1, lvl1, acc2, cov2, lvl2, bpki) in enumerate(points):
        rows.append({
            "core": "core0", "interval": i + 1, "bpki": bpki,
            "prefetchers": {
                "stream": {"accuracy": acc1, "coverage": cov1,
                           "level": lvl1},
                "cdp": {"accuracy": acc2, "coverage": cov2, "level": lvl2},
            },
        })
    return rows


@settings(max_examples=25, deadline=None)
@given(series_rows)
def test_training_replay_is_bit_invariant(points):
    rows = _rows(points)
    first = train_q_table(transitions_from_series(rows), epochs=3)
    second = train_q_table(transitions_from_series(
        json.loads(json.dumps(rows))  # a serialization round-trip, too
    ), epochs=3)
    assert first == second
    # and the params encoding preserves the trained table through %.6g
    assert decode_q(encode_q(first)) == [
        [float(f"{q:.6g}") for q in row] for row in first
    ]


def test_actions_tuple_is_the_policy_contract():
    assert ACTIONS == ("down", "hold", "up")
