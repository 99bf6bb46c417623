"""Tabular Q-table throttling policy, trained offline and replayed greedily.

The learned competitor the telemetry subsystem made possible: the state
is a discretization of exactly the per-interval feedback signals the
series recorder captures (coverage and accuracy classes through the
Table 4 thresholds, rival coverage, current ladder level), the actions
are Table 3's own actuation surface (down/hold/up), and the reward
:mod:`repro.policy.training` replays is the paper's economy — usefulness
delivered minus bandwidth spent::

    r = coverage + accuracy - penalty * BPKI / 100

The table travels *inside* ``policy_params`` as a compact string, so a
trained controller's content hash covers the exact table it runs, and
the controller is a pure lookup: same table, same signals, same action.
"""

from __future__ import annotations

import math
from typing import List

from repro.policy.base import ACTIONS, FeedbackSignals, ThrottlePolicy
from repro.throttle.coordinated import ThrottleDecision
from repro.throttle.levels import (
    DEFAULT_THRESHOLDS,
    MAX_LEVEL,
    ThrottleThresholds,
)

#: discretized state space: coverage class (2) x accuracy class (3) x
#: rival coverage class (2) x ladder level (MAX_LEVEL + 1)
N_LEVELS = MAX_LEVEL + 1
N_STATES = 2 * 3 * 2 * N_LEVELS
N_ACTIONS = len(ACTIONS)

_ACCURACY_INDEX = {"low": 0, "medium": 1, "high": 2}


def state_index(
    coverage: float,
    accuracy: float,
    rival_coverage: float,
    level: int,
    thresholds: ThrottleThresholds = DEFAULT_THRESHOLDS,
) -> int:
    """Map raw signals to a table row, via the Table 4 classifiers."""
    cov = int(thresholds.coverage_is_high(coverage))
    acc = _ACCURACY_INDEX[thresholds.accuracy_class(accuracy)]
    rival = int(thresholds.coverage_is_high(rival_coverage))
    lvl = max(0, min(MAX_LEVEL, int(level)))
    return ((cov * 3 + acc) * 2 + rival) * N_LEVELS + lvl


def reward(coverage: float, accuracy: float, bpki: float,
           penalty: float) -> float:
    """Perf-per-bandwidth shaped reward for one interval."""
    return coverage + accuracy - penalty * bpki / 100.0


def zero_table() -> List[List[float]]:
    """A fresh all-zeros Q table (N_STATES rows x N_ACTIONS columns)."""
    return [[0.0] * N_ACTIONS for _ in range(N_STATES)]


def encode_q(table: List[List[float]]) -> str:
    """Flatten a Q table to the compact ``policy_params`` string form.

    ``|``-separated ``%.6g`` floats — no commas, so the value embeds in
    the ``key=value,key=value`` params grammar unescaped.
    """
    return "|".join(f"{q:.6g}" for row in table for q in row)


def decode_q(text: str) -> List[List[float]]:
    """Inverse of :func:`encode_q`; raises ValueError on a bad shape or
    a non-finite entry."""
    values = [float(v) for v in text.split("|")] if text else []
    if len(values) != N_STATES * N_ACTIONS:
        raise ValueError(
            f"q table must hold {N_STATES * N_ACTIONS} values "
            f"({N_STATES} states x {N_ACTIONS} actions), got {len(values)}"
        )
    if not all(math.isfinite(value) for value in values):
        raise ValueError("q table entries must be finite")
    return [
        values[i * N_ACTIONS:(i + 1) * N_ACTIONS] for i in range(N_STATES)
    ]


def greedy_action(row: List[float]) -> int:
    """Deterministic argmax: first index of the maximum (down,hold,up)."""
    best = 0
    for index in range(1, N_ACTIONS):
        if row[index] > row[best]:
            best = index
    return best


class QLearningPolicy(ThrottlePolicy):
    """Greedy replay of a Q table (``q=``, what ``repro train-policy``
    emits) over the feedback state space."""

    name = "qlearn"
    min_prefetchers = 1

    def __init__(
        self,
        q: str,
        thresholds: ThrottleThresholds = DEFAULT_THRESHOLDS,
    ) -> None:
        self.table = decode_q(q)
        self.thresholds = thresholds

    def decide(self, signals: FeedbackSignals) -> ThrottleDecision:
        state = state_index(
            signals.coverage,
            signals.accuracy,
            signals.rival_coverage,
            signals.level,
            self.thresholds,
        )
        action = greedy_action(self.table[state])
        return ThrottleDecision("", 0, ACTIONS[action], 0, 0, 0)
