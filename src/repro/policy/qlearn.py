"""Tabular Q-learning / contextual-bandit throttling policy.

The learned competitor the telemetry subsystem made possible: the state
is a discretization of exactly the per-interval feedback signals the
series recorder captures (coverage and accuracy classes through the
Table 4 thresholds, rival coverage, current ladder level), the actions
are Table 3's own actuation surface (down/hold/up), and the reward is
the paper's economy — usefulness delivered minus bandwidth spent::

    r = coverage + accuracy - penalty * BPKI / 100

With ``gamma > 0`` this is one-step Q-learning (credit flows backward
through the interval sequence); with ``gamma = 0`` it degrades to a
contextual bandit (each interval rewarded on its own), which is the
``bandit`` registry entry.

Determinism is a hard requirement, not a nicety: a sweep's checkpoint
journal and the service's result cache are keyed by a content hash over
the job's config, so the same config must always produce the same
simulation.  Every stochastic choice therefore draws from a
``random.Random`` seeded from the config's *identity* (via
:func:`stable_seed` — deliberately excluding the ``engine`` field so
the reference and fast engines stay bit-identical) plus the
user-visible ``seed`` param.  Tables trained offline
(:mod:`repro.policy.training`) travel *inside* ``policy_params`` as a
compact string, so a trained controller's content hash covers the exact
table it runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import fields
from typing import Dict, List, Optional, Tuple

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
    """Inverse of :func:`encode_q`; raises ValueError on a bad shape."""
    values = [float(v) for v in text.split("|")] if text else []
    if len(values) != N_STATES * N_ACTIONS:
        raise ValueError(
            f"q table must hold {N_STATES * N_ACTIONS} values "
            f"({N_STATES} states x {N_ACTIONS} actions), got {len(values)}"
        )
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


def stable_seed(config, extra: int = 0) -> int:
    """A deterministic RNG seed derived from a config's *identity*.

    Excludes ``engine``: both engines must make identical throttling
    decisions (the differential harness compares them bit-for-bit), and
    which kernel executes the trace is not part of what the simulation
    computes.  Everything else — including ``policy_params`` itself —
    feeds the digest, so two content-distinct jobs never share an
    exploration stream by accident.
    """
    if config is None:
        return extra & 0xFFFFFFFF
    payload = {
        field.name: getattr(config, field.name)
        for field in fields(config)
        if field.name != "engine"
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    ).digest()
    return (int.from_bytes(digest[:8], "big") ^ extra) & 0xFFFFFFFFFFFFFFFF


class QLearningPolicy(ThrottlePolicy):
    """Epsilon-greedy tabular Q-learning over the feedback state space.

    Modes:

    * *online* (default): starts from an all-zeros (or supplied) table
      and keeps learning during the run, exploration seeded
      deterministically;
    * *offline-trained*: construct with ``q=<encoded table>`` plus
      ``epsilon=0, learn=0`` (what ``repro train-policy`` emits) for a
      pure greedy replay of the trained table.
    """

    name = "qlearn"
    needs_system = True  # the reward term consumes interval BPKI
    min_prefetchers = 1

    def __init__(
        self,
        alpha: float = 0.2,
        gamma: float = 0.6,
        epsilon: float = 0.1,
        penalty: float = 0.5,
        seed: int = 0,
        learn: bool = True,
        q: Optional[str] = None,
        thresholds: ThrottleThresholds = DEFAULT_THRESHOLDS,
        config=None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        self.alpha = alpha
        self.gamma = gamma
        self.epsilon = epsilon
        self.penalty = penalty
        self.learn = learn
        self.table = decode_q(q) if q else zero_table()
        self.thresholds = thresholds
        self._seed = stable_seed(config, extra=seed)
        self._rng = random.Random(self._seed)
        #: per-prefetcher (state, action) awaiting its reward
        self._pending: Dict[str, Tuple[int, int]] = {}

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._pending.clear()

    def decide(self, signals: FeedbackSignals) -> ThrottleDecision:
        state = state_index(
            signals.coverage,
            signals.accuracy,
            signals.rival_coverage,
            signals.level,
            self.thresholds,
        )
        pending = self._pending.get(signals.owner)
        if pending is not None and self.learn:
            prev_state, prev_action = pending
            observed = reward(
                signals.coverage, signals.accuracy, signals.bpki,
                self.penalty,
            )
            row = self.table[prev_state]
            target = observed + self.gamma * max(self.table[state])
            row[prev_action] += self.alpha * (target - row[prev_action])
        if self.epsilon and self._rng.random() < self.epsilon:
            action = self._rng.randrange(N_ACTIONS)
        else:
            action = greedy_action(self.table[state])
        self._pending[signals.owner] = (state, action)
        return ThrottleDecision("", 0, ACTIONS[action], 0, 0, 0)
