"""Pluggable throttling policies (see DESIGN.md, "Throttling policies").

The junction between the feedback collector and the prefetchers'
aggressiveness ladders, made swappable: the paper's Table 3 heuristic
(the default, bit-identical to the pre-policy controller), a Q table
trained offline on recorded telemetry series and replayed greedily, and
static pinned-level baselines.  ``benchmarks/bench_policy_tournament.py``
races them on performance per unit of bandwidth, on workloads the table
was not trained on.
"""

from repro.policy.base import ACTIONS, FeedbackSignals, ThrottlePolicy
from repro.policy.controller import PolicyThrottle
from repro.policy.qlearn import QLearningPolicy
from repro.policy.registry import (
    POLICY_NAMES,
    controller_for,
    create_policy,
    parse_policy_params,
    validate_policy,
)
from repro.policy.static import StaticLevelPolicy
from repro.policy.table3 import Table3Policy
from repro.policy.training import train_policy

__all__ = [
    "ACTIONS",
    "FeedbackSignals",
    "ThrottlePolicy",
    "PolicyThrottle",
    "QLearningPolicy",
    "POLICY_NAMES",
    "controller_for",
    "create_policy",
    "parse_policy_params",
    "validate_policy",
    "StaticLevelPolicy",
    "Table3Policy",
    "train_policy",
]
