"""Throttling-policy protocol: per-interval signals in, level moves out.

The paper hard-wires one controller — the Table 3 heuristic — between
the feedback collector and the prefetchers' aggressiveness ladders.
This package turns that junction into a *pluggable* decision layer: a
:class:`ThrottlePolicy` observes one :class:`FeedbackSignals` snapshot
per prefetcher per feedback interval and answers with an action from
:data:`ACTIONS` (``"down"``/``"hold"``/``"up"``, one ladder step at
most, exactly the actuation surface Table 3 has).  The generic
:class:`~repro.policy.controller.PolicyThrottle` adapter drives any
policy through the same ``FeedbackCollector.on_interval`` hook the
original controller used, on every engine.

The signals are exactly what Table 3 consumes (coverage, accuracy,
rival coverage, current level): every policy observes what the paper's
controller observed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.throttle.coordinated import ThrottleDecision

#: every action a policy may take on one prefetcher in one interval
ACTIONS = ("down", "hold", "up")


@dataclass(frozen=True)
class FeedbackSignals:
    """One prefetcher's observation for one feedback interval.

    ``coverage``, ``accuracy`` and ``rival_coverage`` are the smoothed
    Eq. 1/2 values the collector just rolled — bit-identical to what the
    hard-wired heuristic read.  ``level`` is the prefetcher's ladder
    position *before* this interval's decision.
    """

    owner: str
    coverage: float
    accuracy: float
    rival_coverage: float
    level: int


class ThrottlePolicy(ABC):
    """One aggressiveness decision per prefetcher per feedback interval.

    Policies are *per-core* objects: construct one per simulated core
    (the runner does), never share instances across cores or runs.
    A stateful policy keys any per-prefetcher state by
    ``signals.owner``.
    """

    #: registry name (set by subclasses; shown in exports and benches)
    name: str = "?"

    #: fewest prefetchers the policy can coordinate (Table 3 needs a
    #: rival, so it requires 2; single-knob policies work from 1)
    min_prefetchers: int = 1

    @abstractmethod
    def decide(self, signals: FeedbackSignals) -> ThrottleDecision:
        """The decision for one prefetcher this interval.

        Returns a :class:`~repro.throttle.coordinated.ThrottleDecision`
        whose ``action`` is one of :data:`ACTIONS`; ``case`` is the
        Table 3 case number for the table3 policy and 0 for everything
        else.  The controller fills the owner/coverage/accuracy/rival
        fields, so policies may leave them blank.
        """
