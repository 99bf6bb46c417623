"""PID-on-accuracy controller with anti-windup.

A classical control baseline between the paper's heuristic and the
learned policies: treat each prefetcher's smoothed accuracy (Eq. 1) as
the process variable, its aggressiveness ladder as the actuator, and
drive accuracy toward a setpoint.  Accuracy above target means the
prefetcher can afford to be more aggressive (throttle up); accuracy
below target means its prefetches are wasting bandwidth (throttle
down).

Anti-windup is the load-bearing detail.  The actuator saturates hard —
four ladder steps — and accuracy can sit at zero for long stretches
(cold structures, phase changes), so a naive integrator accumulates a
huge negative error sum and then refuses to throttle back up for
hundreds of intervals after behaviour recovers.  Two standard guards:

* *conditional integration*: the error is not integrated while the
  actuator is saturated in the direction the error is pushing;
* *clamping*: the integral term is clamped to ``±windup``.

``tests/test_policy_properties.py`` asserts both (the integral bound,
and bounded recovery after a long saturated stretch).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.policy.base import FeedbackSignals, ThrottlePolicy
from repro.throttle.coordinated import ThrottleDecision
from repro.throttle.levels import MAX_LEVEL


class PidAccuracyPolicy(ThrottlePolicy):
    """PID on the accuracy error, one loop per prefetcher."""

    name = "pid"
    min_prefetchers = 1

    def __init__(
        self,
        kp: float = 1.5,
        ki: float = 0.4,
        kd: float = 0.0,
        target: float = 0.55,
        windup: float = 2.0,
        deadband: float = 0.25,
    ) -> None:
        if windup <= 0:
            raise ValueError(f"windup clamp must be positive, got {windup}")
        if deadband < 0:
            raise ValueError(f"deadband must be >= 0, got {deadband}")
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.target = target
        self.windup = windup
        self.deadband = deadband
        #: per-prefetcher loop state: (integral, previous error)
        self._state: Dict[str, Tuple[float, float]] = {}

    def integral(self, owner: str) -> float:
        """Current integral term (exposed for the anti-windup tests)."""
        return self._state.get(owner, (0.0, 0.0))[0]

    def decide(self, signals: FeedbackSignals) -> ThrottleDecision:
        integral, previous = self._state.get(signals.owner, (0.0, 0.0))
        # positive error = accuracy surplus = push the ladder up
        error = signals.accuracy - self.target
        saturated_up = signals.level >= MAX_LEVEL and error > 0
        saturated_down = signals.level <= 0 and error < 0
        if not (saturated_up or saturated_down):
            integral += error
        integral = max(-self.windup, min(self.windup, integral))
        derivative = error - previous
        self._state[signals.owner] = (integral, error)
        control = self.kp * error + self.ki * integral + self.kd * derivative
        if control > self.deadband:
            action = "up"
        elif control < -self.deadband:
            action = "down"
        else:
            action = "hold"
        return ThrottleDecision("", 0, action, 0, 0, 0)
