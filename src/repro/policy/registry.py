"""Policy registry: names, the params grammar, validation, construction.

The ``policy_params`` grammar is a flat ``key=value,key=value`` string
(not a dict) because :class:`~repro.core.config.SystemConfig` is a
frozen dataclass used as a hash key — in the runner's result cache and,
wholesale, in the sweep engine's content-addressed job identity.  A
string keeps the config hashable and makes the trained Q table (encoded
with ``|`` separators, commaless by construction) part of the job's
content hash with zero extra machinery.

``validate_policy`` mirrors ``SystemConfig.validate``'s contract:
returns a ``{field: message}`` problems dict (empty when fine) instead
of raising, so config validation can merge policy problems into its own
and report everything at once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.policy.base import ThrottlePolicy
from repro.policy.controller import PolicyThrottle
from repro.policy.qlearn import QLearningPolicy
from repro.policy.static import StaticLevelPolicy
from repro.policy.table3 import Table3Policy
from repro.throttle.levels import MAX_LEVEL, ThrottleThresholds

POLICY_NAMES = ("table3", "qlearn", "static")


def parse_policy_params(text: str) -> Dict[str, str]:
    """``"k=v,k2=v2"`` -> dict; raises ValueError on malformed entries."""
    params: Dict[str, str] = {}
    if not text:
        return params
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(
                f"policy param {entry!r} is not of the form key=value"
            )
        key, _, value = entry.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"policy param {entry!r} has an empty key")
        if key in params:
            raise ValueError(f"policy param {key!r} given twice")
        params[key] = value.strip()
    return params


def _coerce(params: Dict[str, str], ints: tuple = ()) -> Dict[str, object]:
    return {
        key: int(value) if key in ints else value
        for key, value in params.items()
    }


def _make_table3(params, thresholds) -> ThrottlePolicy:
    return Table3Policy(thresholds)


def _make_static(params, thresholds) -> ThrottlePolicy:
    kwargs = _coerce(params, ints=("level",))
    return StaticLevelPolicy(**kwargs)


def _make_qlearn(params, thresholds) -> ThrottlePolicy:
    if "q" not in params:
        raise ValueError(
            "the qlearn policy replays a trained table: pass q=<table> "
            "(see `repro train-policy`)"
        )
    return QLearningPolicy(params["q"], thresholds=thresholds)


_FACTORIES: Dict[str, Callable] = {
    "table3": _make_table3,
    "qlearn": _make_qlearn,
    "static": _make_static,
}

_ALLOWED_PARAMS: Dict[str, tuple] = {
    "table3": (),
    "qlearn": ("q",),
    "static": ("level",),
}


def validate_policy(name: str, params_text: str) -> Dict[str, str]:
    """Problems dict for a policy selection; empty when valid."""
    problems: Dict[str, str] = {}
    if name not in POLICY_NAMES:
        problems["throttle_policy"] = (
            f"must be one of {POLICY_NAMES} (got {name!r})"
        )
        return problems
    try:
        params = parse_policy_params(params_text)
    except ValueError as error:
        problems["policy_params"] = str(error)
        return problems
    allowed = _ALLOWED_PARAMS[name]
    unknown = sorted(key for key in params if key not in allowed)
    if unknown:
        expected = ", ".join(allowed) if allowed else "none"
        problems["policy_params"] = (
            f"unknown params for policy {name!r}: "
            f"{', '.join(unknown)} (expected: {expected})"
        )
        return problems
    try:
        _FACTORIES[name](params, ThrottleThresholds())
    except (ValueError, TypeError) as error:
        problems["policy_params"] = str(error)
    return problems


def create_policy(config) -> ThrottlePolicy:
    """Build the policy a :class:`SystemConfig` selects.

    Raises :class:`ValueError` on an unknown name or bad params —
    ``SystemConfig.validate`` catches these earlier with field-level
    messages, so reaching an exception here means validation was
    skipped.
    """
    name = getattr(config, "throttle_policy", "table3")
    if name not in _FACTORIES:
        raise ValueError(f"unknown throttle policy {name!r}")
    params = parse_policy_params(getattr(config, "policy_params", ""))
    thresholds = ThrottleThresholds(
        t_coverage=config.t_coverage,
        a_low=config.a_low,
        a_high=config.a_high,
    )
    return _FACTORIES[name](params, thresholds)


def controller_for(throttled: List, config) -> Optional[PolicyThrottle]:
    """The runner's seam: a controller for this core, or None.

    None means "leave the prefetchers at their configured levels" —
    exactly what the pre-policy runner did when coordinated throttling
    had fewer than two prefetchers to coordinate.
    """
    policy = create_policy(config)
    if len(throttled) < policy.min_prefetchers:
        return None
    return PolicyThrottle(throttled, policy)
