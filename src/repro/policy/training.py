"""Offline policy training over recorded telemetry interval series.

The data flow the tournament (and ``repro train-policy``) uses:

1. a sweep or trace run with telemetry records one JSONL series per
   cell (``repro sweep --telemetry`` / ``repro trace --series``), one
   row per feedback interval with per-prefetcher accuracy, coverage and
   post-decision level plus interval BPKI;
2. :func:`transitions_from_series` reconstructs the controller's
   experience from those rows — state before the decision, the action
   the level delta implies, the reward the *next* interval paid out;
3. :func:`train_q_table` replays that experience through the standard
   Q-learning update for a fixed number of epochs.

Training is a pure, order-preserving fold: no RNG, no set/dict
iteration over unordered keys, files processed in the order given and
rows in file order.  Replaying the same series therefore yields the
bit-identical table (the *training-replay invariance* property test),
which is what lets a trained table participate in content-addressed
job identity.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.policy.qlearn import (
    ACTIONS,
    encode_q,
    greedy_action,
    reward,
    state_index,
    zero_table,
)
from repro.throttle.levels import DEFAULT_THRESHOLDS, ThrottleThresholds

#: (state, action, reward, next_state) — one step of controller experience
Transition = Tuple[int, int, float, int]

_ACTION_INDEX = {name: index for index, name in enumerate(ACTIONS)}


def collect_series_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into an ordered list of series files.

    Directories contribute their ``*.series.jsonl`` children sorted by
    name (deterministic), so pointing at a sweep's ``<name>-series/``
    directory trains on every recorded cell.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.series.jsonl")))
        elif path.exists():
            files.append(path)
        else:
            raise ConfigError(f"no series file or directory at {raw}")
    if not files:
        raise ConfigError(
            "no .series.jsonl files found; record some with "
            "`repro sweep --telemetry` or `repro trace --series`"
        )
    return files


def load_series_rows(path: Path) -> List[Dict[str, Any]]:
    """Parse one series JSONL file, skipping blank lines."""
    rows: List[Dict[str, Any]] = []
    with open(path) as stream:
        for line_number, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as error:
                raise ConfigError(
                    f"{path}:{line_number}: not JSON: {error}"
                ) from None
            if isinstance(row, dict):
                rows.append(row)
    return rows


def _rival_coverage(prefetchers: Dict[str, Any], owner: str) -> float:
    return max(
        (
            float(metrics.get("coverage", 0.0))
            for name, metrics in prefetchers.items()
            if name != owner
        ),
        default=0.0,
    )


def transitions_from_series(
    rows: Iterable[Dict[str, Any]],
    penalty: float = 0.5,
    thresholds: ThrottleThresholds = DEFAULT_THRESHOLDS,
) -> List[Transition]:
    """Reconstruct controller experience from recorded interval rows.

    Recorded levels are *post-decision*: at interval *t* the controller
    observed the signals row *t* carries while still at the level row
    *t-1* recorded, then moved one step to row *t*'s level.  The level
    delta names the action (a delta of 0 reads as ``hold`` — a
    boundary-clamped up/down is indistinguishable from hold in the
    series, and is rewarded identically since the level did not move).
    The reward is paid by the *following* row, consistent with the
    one-interval feedback delay of the live controller.

    Rows from different cores (multicore series files) form separate
    streams; decimated series simply yield coarser transitions.
    """
    per_stream: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    order: List[Tuple[str, str]] = []
    for row in rows:
        prefetchers = row.get("prefetchers")
        if not isinstance(prefetchers, dict):
            continue
        core = str(row.get("core", "core0"))
        for owner in prefetchers:
            key = (core, owner)
            if key not in per_stream:
                per_stream[key] = []
                order.append(key)
            per_stream[key].append(row)

    transitions: List[Transition] = []
    for key in order:
        core, owner = key
        stream = per_stream[key]
        for prev, cur, nxt in zip(stream, stream[1:], stream[2:]):
            prev_m = prev["prefetchers"][owner]
            cur_m = cur["prefetchers"][owner]
            nxt_m = nxt["prefetchers"][owner]
            state = state_index(
                float(cur_m.get("coverage", 0.0)),
                float(cur_m.get("accuracy", 0.0)),
                _rival_coverage(cur["prefetchers"], owner),
                int(prev_m.get("level", 0)),
                thresholds,
            )
            delta = int(cur_m.get("level", 0)) - int(prev_m.get("level", 0))
            action = _ACTION_INDEX[
                "up" if delta > 0 else "down" if delta < 0 else "hold"
            ]
            next_state = state_index(
                float(nxt_m.get("coverage", 0.0)),
                float(nxt_m.get("accuracy", 0.0)),
                _rival_coverage(nxt["prefetchers"], owner),
                int(cur_m.get("level", 0)),
                thresholds,
            )
            observed = reward(
                float(nxt_m.get("coverage", 0.0)),
                float(nxt_m.get("accuracy", 0.0)),
                float(nxt.get("bpki", 0.0)),
                penalty,
            )
            transitions.append((state, action, observed, next_state))
    return transitions


def train_q_table(
    transitions: Sequence[Transition],
    alpha: float = 0.2,
    gamma: float = 0.6,
    epochs: int = 4,
) -> List[List[float]]:
    """Replay the experience *epochs* times through Q-learning updates."""
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    table = zero_table()
    for _ in range(epochs):
        for state, action, observed, next_state in transitions:
            row = table[state]
            target = observed + gamma * max(table[next_state])
            row[action] += alpha * (target - row[action])
    return table


def train_policy(
    series: Sequence[str],
    alpha: float = 0.2,
    gamma: float = 0.6,
    penalty: float = 0.5,
    epochs: int = 4,
    thresholds: Optional[ThrottleThresholds] = None,
) -> Dict[str, Any]:
    """Train the qlearn policy offline; returns the policy-file payload.

    The payload's ``policy_params`` string, ``q=<table>``, is ready to
    paste into ``sweep --policy-params`` (or load via
    ``--policy-file``); the replayed controller is a greedy lookup over
    the trained table.
    """
    thresholds = thresholds or DEFAULT_THRESHOLDS
    files = collect_series_files(series)
    transitions: List[Transition] = []
    rows_total = 0
    for path in files:
        rows = load_series_rows(path)
        rows_total += len(rows)
        transitions.extend(
            transitions_from_series(rows, penalty=penalty,
                                    thresholds=thresholds)
        )
    if not transitions:
        raise ConfigError(
            "the recorded series yielded no transitions (need >= 3 "
            "interval samples per cell); record longer runs or more cells"
        )
    table = train_q_table(transitions, alpha=alpha, gamma=gamma,
                          epochs=epochs)
    visited = sum(1 for row in table if any(row))
    return {
        "policy": "qlearn",
        "policy_params": f"q={encode_q(table)}",
        "hyperparameters": {
            "alpha": alpha,
            "gamma": gamma,
            "penalty": penalty,
            "epochs": epochs,
        },
        "files": [str(path) for path in files],
        "rows": rows_total,
        "transitions": len(transitions),
        "states_visited": visited,
        "greedy_actions": {
            name: sum(
                1 for row in table
                if any(row) and greedy_action(row) == index
            )
            for index, name in enumerate(ACTIONS)
        },
    }
