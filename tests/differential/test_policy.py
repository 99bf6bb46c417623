"""Policy-subsystem differentials.

Two equalities anchor the refactor:

* **Extraction fidelity.**  The default ``table3`` policy driven
  through :class:`~repro.policy.controller.PolicyThrottle` must
  reproduce — full snapshot *and* interval-by-interval trajectory,
  including Table 3 case numbers — the goldens recorded from the
  pre-policy hard-wired controller, on every engine
  (``tests/goldens/table3_trajectory_*.json``).

* **Cross-engine identity.**  Every other policy (static, pid, qlearn
  with its seeded exploration) must agree across reference and fast
  exactly like the rest of the simulator, which is what licenses
  deriving the qlearn RNG seed from config identity *minus* the engine
  field.
"""

import pytest

from repro.core.config import ENGINES
from tests.differential.harness import (
    INTERVAL_HEAVY,
    as_plain,
    assert_identical,
    capture,
    compare_engines,
)
from tests.test_goldens import check_golden


@pytest.mark.parametrize("workload", ["mst", "health"])
def test_table3_trajectory_matches_golden(workload, update_goldens):
    """The default path's full snapshot and interval-by-interval Table 3
    trajectory, recorded once and checked on every engine."""
    for engine in ENGINES:
        snapshot = capture(workload, "ecdp+throttle",
                           INTERVAL_HEAVY.with_overrides(engine=engine))
        assert snapshot["throttle"], "no throttle decisions recorded"
        check_golden(f"table3_trajectory_{workload}", as_plain(snapshot),
                     update_goldens)


def test_table3_trajectory_carries_real_cases():
    """The extracted path still reports Table 3 case numbers (1..5),
    not the 0 placeholder the non-heuristic policies use."""
    snapshot = capture("mst", "ecdp+throttle", INTERVAL_HEAVY)
    cases = {case for (_, case, *_rest) in snapshot["throttle"]}
    assert cases and cases <= {1, 2, 3, 4, 5}


@pytest.mark.parametrize("policy,params", [
    ("static", "level=1"),
    ("pid", ""),
    ("qlearn", "epsilon=0.2,seed=11"),
    ("bandit", ""),
])
def test_policies_bit_identical_across_engines(policy, params):
    config = INTERVAL_HEAVY.with_overrides(
        throttle_policy=policy, policy_params=params
    )
    snapshots = compare_engines("mst", "ecdp+throttle", config=config)
    assert snapshots["reference"]["throttle"], (
        "expected at least one policy decision"
    )
    assert_identical(snapshots)


def test_policy_changes_job_identity():
    """policy fields ride the config into the sweep job content hash."""
    from repro.experiments.engine.job import Job

    base = Job("mst", "ecdp+throttle", INTERVAL_HEAVY)
    static = Job("mst", "ecdp+throttle", INTERVAL_HEAVY.with_overrides(
        throttle_policy="static", policy_params="level=1"
    ))
    params_only = Job("mst", "ecdp+throttle", INTERVAL_HEAVY.with_overrides(
        throttle_policy="static", policy_params="level=2"
    ))
    keys = {base.key(), static.key(), params_only.key()}
    assert len(keys) == 3
