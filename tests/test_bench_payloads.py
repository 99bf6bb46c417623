"""The committed bench payloads still match the code that reads them.

``BENCH_policy.json`` names the policies it raced, and CI's overhead
gate reads its baseline from ``BENCH_kernel.json``; deleting a policy
or reshaping a payload must not leave a stale file behind.
"""

import importlib.util
import json
from pathlib import Path

from repro.policy import POLICY_NAMES

ROOT = Path(__file__).resolve().parent.parent


def _payload(name):
    return json.loads((ROOT / name).read_text())


def _tournament():
    path = ROOT / "benchmarks" / "bench_policy_tournament.py"
    spec = importlib.util.spec_from_file_location(
        "bench_policy_tournament", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_policy_payload_passes_the_tournament_schema():
    _tournament().validate_payload(_payload("BENCH_policy.json"))


def test_policy_payload_races_only_registered_policies():
    payload = _payload("BENCH_policy.json")
    for entrant in payload["entrants"]:
        assert entrant["policy"] in POLICY_NAMES, entrant["entrant"]


def test_kernel_payload_carries_the_gate_baseline():
    headline = _payload("BENCH_kernel.json")["headline"]
    assert headline["pointer_chase_kernel_speedup"] > 0
    assert headline["all_identical"] is True
