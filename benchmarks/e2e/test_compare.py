"""Unit tests for run.py's statistics, digest and ``compare`` verdicts.

Run with ``python -m pytest benchmarks/e2e`` from the repository root.
"""

import json

import pytest

import run


def test_summary_uses_statistics_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    s = run.summary(values)
    assert (s["median"], s["n"]) == (3.0, 5)
    assert (s["q1"], s["q3"]) == (1.5, 52.0)
    assert run.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_digest_ignores_cell_order_and_extra_fields():
    a = {"mst/cdp": {"ipc": 0.5, "bpki": 3.0, "cycles": 10, "retired_instructions": 5,
                     "bus_transfers": 2, "l2_demand_misses": 1}}
    b = {"bisort/cdp": dict(a["mst/cdp"], ipc=0.25)}
    both = {**a, **b}
    reordered = {**b, **a}
    assert run.digest(both) == run.digest(reordered)
    changed = {**b, "mst/cdp": dict(a["mst/cdp"], l2_demand_misses=9)}
    assert run.digest(changed) == run.digest(both)
    flipped = {**b, "mst/cdp": dict(a["mst/cdp"], cycles=11)}
    assert run.digest(flipped) != run.digest(both)


@pytest.mark.parametrize(
    "before, after, better, expected",
    [
        # tight spreads: the median moved by less / more than the bound
        ([10.0, 10.1, 9.9, 10.0], [10.5, 10.6, 10.4, 10.5], "lower", "within bound"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "regressed"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "higher", "within bound"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "regressed"),
        # spread wider than the bound: unresolved ...
        ([5.0, 10.0, 15.0, 10.0], [6.0, 11.0, 16.0, 11.0], "lower", "unresolved"),
        # ... unless every run of B beats every run of A
        ([20.0, 30.0, 40.0, 30.0], [1.0, 2.0, 3.0, 2.0], "lower", "within bound"),
        # fidelity metrics must repeat exactly
        ([8.25, 8.25], [8.25, 8.25], "exact", "within bound"),
        ([8.25, 8.25], [8.25, 8.26], "exact", "regressed"),
    ],
)
def test_verdict(before, after, better, expected):
    assert run.verdict(before, after, better, 0.1) == expected


def _set(values_by_metric):
    metrics = {
        name: dict(run.summary(values), unit=run.unit_of(name), values=values)
        for name, values in values_by_metric.items()
    }
    return {"workloads": {"fig7-matrix": {"metrics": metrics}}}


def test_compare_exit_code_and_rows(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    same = {"wall_s": [8.0, 8.1, 8.2], "fig7_gmean_ipc_pct": [8.25, 8.25, 8.25],
            "engine.retries": [0, 0, 0]}
    a.write_text(json.dumps(_set(same)))
    b.write_text(json.dumps(_set(same)))
    assert run.compare(str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert "wall_s" in out and "within bound" in out
    assert "engine.retries" not in out  # no bound: not compared

    b.write_text(json.dumps(_set(dict(same, wall_s=[10.9, 11.0, 11.1]))))
    assert run.compare(str(a), str(b)) == 1
    assert "regressed" in capsys.readouterr().out


def test_units_and_names_match_benchmark_json():
    spec = json.loads(run.SPEC.read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
