"""Golden-snapshot regression tests for the figure benches' summary metrics.

Reduced-scope versions of ``benchmarks/bench_fig07_headline.py``,
``benchmarks/bench_fig02_cdp_cost.py`` and the Fig 14/15 multicore
benches: the same summary reductions (:func:`summary_line`, geomean IPC
ratio, mean BPKI delta, CDP accuracy, weighted speedup and bus-traffic
delta) over small subsets on the deterministic ``test`` input set.
Workload traces are seeded per (workload, input set), so these numbers
are exact across runs — any drift is a behaviour change in the model,
not noise, and must be either fixed or consciously re-baselined with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

which rewrites ``tests/goldens/*.json`` for review in the diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.core.config import SystemConfig
from repro.experiments.metrics import (
    bpki_delta_percent,
    geomean,
    total_bus_traffic_per_ki,
    weighted_speedup,
)
from repro.experiments.runner import run_benchmark, run_multicore
from repro.experiments.suites import summary_line

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: reduced scope: one olden pointer chase, the paper's outlier, and the
#: high-CDP-accuracy benchmark singled out in Table 1
BENCHES = ("mst", "health", "perimeter")
INPUT_SET = "test"
#: the goldens check the oracle engine; tests/differential checks the
#: default fast engine against it
CONFIG = SystemConfig.scaled().with_overrides(engine="reference")

FIG07_MECHANISMS = ("cdp", "ecdp", "ecdp+throttle")

#: two Fig 14 dual-core mixes (pointer+pointer, streaming+streaming)
#: and the all-pointer-intensive Fig 15 quad-core mix
FIG14_MIXES = (
    ("mcf", "health"),
    ("libquantum", "bwaves"),
    ("mcf", "astar", "health", "mst"),
)

#: float rounding applied before snapshot/compare — wide enough that the
#: goldens stay readable, far tighter than any real behaviour change
NDIGITS = 6


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, NDIGITS)
    if isinstance(value, dict):
        return {key: _rounded(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(inner) for inner in value]
    return value


def check_golden(name: str, payload: Dict[str, Any],
                 update: bool) -> None:
    payload = _rounded(payload)
    path = GOLDEN_DIR / f"{name}.json"
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"updated golden {path.name}")
    assert path.exists(), (
        f"missing golden {path}; generate it with --update-goldens"
    )
    golden = json.loads(path.read_text())
    assert payload == golden, (
        f"summary metrics drifted from {path.name}; if intentional, "
        f"re-baseline with --update-goldens\n"
        f"  golden:  {golden!r}\n"
        f"  current: {payload!r}"
    )


def test_fig07_summary_metrics(update_goldens):
    """The Figure 7 / Table 6 reduction: summary_line per mechanism."""
    baselines = {
        bench: run_benchmark(bench, "baseline", CONFIG, input_set=INPUT_SET)
        for bench in BENCHES
    }
    payload: Dict[str, Any] = {
        "benches": list(BENCHES),
        "input_set": INPUT_SET,
        "summaries": {},
    }
    for mechanism in FIG07_MECHANISMS:
        results = {
            bench: run_benchmark(bench, mechanism, CONFIG,
                                 input_set=INPUT_SET)
            for bench in BENCHES
        }
        payload["summaries"][mechanism] = summary_line(results, baselines)
    check_golden("fig07_summary", payload, update_goldens)


def test_fig02_summary_metrics(update_goldens):
    """The Figure 2 / Table 1 reduction: CDP cost and accuracy."""
    ratios = []
    bpki_deltas = []
    accuracy: Dict[str, float] = {}
    for bench in BENCHES:
        base = run_benchmark(bench, "baseline", CONFIG, input_set=INPUT_SET)
        cdp = run_benchmark(bench, "cdp", CONFIG, input_set=INPUT_SET)
        ratios.append(cdp.ipc / base.ipc)
        bpki_deltas.append(bpki_delta_percent(cdp, base))
        accuracy[bench] = cdp.accuracy("cdp")
    payload = {
        "benches": list(BENCHES),
        "input_set": INPUT_SET,
        "gmean_ipc_ratio": geomean(ratios),
        "gmean_ipc_pct": (geomean(ratios) - 1.0) * 100.0,
        "mean_bpki_pct": sum(bpki_deltas) / len(bpki_deltas),
        "cdp_accuracy": accuracy,
    }
    check_golden("fig02_summary", payload, update_goldens)


def test_fig14_summary_metrics(update_goldens):
    """The Figure 14/15 reduction through ``MultiCoreSystem``: per-core
    statistics and each mix's weighted-speedup gain and bus-traffic
    delta of ecdp+throttle over the stream baseline."""
    mixes: Dict[str, Any] = {}
    for mix in FIG14_MIXES:
        alone = [run_benchmark(bench, "baseline", CONFIG,
                               input_set=INPUT_SET) for bench in mix]
        shared = {
            mechanism: run_multicore(list(mix), mechanism, CONFIG,
                                     input_set=INPUT_SET)
            for mechanism in ("baseline", "ecdp+throttle")
        }
        base, ours = shared["baseline"], shared["ecdp+throttle"]
        mixes["+".join(mix)] = {
            "cores": {
                mechanism: [
                    {
                        "ipc": result.ipc,
                        "bpki": result.bpki,
                        "cycles": result.cycles,
                        "bus_transfers": result.bus_transfers,
                        "intervals_completed": result.intervals_completed,
                    }
                    for result in results
                ]
                for mechanism, results in shared.items()
            },
            "ws_gain_pct": (weighted_speedup(ours, alone)
                            / weighted_speedup(base, alone) - 1) * 100,
            "bus_delta_pct": (total_bus_traffic_per_ki(ours)
                              / total_bus_traffic_per_ki(base) - 1) * 100,
        }
    payload = {"input_set": INPUT_SET, "mixes": mixes}
    check_golden("fig14_summary", payload, update_goldens)
