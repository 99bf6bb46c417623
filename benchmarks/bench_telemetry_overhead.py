"""Telemetry overhead microbenchmark — the zero-cost-when-disabled budget.

Telemetry's contract (see :mod:`repro.telemetry.session`) has two
halves, and this benchmark measures both on the kernel microbenchmark's
headline cell (``mst`` / ``no-prefetch``, the olden pointer chase on the
raw kernel) plus the stream baseline:

* **disabled budget**: with ``telemetry=None`` the engines must run
  their pre-telemetry hot paths.  Wall-clock on one machine cannot be
  compared against wall-clock recorded on another, so the check is a
  ratio of ratios: the current fast-vs-reference speedup must be within
  2% of the speedup recorded in ``BENCH_kernel.json`` (both engines
  share the disabled-path changes, so a hot-path regression shows up as
  a shifted ratio).
* **enabled cost**: series-only and series+trace runs are timed against
  the disabled run to report what recording actually costs (informative,
  not asserted — enabled overhead is allowed, it just has to be known).

Entry points::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py \\
        --smoke --check-budget BENCH_kernel.json   # CI perf-smoke step
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench_perf_kernel import (
    DEFAULT_REPEATS,
    SMOKE_OPS,
    SMOKE_REPEATS,
    time_engine,
)
from repro.core.config import SystemConfig
from repro.experiments.reporting import format_table
from repro.telemetry import TelemetryConfig

#: measured cells: the kernel headline plus the stream baseline
CELLS = [("mst", "no-prefetch"), ("mst", "baseline")]
INPUT_SET = "train"

#: disabled-overhead budget: current speedup may drift at most this much
#: below the recorded one (2%, the acceptance bar)
BUDGET = 0.02

#: telemetry modes timed for the enabled-cost report
MODES = {
    "disabled": None,
    "series": TelemetryConfig(series=True, trace=False),
    "trace": TelemetryConfig(series=True, trace=True),
}


def compute(budget: Optional[int], rounds: int) -> Dict[str, Any]:
    config = SystemConfig.scaled()
    cells: List[Dict[str, Any]] = []
    for benchmark, mechanism in CELLS:
        timings = {
            name: time_engine(
                "fast", benchmark, mechanism, config, input_set=INPUT_SET,
                budget=budget, rounds=rounds, telemetry=mode,
            )[1]
            for name, mode in MODES.items()
        }
        disabled = timings["disabled"]
        cells.append({
            "workload": benchmark,
            "mechanism": mechanism,
            "seconds": timings,
            "overhead_pct": {
                name: (seconds / disabled - 1.0) * 100.0
                for name, seconds in timings.items()
                if name != "disabled"
            },
        })
    return {
        "benchmark": "bench_telemetry_overhead",
        "engine": "fast",
        "input_set": INPUT_SET,
        "op_budget": budget,
        "repeats": rounds,
        "cells": cells,
    }


def check_budget(
    baseline_path: Path, budget: Optional[int], rounds: int
) -> Dict[str, Any]:
    """Ratio-of-ratios disabled-overhead check against BENCH_kernel.json."""
    recorded = json.loads(baseline_path.read_text())
    headline = recorded["headline"]["pointer_chase_kernel_speedup"]
    if not headline:
        raise SystemExit(f"{baseline_path} has no recorded headline speedup")
    config = SystemConfig.scaled()
    __, ref_seconds, ref_result = time_engine(
        "reference", "mst", "no-prefetch", config, input_set=INPUT_SET,
        budget=budget, rounds=rounds,
    )
    __, fast_seconds, fast_result = time_engine(
        "fast", "mst", "no-prefetch", config, input_set=INPUT_SET,
        budget=budget, rounds=rounds,
    )
    current = ref_seconds / fast_seconds
    return {
        "recorded_speedup": headline,
        "current_speedup": current,
        "ratio": current / headline,
        "floor": 1.0 - BUDGET,
        "identical": ref_result == fast_result,
        "ok": ref_result == fast_result and current / headline >= 1.0 - BUDGET,
    }


def render(payload: Dict[str, Any]) -> str:
    rows = []
    for cell in payload["cells"]:
        seconds = cell["seconds"]
        overhead = cell["overhead_pct"]
        rows.append((
            f"{cell['workload']}/{cell['mechanism']}",
            f"{seconds['disabled'] * 1000:.1f}ms",
            f"{seconds['series'] * 1000:.1f}ms",
            f"{overhead['series']:+.1f}%",
            f"{seconds['trace'] * 1000:.1f}ms",
            f"{overhead['trace']:+.1f}%",
        ))
    return format_table(
        ["cell", "disabled", "series", "d-series", "trace", "d-trace"],
        rows,
        title="Telemetry overhead — fast engine, best-of-%d"
              % payload["repeats"],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="telemetry overhead microbenchmark + disabled budget"
    )
    repo_root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--out", type=Path,
        default=repo_root / "BENCH_telemetry.json",
        help="output JSON path (default: BENCH_telemetry.json)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help=f"fixed op budget ({SMOKE_OPS} ops, "
                             f"{SMOKE_REPEATS} repeat) for CI")
    parser.add_argument(
        "--check-budget", type=Path, default=None, metavar="BENCH_kernel.json",
        help="assert the fast-vs-reference speedup is within 2%% of the "
             "recorded baseline (ratio of ratios, machine-portable)",
    )
    args = parser.parse_args(argv)

    budget = SMOKE_OPS if args.smoke else None
    rounds = SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS
    payload = compute(budget, rounds)
    print(render(payload))
    if args.check_budget is not None:
        verdict = check_budget(args.check_budget, budget, rounds)
        payload["budget_check"] = verdict
        print(
            "disabled budget: recorded %.2fx, current %.2fx "
            "(ratio %.3f, floor %.3f, results identical: %s) -> %s"
            % (
                verdict["recorded_speedup"],
                verdict["current_speedup"],
                verdict["ratio"],
                verdict["floor"],
                verdict["identical"],
                "OK" if verdict["ok"] else "BREACH",
            )
        )
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if args.check_budget is not None and not payload["budget_check"]["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
