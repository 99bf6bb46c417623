"""Engine kernel microbenchmark — the fast engine's speedup over reference.

Measures the simulation kernel itself (trace pre-materialized, only
``core.run`` timed) over olden-style pointer chases and a streaming
workload, each on the raw kernel (``no-prefetch``) and on the
stream-prefetcher baseline.  Each of the six cells times ``reference``
(event-faithful objects) and ``fast`` (flat dicts) in this one process
and checks that they returned bit-identical results.

Two measurement rules keep the ratio honest on noisy shared machines:

* **Interleaved rounds.**  Engines take turns within each repetition
  (A, B, A, B, ...) instead of running all of one engine's repeats back
  to back, so a slow drift in machine speed lands on every engine
  equally.
* **Best-of (min over repeats).**  The minimum elapsed time per engine
  is the run least disturbed by the scheduler; ratios of minima compare
  like with like.

Two entry points:

* ``pytest benchmarks/bench_perf_kernel.py --benchmark-only`` — smoke
  variant under a fixed op budget (CI's perf-smoke job);
* ``PYTHONPATH=src python benchmarks/bench_perf_kernel.py`` — the full
  measurement, written to ``BENCH_kernel.json`` at the repo root.

Acceptance bar, on the pointer-chase kernel cell (``mst`` /
``no-prefetch``): the fast engine must hold >= 2x ops/sec over
reference.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ENGINES, SystemConfig
from repro.core.stats import CoreResult
from repro.experiments.configs import get_mechanism
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_core, hint_filter_for, make_dram
from repro.telemetry import Telemetry, TelemetryConfig
from repro.workloads.registry import get_workload

#: the measured matrix: workload -> class
WORKLOAD_CLASSES = {
    "mst": "pointer-chase",
    "health": "pointer-chase",
    "libquantum": "streaming",
}
#: raw kernel, then the stream-prefetcher baseline on top of it
MECHANISMS = ["no-prefetch", "baseline"]
INPUT_SET = "train"

#: the acceptance cell: an olden pointer chase on the raw kernel
HEADLINE_CELL = ("mst", "no-prefetch")

#: default timed repetitions per engine (best-of, to shed scheduler noise)
DEFAULT_REPEATS = 3
#: the smoke run's op budget and repeats (CI)
SMOKE_OPS = 4000
SMOKE_REPEATS = 1


def time_engines(
    engines: Sequence[str],
    benchmark: str,
    mechanism: str,
    config: SystemConfig,
    input_set: str = INPUT_SET,
    budget: Optional[int] = None,
    rounds: int = DEFAULT_REPEATS,
    telemetry: Optional[TelemetryConfig] = None,
) -> Dict[str, Dict[str, Any]]:
    """Best-of timings for several engines, rounds interleaved.

    Returns ``{engine: {"ops", "seconds", "result"}}`` where ``seconds``
    is the minimum over *rounds* timed runs of the trace truncated to
    *budget* ops (None: the whole trace).  The workload instance (and so
    the trace and simulated memory contents) is rebuilt per run —
    generation is deterministic, so every round and every engine sees
    identical input.  *telemetry* records a fresh session on every run.
    """
    mech = get_mechanism(mechanism)
    configs = {e: config.with_overrides(engine=e) for e in engines}
    filters = {
        e: hint_filter_for(mech, benchmark, configs[e], "train")
        for e in engines
    }
    out: Dict[str, Dict[str, Any]] = {
        e: {"ops": 0, "seconds": float("inf"), "result": None}
        for e in engines
    }
    for __ in range(max(1, rounds)):
        for engine in engines:
            cfg = configs[engine]
            instance = get_workload(benchmark).build(input_set)
            ops = list(instance.trace())[:budget]
            entry = out[engine]
            entry["ops"] = len(ops)
            dram = make_dram(cfg, n_cores=1)
            stream = (
                Telemetry(telemetry).stream("core0")
                if telemetry is not None else None
            )
            core = build_core(mech, cfg, instance, dram, filters[engine],
                              telemetry=stream)
            start = time.perf_counter()
            entry["result"] = core.run(ops)
            elapsed = time.perf_counter() - start
            if elapsed < entry["seconds"]:
                entry["seconds"] = elapsed
    for entry in out.values():
        entry["seconds"] = max(entry["seconds"], 1e-9)
    return out


def time_engine(
    engine: str,
    benchmark: str,
    mechanism: str,
    config: SystemConfig,
    input_set: str = INPUT_SET,
    budget: Optional[int] = None,
    rounds: int = DEFAULT_REPEATS,
    telemetry: Optional[TelemetryConfig] = None,
) -> Tuple[int, float, CoreResult]:
    """(ops, best seconds, final CoreResult) for one engine on one cell.

    Prefer :func:`time_engines` when comparing engines: it interleaves
    rounds so machine-speed drift cannot favour one side.
    """
    entry = time_engines(
        [engine], benchmark, mechanism, config, input_set=input_set,
        budget=budget, rounds=rounds, telemetry=telemetry,
    )[engine]
    return entry["ops"], entry["seconds"], entry["result"]


def measure_cell(
    benchmark: str, mechanism: str, config: SystemConfig,
    budget: Optional[int], rounds: int,
) -> Dict[str, Any]:
    """Every engine on one cell: ops/sec, the speedup, bit-identity."""
    timings = time_engines(ENGINES, benchmark, mechanism, config,
                           budget=budget, rounds=rounds)
    reference = timings["reference"]
    fast = timings["fast"]
    n_ops = reference["ops"]
    results = [timings[e]["result"] for e in ENGINES]
    return {
        "ops": n_ops,
        "repeats": rounds,
        "engines": list(ENGINES),
        "reference_seconds": reference["seconds"],
        "fast_seconds": fast["seconds"],
        "reference_ops_per_sec": n_ops / reference["seconds"],
        "fast_ops_per_sec": n_ops / fast["seconds"],
        "speedup": reference["seconds"] / fast["seconds"],
        "identical": all(r == results[0] for r in results[1:]),
    }


def _versions() -> Dict[str, str]:
    """Interpreter versions the measurement depends on."""
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
    }


def compute(
    budget: Optional[int] = None, rounds: int = DEFAULT_REPEATS
) -> Dict[str, Any]:
    """Time every cell in turn; return the JSON payload."""
    config = SystemConfig.scaled()
    cells: List[Dict[str, Any]] = [
        {
            "workload": workload,
            "class": cls,
            "mechanism": mechanism,
            **measure_cell(workload, mechanism, config, budget, rounds),
        }
        for workload, cls in WORKLOAD_CLASSES.items()
        for mechanism in MECHANISMS
    ]

    def cell_for(workload: str, mechanism: str) -> Optional[Dict[str, Any]]:
        for cell in cells:
            if (cell["workload"], cell["mechanism"]) == (workload, mechanism):
                return cell
        return None

    headline_cell = cell_for(*HEADLINE_CELL)
    kernel_cells = [c for c in cells if c["mechanism"] == "no-prefetch"]
    pointer_cells = [
        c for c in kernel_cells if c["class"] == "pointer-chase"
    ]
    headline = {
        "pointer_chase_kernel_speedup": (
            headline_cell["speedup"] if headline_cell else None
        ),
        "min_pointer_chase_kernel_speedup": (
            min(c["speedup"] for c in pointer_cells)
            if pointer_cells
            else None
        ),
        "all_identical": bool(cells) and all(c["identical"] for c in cells),
    }
    return {
        "benchmark": "bench_perf_kernel",
        "engines": list(ENGINES),
        "config": "scaled",
        "input_set": INPUT_SET,
        "op_budget": budget,
        "versions": _versions(),
        "cells": cells,
        "headline": headline,
    }


def render(payload: Dict[str, Any]) -> str:
    def fmt_ops(value: Optional[float]) -> str:
        return f"{value:,.0f}" if value else "n/a"

    def fmt_ratio(value: Optional[float]) -> str:
        return f"{value:.2f}x" if value else "n/a"

    rows = []
    for cell in payload["cells"]:
        rows.append(
            (
                f"{cell['workload']} ({cell['class']})",
                cell["mechanism"],
                f"{cell['ops']}",
                fmt_ops(cell["reference_ops_per_sec"]),
                fmt_ops(cell["fast_ops_per_sec"]),
                fmt_ratio(cell["speedup"]),
                "yes" if cell["identical"] else "NO",
            )
        )
    headline = payload["headline"]
    rows.append(
        (
            "[headline]",
            "pointer-chase kernel",
            "",
            "",
            "",
            fmt_ratio(headline["pointer_chase_kernel_speedup"]),
            "",
        )
    )
    return format_table(
        ["workload", "mechanism", "ops", "ref ops/s", "fast ops/s",
         "fast/ref", "identical"],
        rows,
        title="Engine kernel microbenchmark — fast vs reference",
    )


def bench_perf_kernel(benchmark, show):
    """pytest entry: budgeted smoke run; correctness asserts only."""
    payload = benchmark.pedantic(
        compute, args=(SMOKE_OPS, SMOKE_REPEATS), rounds=1, iterations=1
    )
    show(render(payload))
    # correctness must hold at any budget; speed asserts belong to the
    # full run (CI machines are too noisy for a hard ratio here)
    assert payload["headline"]["all_identical"]
    assert all(cell["speedup"] > 0 for cell in payload["cells"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="engine kernel microbenchmark"
    )
    repo_root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--out",
        type=Path,
        default=repo_root / "BENCH_kernel.json",
        help="output JSON path (default: BENCH_kernel.json at repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"fixed op budget ({SMOKE_OPS} ops, {SMOKE_REPEATS} repeat) "
             "for CI",
    )
    parser.add_argument("--ops", type=int, default=None,
                        help="truncate traces to N ops")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per engine (best-of)")
    args = parser.parse_args(argv)

    budget = SMOKE_OPS if args.smoke else None
    rounds = SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS
    if args.ops is not None:
        budget = args.ops
    if args.repeats is not None:
        rounds = args.repeats
    payload = compute(budget, rounds)
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if payload["headline"]["all_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
