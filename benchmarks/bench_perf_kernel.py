"""Engine kernel microbenchmark — the fast engine's speedup over reference.

Measures the simulation kernel itself (trace pre-materialized, only
``core.run`` timed) over olden-style pointer chases and a streaming
workload, each on the raw kernel (``no-prefetch``) and on the
stream-prefetcher baseline.  Every cell runs through the sweep engine
(crash isolation + checkpoint-resume) via
:func:`repro.experiments.kernel_bench.kernel_bench_worker`, which times
``reference`` (event-faithful objects) and ``fast`` (flat dicts) with
interleaved best-of rounds and verifies they returned bit-identical
results.

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
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.config import ENGINES, SystemConfig
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    RetryPolicy,
)
from repro.experiments.kernel_bench import (
    OPS_ENV,
    REPEATS_ENV,
    kernel_bench_worker,
)
from repro.experiments.reporting import format_table

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

_METRIC_KEYS = (
    "ops",
    "repeats",
    "engines",
    "reference_seconds",
    "fast_seconds",
    "reference_ops_per_sec",
    "fast_ops_per_sec",
    "speedup",
    "identical",
)


def _versions() -> Dict[str, str]:
    """Interpreter versions the measurement depends on."""
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
    }


def compute(
    jobs: int = 2,
    timeout: Optional[float] = 900.0,
    checkpoint: Optional[CheckpointJournal] = None,
    resume: bool = False,
) -> Dict[str, Any]:
    """Run the matrix through the sweep engine; return the JSON payload."""
    config = SystemConfig.scaled()
    matrix = [
        Job(workload, mechanism, config, input_set=INPUT_SET)
        for workload in WORKLOAD_CLASSES
        for mechanism in MECHANISMS
    ]
    engine = ExecutionEngine(
        jobs=jobs,
        timeout=timeout,
        retry=RetryPolicy(max_attempts=2),
        checkpoint=checkpoint,
        worker=kernel_bench_worker,
    )
    report = engine.run(matrix, resume=resume)

    cells: List[Dict[str, Any]] = []
    failures: List[Dict[str, str]] = []
    for outcome in report:
        job = outcome.job
        cell: Dict[str, Any] = {
            "workload": job.benchmark,
            "class": WORKLOAD_CLASSES[job.benchmark],
            "mechanism": job.mechanism,
        }
        if outcome.ok:
            # fresh results are worker dicts; resumed ones are
            # ResultSnapshots — both expose .get
            result = outcome.result
            cell.update({key: result.get(key) for key in _METRIC_KEYS})
            cells.append(cell)
        else:
            failures.append(
                {"cell": job.label, "reason": outcome.failure.reason}
            )

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
        "op_budget": _env_int(OPS_ENV),
        "versions": _versions(),
        "cells": cells,
        "headline": headline,
        "failures": failures,
    }


def _env_int(name: str) -> Optional[int]:
    try:
        value = int(os.environ.get(name, "0"))
    except ValueError:
        return None
    return value if value > 0 else None


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
    for failure in payload["failures"]:
        rows.append(
            (failure["cell"], "FAILED", failure["reason"], "", "", "", "")
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
    os.environ[OPS_ENV] = "4000"
    os.environ[REPEATS_ENV] = "1"
    try:
        payload = benchmark.pedantic(compute, rounds=1, iterations=1)
    finally:
        os.environ.pop(OPS_ENV, None)
        os.environ.pop(REPEATS_ENV, None)
    show(render(payload))
    # correctness must hold at any budget; speed asserts belong to the
    # full run (CI machines are too noisy for a hard ratio here)
    assert not payload["failures"]
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
        help="fixed op budget (4000 ops, 1 repeat) for CI",
    )
    parser.add_argument("--ops", type=int, default=None,
                        help="truncate traces to N ops")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per engine (best-of)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint journal")
    parser.add_argument("--checkpoint-dir", default=".repro-checkpoints")
    args = parser.parse_args(argv)

    if args.smoke:
        os.environ.setdefault(OPS_ENV, "4000")
        os.environ.setdefault(REPEATS_ENV, "1")
    if args.ops is not None:
        os.environ[OPS_ENV] = str(args.ops)
    if args.repeats is not None:
        os.environ[REPEATS_ENV] = str(args.repeats)

    journal = CheckpointJournal.for_sweep("perf-kernel", args.checkpoint_dir)
    if not args.resume:
        journal.clear()
    payload = compute(
        jobs=args.jobs, checkpoint=journal, resume=args.resume
    )
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if payload["failures"] or not payload["headline"]["all_identical"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
