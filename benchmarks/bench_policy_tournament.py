"""Held-out policy tournament: throttling controllers on unseen workloads.

The policy subsystem (``repro.policy``) makes the controller between the
feedback collector and the aggressiveness ladders pluggable; this bench
races the controllers against the paper's Table 3 heuristic (§4.2) on
workloads the learned entrant never saw, and ranks them on the paper's
own economy — performance delivered per unit of bus bandwidth spent.

Three phases:

1. **record** — run the default table3 controller with telemetry on the
   training workloads (mst, health, perimeter, bisort, voronoi),
   persisting one interval series per workload;
2. **train** — fit the tabular Q table offline on those series with
   ``train_policy``'s default hyperparameters (the trained table
   travels inside ``policy_params`` and therefore inside each job's
   content hash);
3. **race** — run every entrant on the held-out set: the other ten
   pointer benchmarks, through the sweep engine, and the eight Fig 14
   mixes that contain no training workload, in-process through
   ``run_multicore``.  Each cell is scored against the ``static-3``
   entrant (all prefetchers pinned Aggressive — the paper's
   no-throttling baseline)::

       score = (perf / perf_static3) / (bandwidth / bandwidth_static3)

   where perf is IPC on a benchmark and weighted speedup (over the
   single-core baseline runs) on a mix, and bandwidth is BPKI on a
   benchmark and total bus traffic per kilo-instruction on a mix.

The verdict compares each entrant with table3 workload by workload: the
geomean of its per-workload score ratios, the 2.5th-97.5th percentile
interval of that geomean over 10,000 bootstrap resamples of the
workloads (``random.Random(0)``; simulation is deterministic, so the
workloads are the only source of spread), and its win/loss count.  A
learned entrant is kept only if the interval's lower bound exceeds 1.0.

Two entry points:

* ``pytest benchmarks/bench_policy_tournament.py --benchmark-only`` —
  smoke variant (train on mst, race 3 entrants on two other benchmarks
  and one mix of the test input; CI's policy-smoke job);
* ``PYTHONPATH=src python benchmarks/bench_policy_tournament.py`` —
  the full tournament, written to ``BENCH_policy.json`` at the repo
  root.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    RetryPolicy,
)
from repro.experiments.metrics import (
    total_bus_traffic_per_ki,
    weighted_speedup,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_benchmark, run_multicore
from repro.policy import train_policy
from repro.telemetry import Telemetry, TelemetryConfig, write_series_jsonl

MECHANISM = "ecdp+throttle"
INPUT_SET = "ref"

#: the learned entrant sees only these workloads' table3 series
TRAIN_WORKLOADS = ["mst", "health", "perimeter", "bisort", "voronoi"]
#: the other ten pointer benchmarks
HELD_OUT_BENCHMARKS = [
    "perlbench", "gcc", "mcf", "astar", "xalancbmk",
    "omnetpp", "parser", "art", "ammp", "pfast",
]
#: the Fig 14 mixes with no training workload on either core
HELD_OUT_MIXES = [
    ("xalancbmk", "astar"),
    ("omnetpp", "pfast"),
    ("astar", "ammp"),
    ("mcf", "libquantum"),
    ("xalancbmk", "h264ref"),
    ("pfast", "milc"),
    ("GemsFDTD", "h264ref"),
    ("libquantum", "bwaves"),
]

SMOKE_INPUT_SET = "test"
SMOKE_TRAIN_WORKLOADS = ["mst"]
SMOKE_BENCHMARKS = ["health", "perimeter"]
SMOKE_MIXES = [("health", "libquantum")]

#: the test input completes zero feedback intervals at scaled defaults,
#: so the smoke tournament shrinks the L2 and the interval the same way
#: the differential suite does — policies then act tens of times even
#: on the tiny input
SMOKE_OVERRIDES = {"l2_size": 8192, "interval_evictions": 32}

#: the normalizer: every prefetcher pinned at Aggressive = no throttling
NORMALIZER = "static-3"
#: the heuristic every other entrant is compared with
REFERENCE = "table3"
#: entrants the keep-or-delete rule applies to
LEARNED = ("qlearn-trained",)

BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0

#: entrant name -> (policy, params); qlearn-trained params are injected
#: after the training phase
ENTRANTS: Dict[str, tuple] = {
    "table3": ("table3", ""),
    "qlearn-trained": ("qlearn", None),  # filled by train phase
    "static-3": ("static", "level=3"),
    "static-1": ("static", "level=1"),
}

SMOKE_ENTRANTS = ["table3", "qlearn-trained", "static-3"]


def mix_name(mix: Sequence[str]) -> str:
    return "+".join(mix)


def record_series(
    workloads: List[str], input_set: str, directory: Path,
    config: SystemConfig,
) -> List[str]:
    """Phase 1: one table3-governed interval series per workload."""
    directory.mkdir(parents=True, exist_ok=True)
    files: List[str] = []
    for workload in workloads:
        telemetry = Telemetry(TelemetryConfig(series=True))
        run_benchmark(
            workload, MECHANISM, config,
            input_set=input_set, telemetry=telemetry, use_cache=False,
        )
        path = directory / f"{workload}.series.jsonl"
        write_series_jsonl(telemetry, path)
        files.append(str(path))
    return files


def _entrant_configs(
    entrants: Dict[str, tuple], base: SystemConfig
) -> Dict[str, SystemConfig]:
    return {
        name: base.with_overrides(
            throttle_policy=policy, policy_params=params
        ).validate()
        for name, (policy, params) in entrants.items()
    }


def race_benchmarks(
    configs: Dict[str, SystemConfig],
    benchmarks: List[str],
    input_set: str,
    jobs: int = 2,
    timeout: Optional[float] = 900.0,
    checkpoint: Optional[CheckpointJournal] = None,
    resume: bool = False,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, str]]]:
    """Phase 3a: the entrant x benchmark matrix through the sweep engine."""
    matrix = []
    job_entrant: Dict[str, str] = {}
    for name, config in configs.items():
        for benchmark in benchmarks:
            job = Job(benchmark, MECHANISM, config, input_set=input_set)
            matrix.append(job)
            job_entrant[job.key()] = name
    engine = ExecutionEngine(
        jobs=jobs,
        timeout=timeout,
        retry=RetryPolicy(max_attempts=2),
        checkpoint=checkpoint,
    )
    try:
        report = engine.run(matrix, resume=resume)
    finally:
        engine.close()

    cells: List[Dict[str, Any]] = []
    failures: List[Dict[str, str]] = []
    for outcome in report:
        job = outcome.job
        entrant = job_entrant[job.key()]
        if not outcome.ok:
            failures.append(
                {"cell": f"{entrant}/{job.benchmark}",
                 "reason": outcome.failure.reason}
            )
            continue
        cells.append({
            "workload": job.benchmark,
            "entrant": entrant,
            "perf": outcome.result.ipc,
            "bandwidth": outcome.result.bpki,
        })
    return cells, failures


def race_mixes(
    configs: Dict[str, SystemConfig],
    mixes: List[Tuple[str, ...]],
    input_set: str,
    base: SystemConfig,
) -> List[Dict[str, Any]]:
    """Phase 3b: the entrant x mix matrix, in-process.

    Weighted speedup is taken over each benchmark's single-core baseline
    run, as in Fig 14, so every entrant shares the same denominators.
    """
    alone = {
        benchmark: run_benchmark(
            benchmark, "baseline", base, input_set=input_set
        )
        for mix in mixes for benchmark in mix
    }
    cells: List[Dict[str, Any]] = []
    for name, config in configs.items():
        for mix in mixes:
            shared = run_multicore(
                list(mix), MECHANISM, config, input_set=input_set
            )
            cells.append({
                "workload": mix_name(mix),
                "entrant": name,
                "perf": weighted_speedup(
                    shared, [alone[benchmark] for benchmark in mix]
                ),
                "bandwidth": total_bus_traffic_per_ki(shared),
            })
    return cells


def score_cells(cells: List[Dict[str, Any]]) -> None:
    """Attach per-cell perf/BW scores vs the NORMALIZER entrant, in place."""
    norms = {
        cell["workload"]: cell
        for cell in cells
        if cell["entrant"] == NORMALIZER
    }
    for cell in cells:
        norm = norms.get(cell["workload"])
        if norm is None or not norm["perf"]:
            cell.update(perf_ratio=None, bandwidth_ratio=None, score=None)
            continue
        perf_ratio = cell["perf"] / norm["perf"]
        bandwidth_ratio = (
            max(cell["bandwidth"], 1e-9) / max(norm["bandwidth"], 1e-9)
        )
        cell.update(
            perf_ratio=perf_ratio,
            bandwidth_ratio=bandwidth_ratio,
            score=perf_ratio / bandwidth_ratio,
        )


def _geomean(values: List[float]) -> Optional[float]:
    if not values or any(v <= 0 for v in values):
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bootstrap_interval(
    ratios: List[float],
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> Tuple[float, float]:
    """2.5th-97.5th percentiles of the geomean over workload resamples.

    A fresh ``random.Random(seed)`` per call draws the same resampled
    workload indices for every entrant, so the intervals are paired.
    """
    rng = random.Random(seed)
    geomeans = sorted(
        _geomean(rng.choices(ratios, k=len(ratios)))
        for _ in range(resamples)
    )
    last = resamples - 1
    return (geomeans[round(0.025 * last)], geomeans[round(0.975 * last)])


def rank_entrants(
    entrants: Dict[str, tuple],
    cells: List[Dict[str, Any]],
    workloads: List[str],
) -> List[Dict[str, Any]]:
    """Per entrant: geomean score, and its standing against table3."""
    scores = {
        (cell["entrant"], cell["workload"]): cell["score"] for cell in cells
    }
    reference = [scores.get((REFERENCE, w)) for w in workloads]
    ranking = []
    for name, (policy, _params) in entrants.items():
        mine = [c for c in cells if c["entrant"] == name
                and c.get("score") is not None]
        row: Dict[str, Any] = {
            "entrant": name,
            "policy": policy,
            "workloads_scored": len(mine),
            "geomean_score": _geomean([c["score"] for c in mine]),
            "geomean_perf_ratio": _geomean(
                [c["perf_ratio"] for c in mine]
            ),
            "geomean_bandwidth_ratio": _geomean(
                [c["bandwidth_ratio"] for c in mine]
            ),
        }
        own = [scores.get((name, w)) for w in workloads]
        if name != REFERENCE and None not in own + reference:
            ratios = [s / r for s, r in zip(own, reference)]
            low, high = bootstrap_interval(ratios)
            row.update(
                ratio_to_reference=_geomean(ratios),
                interval=[low, high],
                wins=sum(1 for r in ratios if r > 1.0),
                losses=sum(1 for r in ratios if r < 1.0),
            )
            if name in LEARNED:
                row["verdict"] = "keep" if low > 1.0 else "delete"
        ranking.append(row)
    ranking.sort(
        key=lambda row: (
            row["geomean_score"] is not None,
            row["geomean_score"] or 0.0,
        ),
        reverse=True,
    )
    return ranking


def compute(
    smoke: bool = False,
    jobs: int = 2,
    timeout: Optional[float] = 900.0,
    checkpoint: Optional[CheckpointJournal] = None,
    resume: bool = False,
    series_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """All three phases; returns the BENCH_policy.json payload."""
    train_workloads = SMOKE_TRAIN_WORKLOADS if smoke else TRAIN_WORKLOADS
    benchmarks = SMOKE_BENCHMARKS if smoke else HELD_OUT_BENCHMARKS
    mixes = SMOKE_MIXES if smoke else HELD_OUT_MIXES
    input_set = SMOKE_INPUT_SET if smoke else INPUT_SET
    base = SystemConfig.scaled()
    if smoke:
        base = base.with_overrides(**SMOKE_OVERRIDES)
    entrants = dict(ENTRANTS)
    if smoke:
        entrants = {name: entrants[name] for name in SMOKE_ENTRANTS}

    series_dir = series_dir or (
        Path(".repro-checkpoints") / "policy-tournament-series"
    )
    series_files = record_series(
        train_workloads, input_set, series_dir, base
    )
    training = train_policy(series_files)
    entrants["qlearn-trained"] = ("qlearn", training["policy_params"])

    configs = _entrant_configs(entrants, base)
    cells, failures = race_benchmarks(
        configs, benchmarks, input_set,
        jobs=jobs, timeout=timeout, checkpoint=checkpoint, resume=resume,
    )
    cells += race_mixes(configs, mixes, input_set, base)
    score_cells(cells)
    workloads = benchmarks + [mix_name(mix) for mix in mixes]
    return {
        "benchmark": "bench_policy_tournament",
        "mechanism": MECHANISM,
        "config": "scaled",
        "input_set": input_set,
        "smoke": smoke,
        "train_workloads": train_workloads,
        "workloads": workloads,
        "normalizer": NORMALIZER,
        "reference": REFERENCE,
        "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES,
                      "seed": BOOTSTRAP_SEED,
                      "percentiles": [2.5, 97.5]},
        "entrants": [
            {"entrant": name, "policy": policy, "policy_params": params}
            for name, (policy, params) in entrants.items()
        ],
        "training": {
            key: training[key]
            for key in ("rows", "transitions", "states_visited",
                        "hyperparameters")
        },
        "cells": cells,
        "ranking": rank_entrants(entrants, cells, workloads),
        "failures": failures,
    }


#: schema floor for the full artifact (CI validates the smoke shape
#: with the same checker minus the count floors)
FULL_MIN_POLICIES = 3
FULL_MIN_WORKLOADS = 18

_CELL_KEYS = {"workload", "entrant", "perf", "bandwidth",
              "perf_ratio", "bandwidth_ratio", "score"}
_RANK_KEYS = {"entrant", "policy", "workloads_scored", "geomean_score",
              "geomean_perf_ratio", "geomean_bandwidth_ratio"}
_VERSUS_KEYS = {"ratio_to_reference", "interval", "wins", "losses"}


def validate_payload(payload: Dict[str, Any], smoke: bool = False) -> None:
    """Assert the BENCH_policy.json schema (used by CI and the tests)."""
    for key in ("benchmark", "mechanism", "train_workloads", "workloads",
                "normalizer", "reference", "entrants", "training",
                "cells", "ranking", "failures"):
        assert key in payload, f"payload missing {key!r}"
    assert payload["benchmark"] == "bench_policy_tournament"
    assert not payload["failures"], payload["failures"]
    raced = {
        benchmark
        for workload in payload["workloads"]
        for benchmark in workload.split("+")
    }
    assert not raced & set(payload["train_workloads"]), (
        "raced workloads overlap the training set"
    )
    policies = {e["policy"] for e in payload["entrants"]}
    if not smoke:
        assert len(policies) >= FULL_MIN_POLICIES, (
            f"full tournament must rank >= {FULL_MIN_POLICIES} distinct "
            f"policies, got {sorted(policies)}"
        )
        assert len(payload["workloads"]) >= FULL_MIN_WORKLOADS
        assert {"table3", "qlearn", "static"} <= policies
    n_expected = len(payload["entrants"]) * len(payload["workloads"])
    assert len(payload["cells"]) == n_expected
    for cell in payload["cells"]:
        assert _CELL_KEYS <= set(cell), f"cell missing keys: {cell}"
        assert cell["score"] is not None and cell["score"] > 0
        if cell["entrant"] == payload["normalizer"]:
            assert abs(cell["score"] - 1.0) < 1e-9
    assert len(payload["ranking"]) == len(payload["entrants"])
    for row in payload["ranking"]:
        assert _RANK_KEYS <= set(row), f"ranking row missing keys: {row}"
        assert row["geomean_score"] is not None
        if row["entrant"] != payload["reference"]:
            assert _VERSUS_KEYS <= set(row), f"no verdict data: {row}"
            low, high = row["interval"]
            assert low <= row["ratio_to_reference"] <= high
    scores = [row["geomean_score"] for row in payload["ranking"]]
    assert scores == sorted(scores, reverse=True)
    assert payload["training"]["transitions"] > 0


def render(payload: Dict[str, Any]) -> str:
    def fmt(value: Optional[float]) -> str:
        return f"{value:.3f}" if value is not None else "n/a"

    rows = []
    for rank, row in enumerate(payload["ranking"], 1):
        if "interval" in row:
            versus = (
                fmt(row["ratio_to_reference"]),
                "[{}, {}]".format(*map(fmt, row["interval"])),
                f"{row['wins']}/{row['losses']}",
                row.get("verdict", ""),
            )
        else:
            versus = ("1", "", "", "")
        rows.append((
            f"{rank}",
            row["entrant"],
            fmt(row["geomean_score"]),
            fmt(row["geomean_perf_ratio"]),
            fmt(row["geomean_bandwidth_ratio"]),
            *versus,
        ))
    for failure in payload["failures"]:
        rows.append(("-", failure["cell"], "FAILED",
                     failure["reason"], "", "", "", "", ""))
    return format_table(
        ["#", "entrant", "perf/BW", "dperf", "dBW",
         f"vs {payload['reference']}", "95% interval", "won/lost",
         "verdict"],
        rows,
        title=(
            "Held-out throttling-policy tournament — geomean "
            f"perf-per-bandwidth vs {payload['normalizer']}, "
            f"trained on {', '.join(payload['train_workloads'])}, "
            f"raced on {len(payload['workloads'])} other workloads"
        ),
    )


def bench_policy_tournament(benchmark, show, tmp_path):
    """pytest entry: the smoke tournament plus schema validation."""
    payload = benchmark.pedantic(
        compute,
        kwargs={"smoke": True, "series_dir": tmp_path / "series"},
        rounds=1, iterations=1,
    )
    show(render(payload))
    validate_payload(payload, smoke=True)
    entrants = {e["entrant"] for e in payload["entrants"]}
    assert entrants == set(SMOKE_ENTRANTS)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="held-out throttling-policy tournament on perf per "
                    "bandwidth"
    )
    repo_root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--out",
        type=Path,
        default=repo_root / "BENCH_policy.json",
        help="output JSON path (default: BENCH_policy.json at repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="train on mst, race 3 entrants on 2 benchmarks and 1 mix "
             "of the test input (CI)",
    )
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--resume", action="store_true",
                        help="resume the benchmark matrix from its "
                             "checkpoint journal")
    parser.add_argument("--checkpoint-dir", default=".repro-checkpoints")
    args = parser.parse_args(argv)

    journal = CheckpointJournal.for_sweep(
        "policy-tournament", args.checkpoint_dir
    )
    if not args.resume:
        journal.clear()
    payload = compute(
        smoke=args.smoke, jobs=args.jobs,
        checkpoint=journal, resume=args.resume,
        series_dir=Path(args.checkpoint_dir) / "policy-tournament-series",
    )
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    try:
        validate_payload(payload, smoke=args.smoke)
    except AssertionError as error:
        print(f"schema validation failed: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
