#!/usr/bin/env python3
"""End-to-end benchmark: the paper's pipelines through the public entry points.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload fig7-matrix --seed 1 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --repeats 10 --out set1.json   # every workload, 10 runs
    python3 benchmarks/e2e/run.py --full      # the figure-sized matrices, shape-checked
    python3 benchmarks/e2e/run.py --smoke     # two or three cells per workload
    python3 benchmarks/e2e/run.py --trace     # per-layer numbers + a Chrome trace
    python3 benchmarks/e2e/run.py compare set1.json set2.json

One *run* of a workload repeats *rounds* — the same cells each time,
each round in a fresh interpreter (see ``harness.py``) — until
``--seconds`` have passed, and reports each metric as the median over
its rounds (over all its jobs, for per-job latency).  ``--repeats N``
makes N runs with seeds ``--seed`` .. ``--seed + N - 1``, interleaving
the workloads within each repeat.  With ``--trace`` every second round is
traced and the JSON line carries the per-layer metrics instead of the
end-to-end ones.

Every round's simulated results are hashed and checked against
``digests.json``; the figure shapes are checked on ``--full``.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every check passed.  Metric
names, units and regression bounds live in ``BENCHMARK.json`` at the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORKDIR = HERE / ".work"

WORKLOADS = ("fig7-matrix", "fig14-dualcore", "short-sweep", "service-mixed")

#: fidelity metrics (simulated, so they must repeat exactly) and the
#: paper's values for them (Table 6; Fig 14 averages)
PAPER = {
    "fig7_gmean_ipc_pct": 22.5,
    "fig7_mean_bpki_pct": -25.0,
    "fig14_ws_gain_pct": 10.4,
    "fig14_bus_pct": -14.9,
}

#: percentiles are reported only with at least ten samples beyond them
TAIL_SAMPLES = 200

_UNITS = (
    ("_kinst_per_s", "kinst/s"),
    ("_kops_per_s", "kops/s"),
    ("_per_s", "1/s"),
    ("_ms", "ms"),
    ("_s", "s"),
    ("_pct", "%"),
    ("_mb", "MB"),
)


def unit_of(name: str) -> str:
    """A metric's unit, from its name's suffix (counts have none)."""
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"])


def digest(cells: Dict[str, Dict[str, float]]) -> str:
    """sha256 over the sorted per-cell records (cell id + RECORD_FIELDS)."""
    rows = [
        [cell, record["ipc"], record["bpki"], record["cycles"],
         record["retired_instructions"], record["bus_transfers"]]
        for cell, record in sorted(cells.items())
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a measured failure)."""


# -- running ------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def run_round(workload: str, slice_name: str, seed: int, index: int,
              mode: str) -> dict:
    """One round in a fresh interpreter; adds ``setup_s``."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), workload, slice_name,
             str(seed), str(index), mode, workdir],
            stdout=subprocess.PIPE, text=True, env=child_env(), timeout=900,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} round {index} ({mode}) exited {proc.returncode} "
            "without a result"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned
    result["traced"] = mode == "traced"
    return result


def run_workload(workload: str, slice_name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run: rounds until *seconds* have passed, then the metrics.

    With *trace*, every second round is traced.
    """
    started = time.monotonic()
    rounds: List[dict] = []
    while True:
        mode = "traced" if trace and len(rounds) % 2 == 1 else "plain"
        rounds.append(run_round(workload, slice_name, seed, len(rounds), mode))
        enough = len(rounds) >= (2 if trace else 1)
        if enough and time.monotonic() - started >= seconds:
            break
    return evaluate(workload, slice_name, seed, rounds)


def evaluate(workload: str, slice_name: str, seed: int, rounds: List[dict]) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    problems: List[str] = []
    expected = json.loads(DIGESTS.read_text()).get(workload, {}).get(slice_name)
    for index, r in enumerate(rounds):
        got = digest(r["cells"])
        if got != expected:
            problems.append(
                f"round {index}: results digest {got} != {expected} recorded in "
                f"digests.json for {workload}/{slice_name}"
            )
        problems.extend(f"round {index}: {m}" for m in r["mismatches"])
    if slice_name == "full":
        problems.extend(shape_problems(workload, plain[0]["extras"]))

    samples: Dict[str, List[float]] = {
        "setup_s": [r["setup_s"] for r in rounds],
        "wall_s": [r["wall_s"] for r in plain],
        "sim_kinst_per_s": [r["sim_instructions"] / 1000 / r["wall_s"] for r in plain],
        # a round's jobs are of several kinds (fig7 cells range 0.3-3 s), so
        # the per-round mean is steadier than a pooled median sitting in the
        # gap between two kinds; the pooled percentiles are printed beside it
        "job_mean_ms": [
            statistics.mean(latency for latency, _ in r["jobs"]) * 1000
            for r in plain
            if r["jobs"]
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "job_p50_ms": [latency * 1000 for r in plain for latency, _ in r["jobs"]],
    }
    latencies = sorted(samples["job_p50_ms"])
    if len(latencies) >= TAIL_SAMPLES:
        samples["job_p95_ms"] = [statistics.quantiles(latencies, n=20)[-1]]
    for r in plain:
        for name, value in r["extras"].items():
            samples.setdefault(name, []).append(value)
    spans: List[dict] = []
    if traced:
        for r in traced:
            for name, value in r["layers"].items():
                samples.setdefault(name, []).append(value)
            spans.extend(dict(span, round=rounds.index(r)) for span in r["spans"])
        samples["backend.dispatch_p50_ms"] = [
            (latency - compute) * 1000 for r in traced for latency, compute in r["jobs"]
        ]
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        samples["trace.overhead_pct"] = [(traced_wall / untraced_wall - 1) * 100]
    return {
        "workload": workload,
        "slice": slice_name,
        "seed": seed,
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": problems,
        "samples": samples,
        "spans": spans,
    }


def shape_problems(workload: str, extras: Dict[str, float]) -> List[str]:
    """The paper's conclusions, checked on the full matrices."""
    problems = []
    if workload == "fig7-matrix":
        gmeans = {
            name.split(".")[1]: value
            for name, value in extras.items()
            if name.startswith("fig7.") and name.endswith(".gmean_ipc_pct")
        }
        if max(gmeans, key=gmeans.get) != "ecdp+throttle":
            problems.append(f"fig7: ecdp+throttle is not the best IPC ({gmeans})")
        if extras["fig7_mean_bpki_pct"] >= 0:
            problems.append("fig7: ecdp+throttle does not reduce BPKI")
        losers = sorted(name for name, value in gmeans.items() if value < 0)
        if losers != ["cdp"]:
            problems.append(f"fig7: losing configurations are {losers}, not ['cdp']")
    if workload == "fig14-dualcore" and extras["fig14_ws_gain_pct"] <= 0:
        problems.append("fig14: ecdp+throttle gives no weighted-speedup gain")
    return problems


def write_trace(run: dict, started: float, path: Path) -> List[str]:
    """Write the run's spans as a Chrome trace; returns validation problems."""
    from repro.telemetry.exporters import validate_chrome_trace

    events = [
        {"ph": "M", "pid": r, "name": "process_name", "args": {"name": f"round {r}"}}
        for r in sorted({span["round"] for span in run["spans"]})
    ]
    for span in run["spans"]:
        events.append({
            "ph": "X", "name": span["name"], "pid": span["round"], "tid": span["tid"],
            "ts": (span["start"] - started) * 1e6, "dur": span["dur"] * 1e6,
            "args": {"id": span["id"], "parent": span["parent"], "cell": span["cell"]},
        })
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload))
    return validate_chrome_trace(payload)


# -- reporting ------------------------------------------------------------------


def print_run(run: dict, names: List[str]) -> None:
    status = "correct" if not run["problems"] and not run["failed"] else "INCORRECT"
    print(
        f"\n== {run['workload']} ({run['slice']} slice, seed {run['seed']}): "
        f"{run['rounds']} rounds, {run['attempted']} jobs attempted, "
        f"{run['failed']} failed, {status}"
    )
    for problem in run["problems"]:
        print(f"   ! {problem}")
    print(f"   {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>5s}  unit")
    shown = names + sorted(set(run["samples"]) - set(names))
    for name in shown:
        if name not in run["samples"]:
            continue
        s = summary(run["samples"][name])
        paper = ""
        if name in PAPER and run["slice"] == "full":
            paper = f"  (paper {PAPER[name]:+.1f}; scaled model, unvalidated against hardware)"
        print(
            f"   {name:34s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
            f"{s['n']:5d}  {unit_of(name)}{paper}"
        )


def machine() -> Dict[str, Optional[str]]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# -- compare ------------------------------------------------------------------


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    """*within bound*, *regressed* or *unresolved* for one (metric, workload)."""
    if better == "exact":
        same = len(set(before) | set(after)) == 1
        return "within bound" if same else "regressed"
    a, b = statistics.median(before), statistics.median(after)
    sign = 1 if better == "lower" else -1
    worse = sign * (b - a) / abs(a)
    if max(spread(before), spread(after)) > bound:
        if all(sign * (y - x) < 0 for x in before for y in after):
            return "within bound"
        return "unresolved"
    return "regressed" if worse > bound else "within bound"


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update({name: ("exact", 0.0) for name in PAPER})
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worst = 0
    print(f"{'workload':16s} {'metric':22s} {'A median':>12s} {'B median':>12s} {'bound':>7s}  verdict")
    for workload in sorted(set(a) & set(b)):
        ma, mb = a[workload]["metrics"], b[workload]["metrics"]
        for name in sorted(set(ma) & set(mb) & set(bounds)):
            better, bound = bounds[name]
            result = verdict(ma[name]["values"], mb[name]["values"], better, bound)
            if result != "within bound":
                worst = 1
            print(
                f"{workload:16s} {name:22s} {ma[name]['median']:12.5g} "
                f"{mb[name]['median']:12.5g} {bound:7.0%}  {result}"
            )
    return worst


# -- main ------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders submissions and shapes the request stream")
    parser.add_argument("--seconds", type=float,
                        help="how long one run repeats rounds (at least one round; "
                             "default 25, or a single round with --full/--smoke)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds --seed .. --seed+N-1")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics and a Chrome trace")
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--full", action="store_true",
                      help="the figure-sized matrices, with the paper's shape checks")
    size.add_argument("--smoke", action="store_true",
                      help="two or three cells per workload")
    parser.add_argument("--out", help="write every sample and summary here (JSON)")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    if args.repeats < 1:
        print("run.py: --repeats must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"run.py: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    contract = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    shown = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    slice_name = "full" if args.full else "smoke" if args.smoke else "round"
    if args.seconds is None:
        args.seconds = 25.0 if slice_name == "round" else 0.0
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))

    runs: Dict[str, List[dict]] = {w: [] for w in workloads}
    for repeat in range(args.repeats):
        for workload in workloads:
            started = time.monotonic()
            run = run_workload(workload, slice_name, args.seed + repeat,
                               args.seconds, bool(args.trace))
            run["metrics"] = {
                name: statistics.median(values) for name, values in run["samples"].items()
            }
            if run["spans"]:
                WORKDIR.mkdir(parents=True, exist_ok=True)
                path = WORKDIR / f"trace-{workload}-seed{run['seed']}.json"
                run["problems"].extend(write_trace(run, started, path))
                print(f"\nChrome trace: {path}")
            print_run(run, shown)
            missing = [name for name in contract if name not in run["metrics"]]
            if missing:
                raise BenchmarkError(f"{workload} did not measure {missing}")
            runs[workload].append(run)

    document = {"machine": machine(), "slice": slice_name, "seconds": args.seconds,
                "trace": args.trace, "workloads": {}}
    for workload, done in runs.items():
        names = sorted(set().union(*(run["metrics"] for run in done)))
        metrics = {}
        for name in names:
            values = [run["metrics"][name] for run in done if name in run["metrics"]]
            metrics[name] = dict(summary(values), unit=unit_of(name), values=values)
        document["workloads"][workload] = {
            "seeds": [run["seed"] for run in done],
            "correct": all(not run["problems"] and not run["failed"] for run in done),
            "metrics": metrics,
        }
        if args.repeats > 1:
            print(f"\n== {workload}: {args.repeats} runs (median, quartiles, n over runs)")
            for name in contract:
                s = metrics[name]
                print(f"   {name:34s} {s['median']:12.5g} {s['q1']:12.5g} "
                      f"{s['q3']:12.5g} {s['n']:5d}  {s['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))

    all_runs = [run for done in runs.values() for run in done]
    correct = all(document["workloads"][w]["correct"] for w in workloads)
    single = len(workloads) == 1
    line = {
        "correct": correct,
        "attempted": sum(run["attempted"] for run in all_runs),
        "failed": sum(run["failed"] for run in all_runs),
        "metrics": {
            (name if single else f"{w}/{name}"): {
                "value": document["workloads"][w]["metrics"][name]["median"],
                "unit": unit,
            }
            for w in workloads
            for name, unit in contract.items()
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        sys.exit(2)
