"""Traced stand-ins for the library's workers: the same public calls, timed.

The traced rounds of ``run.py --trace 1`` swap these in for the engine's
default worker (and for ``run_benchmark``/``run_multicore`` on the
dual-core workload).  Each makes the calls the library makes, in the
library's order — ``hint_filter_for``, ``get_workload().build``,
``build_core``, ``core.run`` or ``MultiCoreSystem.run`` — and records a
span around each.  Nothing inside ``src/`` is instrumented.

Trace generation cannot be timed by materializing the trace first:
generators mutate the simulated memory that CDP reads (omnetpp's results
change), so :func:`timed_ops` times the generator's ``next()`` in place,
and the simulate span's self time is its duration minus that.

Results stay plain scalar metrics (the spans travel as one JSON string),
so they survive every transport: the fork pipe, the subprocess backend's
stdio protocol and the service's journal records.

``python3 traced.py serve --port P --jobs N --store S --checkpoint-dir D``
is ``repro serve`` with this module's worker and a timed journal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

from repro.core.system import MultiCoreSystem
from repro.experiments.configs import get_mechanism
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    QuarantinePolicy,
    RetryPolicy,
    snapshot_metrics,
)
from repro.experiments.runner import (
    build_core,
    cache_stats,
    hint_filter_for,
    make_dram,
)
from repro.service.server import SimulationServer, serve_forever
from repro.workloads.registry import get_workload

#: where the traced server leaves its journal-append timings at exit
APPENDS_FILE = "journal-appends.json"


class Spans:
    """Spans and counters for one job, recorded from outside the library."""

    def __init__(self):
        self.spans: List[list] = []  # [name, monotonic start, seconds]
        self.trace_s = 0.0
        self.ops = 0
        self.profile_calls = 0

    @contextmanager
    def __call__(self, name: str):
        start = time.monotonic()
        try:
            yield
        finally:
            self.spans.append([name, start, time.monotonic() - start])

    def metrics(self) -> Dict[str, object]:
        return {
            "t.spans": json.dumps(self.spans),
            "t.total_s": sum(s[2] for s in self.spans if s[0] == "cell"),
            "t.trace_s": self.trace_s,
            "t.ops": self.ops,
            "t.profile_calls": self.profile_calls,
            "t.pid": os.getpid(),
        }


def timed_ops(trace, spans: Spans):
    """Yield *trace*'s ops, adding the time spent generating them."""
    clock = time.perf_counter
    advance = iter(trace).__next__
    seconds = 0.0
    count = 0
    try:
        while True:
            started = clock()
            try:
                op = advance()
            except StopIteration:
                seconds += clock() - started
                return
            seconds += clock() - started
            count += 1
            yield op
    finally:
        spans.trace_s += seconds
        spans.ops += count


def _hint_filter(spans: Spans, mechanism, benchmark, config, profile_input):
    before = cache_stats()["profiles"]["misses"]
    with spans("profile"):
        hint = hint_filter_for(mechanism, benchmark, config, profile_input)
    spans.profile_calls += cache_stats()["profiles"]["misses"] - before
    return hint


def _single(spans: Spans, benchmark, mechanism, config, input_set, profile_input):
    """``run_benchmark`` without its result cache, one span per call."""
    hint = _hint_filter(spans, mechanism, benchmark, config, profile_input)
    with spans("build"):
        instance = get_workload(benchmark).build(input_set)
    dram = make_dram(config, n_cores=1)
    with spans("core"):
        core = build_core(mechanism, config, instance, dram, hint)
    with spans("simulate"):
        return core.run(timed_ops(instance.trace(), spans))


def run_cell(job) -> Dict[str, object]:
    """Traced ``default_worker``: the cell's metrics plus its timings."""
    spans = Spans()
    with spans("cell"):
        if hasattr(job.config, "validate"):
            job.config.validate()
        result = _single(
            spans, job.benchmark, get_mechanism(job.mechanism), job.config,
            job.input_set, job.profile_input,
        )
    metrics = snapshot_metrics(result)
    metrics.update(spans.metrics())
    return metrics


def run_alone(benchmark: str, config):
    """Traced ``run_benchmark(benchmark, "baseline", config)``."""
    spans = Spans()
    with spans("cell"):
        result = _single(
            spans, benchmark, get_mechanism("baseline"), config, "ref", "train"
        )
    return [result], spans.metrics()


def run_mix(benchmarks: List[str], mechanism: str, config):
    """Traced ``run_multicore(benchmarks, mechanism, config)``."""
    spans = Spans()
    mech = get_mechanism(mechanism)
    with spans("cell"):
        dram = make_dram(config, n_cores=len(benchmarks))
        cores, traces = [], []
        for index, benchmark in enumerate(benchmarks):
            hint = _hint_filter(spans, mech, benchmark, config, "train")
            with spans("build"):
                instance = get_workload(benchmark).build("ref")
            with spans("core"):
                cores.append(
                    build_core(mech, config, instance, dram, hint, name=f"core{index}")
                )
            traces.append(timed_ops(instance.trace(), spans))
        with spans("simulate"):
            results = MultiCoreSystem(cores).run(traces)
    return results, spans.metrics()


def sim_seconds(metrics: Dict[str, object]) -> float:
    """Simulate-span self time: its duration minus trace generation."""
    spans = json.loads(metrics["t.spans"])
    return sum(s[2] for s in spans if s[0] == "simulate") - metrics["t.trace_s"]


class TimedJournal(CheckpointJournal):
    """A checkpoint journal that times every append."""

    def __init__(self, path):
        super().__init__(path)
        self.appends: List[List[float]] = []  # [monotonic start, seconds]

    def record(self, outcome, mutate=None) -> None:
        start = time.monotonic()
        try:
            super().record(outcome, mutate=mutate)
        finally:
            self.appends.append([start, time.monotonic() - start])


def layer_totals(jobs: List[Dict[str, object]], cells, appends) -> Dict[str, float]:
    """Per-layer sums over one round's traced jobs and simulated cells."""
    spans = [s for job in jobs for s in json.loads(job["t.spans"])]

    def total(name: str) -> float:
        return sum(s[2] for s in spans if s[0] == name)

    trace_s = sum(job["t.trace_s"] for job in jobs)
    ops = sum(job["t.ops"] for job in jobs)
    sim_s = total("simulate") - trace_s
    layers = {
        "workloads.build_s": total("build"),
        "workloads.trace_s": trace_s,
        "workloads.ops": ops,
        "compiler.profile_s": total("profile"),
        "compiler.profile_calls": sum(job["t.profile_calls"] for job in jobs),
        "core.build_s": total("core"),
        "core.sim_s": sim_s,
        "core.sim_kops_per_s": ops / sim_s / 1000.0,
    }
    for field in ("retired_instructions", "cycles", "l2_demand_misses", "bus_transfers"):
        layers[f"sim.{field}"] = sum(cell[field] for cell in cells.values())
    if appends:
        layers["engine.journal_append_s"] = sum(dur for _, dur in appends)
        layers["engine.journal_records"] = len(appends)
    return layers


def round_spans(round_) -> List[dict]:
    """Parent-linked spans for one traced round: round > job > cell > phase."""
    out = [{"name": "round", "start": round_.ready_at, "dur": round_.wall_s,
            "tid": 0, "id": 0, "parent": None, "cell": None}]
    for latency, _, cell, end, metrics in round_.jobs:
        tid = metrics["t.pid"]
        job_id = len(out)
        out.append({"name": "job", "start": end - latency, "dur": latency,
                    "tid": tid, "id": job_id, "parent": 0, "cell": cell})
        phases = json.loads(metrics["t.spans"])
        cell_id = len(out)
        for name, start, dur in sorted(phases, key=lambda s: s[0] != "cell"):
            out.append({"name": name, "start": start, "dur": dur, "tid": tid,
                        "id": len(out), "cell": cell,
                        "parent": job_id if name == "cell" else cell_id})
    for start, dur in round_.journal_appends:
        out.append({"name": "journal-append", "start": start, "dur": dur,
                    "tid": 0, "id": len(out), "parent": 0, "cell": None})
    return out


def serve(argv: List[str]) -> int:
    """``repro serve`` with the traced worker and a timed store journal."""
    parser = argparse.ArgumentParser(prog="traced.py serve")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--checkpoint-dir", required=True)
    args = parser.parse_args(argv)
    journal = TimedJournal.for_sweep(args.store, args.checkpoint_dir)
    # the same policies `repro serve` builds from its defaults
    engine = ExecutionEngine(
        jobs=args.jobs,
        retry=RetryPolicy(max_attempts=3),
        checkpoint=journal,
        quarantine=QuarantinePolicy(max_crashes=3),
        worker=run_cell,
    )
    try:
        return serve_forever(SimulationServer(engine, port=args.port))
    finally:
        engine.close()
        appends = Path(args.checkpoint_dir) / APPENDS_FILE
        appends.write_text(json.dumps(journal.appends))


if __name__ == "__main__":
    if sys.argv[1:2] != ["serve"]:
        sys.exit("usage: traced.py serve --port P --jobs N --store S --checkpoint-dir D")
    sys.exit(serve(sys.argv[2:]))
