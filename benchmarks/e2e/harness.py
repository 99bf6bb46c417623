"""One round of one end-to-end workload, in a fresh interpreter.

``run.py`` spawns ``python3 harness.py WORKLOAD SLICE SEED ROUND MODE
WORKDIR`` once per round, so every round meets the memo caches cold, the
way a user's first sweep or first service request does, and every round
gives one set-up sample.  MODE is ``plain`` or ``traced``.  The last line
of stdout is one JSON object:

* ``ready_at`` — ``time.monotonic()`` when timed work started (``run.py``
  subtracts its own spawn time to get ``setup_s``; the clock is
  system-wide, so the two processes agree);
* ``wall_s`` — the timed work;
* ``cells`` — one record per simulated cell (the digest's input);
* ``jobs`` — per-job latency and, on traced rounds, the job's in-worker
  compute time;
* ``layers``/``spans`` — traced rounds only;
* ``extras`` — workload-specific numbers printed beside the metrics.

``--seed`` (with the round index) only orders work and shapes the
service's request stream; what is simulated is fixed by the library's
per-input-set seeds, so every round of a slice has the same digest.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.core.config import SystemConfig
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    snapshot_metrics,
)
from repro.experiments.metrics import (
    total_bus_traffic_per_ki,
    weighted_speedup,
)
from repro.experiments.runner import run_benchmark, run_multicore
from repro.experiments.suites import summary_line
from repro.experiments.engine.job import ResultSnapshot
from repro.service.client import TERMINAL_STATUSES, ServiceClient
from repro.service.protocol import submission_from_job
from repro.workloads.registry import all_names, pointer_intensive_names

import traced

HERE = Path(__file__).resolve().parent

#: worker slots and client connections: the container has two cores
SLOTS = 2

#: the per-cell numbers the digest covers (bit-identical across engines,
#: backends, seeds and tracing)
RECORD_FIELDS = ("ipc", "bpki", "cycles", "retired_instructions", "bus_transfers")

FIG7_MECHANISMS = ("baseline", "cdp", "ecdp", "cdp+throttle", "ecdp+throttle")
#: every mechanism that runs without compiler hints (no profiling pass)
SWEEP_MECHANISMS = (
    "no-prefetch", "baseline", "cdp", "cdp+throttle", "markov", "ghb",
    "dbp", "stride", "nextline",
)
#: Fig 14 mixes: pointer+pointer, pointer+streaming, streaming+streaming
FIG14_MIXES = (
    ("xalancbmk", "astar"),
    ("mcf", "health"),
    ("mst", "ammp"),
    ("mcf", "libquantum"),
    ("health", "GemsFDTD"),
    ("libquantum", "bwaves"),
)
FIG14_MECHANISMS = ("baseline", "ecdp+throttle")

#: per workload, the cells of each slice.  ``full`` is the figure-sized
#: matrix; ``smoke`` is two or three cells; ``round`` is what a timed run
#: repeats.  Round slices take about 2 s of timed work each, so that a
#: run's medians cover 6-13 rounds; longer rounds left three or four per
#: run, and their medians swung with the host's noise (README, "Noise").
SLICES = {
    "fig7-matrix": {  # (benchmarks, mechanisms); ref input, train profile
        "smoke": (("voronoi",), ("baseline", "cdp", "ecdp+throttle")),
        # two of the shortest ref-input benchmarks: ten 0.2-0.5 s jobs on
        # two slots, so submission order moves the makespan by little
        "round": (("omnetpp", "voronoi"), FIG7_MECHANISMS),
        "full": (tuple(pointer_intensive_names()), FIG7_MECHANISMS),
    },
    "fig14-dualcore": {  # mixes
        "smoke": (("libquantum", "bwaves"),),
        # a short pointer+streaming pair, ECDP-profiled on voronoi
        "round": (("voronoi", "bwaves"),),
        "full": FIG14_MIXES,
    },
    "short-sweep": {  # (workloads, mechanisms, L2 sizes in KB); test input
        "smoke": (("mst",), ("no-prefetch", "baseline", "markov"), (64,)),
        "round": (tuple(all_names()), ("baseline", "markov", "stride"), (64,)),
        "full": (tuple(all_names()), SWEEP_MECHANISMS, (32, 64, 128)),
    },
    "service-mixed": {  # (workloads, mechanisms); test input, asked twice
        "smoke": (("mst", "bisort"), ("baseline",)),
        "round": (tuple(all_names()), ("baseline",)),
        "full": (tuple(all_names()), SWEEP_MECHANISMS),
    },
}


class Round:
    """What one round measured."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.ready_at = 0.0
        self.wall_s = 0.0
        self.cells: Dict[str, Dict[str, float]] = {}
        #: [latency_s, compute_s or None, cell, end (monotonic), metrics]
        self.jobs: List[list] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.extras: Dict[str, float] = {}
        #: traced rounds: workload-specific layer numbers
        self.layer_extras: Dict[str, float] = {}
        self.journal_appends: List[List[float]] = []

    def start(self) -> None:
        self.ready_at = time.monotonic()

    def stop(self) -> None:
        self.wall_s = time.monotonic() - self.ready_at

    def add_cell(self, cell: str, metrics: dict) -> None:
        record = {name: metrics[name] for name in RECORD_FIELDS}
        record["l2_demand_misses"] = metrics["l2_demand_misses"]
        previous = self.cells.setdefault(cell, record)
        if previous != record:
            self.mismatches.append(f"{cell}: repeated request returned a different record")

    def add_job(self, cell: str, latency: float, metrics: dict, end: float) -> None:
        compute = metrics.get("t.total_s") if self.traced else None
        self.jobs.append([latency, compute, cell, end, metrics])

    def payload(self) -> dict:
        payload = {
            "ready_at": self.ready_at,
            "wall_s": self.wall_s,
            "cells": self.cells,
            "jobs": [job[:2] for job in self.jobs],
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "sim_instructions": sum(
                cell["retired_instructions"] for cell in self.cells.values()
            ),
            "extras": self.extras,
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.traced:
            payload["layers"] = traced.layer_totals(
                [job[4] for job in self.jobs], self.cells, self.journal_appends
            )
            payload["layers"].update(self.layer_extras)
            payload["spans"] = traced.round_spans(self)
        return payload


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _engine_round(round_: Round, jobs: List[Job], cell_id, backend: str) -> dict:
    """Run *jobs* through a fresh ExecutionEngine; returns per-key metrics."""
    journal_class = traced.TimedJournal if round_.traced else CheckpointJournal
    journal = journal_class(round_.workdir / "sweep.jsonl")
    engine = ExecutionEngine(
        jobs=SLOTS,
        checkpoint=journal,
        worker=traced.run_cell if round_.traced else None,
        backend=backend,
    )
    settled_at: Dict[str, float] = {}
    try:
        round_.start()
        report = engine.run(
            jobs, progress=lambda r: settled_at.setdefault(r.job.key(), time.monotonic())
        )
        round_.stop()
    finally:
        engine.close()
    round_.attempted += len(jobs)
    by_key = {}
    for outcome in report:
        if not outcome.ok:
            round_.failed += 1
            continue
        metrics = snapshot_metrics(outcome.result)
        by_key[outcome.job.key()] = metrics
        cell = cell_id(outcome.job)
        round_.add_cell(cell, metrics)
        round_.add_job(cell, outcome.duration, metrics, settled_at[outcome.job.key()])
    durations = [outcome.duration for outcome in report]
    round_.extras.update(
        {
            "engine.job_p50_s": statistics.median(durations),
            "engine.job_max_s": max(durations),
            "engine.slot_idle_s": SLOTS * round_.wall_s - sum(durations),
            "engine.retries": sum(outcome.attempts - 1 for outcome in report),
        }
    )
    if round_.traced:
        round_.journal_appends = journal.appends
    return by_key


def fig7_matrix(round_: Round, slice_name: str, rng: random.Random) -> None:
    benchmarks, mechanisms = SLICES["fig7-matrix"][slice_name]
    config = SystemConfig.scaled()
    jobs = [Job(b, m, config) for b in benchmarks for m in mechanisms]
    rng.shuffle(jobs)
    by_key = _engine_round(
        round_, jobs, lambda job: f"{job.benchmark}/{job.mechanism}", "local"
    )
    table = {
        m: {
            job.benchmark: ResultSnapshot(by_key[job.key()])
            for job in jobs
            if job.mechanism == m and job.key() in by_key
        }
        for m in mechanisms
    }
    for mechanism in mechanisms:
        if mechanism == "baseline":
            continue
        summary = summary_line(table[mechanism], table["baseline"])
        round_.extras[f"fig7.{mechanism}.gmean_ipc_pct"] = summary["gmean_ipc_pct"]
        round_.extras[f"fig7.{mechanism}.mean_bpki_pct"] = summary["mean_bpki_pct"]
    round_.extras["fig7_gmean_ipc_pct"] = round_.extras["fig7.ecdp+throttle.gmean_ipc_pct"]
    round_.extras["fig7_mean_bpki_pct"] = round_.extras["fig7.ecdp+throttle.mean_bpki_pct"]
    if round_.traced:
        for mechanism in mechanisms:
            round_.layer_extras[f"core.sim.{mechanism.replace('+', '-')}_s"] = sum(
                traced.sim_seconds(job[4])
                for job in round_.jobs
                if job[2].split("/")[1] == mechanism
            )


def fig14_dualcore(round_: Round, slice_name: str, rng: random.Random) -> None:
    # run in a seeded order, summarize in the slice's order, so the float
    # sums do not depend on the seed
    ordered = SLICES["fig14-dualcore"][slice_name]
    mixes = list(ordered)
    rng.shuffle(mixes)
    config = SystemConfig.scaled()
    alone_runner = traced.run_alone if round_.traced else _untraced_alone
    mix_runner = traced.run_mix if round_.traced else _untraced_mix

    def call(cell: str, fn, *args):
        started = time.monotonic()
        results, metrics = fn(*args)
        end = time.monotonic()
        round_.attempted += 1
        round_.add_job(cell, end - started, metrics, end)
        return results

    alone = {}
    shared = {}
    round_.start()
    for mix in mixes:
        for benchmark in mix:
            if benchmark not in alone:
                alone[benchmark] = call(
                    f"alone/{benchmark}", alone_runner, benchmark, config
                )[0]
        for mechanism in FIG14_MECHANISMS:
            shared[mix, mechanism] = call(
                f"{'+'.join(mix)}/{mechanism}", mix_runner, list(mix), mechanism, config
            )
    round_.stop()
    for benchmark, result in alone.items():
        round_.add_cell(f"alone/{benchmark}", snapshot_metrics(result))
    gains, buses = [], []
    for mix in ordered:
        for mechanism in FIG14_MECHANISMS:
            for index, result in enumerate(shared[mix, mechanism]):
                round_.add_cell(
                    f"{'+'.join(mix)}/{mechanism}/core{index}", snapshot_metrics(result)
                )
        base, ours = (shared[mix, m] for m in FIG14_MECHANISMS)
        solo = [alone[b] for b in mix]
        gains.append((weighted_speedup(ours, solo) / weighted_speedup(base, solo) - 1) * 100)
        buses.append(
            (total_bus_traffic_per_ki(ours) / total_bus_traffic_per_ki(base) - 1) * 100
        )
    round_.extras["fig14_ws_gain_pct"] = sum(gains) / len(gains)
    round_.extras["fig14_bus_pct"] = sum(buses) / len(buses)
    if round_.traced:
        mixed = [job[4] for job in round_.jobs if not job[2].startswith("alone/")]
        sim_s = sum(traced.sim_seconds(metrics) for metrics in mixed)
        round_.layer_extras["core.multicore_sim_s"] = sim_s
        round_.layer_extras["core.multicore_kops_per_s"] = (
            sum(metrics["t.ops"] for metrics in mixed) / sim_s / 1000.0
        )


def _untraced_alone(benchmark: str, config: SystemConfig):
    return [run_benchmark(benchmark, "baseline", config)], {}


def _untraced_mix(benchmarks: List[str], mechanism: str, config: SystemConfig):
    return run_multicore(benchmarks, mechanism, config), {}


def short_sweep(round_: Round, slice_name: str, rng: random.Random) -> None:
    workloads, mechanisms, l2_sizes = SLICES["short-sweep"][slice_name]
    base = SystemConfig.scaled()
    jobs = [
        Job(w, m, base.with_overrides(l2_size=kb * 1024), input_set="test")
        for kb in l2_sizes
        for w in workloads
        for m in mechanisms
    ]
    rng.shuffle(jobs)
    _engine_round(
        round_,
        jobs,
        lambda job: f"{job.benchmark}/{job.mechanism}/l2={job.config.l2_size // 1024}K",
        "subprocess",
    )


def request_stream(cells: List[Job], rng: random.Random) -> List[Job]:
    """Each cell twice, the repeat somewhere after the first request."""
    stream = list(cells)
    rng.shuffle(stream)
    for job in cells:
        stream.insert(rng.randint(stream.index(job) + 1, len(stream)), job)
    return stream


def service_mixed(round_: Round, slice_name: str, rng: random.Random) -> None:
    workloads, mechanisms = SLICES["service-mixed"][slice_name]
    config = SystemConfig.scaled()
    cells = [Job(w, m, config, input_set="test") for w in workloads for m in mechanisms]
    stream = request_stream(cells, rng)
    serve = [sys.executable, "-m", "repro", "serve"]
    if round_.traced:
        serve = [sys.executable, str(HERE / "traced.py"), "serve"]
    server = subprocess.Popen(
        serve + [
            "--port", "0", "--jobs", str(SLOTS), "--store", "store",
            "--checkpoint-dir", str(round_.workdir),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline()  # "repro service listening on URL (...)"
        if "listening on" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        url = banner.split("listening on ", 1)[1].split()[0]
        ServiceClient(url).health()
        _serve_stream(round_, url, stream)
        stats = ServiceClient(url).stats()
        rtts = []
        for _ in range(20):
            started = time.monotonic()
            ServiceClient(url).health()
            rtts.append(time.monotonic() - started)
    finally:
        server.send_signal(signal.SIGTERM)  # graceful drain, exit 0
        try:
            server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
    executed = stats.get("executed", 0)
    round_.extras.update(
        {
            "service.executed": executed,
            "service.cache_hits": stats.get("cache_hits", 0),
            "service.coalesced": stats.get("coalesced", 0),
            "service.jobs_per_batch": executed / max(1, stats.get("batches", 0)),
            "service.http_rtt_p50_ms": statistics.median(rtts) * 1000,
            "req_per_s": len(stream) / round_.wall_s,
        }
    )
    if executed != len(cells):
        round_.mismatches.append(
            f"service executed {executed} jobs for {len(cells)} distinct cells"
        )
    if round_.traced:
        appends = round_.workdir / traced.APPENDS_FILE
        round_.journal_appends = json.loads(appends.read_text())


def _serve_stream(round_: Round, url: str, stream: List[Job]) -> None:
    """Two closed-loop clients, one connection each, sharing *stream*."""
    lock = threading.Lock()
    pending = list(reversed(stream))
    outcomes: List[tuple] = []
    errors: List[str] = []

    def client_loop(index: int) -> None:
        client = ServiceClient(url, client_id=f"client-{index}")
        while True:
            with lock:
                if not pending:
                    return
                job = pending.pop()
            started = time.monotonic()
            try:
                response = client.submit(submission_from_job(job))
                kind = "cached"
                if response.get("status") not in TERMINAL_STATUSES:
                    kind = "coalesced" if response.get("coalesced") else "executed"
                    response = client.wait(response["key"], poll=0.01)
            except Exception as error:  # recorded as a failed request
                with lock:
                    errors.append(f"{job.label}: {error}")
                continue
            end = time.monotonic()
            with lock:
                outcomes.append((job, kind, end - started, response["record"], end))

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(SLOTS)]
    round_.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    round_.stop()
    round_.attempted += len(stream)
    round_.failed += len(errors)
    round_.mismatches.extend(errors[:5])
    cached = []
    for job, kind, latency, record, end in outcomes:
        if record.get("status") != "ok":
            round_.failed += 1
            continue
        cell = f"{job.benchmark}/{job.mechanism}"
        round_.add_cell(cell, record["metrics"])
        if kind == "executed":
            round_.add_job(cell, latency, record["metrics"], end)
        elif kind == "cached":
            cached.append(latency)
    if cached:
        round_.extras["service.cached_p50_ms"] = statistics.median(cached) * 1000


WORKLOADS = {
    "fig7-matrix": fig7_matrix,
    "fig14-dualcore": fig14_dualcore,
    "short-sweep": short_sweep,
    "service-mixed": service_mixed,
}


def main(argv: List[str]) -> int:
    workload, slice_name, seed, index, mode, workdir = argv
    round_ = Round(Path(workdir), mode == "traced")
    rng = random.Random(f"{seed}:{index}")
    WORKLOADS[workload](round_, slice_name, rng)
    print(json.dumps(round_.payload()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
