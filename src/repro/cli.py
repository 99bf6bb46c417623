"""Command-line interface: run paper experiments without writing Python.

Examples::

    python -m repro list
    python -m repro run health ecdp+throttle
    python -m repro compare mst
    python -m repro sweep --mechanisms cdp ecdp+throttle --benchmarks mcf mst
    python -m repro sweep --jobs 4 --timeout 300 --resume
    python -m repro profile mst --top 12
    python -m repro multicore xalancbmk astar --mechanism ecdp+throttle
    python -m repro trace mst ecdp+throttle --format chrome --out trace.json
    python -m repro sweep --inject-faults plan.json --resume
    python -m repro serve --port 8713 --jobs 4
    python -m repro sweep --server http://127.0.0.1:8713
    python -m repro sweep --backend subprocess --jobs 4
    python -m repro sweep --backend remote --hosts hosts.toml --jobs 8
    python -m repro worker --ping
    python -m repro journal verify .repro-checkpoints/sweep-abc.jsonl
    python -m repro cost

Exit codes: 0 — success; 1 — the sweep completed but some jobs failed
(partial results were reported and checkpointed); 2 — usage or
configuration error (unknown benchmark/mechanism, invalid config);
130 — the sweep was interrupted (SIGTERM/SIGINT drain or an injected
abort) after checkpointing in-flight work; rerun with ``--resume``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.config import ENGINES, SystemConfig
from repro.policy import POLICY_NAMES, train_policy
from repro.policy.qlearn import N_STATES as Q_N_STATES
from repro.cost.hardware import baseline_costs, proposal_cost
from repro.errors import ReproError, UsageError
from repro.experiments.configs import MECHANISMS, get_mechanism
from repro.experiments.engine import (
    BACKEND_NAMES,
    CheckpointJournal,
    ExecutionEngine,
    FailedResult,
    FaultPlan,
    GracefulDrain,
    Job,
    JobFailure,
    QuarantinePolicy,
    RetryPolicy,
    WatchdogPolicy,
    create_backend,
    is_failed,
)
from repro.experiments.metrics import (
    geomean,
    hmean_speedup,
    total_bus_traffic_per_ki,
    weighted_speedup,
)
from repro.experiments.export import result_record, write_csv, write_json
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    profile_benchmark,
    run_benchmark,
    run_multicore,
)
from repro.service import (
    ServiceClient,
    ServicePolicy,
    SimulationServer,
    run_jobs,
    serve_forever,
)
from repro.telemetry import (
    EventTracer,
    Telemetry,
    TelemetryConfig,
    series_path,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_csv,
    write_events_jsonl,
    write_series_jsonl,
)
from repro.workloads.registry import (
    all_names,
    get_workload,
    non_pointer_names,
    pointer_intensive_names,
)


def _config(args) -> SystemConfig:
    config = SystemConfig.paper() if args.paper else SystemConfig.scaled()
    engine = getattr(args, "engine", None)
    if engine is not None:
        config = config.with_overrides(engine=engine)
    policy_file = getattr(args, "policy_file", None)
    if policy_file is not None:
        # a payload written by `repro train-policy --out`: carries both
        # the policy name and the params string (with the trained table)
        try:
            with open(policy_file) as stream:
                payload = json.load(stream)
        except (OSError, ValueError) as error:
            raise UsageError(f"cannot load --policy-file: {error}")
        if "policy" not in payload or "policy_params" not in payload:
            raise UsageError(
                f"--policy-file {policy_file} is not a train-policy "
                "payload (missing policy/policy_params)"
            )
        config = config.with_overrides(
            throttle_policy=payload["policy"],
            policy_params=payload["policy_params"],
        )
    policy = getattr(args, "policy", None)
    if policy is not None:
        config = config.with_overrides(throttle_policy=policy)
    policy_params = getattr(args, "policy_params", None)
    if policy_params is not None:
        config = config.with_overrides(policy_params=policy_params)
    return config.validate()


def _result_row(name: str, result, baseline=None) -> List[str]:
    delta = (
        f"{(result.ipc / baseline.ipc - 1) * 100:+.1f}%" if baseline else "-"
    )
    return [
        name,
        f"{result.ipc:.3f}",
        delta,
        f"{result.bpki:.1f}",
        f"{result.accuracy('cdp') * 100:.0f}%",
        f"{result.coverage('cdp') * 100:.0f}%",
        f"{result.accuracy('stream') * 100:.0f}%",
        f"{result.coverage('stream') * 100:.0f}%",
    ]


RESULT_HEADERS = [
    "", "IPC", "dIPC", "BPKI",
    "cdp acc", "cdp cov", "stream acc", "stream cov",
]


def cmd_list(args) -> int:
    print("pointer-intensive benchmarks (the paper's evaluation set):")
    print("  " + " ".join(pointer_intensive_names()))
    print("non-pointer-intensive benchmarks (Section 6.7 / multicore mixes):")
    print("  " + " ".join(non_pointer_names()))
    print("mechanisms:")
    for name, mech in MECHANISMS.items():
        parts = []
        if mech.stream:
            parts.append("stream")
        if mech.correlation != "none":
            parts.append(mech.correlation)
        if mech.cdp:
            parts.append("cdp" if mech.hints == "none" else f"cdp[{mech.hints}]")
        if mech.hw_filter:
            parts.append("hwfilter")
        if mech.oracle_lds:
            parts.append("oracle")
        throttle = "" if mech.throttle == "none" else f" / {mech.throttle}"
        print(f"  {name:20s} {'+'.join(parts) or '(none)'}{throttle}")
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    result = run_benchmark(
        args.benchmark, args.mechanism, config, input_set=args.input_set
    )
    baseline = None
    if args.mechanism != "baseline":
        baseline = run_benchmark(
            args.benchmark, "baseline", config, input_set=args.input_set
        )
    print(
        format_table(
            RESULT_HEADERS,
            [_result_row(args.mechanism, result, baseline)],
            title=f"{args.benchmark} ({args.input_set})",
        )
    )
    return 0


def cmd_compare(args) -> int:
    config = _config(args)
    mechanisms = args.mechanisms or [
        "no-prefetch", "baseline", "cdp", "ecdp",
        "cdp+throttle", "ecdp+throttle", "oracle-lds",
    ]
    baseline = run_benchmark(args.benchmark, "baseline", config,
                             input_set=args.input_set)
    rows = []
    for mechanism in mechanisms:
        result = run_benchmark(args.benchmark, mechanism, config,
                               input_set=args.input_set)
        rows.append(_result_row(mechanism, result, baseline))
    print(
        format_table(
            RESULT_HEADERS, rows,
            title=f"{args.benchmark} ({args.input_set})",
        )
    )
    return 0


def _sweep_name(benchmarks, mechanisms, input_set: str, paper: bool) -> str:
    """Deterministic journal name so plain re-invocations find the file."""
    payload = repr((sorted(benchmarks), sorted(mechanisms), input_set, paper))
    return "sweep-" + hashlib.sha256(payload.encode()).hexdigest()[:12]


def cmd_sweep(args) -> int:
    if args.smoke:
        # tiny end-to-end exercise of the engine (CI's 60-second budget)
        args.benchmarks = args.benchmarks or ["mst", "bisort"]
        args.mechanisms = args.mechanisms or ["cdp"]
        args.input_set = "test"
        args.timeout = args.timeout or 50.0
    problems = {}
    if args.jobs < 1:
        problems["--jobs"] = f"must be >= 1, got {args.jobs}"
    if args.timeout is not None and args.timeout <= 0:
        problems["--timeout"] = f"must be positive, got {args.timeout}"
    if args.retries < 0:
        problems["--retries"] = f"must be >= 0, got {args.retries}"
    if args.no_progress_timeout is not None and args.no_progress_timeout <= 0:
        problems["--no-progress-timeout"] = (
            f"must be positive, got {args.no_progress_timeout}"
        )
    if args.max_crashes < 0:
        problems["--max-crashes"] = f"must be >= 0, got {args.max_crashes}"
    if problems:
        details = "; ".join(f"{k}: {v}" for k, v in sorted(problems.items()))
        raise UsageError(f"invalid sweep options: {details}")
    config = _config(args)
    benchmarks = list(args.benchmarks or pointer_intensive_names())
    mechanisms = list(args.mechanisms or ["cdp", "ecdp", "ecdp+throttle"])
    all_mechanisms = ["baseline"] + [m for m in mechanisms if m != "baseline"]
    # fail fast (exit 2) on unknown names before any simulation starts
    for mechanism in all_mechanisms:
        get_mechanism(mechanism)
    for benchmark in benchmarks:
        get_workload(benchmark)

    sweep_name = args.sweep_name or _sweep_name(
        benchmarks, all_mechanisms, args.input_set, args.paper
    )
    journal = None
    telemetry_dir = None
    tracer = None
    if args.server:
        # the engine — and with it fault injection, telemetry recording,
        # and the checkpoint journal — lives in the server process
        if args.backend != "local" or args.hosts:
            raise UsageError(
                "--backend/--hosts configure the engine, which runs "
                "server-side; start the server with "
                "`repro serve --backend ... --hosts HOSTS` instead"
            )
        if args.inject_faults:
            raise UsageError(
                "--inject-faults configures the engine, which runs "
                "server-side; start the server with "
                "`repro serve --inject-faults PLAN.json` instead"
            )
        if args.telemetry:
            print(
                "note: telemetry recording is a server-side choice "
                "(`repro serve --telemetry`); fetch recorded series "
                "via GET /jobs/<key>/series",
                file=sys.stderr,
            )
    else:
        journal = CheckpointJournal.for_sweep(sweep_name,
                                              args.checkpoint_dir)
        if not args.resume:
            journal.clear()
        if args.telemetry:
            telemetry_dir = str(
                Path(args.checkpoint_dir) / f"{sweep_name}-series"
            )
            tracer = EventTracer()
    fault_plan = None
    if args.inject_faults:
        fault_plan = FaultPlan.load(args.inject_faults)
        print(
            f"chaos: injecting {len(fault_plan)} fault(s) "
            f"from {args.inject_faults}",
            file=sys.stderr,
        )
    watchdog = None
    if args.no_progress_timeout is not None:
        watchdog = WatchdogPolicy(
            no_progress_timeout=args.no_progress_timeout
        )
    jobs = [
        Job(benchmark, mechanism, config, input_set=args.input_set,
            telemetry_dir=telemetry_dir)
        for mechanism in all_mechanisms
        for benchmark in benchmarks
    ]
    done = [0]

    def progress(outcome) -> None:
        done[0] += 1
        state = "resumed" if outcome.resumed else outcome.status
        detail = "" if outcome.ok else f" [{outcome.failure.reason}]"
        print(
            f"[{done[0]}/{len(jobs)}] {outcome.job.label}: {state}"
            f" ({outcome.attempts} attempt(s), {outcome.duration:.1f}s)"
            f"{detail}",
            file=sys.stderr,
        )

    if args.server:
        client = ServiceClient(args.server)
        # a per-job wall clock is the server's job; the client bound is
        # on the whole sweep, scaled so slow cells don't trip it
        deadline = (args.timeout or 300.0) * max(1, len(jobs)) + 60.0
        report = run_jobs(
            client, jobs, progress=progress, timeout=deadline
        )
    else:
        engine = ExecutionEngine(
            jobs=args.jobs,
            timeout=args.timeout,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            checkpoint=journal,
            watchdog=watchdog,
            quarantine=QuarantinePolicy(max_crashes=args.max_crashes),
            fault_plan=fault_plan,
            tracer=tracer,
            backend=create_backend(args.backend, hosts=args.hosts),
        )
        try:
            with GracefulDrain() as drain:
                report = engine.run(
                    jobs,
                    resume=args.resume,
                    progress=progress,
                    drain=drain,
                    retry_poisoned=args.retry_poisoned,
                )
        finally:
            engine.close()
    cells = report.by_cell()
    _not_run = JobFailure(
        "NotRun", "sweep interrupted before this cell ran", transient=True
    )

    def result_of(benchmark: str, mechanism: str):
        outcome = cells.get((benchmark, mechanism))
        if outcome is None:  # abandoned by a drain/abort before launch
            return FailedResult(_not_run)
        return (
            outcome.result if outcome.ok else FailedResult(outcome.failure)
        )

    def cell_retry_schedule(benchmark: str, mechanism: str):
        """(attempts, backoff seconds) for the export row, or nulls."""
        outcome = cells.get((benchmark, mechanism))
        if outcome is None:
            return None, None
        return outcome.attempts, round(outcome.backoff_total, 6)

    def cell_provenance(benchmark: str, mechanism: str):
        """(executor, host, queue seconds) for the export row, or nulls.

        Stays null for cells resumed from journals written before
        backends existed, and for FAILED cells (the export layer drops
        provenance on failures regardless).
        """
        outcome = cells.get((benchmark, mechanism))
        if outcome is None:
            return None, None, None
        return outcome.executor, outcome.host, outcome.queue_seconds

    def cell_series_file(benchmark: str, mechanism: str):
        """Recompute the worker's deterministic series path (if recorded)."""
        if telemetry_dir is None:
            return None
        path = series_path(telemetry_dir, benchmark, mechanism,
                           args.input_set)
        return str(path) if path.exists() else None

    def cell_policy(benchmark: str, mechanism: str):
        """(policy, params) from the cell's own job config, or nulls.

        Read from the job rather than the sweep config so rows resumed
        from journals predating the policy subsystem export null (their
        dict-shaped configs carry no throttle_policy), mirroring the
        provenance columns.
        """
        outcome = cells.get((benchmark, mechanism))
        cell_config = outcome.job.config if outcome is not None else config
        policy = getattr(cell_config, "throttle_policy", None)
        if policy is None:
            return None, None
        return policy, getattr(cell_config, "policy_params", "")

    baselines = {b: result_of(b, "baseline") for b in benchmarks}
    export_records = []
    rows = []
    for bench in benchmarks:
        cells_row = [bench]
        base = baselines[bench]
        attempts, backoff = cell_retry_schedule(bench, "baseline")
        executor, host, queued = cell_provenance(bench, "baseline")
        policy, policy_params = cell_policy(bench, "baseline")
        export_records.append(result_record(
            bench, "baseline", base,
            series_file=cell_series_file(bench, "baseline"),
            attempts=attempts, backoff_seconds=backoff,
            executor=executor, host=host, queue_seconds=queued,
            policy=policy, policy_params=policy_params,
        ))
        for mechanism in mechanisms:
            result = result_of(bench, mechanism)
            attempts, backoff = cell_retry_schedule(bench, mechanism)
            executor, host, queued = cell_provenance(bench, mechanism)
            policy, policy_params = cell_policy(bench, mechanism)
            export_records.append(result_record(
                bench, mechanism, result,
                series_file=cell_series_file(bench, mechanism),
                attempts=attempts, backoff_seconds=backoff,
                executor=executor, host=host, queue_seconds=queued,
                policy=policy, policy_params=policy_params,
            ))
            if is_failed(result) or is_failed(base):
                cells_row.append(str(result if is_failed(result) else base))
                continue
            bpki = (result.bpki / base.bpki - 1) * 100 if base.bpki else 0.0
            cells_row.append(
                f"{(result.ipc / base.ipc - 1) * 100:+.1f}/{bpki:+.0f}"
            )
        rows.append(cells_row)
    summary = ["gmean"]
    for mechanism in mechanisms:
        ratios = [
            result_of(b, mechanism).ipc / baselines[b].ipc
            for b in benchmarks
            if not is_failed(result_of(b, mechanism))
            and not is_failed(baselines[b])
            and baselines[b].ipc
        ]
        summary.append(
            f"{(geomean(ratios) - 1) * 100:+.1f}%" if ratios else "FAILED"
        )
    rows.append(summary)
    print(
        format_table(
            ["benchmark"] + [f"{m} dIPC%/dBPKI%" for m in mechanisms],
            rows,
            title="sweep vs stream baseline",
        )
    )
    where = (
        f"service: {client.base_url}" if args.server
        else f"checkpoint: {journal.path}"
    )
    print(
        f"sweep: {len(jobs)} jobs, {len(report.ok)} ok, "
        f"{len(report.failures)} failed, {len(report.resumed)} resumed "
        f"({where})"
    )
    if report.salvage is not None and not report.salvage.clean:
        print(
            f"journal salvage: {report.salvage.summary()} — skipped "
            "records re-ran this pass",
            file=sys.stderr,
        )
    if report.journal_errors:
        print(
            f"WARNING: {report.journal_errors} checkpoint write(s) failed; "
            "those cells will re-run on --resume",
            file=sys.stderr,
        )
    for failure in report.failures:
        quarantined = failure.failure.poison
        label = "QUARANTINED" if quarantined else "FAILED"
        hint = " (re-admit with --retry-poisoned)" if quarantined else ""
        print(
            f"{label} {failure.job.label}: {failure.failure.reason} "
            f"({failure.attempts} attempt(s), "
            f"{failure.backoff_total:.1f}s backoff){hint}",
            file=sys.stderr,
        )
    if tracer is not None and tracer.appended:
        events_path = (
            Path(args.checkpoint_dir) / f"{sweep_name}-engine.events.jsonl"
        )
        events_path.parent.mkdir(parents=True, exist_ok=True)
        with open(events_path, "w") as stream:
            for ts, kind, name, addr, dur, ev_args in tracer.snapshot():
                stream.write(json.dumps(
                    {"core": "engine", "ts": ts, "kind": kind, "name": name,
                     "addr": addr, "dur": dur, "args": ev_args},
                    sort_keys=True,
                ) + "\n")
        print(f"wrote {tracer.appended} engine events to {events_path}")
    if report.interrupted:
        print(
            "sweep interrupted — in-flight work was checkpointed; "
            "rerun with --resume to finish",
            file=sys.stderr,
        )
    if args.export:
        if args.export.endswith(".json"):
            write_json(args.export, export_records)
        else:
            write_csv(args.export, export_records)
        print(f"wrote {len(export_records)} records to {args.export}")
    return report.exit_code


def cmd_serve(args) -> int:
    """Run the simulation service until SIGTERM/SIGINT drains it."""
    problems = {}
    if args.jobs < 1:
        problems["--jobs"] = f"must be >= 1, got {args.jobs}"
    if args.timeout is not None and args.timeout <= 0:
        problems["--timeout"] = f"must be positive, got {args.timeout}"
    if args.retries < 0:
        problems["--retries"] = f"must be >= 0, got {args.retries}"
    if args.no_progress_timeout is not None and args.no_progress_timeout <= 0:
        problems["--no-progress-timeout"] = (
            f"must be positive, got {args.no_progress_timeout}"
        )
    if args.max_crashes < 0:
        problems["--max-crashes"] = f"must be >= 0, got {args.max_crashes}"
    if args.max_queue < 1:
        problems["--max-queue"] = f"must be >= 1, got {args.max_queue}"
    if args.max_client_pending < 1:
        problems["--max-client-pending"] = (
            f"must be >= 1, got {args.max_client_pending}"
        )
    if args.batch_window < 0:
        problems["--batch-window"] = (
            f"must be >= 0, got {args.batch_window}"
        )
    if args.max_batch < 1:
        problems["--max-batch"] = f"must be >= 1, got {args.max_batch}"
    if problems:
        details = "; ".join(f"{k}: {v}" for k, v in sorted(problems.items()))
        raise UsageError(f"invalid serve options: {details}")
    # the store journal is never cleared: persistence across server
    # lives is the whole point of the content-addressed cache
    journal = CheckpointJournal.for_sweep(args.store, args.checkpoint_dir)
    telemetry_dir = None
    events_path = None
    if args.telemetry:
        telemetry_dir = str(
            Path(args.checkpoint_dir) / f"{args.store}-series"
        )
        events_path = str(
            Path(args.checkpoint_dir)
            / f"{args.store}-engine.events.jsonl"
        )
    fault_plan = None
    if args.inject_faults:
        fault_plan = FaultPlan.load(args.inject_faults)
        print(
            f"chaos: injecting {len(fault_plan)} fault(s) "
            f"from {args.inject_faults}",
            file=sys.stderr,
        )
    watchdog = None
    if args.no_progress_timeout is not None:
        watchdog = WatchdogPolicy(
            no_progress_timeout=args.no_progress_timeout
        )
    engine = ExecutionEngine(
        jobs=args.jobs,
        timeout=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        checkpoint=journal,
        watchdog=watchdog,
        quarantine=QuarantinePolicy(max_crashes=args.max_crashes),
        fault_plan=fault_plan,
        backend=create_backend(args.backend, hosts=args.hosts),
    )
    server = SimulationServer(
        engine,
        policy=ServicePolicy(
            max_queue=args.max_queue,
            max_pending_per_client=args.max_client_pending,
            batch_window=args.batch_window,
            max_batch=args.max_batch,
        ),
        host=args.host,
        port=args.port,
        telemetry_dir=telemetry_dir,
        events_path=events_path,
    )
    try:
        return serve_forever(server)
    finally:
        engine.close()


def cmd_worker(args) -> int:
    """Speak the stdio job protocol — or self-check that this host can."""
    if args.serve_stdio:
        from repro.experiments.engine.worker import serve_stdio

        return serve_stdio()
    # --ping: spawn one worker exactly the way a backend would and
    # round-trip a health check — the one-command install check for a
    # prospective remote host
    from repro.experiments.engine.backends.remote import LOOPBACK_HOST
    from repro.experiments.engine.backends.stdio import (
        StdioTransport,
        child_environment,
    )

    transport = StdioTransport(
        LOOPBACK_HOST.worker_argv(), env=child_environment()
    )
    try:
        pong = transport.ping(args.timeout)
    finally:
        transport.shutdown()
    info = {key: pong.get(key) for key in ("host", "pid", "python")}
    print(json.dumps(info, sort_keys=True))
    return 0


def _journal_at(path: str) -> CheckpointJournal:
    journal = CheckpointJournal(path)
    if not journal.exists():
        raise UsageError(f"no checkpoint journal at {path}")
    return journal


def cmd_journal_verify(args) -> int:
    """Integrity-check a journal; exit 1 if any line failed to load."""
    journal = _journal_at(args.path)
    salvage = journal.verify()
    print(f"{args.path}: {salvage.summary()}")
    if salvage.bad_lines:
        where = ", ".join(str(n) for n in salvage.bad_lines)
        print(f"bad line(s): {where}", file=sys.stderr)
    if not salvage.clean:
        print(
            "damaged records will re-run on --resume; "
            "'repro journal compact' rewrites the file without them",
            file=sys.stderr,
        )
    return 0 if salvage.clean else 1


def cmd_journal_compact(args) -> int:
    """Rewrite a journal to one checksummed record per job."""
    journal = _journal_at(args.path)
    kept, dropped, salvage = journal.compact()
    print(
        f"{args.path}: kept {kept} record(s), dropped {dropped} line(s) "
        f"({salvage.summary()})"
    )
    return 0


def cmd_profile(args) -> int:
    config = _config(args)
    profile = profile_benchmark(args.benchmark, config,
                                input_set=args.input_set)
    ranked = sorted(profile.items(), key=lambda kv: -kv[1].issued)
    rows = [
        (
            hex(pc),
            f"{delta:+d}",
            stats.issued,
            stats.useful,
            f"{stats.usefulness * 100:.0f}%",
            "beneficial" if stats.is_beneficial else "harmful",
        )
        for (pc, delta), stats in ranked[: args.top]
    ]
    print(
        format_table(
            ["load pc", "offset", "issued", "useful", "usefulness", "class"],
            rows,
            title=(
                f"{args.benchmark} pointer groups "
                f"({len(profile)} total, "
                f"{len(profile.beneficial_keys())} beneficial)"
            ),
        )
    )
    return 0


def cmd_multicore(args) -> int:
    config = _config(args)
    alone = [
        run_benchmark(b, "baseline", config, input_set=args.input_set)
        for b in args.benchmarks
    ]
    rows = []
    for mechanism in ("baseline", args.mechanism):
        shared = run_multicore(args.benchmarks, mechanism, config,
                               input_set=args.input_set)
        rows.append(
            (
                mechanism,
                f"{weighted_speedup(shared, alone):.3f}",
                f"{hmean_speedup(shared, alone):.3f}",
                f"{total_bus_traffic_per_ki(shared):.1f}",
            )
        )
    print(
        format_table(
            ["mechanism", "weighted speedup", "hmean speedup", "bus/KI"],
            rows,
            title=f"{len(args.benchmarks)}-core: {' + '.join(args.benchmarks)}",
        )
    )
    return 0


#: trace output format -> (writer, default file suffix)
_TRACE_FORMATS = {
    "chrome": (write_chrome_trace, ".trace.json"),
    "jsonl": (write_events_jsonl, ".events.jsonl"),
    "csv": (write_events_csv, ".events.csv"),
}


def cmd_trace(args) -> int:
    """Run one cell with full telemetry and export the event trace."""
    config = _config(args)
    telemetry = Telemetry(
        TelemetryConfig(
            series=True,
            series_max_points=args.max_points,
            trace=True,
            trace_capacity=args.capacity,
        )
    )
    result = run_benchmark(
        args.benchmark, args.mechanism, config,
        input_set=args.input_set, telemetry=telemetry,
    )
    writer, suffix = _TRACE_FORMATS[args.format]
    out = args.out or f"{args.benchmark}-{args.mechanism}{suffix}"
    written = writer(telemetry, out)
    if args.format == "chrome":
        problems = validate_chrome_trace(out)
        if problems:
            for problem in problems:
                print(f"invalid trace: {problem}", file=sys.stderr)
            return 1
    if args.series:
        rows = write_series_jsonl(telemetry, args.series)
        print(f"wrote {rows} interval samples to {args.series}")

    stream = telemetry.stream("core0")
    summary = stream.summary()
    series = summary.get("series", {})
    events = summary.get("events", {})
    rows = [
        ("ipc", f"{result.ipc:.3f}"),
        ("bpki", f"{result.bpki:.1f}"),
        ("intervals completed", result.intervals_completed),
        ("series samples (stride)",
         f"{series.get('samples', 0)} ({series.get('stride', 1)})"),
        ("throttle decisions", len(stream.trajectory)),
        ("events recorded", events.get("appended", 0)),
        ("events retained", events.get("retained", 0)),
        ("events dropped (ring full)", events.get("dropped", 0)),
    ]
    for kind, count in sorted(events.get("by_kind", {}).items()):
        rows.append((f"  {kind}", count))
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"trace {args.benchmark}/{args.mechanism} ({args.input_set})",
        )
    )
    print(f"wrote {written} events to {out}")
    if args.format == "chrome":
        print("load it in chrome://tracing or https://ui.perfetto.dev")
    return 0


def cmd_cost(args) -> int:
    config = SystemConfig.paper() if args.paper else SystemConfig.scaled()
    report = proposal_cost(config)
    rows = [(line.description, line.bits) for line in report.lines]
    rows.append(("total", report.total_bits))
    print(
        format_table(
            ["component", "bits"], rows,
            title="hardware cost (Table 7 accounting)",
        )
    )
    print(f"total: {report.total_kilobytes:.2f} KB")
    print()
    comparison = sorted(baseline_costs(config).items(), key=lambda kv: kv[1])
    print(
        format_table(
            ["prefetcher", "KB"],
            [(n, f"{kb:.2f}") for n, kb in comparison],
            title="storage comparison (Sections 6.3/7.3)",
        )
    )
    return 0


def cmd_train_policy(args) -> int:
    payload = train_policy(
        args.series,
        alpha=args.alpha,
        gamma=args.gamma,
        penalty=args.penalty,
        epochs=args.epochs,
    )
    print(
        f"trained {payload['policy']} on {len(payload['files'])} series "
        f"file(s): {payload['rows']} samples, "
        f"{payload['transitions']} transitions, "
        f"{payload['states_visited']}/{Q_N_STATES} states visited",
        file=sys.stderr,
    )
    actions = payload["greedy_actions"]
    print(
        "greedy actions over visited states: "
        + ", ".join(f"{name}={actions[name]}" for name in actions),
        file=sys.stderr,
    )
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(
            f"wrote {args.out}; run it with "
            f"`repro sweep --policy-file {args.out}`",
            file=sys.stderr,
        )
    else:
        # params on stdout so shells can capture them directly
        print(payload["policy_params"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "HPCA 2009 reproduction: bandwidth-efficient LDS prefetching "
            "in hybrid prefetching systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--paper", action="store_true",
                       help="use the paper-scale Table 5 configuration")
        p.add_argument("--input-set", default="ref",
                       choices=["ref", "train", "test"])
        p.add_argument("--engine", default=None, choices=list(ENGINES),
                       help="simulation engine (default: fast; reference "
                            "is the bit-identical oracle, and resumes a "
                            "journal written before fast became the "
                            "default)")
        p.add_argument("--policy", default=None, choices=list(POLICY_NAMES),
                       help="throttling policy for coordinated mechanisms "
                            "(default: table3, the paper's heuristic)")
        p.add_argument("--policy-params", default=None, metavar="K=V,K=V",
                       help="policy parameters, e.g. 'level=1' or "
                            "'kp=2.0,target=0.6'")
        p.add_argument("--policy-file", default=None, metavar="POLICY.json",
                       help="load policy + params from a `repro "
                            "train-policy --out` payload")
        p.add_argument("--debug", action="store_true",
                       help="print full tracebacks instead of one-line errors")

    p = sub.add_parser("list", help="list benchmarks and mechanisms")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("run", help="run one benchmark under one mechanism")
    p.add_argument("benchmark")
    p.add_argument("mechanism")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="one benchmark across mechanisms")
    p.add_argument("benchmark")
    p.add_argument("--mechanisms", nargs="+")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep",
        help="benchmark x mechanism table (crash-isolated, resumable)",
    )
    p.add_argument("--benchmarks", nargs="+")
    p.add_argument("--mechanisms", nargs="+")
    p.add_argument("--export", metavar="FILE.csv|FILE.json",
                   help="dump raw per-run metrics")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes to run in parallel (default 1)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock limit per job (default: none)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries per job for transient failures (default 2)")
    p.add_argument("--resume", action="store_true",
                   help="skip jobs already completed in the checkpoint "
                        "journal; re-run only missing/failed ones")
    p.add_argument("--checkpoint-dir", default=".repro-checkpoints",
                   metavar="DIR",
                   help="where sweep journals live (default "
                        ".repro-checkpoints/)")
    p.add_argument("--sweep-name", default=None, metavar="NAME",
                   help="journal name (default: hash of the sweep matrix)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fixed sweep exercising the engine end to end "
                        "(CI smoke test)")
    p.add_argument("--telemetry", action="store_true",
                   help="record per-interval telemetry series for every "
                        "cell (written beside the checkpoint journal; "
                        "export rows gain a series_file pointer) plus the "
                        "engine's own retry/quarantine/watchdog event "
                        "trace (<sweep>-engine.events.jsonl)")
    p.add_argument("--no-progress-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="watchdog: kill a worker that sends no heartbeat "
                        "for this long (distinguishes hung workers from "
                        "slow ones; default: off)")
    p.add_argument("--max-crashes", type=int, default=3, metavar="N",
                   help="quarantine a job after it crashes its worker N "
                        "times, counted across resumes (0 disables; "
                        "default 3)")
    p.add_argument("--retry-poisoned", action="store_true",
                   help="re-admit quarantined jobs with a fresh crash "
                        "budget (use with --resume)")
    p.add_argument("--inject-faults", metavar="PLAN.json", default=None,
                   help="chaos testing: deterministically inject the "
                        "worker/journal/engine faults described in "
                        "PLAN.json (see FaultPlan)")
    p.add_argument("--server", metavar="URL", default=None,
                   help="run the sweep through a `repro serve` instance "
                        "instead of a local engine; identical cells are "
                        "served from the server's content-addressed "
                        "result cache without re-execution")
    p.add_argument("--backend", default="local", choices=list(BACKEND_NAMES),
                   help="executor backend: 'local' fork-pool workers "
                        "(default), 'remote' stdio workers on the hosts "
                        "in --hosts, 'subprocess' the remote backend "
                        "over a loopback host of --jobs workers; every "
                        "backend shares one checkpoint journal, so a "
                        "sweep can resume on another backend")
    p.add_argument("--hosts", metavar="FILE", default=None,
                   help="host inventory (TOML on Python 3.11+, or JSON) "
                        "for --backend remote: per-host command, python, "
                        "capacity, tags")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the sweep engine as an HTTP job service with a "
             "content-addressed result cache",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8713,
                   help="listening port (default 8713; 0 picks a free one)")
    p.add_argument("--store", default="service", metavar="NAME",
                   help="result-store journal name under the checkpoint "
                        "dir (default 'service'); never cleared — cached "
                        "results survive server restarts")
    p.add_argument("--checkpoint-dir", default=".repro-checkpoints",
                   metavar="DIR",
                   help="where the store journal lives (default "
                        ".repro-checkpoints/)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes per batch (default 1)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock limit per job (default: none)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries per job for transient failures (default 2)")
    p.add_argument("--no-progress-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="watchdog: kill a worker that sends no heartbeat "
                        "for this long (default: off)")
    p.add_argument("--max-crashes", type=int, default=3, metavar="N",
                   help="quarantine a job after N worker crashes "
                        "(0 disables; default 3)")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="queued jobs before submissions get 429 "
                        "(default 64)")
    p.add_argument("--max-client-pending", type=int, default=16,
                   metavar="N",
                   help="pending jobs one client may have before 429 "
                        "(default 16)")
    p.add_argument("--batch-window", type=float, default=0.05,
                   metavar="SECONDS",
                   help="how long to gather co-submitted jobs into one "
                        "engine batch (default 0.05)")
    p.add_argument("--max-batch", type=int, default=32, metavar="N",
                   help="most jobs handed to one engine pass (default 32)")
    p.add_argument("--telemetry", action="store_true",
                   help="record per-interval series for executed cells "
                        "(served at GET /jobs/<key>/series) and dump the "
                        "engine/service event log at shutdown")
    p.add_argument("--inject-faults", metavar="PLAN.json", default=None,
                   help="chaos testing: inject worker/journal/engine "
                        "faults into the service's engine")
    p.add_argument("--backend", default="local", choices=list(BACKEND_NAMES),
                   help="executor backend the service's engine dispatches "
                        "through (default local)")
    p.add_argument("--hosts", metavar="FILE", default=None,
                   help="host inventory file for --backend remote")
    p.add_argument("--debug", action="store_true",
                   help="print full tracebacks instead of one-line errors")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run as an executor-backend worker (used by the subprocess "
             "and remote backends; not normally run by hand)",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--serve-stdio", action="store_true",
                      help="serve the line-delimited JSON job protocol on "
                           "stdin/stdout until EOF or a shutdown request")
    mode.add_argument("--ping", action="store_true",
                      help="spawn one worker the way a backend would and "
                           "health-check it — verifies this host's "
                           "install before adding it to a --hosts file")
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                   help="--ping: how long to wait for the pong "
                        "(default 10)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "journal",
        help="inspect or repair a sweep checkpoint journal",
    )
    jsub = p.add_subparsers(dest="action", required=True)
    jp = jsub.add_parser(
        "verify",
        help="integrity-check every record without modifying the file",
    )
    jp.add_argument("path", help="journal file (.repro-checkpoints/*.jsonl)")
    jp.set_defaults(func=cmd_journal_verify)
    jp = jsub.add_parser(
        "compact",
        help="atomically rewrite to one checksummed record per job, "
             "dropping damage and superseded retries",
    )
    jp.add_argument("path", help="journal file (.repro-checkpoints/*.jsonl)")
    jp.set_defaults(func=cmd_journal_compact)

    p = sub.add_parser("profile", help="show a benchmark's pointer groups")
    p.add_argument("benchmark")
    p.add_argument("--top", type=int, default=16)
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("multicore", help="run a multiprogrammed mix")
    p.add_argument("benchmarks", nargs="+")
    p.add_argument("--mechanism", default="ecdp+throttle")
    common(p)
    p.set_defaults(func=cmd_multicore)

    p = sub.add_parser(
        "trace",
        help="run one cell with telemetry and export the event trace",
    )
    p.add_argument("benchmark")
    p.add_argument("mechanism", nargs="?", default="ecdp+throttle")
    p.add_argument("--format", choices=sorted(_TRACE_FORMATS),
                   default="chrome",
                   help="trace output format (default chrome, for "
                        "chrome://tracing)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="trace output path (default "
                        "<benchmark>-<mechanism><suffix>)")
    p.add_argument("--series", metavar="FILE.jsonl", default=None,
                   help="also dump the per-interval series as JSONL")
    p.add_argument("--capacity", type=int, default=65536, metavar="N",
                   help="event ring capacity (default 65536; older events "
                        "fall off and are counted as dropped)")
    p.add_argument("--max-points", type=int, default=4096, metavar="N",
                   help="retained series samples before decimation "
                        "doubles the keep stride (default 4096)")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("cost", help="print the Table 7 hardware cost model")
    p.add_argument("--paper", action="store_true")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser(
        "train-policy",
        help="train the qlearn throttling policy's table on recorded "
             "telemetry series",
    )
    p.add_argument("series", nargs="+", metavar="SERIES",
                   help=".series.jsonl files or directories of them "
                        "(e.g. a sweep's <name>-series/ directory)")
    p.add_argument("--alpha", type=float, default=0.2,
                   help="learning rate (default 0.2)")
    p.add_argument("--gamma", type=float, default=0.6,
                   help="discount factor (default 0.6)")
    p.add_argument("--penalty", type=float, default=0.5,
                   help="bandwidth penalty weight in the reward "
                        "(default 0.5)")
    p.add_argument("--epochs", type=int, default=4,
                   help="replay passes over the experience (default 4)")
    p.add_argument("--out", default=None, metavar="POLICY.json",
                   help="write the payload here (for sweep --policy-file); "
                        "default: params string to stdout")
    p.add_argument("--debug", action="store_true",
                   help="print full tracebacks instead of one-line errors")
    p.set_defaults(func=cmd_train_policy)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    debug = getattr(args, "debug", False)
    try:
        return args.func(args)
    except ReproError as error:
        if debug:
            raise
        print(f"error: {error}", file=sys.stderr)
        return getattr(error, "exit_code", 1)
    except KeyError as error:
        if debug:
            raise
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted (checkpoints are preserved; use --resume)",
              file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
