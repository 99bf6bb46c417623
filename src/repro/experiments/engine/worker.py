"""Worker-process entry points.

These run on the child side of the engine's process pool, so everything
here must be importable by qualified name (picklable).  The shim is the
crash barrier: whatever the simulation does — raise, return something
unpicklable, even ``os._exit`` — the parent either receives a structured
``("ok", result)`` / ``("error", info)`` message or observes the process
sentinel and records a worker crash.  Nothing a job does can take down
the sweep.

When the executor runs under a watchdog, the shim also starts a daemon
heartbeat thread (``("heartbeat", {...})`` messages over the same pipe,
serialized by a lock) so the parent can tell a slow worker from a wedged
one; and when a fault plan targets this launch, the shim *is* the
delivery mechanism — the injected crash/hang/slow-start happens inside
the real worker process, exercising exactly the code paths a genuine
failure would.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import sys
import threading
import time
from typing import Any, Dict, Optional

from repro.errors import is_transient
from repro.experiments.engine.faults import (
    FaultSpec,
    Unpicklable,
    apply_worker_fault,
)
from repro.experiments.engine.job import Job, snapshot_metrics
from repro.experiments.engine.supervise import start_heartbeat


def default_worker(job: Job) -> Any:
    """Run one (benchmark, mechanism) simulation; the engine's default.

    When the job carries a ``telemetry_dir``, the run records the
    per-interval series and persists it beside the sweep's checkpoint
    journal (one ``<benchmark>-<mechanism>-<input_set>-<key>.series.jsonl``
    per job — the path is deterministic via
    :func:`repro.telemetry.series_path`, so exporters can recompute it).
    With an ``artifact_dir``, the run shares traces and profiles through
    that :class:`~repro.workloads.artifacts.ArtifactStore`, and records a
    trace it misses only when the job's ``record_trace`` says so.
    """
    from repro.experiments.runner import run_benchmark
    from repro.workloads.artifacts import ArtifactStore

    if hasattr(job.config, "validate"):
        job.config.validate()
    telemetry = None
    if job.telemetry_dir:
        from repro.telemetry import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig(series=True, trace=False))
    result = run_benchmark(
        job.benchmark,
        job.mechanism,
        job.config,
        input_set=job.input_set,
        profile_input=job.profile_input,
        telemetry=telemetry,
        store=(
            ArtifactStore(job.artifact_dir, record=job.record_trace)
            if job.artifact_dir
            else None
        ),
    )
    if telemetry is not None:
        from pathlib import Path

        from repro.telemetry import series_path, write_series_jsonl

        Path(job.telemetry_dir).mkdir(parents=True, exist_ok=True)
        path = series_path(
            job.telemetry_dir,
            job.benchmark,
            job.mechanism,
            job.input_set,
            job.key(),
        )
        write_series_jsonl(telemetry, path)
    return result


def error_info(error: BaseException) -> Dict[str, Any]:
    """JSON-safe description of an exception (never raises)."""
    try:
        message = str(error)
    except Exception:
        message = "<unprintable exception>"
    return {
        "type": type(error).__name__,
        "message": message,
        "transient": is_transient(error),
    }


def worker_shim(
    conn,
    worker,
    job: Job,
    fault=None,
    heartbeat_interval: Optional[float] = None,
) -> None:
    """Child-process main: run *worker* on *job*, report over *conn*.

    *fault* is an injected :class:`~repro.experiments.engine.faults.
    FaultSpec` for this launch (None in production);
    *heartbeat_interval* > 0 starts the watchdog heartbeat thread.
    """
    lock = threading.Lock()
    stop_heartbeat = threading.Event()
    if heartbeat_interval:
        stop_heartbeat = start_heartbeat(conn, lock, heartbeat_interval)
    try:
        try:
            if fault is not None:
                apply_worker_fault(fault, stop_heartbeat)
            result = worker(job)
            if fault is not None and fault.kind == "unpicklable":
                result = Unpicklable()
        except BaseException as error:  # the barrier: report, don't escape
            _send(conn, ("error", error_info(error)), lock, stop_heartbeat)
            return
        try:
            with lock:
                stop_heartbeat.set()  # no beats may trail the result
                conn.send(("ok", result))
        except Exception as error:  # unpicklable / oversized result
            _send(
                conn,
                (
                    "error",
                    {
                        "type": "JobError",
                        "message": f"result not transferable: {error}",
                        "transient": False,
                    },
                ),
                lock,
                stop_heartbeat,
            )
    finally:
        stop_heartbeat.set()
        try:
            conn.close()
        except Exception:
            pass


def _send(conn, message, lock=None, stop_heartbeat=None) -> None:
    """Best-effort send; a dead parent pipe is not worth crashing over."""
    try:
        if lock is None:
            conn.send(message)
            return
        with lock:
            if stop_heartbeat is not None:
                stop_heartbeat.set()
            conn.send(message)
    except Exception:
        pass


# -- stdio serving (subprocess backend) --------------------------------------
#
# `repro worker --serve-stdio` turns this process into a persistent job
# server speaking line-delimited JSON on stdin/stdout: the child end of
# the subprocess backend's pipes.  One request shape per line:
#
#     {"op": "ping", "id": N}
#     {"op": "run",  "id": N, "job": <submission>, "worker": "mod:qual",
#      "fault": <spec|null>, "heartbeat": <seconds|null>,
#      "telemetry_dir": <dir|null>, "artifact_dir": <dir|null>,
#      "record_trace": <bool>}
#     {"op": "shutdown", "id": N}
#
# and responses `{"id": N, "event": "pong"|"heartbeat"|"outcome"|...}`.
# EOF on stdin ends the loop, so workers can never outlive the transport
# that spawned them.  Job identity crosses the wire as a *submission*
# (preset + config overrides, exactly the service's format) and the
# outcome echoes the recomputed job key — the parent rejects a mismatch,
# which catches skew between the dispatcher's sources and the worker's.


def serve_stdio(stdin=None, stdout=None) -> int:
    """Serve jobs over stdin/stdout until EOF or a shutdown request."""
    from repro.workloads.artifacts import warm_keys

    # key artifacts by the sources this process imported at startup, not
    # by whatever is on disk when its first journaled job arrives
    warm_keys()
    in_stream = stdin if stdin is not None else sys.stdin
    proto_out = stdout if stdout is not None else sys.stdout
    if stdout is None:
        # stray prints from simulation code must not corrupt the
        # protocol stream — they go to stderr with everything else
        sys.stdout = sys.stderr
    lock = threading.Lock()

    def write_line(payload: Dict[str, Any]) -> bool:
        try:
            proto_out.write(
                json.dumps(payload, sort_keys=True, default=repr) + "\n"
            )
            proto_out.flush()
            return True
        except Exception:
            return False  # parent went away; the loop will see EOF

    def send(payload: Dict[str, Any]) -> bool:
        with lock:
            return write_line(payload)

    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError as error:
            send({"event": "error", "error": f"bad request line: {error}"})
            continue
        if not isinstance(request, dict):
            send({"event": "error", "error": "request must be a JSON object"})
            continue
        op = request.get("op")
        rid = request.get("id")
        if op == "ping":
            send(
                {
                    "event": "pong",
                    "id": rid,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "python": platform.python_version(),
                }
            )
        elif op == "shutdown":
            send({"event": "bye", "id": rid})
            return 0
        elif op == "run":
            _serve_one(request, write_line, lock)
        else:
            send({"event": "error", "id": rid, "error": f"unknown op {op!r}"})
    return 0


def _serve_one(request: Dict[str, Any], write_line, lock) -> None:
    """Run one stdio job request; mirrors :func:`worker_shim` exactly.

    The same fault-delivery, heartbeat-locking, and untransferable-result
    semantics as the fork-pool shim, so an attempt behaves identically
    whichever transport carried it.
    """
    rid = request.get("id")
    stop = threading.Event()

    def emit(payload: Dict[str, Any], final: bool = False) -> bool:
        with lock:
            if final:
                stop.set()  # no beats may trail the outcome
            elif stop.is_set():
                return False
            return write_line(payload)

    started = time.monotonic()
    try:
        from repro.experiments.engine.backends.base import resolve_worker
        from repro.service.protocol import job_from_submission

        job = job_from_submission(
            request["job"],
            telemetry_dir=request.get("telemetry_dir"),
            artifact_dir=request.get("artifact_dir"),
            record_trace=bool(request.get("record_trace")),
        )
        worker = resolve_worker(request.get("worker"))
        fault = None
        if request.get("fault") is not None:
            fault = FaultSpec.from_dict(request["fault"])
        interval = request.get("heartbeat")
        if interval:

            def beat_loop() -> None:
                seq = 0
                while not stop.wait(float(interval)):
                    seq += 1
                    if not emit(
                        {"id": rid, "event": "heartbeat", "seq": seq}
                    ):
                        return

            threading.Thread(
                target=beat_loop, name="repro-heartbeat", daemon=True
            ).start()
        if fault is not None:
            apply_worker_fault(fault, stop)
        result = worker(job)
        if fault is not None and fault.kind == "unpicklable":
            # same terminal failure the fork shim reports when pickling
            # the poisoned result fails
            emit(
                {
                    "id": rid,
                    "event": "outcome",
                    "status": "error",
                    "error": {
                        "type": "JobError",
                        "message": (
                            "result not transferable: "
                            "injected: result not picklable"
                        ),
                        "transient": False,
                    },
                },
                final=True,
            )
            return
        emit(
            {
                "id": rid,
                "event": "outcome",
                "status": "ok",
                "key": job.key(),
                "metrics": snapshot_metrics(result),
                "duration": round(time.monotonic() - started, 6),
            },
            final=True,
        )
    except BaseException as error:  # the barrier: report, don't escape
        emit(
            {
                "id": rid,
                "event": "outcome",
                "status": "error",
                "error": error_info(error),
            },
            final=True,
        )
    finally:
        stop.set()
