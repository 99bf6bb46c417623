"""The ``subprocess`` backend: a pool of ``repro worker --serve-stdio``.

A :class:`StdioTransport` owns one persistent worker process, this
interpreter running ``-m repro worker --serve-stdio``, and speaks the
line-delimited JSON protocol documented in
:mod:`repro.experiments.engine.worker`:

* requests down stdin: ``{"op": "run"|"ping"|"shutdown", "id": N, ...}``
* responses up stdout: ``{"id": N, "event":
  "heartbeat"|"outcome"|"pong"|...}``

:class:`SubprocessBackend` keeps up to ``slots`` such sessions on this
machine, one job in flight per session.  When no session is idle it
starts every free slot at once, so the interpreters import in parallel,
and each session answers a ping before its first job.  A failed spawn or
ping reaps every session and emits ``host-down``; the dispatch settles
as a transient :class:`~repro.errors.BackendConnectError`, and the next
one respawns at once.

Jobs cross the boundary as *submissions* (the service's wire format), so
the worker recomputes the content-hashed job key and the backend checks
it.  Worker callables cross as ``"module:qualname"`` references.  EOF on
a worker's stdout maps to the same ``WorkerCrashError`` a fork-pool
worker death produces.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendConnectError, BackendError
from repro.experiments.engine.backends.base import (
    AttemptHandle,
    ExecutorBackend,
    Outcome,
    worker_reference,
)
from repro.experiments.engine.job import Job, ResultSnapshot

#: how long ``ping`` waits for ``pong`` before declaring a worker dead
DEFAULT_PING_TIMEOUT = 10.0

_READ_CHUNK = 65536


def child_environment(extra_paths: Sequence[str] = ()) -> Dict[str, str]:
    """The spawned worker's environment: inherit, extend ``PYTHONPATH``.

    Prepends the parent's ``repro`` package root plus *extra_paths* (the
    worker module's root, for test-defined workers), so ``python -m
    repro`` and the worker reference both import in a fresh interpreter
    regardless of how the parent found them.
    """
    import repro

    env = dict(os.environ)
    roots: List[str] = []
    origin = getattr(repro, "__file__", None)
    if origin:
        roots.append(str(Path(origin).resolve().parent.parent))
    for path in extra_paths:
        if path and path not in roots:
            roots.append(str(path))
    existing = env.get("PYTHONPATH", "")
    for part in existing.split(os.pathsep):
        if part and part not in roots:
            roots.append(part)
    env["PYTHONPATH"] = os.pathsep.join(roots)
    return env


class StdioTransport:
    """One persistent worker process and its protocol state."""

    def __init__(
        self,
        argv: Sequence[str],
        env: Optional[Dict[str, str]] = None,
    ):
        self.argv = list(argv)
        self.busy: Optional[AttemptHandle] = None
        #: answered a health-check ping (required before its first job)
        self.checked = False
        self._buffer = b""
        self._next_id = 0
        try:
            self.process = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
                bufsize=0,
            )
        except OSError as error:
            raise BackendConnectError(
                f"cannot spawn worker {' '.join(self.argv)}: {error}"
            ) from error
        os.set_blocking(self.process.stdout.fileno(), False)

    # -- plumbing ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def fileno(self) -> int:
        return self.process.stdout.fileno()

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send(self, payload: dict) -> None:
        data = (
            json.dumps(payload, sort_keys=True, default=repr) + "\n"
        ).encode("utf-8")
        try:
            self.process.stdin.write(data)
            self.process.stdin.flush()
        except (OSError, ValueError) as error:
            raise BackendConnectError(
                f"worker pipe broken (pid {self.process.pid}): {error}"
            ) from error

    def read_messages(self) -> Tuple[List[dict], bool]:
        """(complete protocol messages available now, saw-EOF flag)."""
        eof = False
        while True:
            try:
                chunk = os.read(self.fileno(), _READ_CHUNK)
            except BlockingIOError:
                break
            except (OSError, ValueError):
                eof = True
                break
            if not chunk:
                eof = True
                break
            self._buffer += chunk
        messages: List[dict] = []
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except ValueError:
                continue  # garbage on the protocol stream; skip the line
            if isinstance(parsed, dict):
                messages.append(parsed)
        return messages, eof

    def ping(self, timeout: float = DEFAULT_PING_TIMEOUT) -> dict:
        """Round-trip a health check; raises on an unresponsive worker."""
        rid = self.next_id()
        self.send({"op": "ping", "id": rid})
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BackendConnectError(
                    f"worker did not answer ping within {timeout:g}s "
                    f"(pid {self.process.pid})"
                )
            select.select([self.fileno()], [], [], remaining)
            messages, eof = self.read_messages()
            for message in messages:
                if message.get("event") == "pong" and message.get("id") == rid:
                    self.checked = True
                    return message
            if eof:
                raise BackendConnectError(
                    "worker exited during health check "
                    f"(pid {self.process.pid})"
                )

    def shutdown(self) -> None:
        """Best-effort polite stop, then kill."""
        try:
            self.send({"op": "shutdown", "id": self.next_id()})
            self.process.wait(1.0)
        except Exception:
            pass
        self.kill()

    def kill(self) -> None:
        try:
            if self.alive:
                self.process.terminate()
                try:
                    self.process.wait(0.5)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(5)
        except (OSError, ValueError):
            pass
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except Exception:
                pass


@dataclass
class StdioHandle(AttemptHandle):
    """An attempt in flight on one stdio transport."""

    request_id: int = 0
    session: StdioTransport = field(default=None, repr=False)


class SubprocessBackend(ExecutorBackend):
    """Up to ``slots`` stdio worker sessions on this machine."""

    name = "subprocess"
    #: the ``host`` provenance column of every attempt
    host = "localhost"
    #: how a session starts: this interpreter, no shell
    worker_argv = (sys.executable, "-m", "repro", "worker", "--serve-stdio")

    def __init__(self, slots: Optional[int] = None):
        super().__init__(slots)
        self._transports: List[StdioTransport] = []
        self._worker_ref: Optional[str] = None
        self._extra_paths: List[str] = []

    def bind(self, worker, emit, slots: int) -> None:
        super().bind(worker, emit, slots)
        from repro.experiments.engine.worker import default_worker

        if worker is not default_worker:
            # fails fast (BackendError) for lambdas/closures a fresh
            # interpreter could never re-import
            self._worker_ref, extra = worker_reference(worker)
            self._extra_paths = [extra] if extra else []

    def _retire(self, transport: StdioTransport) -> None:
        transport.kill()
        if transport in self._transports:
            self._transports.remove(transport)

    def _reap_all(self, why: str) -> None:
        """Lose every session, as if this machine's workers all died."""
        self._emit("host-down", self.host, reason=why)
        for transport in list(self._transports):
            self._retire(transport)

    def _acquire(self) -> StdioTransport:
        idle = [
            t for t in self._transports if t.busy is None and t.alive
        ]
        try:
            if not idle:
                # start every free slot at once, so the workers'
                # interpreters import in parallel rather than one ping
                # after another
                env = child_environment(self._extra_paths)
                busy = sum(t.busy is not None for t in self._transports)
                for _ in range(self.slots - busy):
                    transport = StdioTransport(self.worker_argv, env)
                    self._transports.append(transport)
                    idle.append(transport)
            if not idle[0].checked:
                idle[0].ping()
        except BackendConnectError as error:
            # reaps every session, the unhealthy one included
            self._reap_all(str(error))
            raise
        return idle[0]

    # -- protocol ----------------------------------------------------------

    def submit(
        self,
        job: Job,
        attempt: int,
        fault=None,
        heartbeat: Optional[float] = None,
    ) -> StdioHandle:
        from repro.service.protocol import submission_from_job

        transport = self._acquire()
        rid = transport.next_id()
        request = {
            "op": "run",
            "id": rid,
            "job": submission_from_job(job),
            "worker": self._worker_ref,
            "fault": fault.to_dict() if fault is not None else None,
            "heartbeat": heartbeat,
            "telemetry_dir": job.telemetry_dir,
            "artifact_dir": job.artifact_dir,
            "record_trace": job.record_trace,
        }
        try:
            transport.send(request)
        except BackendError:
            self._retire(transport)
            raise
        handle = StdioHandle(
            job=job,
            attempt=attempt,
            started=time.monotonic(),
            host=self.host,
            request_id=rid,
            session=transport,
        )
        transport.busy = handle
        return handle

    def poll(
        self,
        handles: Sequence[StdioHandle],
        timeout: float,
        wake: Optional[int] = None,
    ) -> List[Tuple[StdioHandle, Outcome]]:
        readable = [
            handle.session.fileno()
            for handle in handles
            if handle.session is not None and handle.session.alive
        ]
        if wake is not None:
            readable.append(wake)
        if readable and timeout > 0:
            try:
                select.select(readable, [], [], timeout)
            except (OSError, ValueError):
                pass  # a raced-dead fd; the per-handle scan sorts it out
        elif not handles and timeout > 0:
            time.sleep(timeout)
        settled: List[Tuple[StdioHandle, Outcome]] = []
        for handle in handles:
            outcome = self._poll_one(handle)
            if outcome is not None:
                settled.append((handle, outcome))
        return settled

    def cancel(self, handle: StdioHandle) -> None:
        transport = handle.session
        if transport is None:
            return
        # the job runs *in* the worker process: killing the attempt is
        # killing the transport (a fresh one respawns for the next job)
        transport.busy = None
        handle.session = None
        self._retire(transport)

    def lose_host(self, handle: StdioHandle) -> None:
        """A mid-job machine loss: every session goes, not just this one."""
        self.cancel(handle)
        self._reap_all("lost mid-job")

    def close(self) -> None:
        for transport in list(self._transports):
            transport.shutdown()
        self._transports.clear()

    # -- outcome decoding --------------------------------------------------

    def _poll_one(self, handle: StdioHandle) -> Optional[Outcome]:
        transport = handle.session
        if transport is None:
            return None
        messages, eof = transport.read_messages()
        outcome: Optional[Outcome] = None
        for message in messages:
            if message.get("id") != handle.request_id:
                continue  # a stale beat from a cancelled predecessor
            event = message.get("event")
            if event == "heartbeat":
                handle.last_beat = time.monotonic()
            elif event == "outcome" and outcome is None:
                outcome = self._decode_outcome(handle, message)
            elif event == "error" and outcome is None:
                outcome = (
                    "error",
                    {
                        "type": "BackendError",
                        "message": (
                            f"worker rejected request: "
                            f"{message.get('error')}"
                        ),
                        "transient": False,
                    },
                )
        if outcome is not None:
            transport.busy = None
            handle.session = None
            return outcome
        if eof or not transport.alive:
            exitcode = transport.process.poll()
            transport.busy = None
            handle.session = None
            self._retire(transport)
            return (
                "error",
                {
                    "type": "WorkerCrashError",
                    "message": (
                        "worker died without a result "
                        f"(exit code {exitcode})"
                    ),
                    "transient": True,
                },
            )
        return None

    @staticmethod
    def _decode_outcome(handle: StdioHandle, message: dict) -> Outcome:
        if message.get("status") == "ok":
            key = message.get("key")
            if key is not None and key != handle.job.key():
                return (
                    "error",
                    {
                        "type": "BackendError",
                        "message": (
                            f"identity skew: the worker computed job key "
                            f"{key} for {handle.job.label} (expected "
                            f"{handle.job.key()}); check that the worker "
                            "imports the same repro sources"
                        ),
                        "transient": False,
                    },
                )
            return ("ok", ResultSnapshot(message.get("metrics") or {}))
        error = message.get("error")
        if not isinstance(error, dict):
            error = {
                "type": "JobError",
                "message": f"malformed outcome: {message!r}",
                "transient": False,
            }
        return ("error", error)
