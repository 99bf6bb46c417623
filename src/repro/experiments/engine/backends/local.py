"""The local backend: today's fork pool behind the backend protocol.

One worker *process per attempt*, connected to the parent by a one-way
pipe, multiplexed together with every process sentinel — exactly the
plumbing the engine used before backends existed, moved here verbatim so
the default path stays bit-identical.  Because children are forked, the
worker callable travels by memory copy: lambdas and closures work, no
import dance required.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_ready
from typing import List, Optional, Sequence, Tuple

from repro.errors import BackendError
from repro.experiments.engine.backends.base import (
    AttemptHandle,
    ExecutorBackend,
    Outcome,
)
from repro.experiments.engine.job import Job


@dataclass
class LocalHandle(AttemptHandle):
    """One forked worker process and its result pipe."""

    process: object = field(default=None, repr=False)
    conn: object = field(default=None, repr=False)


class LocalBackend(ExecutorBackend):
    """Crash-isolated worker processes on this machine (the default)."""

    name = "local"

    def __init__(self, slots: Optional[int] = None):
        super().__init__(slots)
        #: how workers start: fork where the platform has it, else spawn
        self.context = "fork" if hasattr(os, "fork") else "spawn"
        self._ctx = multiprocessing.get_context(self.context)
        self._worker = None

    def bind(self, worker, emit, slots: int) -> None:
        super().bind(worker, emit, slots)
        self._worker = worker

    # -- protocol ----------------------------------------------------------

    def submit(
        self,
        job: Job,
        attempt: int,
        fault=None,
        heartbeat: Optional[float] = None,
    ) -> LocalHandle:
        from repro.experiments.engine.worker import worker_shim

        if self._worker is None:
            raise BackendError("local backend used before bind()")
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_shim,
            args=(send_conn, self._worker, job, fault, heartbeat),
            daemon=True,
        )
        process.start()
        send_conn.close()  # child holds the only writer now
        return LocalHandle(
            job=job,
            attempt=attempt,
            started=time.monotonic(),
            process=process,
            conn=recv_conn,
        )

    def poll(
        self,
        handles: Sequence[LocalHandle],
        timeout: float,
        wake: Optional[int] = None,
    ) -> List[Tuple[LocalHandle, Outcome]]:
        waitables = [handle.conn for handle in handles]
        waitables += [handle.process.sentinel for handle in handles]
        if wake is not None:
            waitables.append(wake)
        if waitables:
            _wait_ready(waitables, timeout=max(0.0, timeout))
        elif timeout > 0:
            time.sleep(timeout)
        settled: List[Tuple[LocalHandle, Outcome]] = []
        for handle in handles:
            outcome = self._poll_one(handle)
            if outcome is not None:
                settled.append((handle, outcome))
        return settled

    def cancel(self, handle: LocalHandle) -> None:
        self._kill(handle.process)
        self._close(handle.conn)

    # -- plumbing (moved from the pre-backend executor) --------------------

    def _poll_one(self, handle: LocalHandle) -> Optional[Outcome]:
        """The attempt's outcome message, or None if still running."""
        outcome = None
        pipe_broken = False
        while True:  # drain heartbeats queued ahead of the outcome
            try:
                if not handle.conn.poll():
                    break
            except (OSError, ValueError):
                break
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):  # died mid-send
                pipe_broken = True
                break
            if (
                isinstance(message, tuple)
                and message
                and message[0] == "heartbeat"
            ):
                handle.last_beat = time.monotonic()
                continue
            outcome = message
            break
        if outcome is not None:
            handle.process.join(5)
            if handle.process.is_alive():
                self._kill(handle.process)
            self._close(handle.conn)
            return outcome
        if pipe_broken:
            handle.process.join(5)
            if handle.process.is_alive():
                self._kill(handle.process)
            self._close(handle.conn)
            return self._crash_outcome(handle)
        if not handle.process.is_alive():
            handle.process.join()
            self._close(handle.conn)
            return self._crash_outcome(handle)
        return None

    @staticmethod
    def _crash_outcome(handle: LocalHandle) -> Outcome:
        exitcode = handle.process.exitcode
        return (
            "error",
            {
                "type": "WorkerCrashError",
                "message": (
                    f"worker died without a result (exit code {exitcode})"
                ),
                "transient": True,
            },
        )

    @staticmethod
    def _kill(process) -> None:
        try:
            if process.is_alive():
                process.terminate()
                process.join(0.5)
            if process.is_alive():
                process.kill()
                process.join(5)
        except (OSError, ValueError, AttributeError):
            pass

    @staticmethod
    def _close(conn) -> None:
        try:
            conn.close()
        except Exception:
            pass
