"""Worker supervision: heartbeat watchdog and graceful signal drain.

Two supervision concerns the plain timeout cannot express:

* **Hung vs slow.**  A wall-clock timeout must be sized for the slowest
  legitimate job, so a worker that wedges in its first second still
  burns the whole budget.  With a :class:`WatchdogPolicy`, workers
  heartbeat over their result pipe (a daemon thread started by the
  shim); the executor kills a worker whose *last heartbeat* is older
  than ``no_progress_timeout`` — minutes-long jobs run undisturbed as
  long as they stay alive, a wedged one dies within seconds as a
  transient :class:`~repro.errors.WorkerStalledError`.

* **Graceful shutdown.**  :class:`GracefulDrain` converts the first
  SIGTERM/SIGINT into a drain request: the executor stops launching,
  lets in-flight workers settle (journaling each outcome), and returns
  an ``interrupted`` report — so a preempted sweep leaves a journal
  describing exactly the completed prefix and ``--resume`` continues
  from there.  A second signal escalates to the ordinary
  ``KeyboardInterrupt`` abort for users who really mean *now*.
"""

from __future__ import annotations

import math
import signal
import threading
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class WatchdogPolicy:
    """When to consider a worker hung rather than slow."""

    #: kill a worker whose last heartbeat is older than this (seconds)
    no_progress_timeout: float = 10.0
    #: how often the worker's heartbeat thread beats; defaults to a
    #: quarter of the stall deadline so a kill needs ~4 missed beats
    heartbeat_interval: Optional[float] = None

    def __post_init__(self):
        # NaN fails every comparison, so test for the good range
        if not 0 < self.no_progress_timeout < math.inf:
            raise ValueError(
                "no_progress_timeout must be finite and positive, got "
                f"{self.no_progress_timeout}"
            )

    @property
    def interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return max(0.01, self.no_progress_timeout / 4.0)


def start_heartbeat(conn, lock, interval: float):
    """Start the worker-side heartbeat thread; returns its stop event.

    Beats ``("heartbeat", {"seq": n})`` over *conn* every *interval*
    seconds until the stop event is set or the pipe dies.  Sends share
    *lock* with the shim's result send, because ``Connection.send`` is
    not thread-safe.  The thread is a daemon: a worker that finishes (or
    ``os._exit``\\ s) never waits on it.
    """
    stop = threading.Event()

    def beat() -> None:
        seq = 0
        while not stop.wait(interval):
            seq += 1
            try:
                with lock:
                    if stop.is_set():  # result already sent; go quiet
                        return
                    conn.send(("heartbeat", {"seq": seq}))
            except Exception:
                return  # parent went away; nothing left to prove

    thread = threading.Thread(
        target=beat, name="repro-heartbeat", daemon=True
    )
    thread.start()
    return stop


class GracefulDrain:
    """Context manager turning SIGTERM/SIGINT into a drain request."""

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self):
        self._event = threading.Event()
        self._previous = {}
        self._installed = False

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def request(self) -> None:
        """Programmatic drain (what the signal handler calls)."""
        self._event.set()

    def _handle(self, signum, frame) -> None:
        if self._event.is_set():  # second signal: abort for real
            raise KeyboardInterrupt
        self._event.set()

    def __enter__(self) -> "GracefulDrain":
        # signal handlers only install from the main thread; elsewhere
        # (tests, embedded use) drain still works via request()
        if threading.current_thread() is threading.main_thread():
            try:
                for signum in self.SIGNALS:
                    self._previous[signum] = signal.signal(
                        signum, self._handle
                    )
                self._installed = True
            except (ValueError, OSError):
                self._previous.clear()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._installed:
            for signum, handler in self._previous.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):
                    pass
            self._previous.clear()
            self._installed = False
