"""Jobs that reach a running engine pass: the :class:`JobFeed`.

:meth:`~repro.experiments.engine.executor.ExecutionEngine.run` takes a
feed instead of a list when jobs arrive while it runs, which is how the
job service keeps one long-lived pass for its whole life.  Any thread
may :meth:`JobFeed.put` a job; the pass admits it on its next scheduler
step.  The feed's self-pipe is among the descriptors the backend's
``poll`` waits on, so a put wakes a pass that is waiting on its workers
(or idle) and the job launches at once if a slot is free.
:meth:`JobFeed.close` says no more jobs will come: the pass returns once
what it admitted has settled.  A list handed to ``run`` is a feed closed
before the pass starts, so sweeps and the service share one scheduler
loop.
"""

from __future__ import annotations

import os
import select
import threading
import time
from collections import deque
from typing import Iterable, List, Optional, Tuple

from repro.experiments.engine.job import Job

#: a fed job and the key's latest settled record, if the feeder has one
FedJob = Tuple[Job, Optional[dict]]


class JobFeed:
    """A thread-safe queue of jobs for one engine pass, with a self-pipe."""

    def __init__(self, jobs: Iterable[Job] = (), closed: bool = False):
        self._lock = threading.Lock()
        self._items: "deque[FedJob]" = deque((job, None) for job in jobs)
        self._closed = closed
        self._read_fd: Optional[int] = None
        self._write_fd: Optional[int] = None
        if not closed:  # a feed closed from the start never wakes anyone
            self._read_fd, self._write_fd = os.pipe()
            os.set_blocking(self._read_fd, False)
            os.set_blocking(self._write_fd, False)

    def __enter__(self) -> "JobFeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def fileno(self) -> Optional[int]:
        """The descriptor that turns readable on a put or close."""
        return self._read_fd

    def put(self, job: Job, record: Optional[dict] = None) -> None:
        """Hand *job* to the pass.

        *record* is the key's latest settled record, if the feeder knows
        one; the pass treats it the way ``resume`` treats a journal
        record (an ``ok`` or poisoned record settles at once as resumed,
        a failed one re-runs with its crash count carried over).
        """
        with self._lock:
            if self._closed:
                raise ValueError("job feed is closed")
            self._items.append((job, record))
            self._wake()

    def close(self) -> None:
        """No more jobs: the pass returns once its admitted jobs settle."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._wake()

    def take(self) -> Tuple[List[FedJob], bool]:
        """Everything fed so far, and whether the feed was closed then.

        Both come from one look under the lock: a feed seen closed here
        can receive nothing more, so a pass that has taken it empty and
        closed has seen its last job.
        """
        with self._lock:
            items = list(self._items)
            self._items.clear()
            if self._read_fd is not None:
                try:
                    while os.read(self._read_fd, 4096):
                        pass
                except OSError:  # drained: the pipe would block
                    pass
            return items, self._closed

    def wait(self, timeout: float) -> None:
        """Block until a put or close wakes the feed, or *timeout* passes."""
        if self._read_fd is None:
            time.sleep(timeout)
            return
        try:
            select.select([self._read_fd], [], [], timeout)
        except (OSError, ValueError):
            pass  # released under us; the pass's next take sorts it out

    def release(self) -> None:
        """Close the self-pipe, once no pass waits on it any more."""
        with self._lock:
            for fd in (self._read_fd, self._write_fd):
                if fd is not None:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
            self._read_fd = self._write_fd = None

    def _wake(self) -> None:
        if self._write_fd is None:
            return
        try:
            os.write(self._write_fd, b"\0")
        except OSError:
            pass  # a full pipe is already readable
