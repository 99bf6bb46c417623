"""The executor-backend protocol: where job attempts physically run.

The :class:`~repro.experiments.engine.executor.ExecutionEngine` owns all
*policy* — retry/backoff, watchdog deadlines, quarantine, journaling,
fault resolution — while a backend owns only *transport*: start this
attempt somewhere, stream its heartbeats back, deliver exactly one
outcome message (or be observed dying).  The split is what makes the
engine's resilience guarantees backend-independent: the chaos suite
proves convergence once, and every backend inherits it.

A backend implements three verbs:

* :meth:`ExecutorBackend.submit` — start one attempt, return an
  :class:`AttemptHandle`;
* :meth:`ExecutorBackend.poll` — wait up to a tick (or until a job is
  fed), return the handles that produced an outcome message (updating
  heartbeat times on the rest);
* :meth:`ExecutorBackend.cancel` — kill one attempt (watchdog/timeout
  enforcement, drain).

At most ``slots`` attempts are in flight at once.  Outcome messages are
exactly the worker-shim wire shape the engine has always consumed:
``("ok", result)`` or ``("error", {"type", "message", "transient"})`` —
so the engine's settle path did not change when backends were
introduced.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import BackendError
from repro.experiments.engine.job import Job


@dataclass
class AttemptHandle:
    """One in-flight job attempt, as the engine tracks it.

    Backends subclass (or just instantiate) this and stash whatever
    transport state they need; the engine reads only the fields below.
    """

    job: Job
    attempt: int
    #: monotonic launch time (deadline and duration are measured from it)
    started: float = 0.0
    #: monotonic time of the last heartbeat (0.0 = none seen yet)
    last_beat: float = 0.0
    #: where the attempt runs: "localhost" for the subprocess pool, None
    #: for the fork pool
    host: Optional[str] = None


#: an outcome message in the worker-shim wire shape
Outcome = Tuple[str, object]


class ExecutorBackend:
    """Transport abstraction: run job attempts *somewhere*."""

    #: registry name ("local" or "subprocess"); provenance columns and
    #: the ``dispatch`` engine event carry it
    name = "backend"

    def __init__(self, slots: Optional[int] = None):
        #: max concurrent attempts; None until :meth:`bind` resolves it
        self.slots = None if slots is None else max(1, int(slots))
        self._emit: Callable[..., None] = lambda *a, **k: None

    # -- lifecycle ---------------------------------------------------------

    def bind(self, worker, emit, slots: int) -> None:
        """Attach engine context before the first submit.

        *worker* is the job callable (backends that cross a process
        boundary must resolve it to an importable reference — see
        :func:`worker_reference`); *emit* is the engine's event hook;
        *slots* is the engine's ``--jobs`` value, used only when the
        backend was built without an explicit capacity.
        """
        self._emit = emit
        if self.slots is None:
            self.slots = max(1, int(slots))

    def close(self) -> None:
        """Release transport resources (worker pools, connections)."""

    # -- the three verbs ---------------------------------------------------

    def submit(
        self,
        job: Job,
        attempt: int,
        fault=None,
        heartbeat: Optional[float] = None,
    ) -> AttemptHandle:
        """Start one attempt; raises :class:`BackendError` on transport
        failure (the engine settles that as a transient job failure)."""
        raise NotImplementedError

    def poll(
        self,
        handles: Sequence[AttemptHandle],
        timeout: float,
        wake: Optional[int] = None,
    ) -> List[Tuple[AttemptHandle, Outcome]]:
        """Wait up to *timeout* for activity; return settled attempts.

        Handles that only heartbeat get their ``last_beat`` refreshed and
        are not returned; a silently-dead worker is returned with a
        synthesized ``WorkerCrashError`` outcome.  *wake*, when given, is
        one more descriptor to wait on (a job feed's self-pipe): the wait
        also ends when it turns readable, so a job fed meanwhile
        launches at once.
        """
        raise NotImplementedError

    def cancel(self, handle: AttemptHandle) -> None:
        """Kill one in-flight attempt (idempotent, never raises)."""
        raise NotImplementedError

    def lose_host(self, handle: AttemptHandle) -> None:
        """Deliver an injected host loss for *handle*'s host.

        Default: indistinguishable from cancelling the attempt.  The
        subprocess pool also reaps every other session, exactly as a
        real loss of the machine's workers would.
        """
        self.cancel(handle)


# -- worker references -------------------------------------------------------
#
# The local backend passes the worker callable to forked children by
# memory; any backend that crosses an exec boundary must instead name it
# ("module:qualname") and re-import it on the far side.


def worker_reference(worker) -> Tuple[str, Optional[str]]:
    """``("module:qualname", extra_sys_path)`` for an importable worker.

    *extra_sys_path* is the directory that must be on ``sys.path`` for
    the module to import (the worker module's package root) — needed when
    the worker lives in a test module rather than an installed package.
    Raises :class:`BackendError` for lambdas, closures, and other
    callables a fresh interpreter cannot re-import by name.
    """
    module = getattr(worker, "__module__", None)
    qualname = getattr(worker, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise BackendError(
            f"worker {worker!r} is not importable by name; the "
            "subprocess backend needs a module-level function (not a "
            "lambda/closure)"
        )
    try:
        resolved = resolve_worker(f"{module}:{qualname}")
    except Exception as error:
        raise BackendError(
            f"worker {module}:{qualname} does not re-import: {error}"
        ) from error
    if resolved is not worker:
        raise BackendError(
            f"worker {module}:{qualname} re-imports as a different object; "
            "the subprocess backend needs a stable module-level function"
        )
    extra = None
    mod = importlib.import_module(module)
    origin = getattr(mod, "__file__", None)
    if origin:
        root = Path(origin).resolve()
        for _ in range(module.count(".") + 1):
            root = root.parent
        extra = str(root)
    return f"{module}:{qualname}", extra


def resolve_worker(reference: Optional[str]):
    """The callable named by a ``"module:qualname"`` reference.

    ``None`` resolves to the engine's default worker, so stdio workers
    never need the caller's code for ordinary sweeps.
    """
    if reference is None:
        from repro.experiments.engine.worker import default_worker

        return default_worker
    module_name, _, qualname = str(reference).partition(":")
    if not module_name or not qualname:
        raise BackendError(f"malformed worker reference {reference!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise BackendError(f"worker reference {reference!r} is not callable")
    return obj
