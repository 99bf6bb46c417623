"""Structured error taxonomy for the whole library.

Every error the runner, execution engine, or CLI can surface derives from
:class:`ReproError`, so callers (and the ``repro`` command) can catch one
type, print one actionable line, and map it to a meaningful exit code:

* ``exit_code == 2`` — the user asked for something invalid (bad config,
  unknown benchmark/mechanism).  Fix the invocation.
* ``exit_code == 1`` — the request was valid but execution failed (a job
  timed out, a worker crashed, retries were exhausted).

The ``transient`` flag drives the execution engine's retry policy:
transient failures (timeouts, worker loss, ``OSError``) are retried with
exponential backoff; permanent failures (:class:`ConfigError`) fail
fast — rerunning a job against the same bad input can never succeed.

Some classes multiply inherit from the builtin their call sites
historically raised (``KeyError``, ``ValueError``) so existing callers
that catch the builtin keep working.
"""

from __future__ import annotations

from typing import Dict, Optional


class ReproError(Exception):
    """Base class of every structured error in the library."""

    #: process exit code the CLI maps this error to
    exit_code = 1
    #: whether the execution engine should retry a job that raised this
    transient = False


class UsageError(ReproError):
    """The command line or API call itself was malformed."""

    exit_code = 2


class ConfigError(UsageError):
    """A SystemConfig (or other configuration) failed validation.

    ``fields`` maps each offending field name to a human-readable
    message, so callers can report exactly which knob is wrong.
    """

    def __init__(self, message: str, fields: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.fields: Dict[str, str] = dict(fields or {})


class UnknownNameError(UsageError, KeyError):
    """An unknown benchmark, mechanism, or prefetcher name was requested.

    Subclasses ``KeyError`` because registry lookups historically raised
    that; ``__str__`` is overridden to drop KeyError's repr-quoting.
    """

    def __str__(self) -> str:  # KeyError would print repr(args[0])
        return self.args[0] if self.args else ""


class TransientError(ReproError):
    """An explicitly-transient failure; the engine will retry it."""

    transient = True


class JobError(ReproError):
    """A job failed inside the execution engine."""


class JobTimeoutError(JobError):
    """A job exceeded its wall-clock timeout and was killed."""

    transient = True


class WorkerCrashError(JobError):
    """A worker process died without reporting a result."""

    transient = True


class WorkerStalledError(JobError):
    """A worker stopped heartbeating and was killed by the watchdog.

    Distinct from :class:`JobTimeoutError`: the watchdog fires on *lack of
    progress* (no heartbeat for ``no_progress_timeout`` seconds), not on
    total wall-clock — a slow-but-alive worker keeps its heartbeats
    flowing and is never stalled.
    """

    transient = True


class PoisonJobError(JobError):
    """A job crashed its worker so many times it was quarantined.

    Deliberately *not* transient: a job that reproducibly takes down its
    worker process is journaled ``FAILED`` with a poison flag and excluded
    from resume retries, so a crashing cell cannot burn the retry budget
    on every ``--resume`` of a long sweep.
    """


class CheckpointError(ReproError):
    """A checkpoint journal could not be read or written."""


class FaultPlanError(UsageError):
    """A fault-injection plan is malformed (unknown kind, bad coordinates)."""


class BackendError(JobError):
    """An executor backend failed outside any particular job's code.

    The job itself may be perfectly fine — the transport that was meant
    to carry it broke.  Concrete subclasses say *where*: connecting
    (:class:`BackendConnectError`), mid-flight (:class:`HostLostError`),
    or on the acknowledgement path (:class:`PartitionedAckError`).
    """


class BackendConnectError(BackendError):
    """A backend could not reach (or spawn) a worker to run the job.

    Transient: the host may come back, another host may pick the job up,
    and the retry budget bounds how long the engine keeps trying.
    """

    transient = True


class HostLostError(BackendError):
    """The host running a job disappeared mid-flight.

    Transient: the job never completed anywhere, so re-running it on a
    surviving host is always safe — job identity is content-hashed and
    the journal only records terminal outcomes.
    """

    transient = True


class PartitionedAckError(BackendError):
    """A job's result acknowledgement was lost to a network partition.

    The work may even have finished on the far side, but the engine
    never saw a trustworthy outcome.  Transient: simulations are
    deterministic, so re-running converges to the identical record.
    """

    transient = True


class HostsFileError(UsageError):
    """A ``--hosts`` inventory file is malformed or unreadable."""


class ServiceError(ReproError):
    """A job-service request failed (transport, protocol, or server side).

    ``status`` carries the HTTP status code when the failure came from a
    server response (None for transport-level failures).
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ServiceBusyError(ServiceError):
    """The service applied backpressure (quota or queue bound, 429/503).

    Transient by design: the request was valid, the server was full —
    retrying after some in-flight work settles is the correct response,
    and it is exactly what the sweep client does.  ``retry_after``
    carries the server's ``Retry-After`` pacing hint in seconds (None
    when the server sent no hint).
    """

    transient = True

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message, status=status)
        self.retry_after = retry_after


class SweepInterrupted(ReproError):
    """A sweep stopped before finishing (signal drain or injected abort).

    Carries the completed-prefix invariant: every job settled before the
    interruption is already in the checkpoint journal, so ``--resume``
    continues exactly where the sweep stopped.
    """

    exit_code = 130


def is_transient(error: BaseException) -> bool:
    """Should the execution engine retry a job that raised *error*?

    Structured errors carry their own flag; of the builtins, I/O-shaped
    failures (``OSError``, ``TimeoutError``) are considered transient.
    Everything else — assertion failures, ``ValueError``, arbitrary
    exceptions from a simulation — is permanent: retrying the same
    deterministic simulation cannot change its outcome.
    """
    if isinstance(error, ReproError):
        return error.transient
    return isinstance(error, (OSError, TimeoutError))
