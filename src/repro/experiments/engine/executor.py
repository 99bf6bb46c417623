"""Sweep executor: crash isolation, timeouts, retries, resume — anywhere.

Scheduling *policy* lives here; the *transport* that physically runs an
attempt is a pluggable :class:`~repro.experiments.engine.backends.
ExecutorBackend` — the default :class:`~repro.experiments.engine.
backends.LocalBackend` forks a worker process per attempt (today's
behavior, bit-identical), and the ``subprocess`` backend drives a pool
of persistent ``repro worker --serve-stdio`` interpreters on this
machine.  Whatever carries the attempt, every failure shape lands in
the same settle path:

* the worker reports — ``("ok", result)`` or ``("error", info)``;
* the worker dies silently (segfault, ``os._exit``, OOM kill)
  → :class:`WorkerCrashError`;
* the worker exceeds its wall-clock deadline → cancelled →
  :class:`JobTimeoutError`;
* under a :class:`~repro.experiments.engine.supervise.WatchdogPolicy`,
  the worker stops heartbeating — wedged, not merely slow — and is
  cancelled past the no-progress deadline → :class:`WorkerStalledError`;
* the backend itself fails — a dispatch that reaches no worker
  (:class:`BackendConnectError`), a host lost mid-job
  (:class:`HostLostError`), an acknowledgement eaten by a partition
  (:class:`PartitionedAckError`) — all transient, all retried.

Transient failures re-enter the queue with exponential backoff until the
retry budget is spent; a job whose attempts keep *killing the worker* is
quarantined by the :class:`~repro.experiments.engine.retry.
QuarantinePolicy` (journaled FAILED-poison, excluded from resume
retries).  Every terminal outcome is appended to the checkpoint journal
before the next job is scheduled, so at any kill point the journal
describes exactly the completed prefix of the sweep — and because job
identity is content-hashed, one journal can be shared by any mix of
backends across any number of resumes.  A failed journal write (disk
full) degrades to a warning, never an aborted sweep.

Jobs reach a pass as a list, or through a :class:`~repro.experiments.
engine.feed.JobFeed` that other threads fill while it runs (the job
service's one long-lived pass); a list is a feed closed before the pass
starts, so both run the same scheduler loop.

The executor is also the chaos harness: a
:class:`~repro.experiments.engine.faults.FaultPlan` injects worker,
journal, *and backend* faults at deterministic (job, attempt)
coordinates, and a :class:`~repro.experiments.engine.supervise.
GracefulDrain` turns SIGTERM/SIGINT into a checkpointed stop (finish
in-flight work, journal it, return an ``interrupted`` report).
"""

from __future__ import annotations

import dataclasses
import random
import time
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import CheckpointError, SweepInterrupted
from repro.experiments.engine.backends import (
    ExecutorBackend,
    create_backend,
)
from repro.experiments.engine.backends.local import LocalBackend
from repro.experiments.engine.checkpoint import (
    CheckpointJournal,
    JournalSalvage,
    result_from_record,
    serves,
)
from repro.experiments.engine.faults import FaultPlan, journal_mutator
from repro.experiments.engine.feed import JobFeed
from repro.experiments.engine.job import Job, JobFailure, JobResult
from repro.experiments.engine.retry import QuarantinePolicy, RetryPolicy
from repro.experiments.engine.supervise import GracefulDrain, WatchdogPolicy
from repro.experiments.engine.worker import default_worker
from repro.workloads.artifacts import ArtifactStore, warm_keys

#: upper bound on one scheduler tick, so deadlines are checked promptly
_MAX_TICK = 0.2

#: failure types that count as "this job killed its worker"
_WORKER_LOSS_TYPES = ("WorkerCrashError", "WorkerStalledError")


@dataclass
class _Attempt:
    """A job waiting to run (possibly a delayed retry)."""

    job: Job
    attempt: int = 1
    not_before: float = 0.0
    #: cumulative backoff seconds this job has waited across retries
    backoff_total: float = 0.0
    #: worker deaths this job has caused (journal-seeded across resumes)
    crashes: int = 0
    #: when this attempt entered the queue (monotonic)
    enqueued: float = 0.0
    #: seconds spent queued beyond scheduled backoff, across attempts
    queue_total: float = 0.0


@dataclass
class _Running:
    """A live attempt: its backend handle plus scheduling state."""

    entry: _Attempt
    handle: object
    deadline: Optional[float]
    #: a resolved backend fault to deliver on this attempt (chaos)
    backend_fault: object = None
    #: the trace this attempt records into the artifact store, if any
    records: Optional[Tuple[str, str]] = None


@dataclass
class SweepReport:
    """Everything a sweep produced, failures included."""

    results: Dict[str, JobResult] = field(default_factory=dict)
    #: job keys in first-submission order (stable reporting order)
    order: List[str] = field(default_factory=list)
    #: True when a drain request stopped the sweep before every job ran
    interrupted: bool = False
    #: journal-write failures tolerated during the sweep (disk full, ...)
    journal_errors: int = 0
    #: what the resume load salvaged from the journal (None: no resume)
    salvage: Optional[JournalSalvage] = None

    def __iter__(self):
        # an interrupted sweep has order entries that never settled
        return (
            self.results[key] for key in self.order if key in self.results
        )

    @property
    def ok(self) -> List[JobResult]:
        return [r for r in self if r.ok]

    @property
    def failures(self) -> List[JobResult]:
        return [r for r in self if not r.ok]

    @property
    def resumed(self) -> List[JobResult]:
        return [r for r in self if r.resumed]

    @property
    def quarantined(self) -> List[JobResult]:
        """Jobs poisoned for repeatedly killing their worker."""
        return [
            r
            for r in self.failures
            if r.failure is not None and r.failure.poison
        ]

    @property
    def unfinished(self) -> List[str]:
        """Job keys submitted but never settled (interrupted sweep)."""
        return [key for key in self.order if key not in self.results]

    @property
    def exit_code(self) -> int:
        """0 all ok; 1 some failed (partial sweep); 130 interrupted."""
        if self.interrupted:
            return 130
        return 1 if self.failures else 0

    def by_cell(self) -> Dict[Tuple[str, str], JobResult]:
        """(benchmark, mechanism) -> outcome, for table assembly."""
        return {(r.job.benchmark, r.job.mechanism): r for r in self}


@dataclass
class _Pass:
    """One :meth:`ExecutionEngine.run` call's scheduling state."""

    report: SweepReport
    progress: Optional[Callable[[JobResult], None]]
    #: keep each outcome in the report; a pass over an open feed may
    #: last a service's life, so it reports through ``progress`` alone
    keep: bool
    pending: "deque[_Attempt]" = field(default_factory=deque)
    running: List[_Running] = field(default_factory=list)
    #: keys admitted and not yet settled: a key fed again meanwhile is
    #: the same job
    inflight: Set[str] = field(default_factory=set)
    #: executions admitted per (benchmark, input set) trace
    traces: Counter = field(default_factory=Counter)
    #: traces that an attempt in flight is recording
    recording: Set[Tuple[str, str]] = field(default_factory=set)


class ExecutionEngine:
    """Run a list of jobs to completion, whatever the jobs do."""

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint: Optional[CheckpointJournal] = None,
        worker: Optional[Callable[[Job], object]] = None,
        seed: int = 0x5EED,
        watchdog: Optional[WatchdogPolicy] = None,
        quarantine: Optional[QuarantinePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
        backend: Union[None, str, ExecutorBackend] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.checkpoint = checkpoint
        self.worker = worker or default_worker
        self.watchdog = watchdog
        self.quarantine = quarantine or QuarantinePolicy()
        self.fault_plan = fault_plan
        #: anything with EventTracer's ``emit`` surface; engine events
        #: (retry/quarantine/watchdog/journal/dispatch) land here
        self.tracer = tracer
        if backend is None:
            backend = LocalBackend()
        elif isinstance(backend, str):
            backend = create_backend(backend)
        self.backend: ExecutorBackend = backend
        self.backend.bind(self.worker, self._emit, self.jobs)
        #: where dispatched jobs share traces and profiles: beside the
        #: journal, so one sweep (or service) reuses them across its
        #: workers; no journal, no store
        self.artifact_dir = (
            str(checkpoint.artifact_dir) if checkpoint is not None else None
        )
        if self.artifact_dir is not None:
            # hash the sources now, right after the code was imported:
            # forked workers inherit the keys, and a source edited later
            # (under a long-lived service) cannot key this code's output
            warm_keys()
        self._rng = random.Random(seed)
        self._t0 = 0.0

    # -- public ------------------------------------------------------------

    def close(self) -> None:
        """Release the backend's transport resources (worker pools)."""
        self.backend.close()

    def run(
        self,
        jobs: Union[Iterable[Job], JobFeed],
        resume: bool = False,
        progress: Optional[Callable[[JobResult], None]] = None,
        drain: Optional[GracefulDrain] = None,
        retry_poisoned: bool = False,
    ) -> SweepReport:
        """Execute every job; never raises for anything a job did.

        *jobs* is a list, or a :class:`~repro.experiments.engine.feed.
        JobFeed` that other threads fill while the pass runs; a list is
        a feed closed before the pass starts.  A pass over an open feed
        runs until the feed closes and reports each outcome through
        *progress* only, so however long it lives it keeps no settled
        result.

        With ``resume=True`` and a checkpoint journal, jobs whose key has
        a successful journal record are replayed as resumed results and
        not re-executed; failed records are retried from scratch — except
        poisoned ones (quarantined worker-killers), which replay as
        failures unless ``retry_poisoned`` re-admits them with a fresh
        crash budget.  A record fed with a job is replayed the same way.
        A *drain* request stops launching and returns an ``interrupted``
        report once in-flight jobs settle.
        """
        feed = (
            jobs if isinstance(jobs, JobFeed) else JobFeed(jobs, closed=True)
        )
        self._t0 = time.monotonic()
        if self.artifact_dir is not None:
            ArtifactStore(self.artifact_dir).prune()  # no worker records yet
        state = _Pass(SweepReport(), progress, keep=feed.closed)
        report = state.report
        prior: Dict[str, dict] = {}
        if resume and self.checkpoint is not None:
            prior, report.salvage = self.checkpoint.load_with_stats()
            if not report.salvage.clean:
                self._emit(
                    "journal-salvage",
                    str(self.checkpoint.path),
                    **{
                        "records": report.salvage.records,
                        "corrupt": report.salvage.corrupt,
                        "crc_mismatch": report.salvage.crc_mismatch,
                    },
                )
        try:
            while True:
                fed, closed = feed.take()
                for job, record in fed:
                    self._admit(state, job, record, prior, retry_poisoned)
                draining = drain is not None and drain.requested
                if not (state.pending or state.running):
                    if closed or draining:
                        break
                    feed.wait(_MAX_TICK)  # idle: block until fed
                    continue
                if not draining:
                    self._launch(state)
                elif not state.running:
                    report.interrupted = True
                    self._emit("drain", None, abandoned=len(state.pending))
                    break
                self._reap(state, feed)
        finally:
            for live in state.running:  # interrupted: leave no orphans
                self.backend.cancel(live.handle)
        return report

    def _admit(
        self,
        state: _Pass,
        job: Job,
        record: Optional[dict],
        prior: Dict[str, dict],
        retry_poisoned: bool,
    ) -> None:
        """Queue one job, or settle it at once from its record."""
        key = job.key()
        if key in state.inflight or key in state.report.results:
            return  # the same cell submitted twice is one job
        if record is None:
            record = prior.get(key)
        if state.keep:
            state.report.order.append(key)
        if serves(record, retry_poisoned):
            outcome = result_from_record(job, record)
            if state.keep:
                state.report.results[key] = outcome
            if state.progress is not None:
                state.progress(outcome)
            return
        crashes = 0
        if record is not None and not retry_poisoned:
            # a failure that re-runs keeps the worker deaths it caused
            crashes = result_from_record(job, record).crashes
        state.inflight.add(key)
        state.traces[job.benchmark, job.input_set] += 1
        state.pending.append(
            _Attempt(job, crashes=crashes, enqueued=time.monotonic())
        )

    # -- scheduling --------------------------------------------------------

    def _launch(self, state: _Pass) -> None:
        pending, running = state.pending, state.running
        for _ in range(len(pending)):
            if len(running) >= self.backend.slots:
                return
            now = time.monotonic()
            entry = pending.popleft()
            if entry.not_before > now:
                pending.append(entry)  # still backing off; try the next
                continue
            worker_fault = None
            backend_fault = None
            if self.fault_plan is not None:
                worker_fault = self.fault_plan.worker_fault(
                    entry.job, entry.attempt
                )
                backend_fault = self.fault_plan.backend_fault(
                    entry.job, entry.attempt
                )
                for fault in (worker_fault, backend_fault):
                    if fault is not None:
                        self._emit(
                            "fault",
                            entry.job.label,
                            kind=fault.kind,
                            attempt=entry.attempt,
                        )
            entry.queue_total += max(
                0.0, now - max(entry.enqueued, entry.not_before)
            )
            if (
                backend_fault is not None
                and backend_fault.kind == "connect-fail"
            ):
                # the dispatch never reaches a worker
                self._settle(
                    entry,
                    (
                        "error",
                        {
                            "type": "BackendConnectError",
                            "message": "injected: backend connect failed",
                            "transient": True,
                        },
                    ),
                    duration=0.0,
                    host=None,
                    state=state,
                )
                continue
            heartbeat = (
                self.watchdog.interval if self.watchdog is not None else None
            )
            job = entry.job
            artifact_dir = job.artifact_dir or self.artifact_dir
            records = None
            if artifact_dir is not None:
                # record a trace only for another job of this pass to
                # replay, one recording at a time: recording costs more
                # than it saves on a trace that is met once
                trace = (job.benchmark, job.input_set)
                if state.traces[trace] > 1 and trace not in state.recording:
                    records = trace
                job = dataclasses.replace(
                    job,
                    artifact_dir=artifact_dir,
                    record_trace=records is not None,
                )
            try:
                handle = self.backend.submit(
                    job,
                    entry.attempt,
                    fault=worker_fault,
                    heartbeat=heartbeat,
                )
            except Exception as error:
                # a transport failure is a job failure shape the retry
                # policy already understands — never an aborted sweep
                self._settle(
                    entry,
                    (
                        "error",
                        {
                            "type": type(error).__name__,
                            "message": str(error),
                            "transient": bool(
                                getattr(error, "transient", True)
                            ),
                        },
                    ),
                    duration=0.0,
                    host=None,
                    state=state,
                )
                continue
            self._emit(
                "dispatch",
                entry.job.label,
                backend=self.backend.name,
                host=handle.host,
                attempt=entry.attempt,
            )
            deadline = (
                handle.started + self.timeout if self.timeout else None
            )
            if records is not None:
                state.recording.add(records)
            running.append(
                _Running(entry, handle, deadline, backend_fault, records)
            )

    def _reap(self, state: _Pass, feed: JobFeed) -> None:
        pending, running = state.pending, state.running
        if not running:
            if pending:
                wake = min(entry.not_before for entry in pending)
                delay = wake - time.monotonic()
                if delay > 0:  # everything is backing off
                    feed.wait(min(delay, _MAX_TICK))
            return
        settled: List[Tuple[_Running, tuple]] = []
        polling: List[_Running] = []
        for live in running:
            if (
                live.backend_fault is not None
                and live.backend_fault.kind == "host-loss"
            ):
                # the host dies mid-job: kill the attempt through the
                # backend (the subprocess pool loses every session)
                self.backend.lose_host(live.handle)
                self._emit(
                    "host-lost",
                    live.entry.job.label,
                    host=live.handle.host,
                    attempt=live.entry.attempt,
                )
                settled.append(
                    (
                        live,
                        (
                            "error",
                            {
                                "type": "HostLostError",
                                "message": (
                                    "injected: host lost mid-job"
                                ),
                                "transient": True,
                            },
                        ),
                    )
                )
            else:
                polling.append(live)
        by_handle = {id(live.handle): live for live in polling}
        outcomes = self.backend.poll(
            [live.handle for live in polling],
            timeout=self._tick(pending, running) if not settled else 0.0,
            wake=feed.fileno(),
        )
        for handle, outcome in outcomes:
            live = by_handle.pop(id(handle), None)
            if live is None:
                continue
            if (
                live.backend_fault is not None
                and live.backend_fault.kind == "partitioned-ack"
            ):
                # the result arrived but its acknowledgement is lost:
                # the engine must behave as if it never saw it
                self._emit(
                    "partitioned-ack",
                    live.entry.job.label,
                    attempt=live.entry.attempt,
                )
                outcome = (
                    "error",
                    {
                        "type": "PartitionedAckError",
                        "message": (
                            "injected: result acknowledgement lost"
                        ),
                        "transient": True,
                    },
                )
            settled.append((live, outcome))
        now = time.monotonic()
        for live in by_handle.values():  # still in flight: enforce policy
            outcome = self._overdue(live, now)
            if outcome is not None:
                settled.append((live, outcome))
        settled_set = {id(live) for live, _ in settled}
        running[:] = [
            live for live in running if id(live) not in settled_set
        ]
        for live, outcome in settled:
            if live.records is not None:
                state.recording.discard(live.records)
            duration = time.monotonic() - (live.handle.started or now)
            self._settle(
                live.entry,
                outcome,
                duration=duration,
                host=live.handle.host,
                state=state,
            )

    def _overdue(self, live: _Running, now: float):
        """A watchdog/timeout outcome for an in-flight attempt, or None."""
        handle = live.handle
        if self.watchdog is not None:
            last_progress = max(handle.started, handle.last_beat)
            stalled_for = now - last_progress
            if stalled_for >= self.watchdog.no_progress_timeout:
                self.backend.cancel(handle)
                self._emit(
                    "watchdog",
                    live.entry.job.label,
                    stalled_for=round(stalled_for, 3),
                    attempt=live.entry.attempt,
                )
                return (
                    "error",
                    {
                        "type": "WorkerStalledError",
                        "message": (
                            f"no heartbeat for {stalled_for:.1f}s "
                            "(no-progress deadline "
                            f"{self.watchdog.no_progress_timeout:g}s)"
                        ),
                        "transient": True,
                    },
                )
        if live.deadline is not None and now >= live.deadline:
            self.backend.cancel(handle)
            return (
                "error",
                {
                    "type": "JobTimeoutError",
                    "message": f"timed out after {self.timeout:g}s",
                    "transient": True,
                },
            )
        return None

    def _tick(self, pending, running) -> float:
        now = time.monotonic()
        tick = _MAX_TICK
        for live in running:
            if live.deadline is not None:
                tick = min(tick, live.deadline - now)
            if self.watchdog is not None:
                stall_at = (
                    max(live.handle.started, live.handle.last_beat)
                    + self.watchdog.no_progress_timeout
                )
                tick = min(tick, stall_at - now)
        for entry in pending:
            if entry.not_before:
                tick = min(tick, entry.not_before - now)
        return max(0.01, tick)

    # -- outcome handling --------------------------------------------------

    def _settle(self, entry, outcome, duration, host, state: _Pass) -> None:
        kind, payload = outcome
        if kind == "ok":
            result = JobResult(
                entry.job, "ok", result=payload,
                attempts=entry.attempt, duration=duration,
                backoff_total=entry.backoff_total, crashes=entry.crashes,
                executor=self.backend.name, host=host,
                queue_seconds=round(entry.queue_total, 6),
            )
        else:
            failure = JobFailure(
                error_type=str(payload.get("type", "Exception")),
                message=str(payload.get("message", "")),
                transient=bool(payload.get("transient", False)),
            )
            if failure.error_type in _WORKER_LOSS_TYPES:
                entry.crashes += 1
            if self.quarantine.is_poison(entry.crashes):
                failure = JobFailure(
                    error_type="PoisonJobError",
                    message=(
                        f"quarantined: killed its worker {entry.crashes} "
                        f"time(s), last as {failure.error_type}: "
                        f"{failure.message}"
                    ),
                    transient=False,
                    poison=True,
                )
                self._emit(
                    "quarantine",
                    entry.job.label,
                    crashes=entry.crashes,
                    attempts=entry.attempt,
                )
            elif self.retry.should_retry(entry.attempt, failure.transient):
                delay = self.retry.delay(entry.attempt, self._rng)
                self._emit(
                    "retry",
                    entry.job.label,
                    attempt=entry.attempt,
                    delay=round(delay, 3),
                    error=failure.error_type,
                )
                now = time.monotonic()
                state.pending.append(
                    _Attempt(
                        entry.job,
                        entry.attempt + 1,
                        now + delay,
                        entry.backoff_total + delay,
                        entry.crashes,
                        enqueued=now,
                        queue_total=entry.queue_total,
                    )
                )
                return  # not terminal yet: no record, no report entry
            result = JobResult(
                entry.job, "failed", failure=failure,
                attempts=entry.attempt, duration=duration,
                backoff_total=entry.backoff_total, crashes=entry.crashes,
                executor=self.backend.name, host=host,
                queue_seconds=round(entry.queue_total, 6),
            )
        key = entry.job.key()
        state.inflight.discard(key)
        if state.keep:
            state.report.results[key] = result
        self._record(result, entry, state.report)
        if state.progress is not None:
            state.progress(result)
        if self.fault_plan is not None and self.fault_plan.abort_after(
            entry.job, entry.attempt
        ):
            self._emit("abort", entry.job.label, attempt=entry.attempt)
            raise SweepInterrupted(
                f"fault injection: abort after {entry.job.label} "
                "(journal holds the completed prefix; --resume continues)"
            )

    def _record(self, result: JobResult, entry, report) -> None:
        """Journal one terminal outcome; a failed write degrades."""
        if self.checkpoint is None:
            return
        mutate = None
        if self.fault_plan is not None:
            spec = self.fault_plan.journal_fault(entry.job, entry.attempt)
            if spec is not None:
                self._emit(
                    "fault",
                    entry.job.label,
                    kind=spec.kind,
                    attempt=entry.attempt,
                )
                mutate = journal_mutator(spec)
        try:
            self.checkpoint.record(result, mutate=mutate)
        except CheckpointError as error:
            # a full disk must not abort a week of sweep: the result
            # stays in the report, the cell re-runs on resume
            report.journal_errors += 1
            self._emit(
                "journal-error", entry.job.label, error=str(error)
            )
            warnings.warn(
                f"checkpoint write failed for {entry.job.label} "
                f"({error}); continuing — this cell will re-run on resume"
            )

    def _emit(self, event: str, name: Optional[str], **args) -> None:
        """Mirror an engine event into the attached tracer (if any)."""
        if self.tracer is None:
            return
        try:
            self.tracer.emit(
                round(time.monotonic() - self._t0, 6),
                event,
                name,
                None,
                None,
                args or None,
            )
        except Exception:
            pass  # telemetry must never take down a sweep
