"""Resilient experiment execution engine.

The paper's evaluation is a large (benchmark x mechanism x config) matrix;
this package executes that matrix the way a production sweep must run:

* each simulation runs crash-isolated in its own worker process — a hung
  workload, a segfaulting extension, or an unpicklable exception degrades
  to a recorded :class:`JobFailure`, never an aborted sweep;
* per-job wall-clock timeouts with a bounded exponential-backoff retry
  policy for transient failures;
* a JSONL checkpoint journal written after every job, so an interrupted
  sweep resumes with only the missing jobs (keyed by a content hash of
  the job's benchmark, mechanism, and full config); records are
  CRC32-framed and a damaged journal — torn writes, mid-file bit rot —
  salvages instead of poisoning the resume.  The checkpoint module owns
  the settled-job record: :func:`journal_record` writes it,
  :func:`result_from_record` reads it back, and :func:`serves` decides
  whether it stands or the job re-runs — for resume, the job service and
  the export alike;
* a heartbeat watchdog (:class:`WatchdogPolicy`) that tells hung workers
  from slow ones, poison-job quarantine (:class:`QuarantinePolicy`) for
  jobs that keep killing their worker, and graceful SIGTERM/SIGINT
  drain (:class:`GracefulDrain`) that checkpoints in-flight work;
* deterministic fault injection (:class:`FaultPlan`) to attack all of
  the above on purpose — the chaos suite proves every fault in the
  catalog converges back to a bit-identical result set under
  ``--resume``;
* a :class:`SweepReport` that downstream reporting renders with explicit
  ``FAILED(reason)`` cells instead of crashing;
* a :class:`JobFeed` for jobs that arrive while a pass runs, so a
  long-lived service and a one-shot sweep share one scheduler loop.

Quick tour::

    from repro.experiments.engine import (
        CheckpointJournal, ExecutionEngine, Job, RetryPolicy,
    )

    engine = ExecutionEngine(
        jobs=4, timeout=300.0, retry=RetryPolicy(max_attempts=3),
        checkpoint=CheckpointJournal.for_sweep("fig7"),
    )
    report = engine.run([Job("mst", "ecdp+throttle"), ...], resume=True)
    for failure in report.failures:
        print(failure.job.label, failure.failure.reason)
"""

from repro.experiments.engine.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    LocalBackend,
    SubprocessBackend,
    create_backend,
)
from repro.experiments.engine.checkpoint import (
    CheckpointJournal,
    JournalSalvage,
    journal_record,
    record_content_hash,
    result_from_record,
    serves,
)
from repro.experiments.engine.executor import ExecutionEngine, SweepReport
from repro.experiments.engine.feed import JobFeed
from repro.experiments.engine.faults import (
    BACKEND_FAULTS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.experiments.engine.job import (
    IDENTITY_FIELDS,
    NON_IDENTITY_FIELDS,
    FailedResult,
    Job,
    JobFailure,
    JobResult,
    ResultSnapshot,
    identity_payload,
    is_failed,
    snapshot_metrics,
)
from repro.experiments.engine.retry import QuarantinePolicy, RetryPolicy
from repro.experiments.engine.supervise import GracefulDrain, WatchdogPolicy
from repro.experiments.engine.worker import default_worker

__all__ = [
    "BACKEND_FAULTS",
    "BACKEND_NAMES",
    "CheckpointJournal",
    "ExecutionEngine",
    "ExecutorBackend",
    "FAULT_KINDS",
    "LocalBackend",
    "SubprocessBackend",
    "create_backend",
    "FailedResult",
    "FaultPlan",
    "FaultSpec",
    "GracefulDrain",
    "IDENTITY_FIELDS",
    "Job",
    "JobFailure",
    "JobFeed",
    "JobResult",
    "JournalSalvage",
    "NON_IDENTITY_FIELDS",
    "QuarantinePolicy",
    "ResultSnapshot",
    "RetryPolicy",
    "SweepReport",
    "WatchdogPolicy",
    "default_worker",
    "identity_payload",
    "is_failed",
    "journal_record",
    "record_content_hash",
    "result_from_record",
    "serves",
    "snapshot_metrics",
]
