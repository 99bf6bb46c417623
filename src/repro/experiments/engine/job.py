"""Job model: what to run, how it went, and deterministic job identity.

A :class:`Job` is one (benchmark, mechanism, config, input set) cell of an
evaluation matrix.  Its :meth:`Job.key` is a content hash over every field
— two sweeps that ask for the same cell under the same configuration
produce the same key, which is what lets the checkpoint journal recognise
already-completed work across process restarts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.config import SystemConfig

#: scalar CoreResult attributes preserved in checkpoint snapshots
_SCALAR_METRICS = (
    "ipc",
    "bpki",
    "retired_instructions",
    "cycles",
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_demand_misses",
    "bus_transfers",
    "intervals_completed",
)

#: the Job fields that define its identity — the content hash the
#: checkpoint journal and the service's result cache are keyed by.
#: Everything here changes what the simulation *computes*.
IDENTITY_FIELDS = (
    "benchmark",
    "mechanism",
    "input_set",
    "profile_input",
    "config",
)

#: Job fields deliberately excluded from identity: they change how a run
#: is *observed or scheduled*, never its simulated outcome.  A telemetry
#: sweep can resume from a non-telemetry journal (and vice versa), and a
#: service submission with a different telemetry destination dedupes
#: against the cached result.  The identity regression test enforces
#: that IDENTITY_FIELDS + NON_IDENTITY_FIELDS covers every Job field, so
#: adding a field forces an explicit decision about which side it is on.
NON_IDENTITY_FIELDS = ("telemetry_dir", "artifact_dir", "record_trace")


def canonical_config(config) -> object:
    """A JSON-encodable form of a job's config, stable across runs."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    return {"repr": repr(config)}


def identity_payload(job: "Job") -> Dict[str, Any]:
    """The exact dict a job's content hash is computed over.

    Shared by :meth:`Job.key` and the service's submission
    normalization, so "same job" means the same thing to the checkpoint
    journal, the resume path, and the result cache.
    """
    payload: Dict[str, Any] = {}
    for name in IDENTITY_FIELDS:
        value = getattr(job, name)
        payload[name] = canonical_config(value) if name == "config" else value
    return payload


@dataclass(frozen=True)
class Job:
    """One unit of work for the execution engine."""

    benchmark: str
    mechanism: str
    config: SystemConfig = field(default_factory=SystemConfig.scaled)
    input_set: str = "ref"
    profile_input: str = "train"
    #: directory for per-interval telemetry series files (None = no
    #: telemetry).  Deliberately excluded from :meth:`key`: recording
    #: telemetry does not change the simulation, so a telemetry sweep can
    #: resume from a non-telemetry journal and vice versa.
    telemetry_dir: Optional[str] = None
    #: the trace and profile store the worker reads and fills (None = run
    #: live).  The engine sets it beside its journal; excluded from
    #: :meth:`key` because a replayed run is bit-identical to a live one.
    artifact_dir: Optional[str] = None
    #: whether a worker that misses the trace in ``artifact_dir`` records
    #: it.  Only the engine sets it, at dispatch, when another job of the
    #: pass shares the trace; excluded from :meth:`key` like the store.
    record_trace: bool = False

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.mechanism}"

    def key(self) -> str:
        """Deterministic content hash identifying this job across runs.

        Computed over :data:`IDENTITY_FIELDS` only (see
        :func:`identity_payload`); fields in :data:`NON_IDENTITY_FIELDS`
        never affect the key.
        """
        payload = json.dumps(
            identity_payload(self), sort_keys=True, default=repr
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobFailure:
    """Why a job ultimately failed (after any retries)."""

    error_type: str
    message: str
    transient: bool = False
    #: True when the job was quarantined for repeatedly crashing its
    #: worker; poisoned records are excluded from resume retries
    poison: bool = False

    @property
    def reason(self) -> str:
        return f"{self.error_type}: {self.message}" if self.message else self.error_type


@dataclass
class JobResult:
    """Outcome of one job: a result, or a recorded failure."""

    job: Job
    status: str  # "ok" | "failed"
    result: Any = None
    failure: Optional[JobFailure] = None
    attempts: int = 1
    duration: float = 0.0
    #: total seconds the retry policy's backoff delayed this job — the
    #: schedule FAILED export cells surface alongside the attempt count
    backoff_total: float = 0.0
    #: attempts that ended in worker loss (crash or watchdog kill);
    #: reaching the quarantine budget poisons the job
    crashes: int = 0
    #: True when this outcome was replayed from a checkpoint journal
    resumed: bool = False
    #: which executor backend ran the job ("local" or "subprocess");
    #: None for results rehydrated from pre-backend journals
    executor: Optional[str] = None
    #: host the successful attempt ran on ("localhost" under
    #: subprocess; None local)
    host: Optional[str] = None
    #: seconds the job sat queued beyond scheduled retry backoff
    queue_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class FailedResult:
    """Placeholder that stands in for a CoreResult when its job failed.

    Renders as ``FAILED(<error type>)`` so figure tables degrade to
    explicit failure cells instead of crashing on a missing result.
    """

    ok = False

    def __init__(self, failure: JobFailure):
        self.failure = failure

    @property
    def reason(self) -> str:
        return self.failure.reason

    def __str__(self) -> str:
        return f"FAILED({self.failure.error_type})"

    def __repr__(self) -> str:
        return f"FailedResult({self.failure.reason!r})"


def is_failed(result: Any) -> bool:
    """True for FailedResult placeholders (and missing results)."""
    return result is None or getattr(result, "ok", True) is False


class ResultSnapshot:
    """Metrics of a checkpointed run, re-hydrated from the journal.

    Exposes the same reporting surface as ``CoreResult`` (``ipc``,
    ``bpki``, ``accuracy(owner)``, ...) but holds only the scalar metrics
    the journal preserved, not event-level detail.
    """

    ok = True
    resumed = True

    def __init__(self, metrics: Dict[str, Any]):
        self._metrics = dict(metrics or {})

    def __getattr__(self, name: str) -> Any:
        if name in _SCALAR_METRICS:
            return self._metrics.get(name, 0)
        raise AttributeError(name)

    def accuracy(self, owner: str) -> float:
        return float(self._metrics.get(f"{owner}_accuracy", 0.0))

    def coverage(self, owner: str) -> float:
        return float(self._metrics.get(f"{owner}_coverage", 0.0))

    def get(self, name: str, default: Any = None) -> Any:
        return self._metrics.get(name, default)

    def __repr__(self) -> str:
        return f"ResultSnapshot({self._metrics!r})"


def snapshot_metrics(result: Any) -> Dict[str, Any]:
    """Flatten a worker's result into JSON-safe metrics for the journal."""
    if result is None:
        return {}
    if isinstance(result, ResultSnapshot):
        return dict(result._metrics)
    if isinstance(result, dict):
        return {
            key: value
            for key, value in result.items()
            if isinstance(key, str)
            and isinstance(value, (int, float, str, bool, type(None)))
        }
    metrics: Dict[str, Any] = {}
    for name in _SCALAR_METRICS:
        value = getattr(result, name, None)
        if isinstance(value, (int, float)):
            metrics[name] = value
    for owner in getattr(result, "prefetchers", None) or ():
        try:
            metrics[f"{owner}_accuracy"] = result.accuracy(owner)
            metrics[f"{owner}_coverage"] = result.coverage(owner)
        except Exception:  # a result type with a partial surface
            continue
    return metrics
