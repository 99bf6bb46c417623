"""Simulation-as-a-service: the sweep engine behind an HTTP front-end.

A long-running server owns an execution engine and a checkpoint journal;
clients submit jobs as JSON (``POST /jobs``), get back content-hashed
keys, and long-poll ``GET /jobs/<key>?wait=S`` for results (or
``GET /events?after=N&wait=S`` for the engine's event stream; the rest
is ``GET /jobs``, ``/jobs/<key>/result``, ``/jobs/<key>/series``,
``/stats`` and ``/healthz``).  Three properties define the
design:

* **Content-addressed dedup** — a submission normalizes to the same
  :class:`~repro.experiments.engine.Job` identity the engine has always
  checkpointed under, so an identical resubmission is served from the
  journal-backed :class:`ResultStore` with *zero* re-execution, and
  concurrent duplicates coalesce onto one in-flight run.
* **Nothing new under the failure model** — requests feed one
  long-lived pass of the existing engine as worker slots free (retry,
  watchdog, quarantine, fault injection, graceful drain all apply), and
  results settle through the same CRC-framed journal, so a
  chaos-interrupted server resumes to the same content hashes a
  direct-engine run would.
* **Backpressure over buffering** — a bounded queue and per-client
  quotas turn overload into HTTP 429 (:class:`~repro.errors.
  ServiceBusyError` client-side), never an unbounded backlog.

A settled job is a journal record, owned by
:mod:`repro.experiments.engine.checkpoint`: the server serves a stored
record by the resume rule there (``serves``), and :func:`run_jobs` reads
the records it fetches back with ``result_from_record``, so a
``--server`` sweep reports and exports the same cells a local one does.

Serve with ``repro serve``; point ``repro sweep --server URL`` (or
:func:`run_jobs`) at it.
"""

from repro.service.client import ServiceClient, run_jobs
from repro.service.protocol import (
    PRESETS,
    SUBMISSION_FIELDS,
    job_from_submission,
    submission_from_job,
)
from repro.service.server import (
    EngineEventLog,
    ServerHandle,
    ServicePolicy,
    SimulationServer,
    serve_forever,
    start_server_thread,
)
from repro.service.store import ResultStore

__all__ = [
    "EngineEventLog",
    "PRESETS",
    "ResultStore",
    "SUBMISSION_FIELDS",
    "ServerHandle",
    "ServiceClient",
    "ServicePolicy",
    "SimulationServer",
    "job_from_submission",
    "run_jobs",
    "serve_forever",
    "start_server_thread",
    "submission_from_job",
]
