"""Stdlib HTTP client for the simulation service.

:class:`ServiceClient` is a thin, dependency-free wrapper over
``http.client`` — one connection per request, matching the server's
``Connection: close`` discipline.  Waiting on a job is a long-poll
(``GET /jobs/<key>?wait=S``), so it costs about one request per job, not
one per poll interval.  :func:`run_jobs` is the sweep-shaped entry
point: it pushes a job list through a remote server and returns the same
:class:`~repro.experiments.engine.SweepReport` a local ``engine.run()``
would, so every downstream consumer (result tables, exporters, exit-code
mapping) works unchanged with ``--server``.

Backpressure is part of the protocol, not an error: a 429/503 surfaces
as :class:`~repro.errors.ServiceBusyError` and ``run_jobs`` responds by
collecting an outstanding result before retrying the submission — the
client end of the server's quota design.  With nothing outstanding to
collect, the client itself rides the rejection out: a bounded number of
retries with exponential backoff, jittered, never sleeping less than
the server's ``Retry-After`` hint.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import urlsplit

from repro.errors import ServiceBusyError, ServiceError
from repro.experiments.engine.checkpoint import result_from_record
from repro.experiments.engine.executor import SweepReport
from repro.experiments.engine.job import Job, JobResult
from repro.service.protocol import ABANDONED, submission_from_job

#: submission payload statuses that mean "the record is final"
TERMINAL_STATUSES = ("done", "failed")


class ServiceClient:
    """Talk to one simulation server at *base_url*.

    *client_id* becomes the ``X-Repro-Client`` header the server's
    per-client quota keys on; omit it to be identified by peer address.
    """

    def __init__(
        self,
        base_url: str,
        client_id: Optional[str] = None,
        timeout: float = 30.0,
        busy_retries: int = 4,
        busy_backoff: float = 0.05,
        busy_backoff_cap: float = 2.0,
    ):
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if split.scheme not in ("", "http"):
            raise ServiceError(
                f"service URL must be http:// (got {base_url!r})"
            )
        if not split.hostname:
            raise ServiceError(f"service URL has no host: {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.client_id = client_id
        self.timeout = timeout
        #: how many times a busy (429/503) response is retried in-client
        #: before :class:`ServiceBusyError` propagates to the caller
        self.busy_retries = busy_retries
        self.busy_backoff = busy_backoff
        self.busy_backoff_cap = busy_backoff_cap
        # seams for deterministic tests
        self._sleep = time.sleep
        self._random = random.random

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- transport ---------------------------------------------------------

    def _busy_delay(self, attempt: int, hint: Optional[float]) -> float:
        """Seconds to back off before busy-retry *attempt* (0-based).

        Exponential in the attempt number, capped, never less than the
        server's ``Retry-After`` hint, with upward-only jitter so a
        fleet of clients bounced by the same 429 does not re-stampede
        the server in lockstep.
        """
        delay = min(
            self.busy_backoff * (2.0 ** attempt), self.busy_backoff_cap
        )
        if hint is not None:
            delay = max(delay, float(hint))  # hint <= cap, by _request
        return delay + self._random() * delay * 0.5

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        busy_retry: bool = True,
    ) -> Any:
        """One endpoint call, riding out bounded backpressure.

        Busy responses (429/503) are retried up to ``busy_retries``
        times with :meth:`_busy_delay` pacing — safe because every
        endpoint is idempotent (submissions are content-addressed).
        Two cases propagate the raw :class:`ServiceBusyError` instead:
        callers that have a better use for the wait (the sweep client
        collects an outstanding result) pass ``busy_retry=False``, and
        a ``Retry-After`` hint beyond ``busy_backoff_cap`` means the
        server expects to be busy for longer than a bounded in-call
        retry should ever sleep — the caller decides what to do with
        that much time.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServiceBusyError as error:
                hint = error.retry_after
                if (
                    not busy_retry
                    or attempt >= self.busy_retries
                    or (hint is not None and hint > self.busy_backoff_cap)
                ):
                    raise
                self._sleep(self._busy_delay(attempt, hint))
                attempt += 1

    def _request_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Any:
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        body = (
            json.dumps(payload, sort_keys=True, default=repr)
            if payload is not None
            else None
        )
        try:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                status = response.status
                retry_header = response.getheader("Retry-After")
                raw = response.read()
            finally:
                connection.close()
        except OSError as error:
            raise ServiceError(
                f"cannot reach simulation service at {self.base_url}: "
                f"{error}"
            ) from error
        content_type = ""
        if raw[:1] not in (b"{", b"["):
            content_type = "raw"
        if content_type == "raw":
            decoded: Any = raw
        else:
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                decoded = raw
        if status >= 400:
            message = (
                decoded.get("error", f"HTTP {status}")
                if isinstance(decoded, dict)
                else f"HTTP {status}"
            )
            if status in (429, 503):
                try:
                    hint = (
                        float(retry_header)
                        if retry_header is not None
                        else None
                    )
                except ValueError:
                    hint = None
                raise ServiceBusyError(
                    message, status=status, retry_after=hint
                )
            raise ServiceError(message, status=status)
        return decoded

    # -- endpoints ---------------------------------------------------------

    def submit(
        self, payload: Dict[str, Any], busy_retry: bool = True
    ) -> Dict[str, Any]:
        """POST one submission; returns the server's status payload."""
        return self._request("POST", "/jobs", payload,
                             busy_retry=busy_retry)

    def submit_job(
        self, job: Job, busy_retry: bool = True
    ) -> Dict[str, Any]:
        """Submit a local :class:`Job`, guarding against identity skew.

        If the server derives a different content hash than the local
        ``job.key()``, client and server disagree about job identity —
        a version skew that would silently mis-cache.  Fail loudly.
        """
        response = self.submit(submission_from_job(job),
                               busy_retry=busy_retry)
        if response.get("key") != job.key():
            raise ServiceError(
                "job identity skew: server hashed "
                f"{job.label} to {response.get('key')!r}, client to "
                f"{job.key()!r}; client and server versions disagree"
            )
        return response

    def status(self, key: str, wait: float = 0.0) -> Dict[str, Any]:
        """The job's status payload; with *wait* > 0 the server may hold
        the answer up to that many seconds for the job to settle."""
        if wait > 0:
            return self._request("GET", f"/jobs/{key}?wait={float(wait)}")
        return self._request("GET", f"/jobs/{key}")

    def result(self, key: str) -> Dict[str, Any]:
        """The settled record for *key* (ServiceError 409 if pending)."""
        return self._request("GET", f"/jobs/{key}/result")

    def wait(
        self, key: str, timeout: float = 600.0, poll: float = 0.05
    ) -> Dict[str, Any]:
        """Long-poll ``/jobs/<key>`` until the job settles; returns the payload.

        Each request asks the server to hold its answer (``?wait=``) for
        half the socket timeout at most, so one request usually covers
        the whole run; *poll* is the pause after an answer that is not
        final, so a server that answers at once is polled instead.
        """
        deadline = time.monotonic() + timeout
        while True:
            hold = min(self.timeout / 2, deadline - time.monotonic())
            payload = self.status(key, wait=hold)
            if payload.get("status") in TERMINAL_STATUSES:
                return payload
            if payload.get("status") == ABANDONED:
                raise ServiceError(
                    f"job {key} was abandoned by a draining service: it "
                    "never ran and must be resubmitted"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for job "
                    f"{key} (last status: {payload.get('status')!r})"
                )
            time.sleep(poll)

    def run(
        self, payload: Dict[str, Any], timeout: float = 600.0
    ) -> Dict[str, Any]:
        """Submit one payload and block until its record is final."""
        response = self.submit(payload)
        if response.get("status") in TERMINAL_STATUSES:
            return response["record"]
        return self.wait(response["key"], timeout=timeout)["record"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def events(self, after: int = 0, wait: float = 0.0) -> Dict[str, Any]:
        """Engine/service events with seq > *after* (optionally long-poll)."""
        return self._request(
            "GET", f"/events?after={int(after)}&wait={float(wait)}"
        )

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")


def run_jobs(
    client: ServiceClient,
    jobs: List[Job],
    progress: Optional[Callable[[JobResult], None]] = None,
    timeout: float = 600.0,
    poll: float = 0.1,
) -> SweepReport:
    """Run a sweep's job list through a remote service.

    Submits every job (deduplicating identical cells client-side, like
    the engine does), rides out backpressure by collecting an already
    outstanding result before retrying, then polls the remainder in
    submission order.  The returned report is shaped exactly like a
    local ``engine.run()`` report: records the server served from its
    cache come back ``resumed=True``, re-executions ``resumed=False``.
    """
    report = SweepReport()
    by_key: Dict[str, Job] = {}
    for job in jobs:
        key = job.key()
        if key not in by_key:
            by_key[key] = job
            report.order.append(key)
    outstanding: List[str] = []  # submitted, not yet settled
    deadline = time.monotonic() + timeout

    def settle(key: str, payload: Dict[str, Any]) -> None:
        outcome = result_from_record(
            by_key[key],
            payload["record"],
            resumed=bool(payload.get("cached", False)),
        )
        report.results[key] = outcome
        if progress is not None:
            progress(outcome)

    def collect_one() -> None:
        """Wait out the oldest outstanding job (frees quota headroom)."""
        key = outstanding.pop(0)
        settle(
            key,
            client.wait(
                key,
                timeout=max(0.1, deadline - time.monotonic()),
                poll=poll,
            ),
        )

    for key in list(report.order):
        job = by_key[key]
        while True:
            try:
                # with work outstanding the best response to a busy
                # server is collecting a result (frees quota headroom
                # deterministically), not sleeping — so disable the
                # client's own busy-retry loop for that case
                response = client.submit_job(
                    job, busy_retry=not outstanding
                )
            except ServiceBusyError as busy:
                if outstanding:
                    collect_one()
                    continue
                if time.monotonic() >= deadline:
                    raise
                time.sleep(busy.retry_after or poll)
                continue
            break
        if response.get("status") in TERMINAL_STATUSES:
            settle(key, response)
        else:
            outstanding.append(key)
    while outstanding:
        collect_one()
    return report
