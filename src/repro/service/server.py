"""Asyncio HTTP/JSON job server: the sweep engine as a backend.

One long-running process owns an :class:`~repro.experiments.engine.
ExecutionEngine` and its checkpoint journal; clients submit jobs over
HTTP and the engine's existing machinery — crash isolation, retries,
watchdog, quarantine, fault injection, graceful drain — executes them.
Everything rides on stdlib ``asyncio``: no web framework, no new
dependencies.

Request lifecycle::

    POST /jobs  ──normalize──▶ Job ──key()──▶ content hash
        │  key settled in the store?  ──▶ 200 {"cached": true, record}
        │  key queued or running?     ──▶ 202 coalesce (one execution)
        │  client over quota / queue full ─▶ 429
        │  otherwise enqueue          ──▶ 202 {"status": "queued"}
        │    (or "running": a free worker slot takes it at once)

Dispatch is continuous.  At start the server opens one long-lived
``engine.run(feed, ...)`` pass on a worker thread and keeps its own queue
in front of it: whenever a worker slot is free it feeds the pass the
oldest queued job (with the key's latest record, which the pass replays
the way ``resume`` replays a journal record), and each outcome settles
back on the event loop through the pass's ``progress`` callback.  A job
that lands while others run starts as soon as a slot frees, journal
writes stay single-writer, and a record that reached the journal
through any prior life of the server is served instead of re-executing.

Endpoints: ``POST /jobs``, ``GET /jobs``, ``GET /jobs/<key>`` (with
``?wait=S``, a long-poll: the answer waits up to S seconds for the job
to settle), ``GET /jobs/<key>/result``, ``GET /jobs/<key>/series``,
``GET /events`` (cursor + long-poll over the engine/service event
stream, same row shape as the sweep CLI's ``*-engine.events.jsonl``),
``GET /stats``, ``GET /healthz``.

Shutdown is a drain, not a kill: ``begin_drain()`` rejects new
submissions with 503, requests the engine's
:class:`~repro.experiments.engine.GracefulDrain`, closes the feed and
answers every open long-poll with what it would return now; in-flight
jobs settle to the journal before the pass returns, so a restarted
server serves them from the store.  A job the drain will not run (still
queued, or left unsettled by the pass) reports ``"abandoned"``, so a
waiting client can resubmit it instead of waiting out the server.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    ReproError,
    ServiceError,
    SweepInterrupted,
    UsageError,
)
from repro.experiments.engine import GracefulDrain, JobFeed
from repro.experiments.engine.checkpoint import journal_record, serves
from repro.experiments.engine.executor import ExecutionEngine
from repro.experiments.engine.job import Job, JobFailure, JobResult
from repro.service.protocol import ABANDONED, job_from_submission
from repro.service.store import ResultStore

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: statuses a job entry can report; "done"/"failed" are terminal, and
#: a drain leaves what it will not run ABANDONED
PENDING_STATUSES = ("queued", "running")

#: seconds a 429 response asks the client to wait before retrying
RETRY_AFTER = 0.2

#: times an unsettled job re-enters the queue (engine abort faults)
#: before the service fails it
MAX_REQUEUES = 3

#: request body cap (bytes)
MAX_BODY_BYTES = 1 << 20

#: ceiling on the ?wait= long-polls of GET /events and GET /jobs/<key>
#: (seconds)
MAX_EVENT_WAIT = 30.0

#: per-connection read deadline (seconds)
REQUEST_TIMEOUT = 10.0

#: how often a GET /events long-poll looks for new rows (seconds); engine
#: rows arrive from the engine's thread, which does not wake it
_EVENT_POLL = 0.05

#: the waiter topic of GET /events long-polls (job keys are hex)
_EVENTS = "/events"


def _settled_status(record: dict) -> str:
    """The terminal status a job with this settled record reports."""
    return "done" if record.get("status") == "ok" else "failed"


@dataclass(frozen=True)
class ServicePolicy:
    """Service-level limits: backpressure and quotas."""

    #: queued (not yet running) jobs before submissions get 429
    max_queue: int = 64
    #: distinct pending jobs one client may have before 429
    max_pending_per_client: int = 16


class EngineEventLog:
    """Thread-safe ring of engine + service events with a seq cursor.

    Exposes the :class:`~repro.telemetry.EventTracer` ``emit`` surface,
    so the execution engine (running in a worker thread) and the service
    (running in the event loop) both append here; ``GET /events`` reads
    incrementally by sequence number.  Rows use the exact shape the
    sweep CLI writes to ``<sweep>-engine.events.jsonl``.
    """

    def __init__(self, capacity: int = 8192):
        self._events: Deque[dict] = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._kinds: collections.Counter = collections.Counter()

    def emit(self, ts, kind, name, addr, dur, args) -> None:
        with self._lock:
            self._seq += 1
            self._kinds[kind] += 1
            self._events.append(
                {
                    "seq": self._seq,
                    "core": "engine",
                    "ts": ts,
                    "kind": kind,
                    "name": name,
                    "addr": addr,
                    "dur": dur,
                    "args": args,
                }
            )

    @property
    def appended(self) -> int:
        with self._lock:
            return self._seq

    def count(self, kind: str) -> int:
        """Events of *kind* emitted so far, the ring's evictions included."""
        with self._lock:
            return self._kinds[kind]

    def since(self, after: int) -> List[dict]:
        """Events with seq > *after* (oldest first)."""
        with self._lock:
            return [e for e in self._events if e["seq"] > after]

    def snapshot(self) -> List[dict]:
        with self._lock:
            return list(self._events)


class _TeeTracer:
    """Fan one engine-event stream out to several tracers."""

    def __init__(self, *sinks):
        self._sinks = [sink for sink in sinks if sink is not None]

    def emit(self, *event) -> None:
        for sink in self._sinks:
            try:
                sink.emit(*event)
            except Exception:
                pass  # telemetry must never take down the service


class _BadRequest(Exception):
    """A request too malformed to dispatch, answered with *status*."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class JobEntry:
    """One submitted job's service-side state."""

    job: Job
    key: str
    status: str = "queued"
    record: Optional[dict] = None
    #: served from the result store / journal, not executed this life
    cached: bool = False
    #: submissions that landed on this entry (1 + coalesced)
    submissions: int = 1
    #: clients with this key pending (quota accounting)
    clients: Set[str] = field(default_factory=set)
    #: times the entry re-entered the queue without settling
    requeues: int = 0


class SimulationServer:
    """HTTP front-end turning the execution engine into a service."""

    def __init__(
        self,
        engine: ExecutionEngine,
        store: Optional[ResultStore] = None,
        policy: Optional[ServicePolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry_dir: Optional[str] = None,
        events_path: Optional[str] = None,
    ):
        if engine.checkpoint is None:
            raise UsageError(
                "the job service needs a checkpoint journal: it is the "
                "durable half of the content-addressed result store"
            )
        self.engine = engine
        self.store = store or ResultStore(engine.checkpoint)
        self.policy = policy or ServicePolicy()
        self.host = host
        self.port = port
        #: when set, executed jobs record per-interval series here
        self.telemetry_dir = telemetry_dir
        #: when set, the event log is dumped here as JSONL at shutdown
        self.events_path = events_path
        self.events = EngineEventLog()
        # engine events (retry/quarantine/watchdog/journal/...) flow into
        # the service log too, alongside any tracer the caller attached
        self.engine.tracer = _TeeTracer(self.engine.tracer, self.events)
        self.stats: collections.Counter = collections.Counter()
        self._entries: Dict[str, JobEntry] = {}
        self._pending: Deque[str] = collections.deque()
        self._queued_count = 0
        self._client_pending: Dict[str, Set[str]] = collections.defaultdict(
            set
        )
        self._drain = GracefulDrain()  # never entered: request() only
        self._draining = False
        self._t0 = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        #: the engine pass (None between an aborted pass and the next)
        self._pass: Optional[asyncio.Task] = None
        self._feed: Optional[JobFeed] = None
        #: entries fed to the pass and not yet settled, in feed order
        self._fed: Dict[str, JobEntry] = {}
        #: open long-polls by topic (a job key, or _EVENTS)
        self._waiters: Dict[str, Set[asyncio.Future]] = {}
        #: connection handlers holding a request they have not answered
        self._answering: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the engine pass."""
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except (OSError, OverflowError) as error:
            reason = getattr(error, "strerror", None) or error
            raise ServiceError(
                f"cannot listen on {self.host}:{self.port}: {reason}"
            ) from error
        self.port = self._server.sockets[0].getsockname()[1]
        self._start_pass()
        self._emit("serve-start", None, host=self.host, port=self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def begin_drain(self) -> None:
        """Stop accepting; let in-flight work settle to the journal."""
        if self._draining:
            return
        self._draining = True
        self._drain.request()
        if self._feed is not None:
            self._feed.close()
        self._emit(
            "drain", None, queued=self._queued_count, running=len(self._fed)
        )
        while self._pending:  # nothing is fed after a drain
            entry = self._entries[self._pending.popleft()]
            if entry.status == "queued":
                entry.status = ABANDONED
        self._queued_count = 0
        for topic in list(self._waiters):
            self._wake(topic)  # answer every long-poll with what is now

    async def shutdown(self) -> None:
        """Drain, wait for the engine pass to return, close the socket."""
        await self.begin_drain()
        if self._pass is not None:
            await self._pass
        if self._server is not None:
            self._server.close()
            if self._answering:  # let requests in hand get their answer
                await asyncio.wait(
                    set(self._answering), timeout=REQUEST_TIMEOUT
                )
            await self._server.wait_closed()
            self._server = None
        if self.events_path is not None:
            self._write_events_file()

    def _write_events_file(self) -> None:
        try:
            with open(self.events_path, "w") as stream:
                for event in self.events.snapshot():
                    stream.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError:
            pass  # an events dump is best-effort, like all telemetry

    # -- continuous dispatch -----------------------------------------------

    def _start_pass(self) -> None:
        self._feed = JobFeed()
        self._pass = asyncio.get_running_loop().create_task(
            self._run_pass(self._feed)
        )

    async def _run_pass(self, feed: JobFeed) -> None:
        """One engine pass on a worker thread, until drain or abort."""
        loop = asyncio.get_running_loop()

        def progress(outcome: JobResult) -> None:  # on the engine thread
            loop.call_soon_threadsafe(self._settle_outcome, outcome)

        with feed:
            try:
                await loop.run_in_executor(
                    None,
                    functools.partial(
                        self.engine.run,
                        feed,
                        progress=progress,
                        drain=self._drain,
                    ),
                )
            except SweepInterrupted:
                # an injected abort ended the pass; every outcome it
                # journaled has settled through progress already
                self.stats["pass_aborts"] += 1
            except Exception as error:  # engine bug: fail soft, stay up
                self.stats["pass_errors"] += 1
                self._emit("pass-error", None, error=repr(error))
        self._pass = self._feed = None
        self._requeue_unsettled()
        self._feed_slots()

    def _feed_slots(self) -> None:
        """Feed the pass the oldest queued jobs, one per free slot."""
        while (
            self._pending
            and not self._draining
            and len(self._fed) < self.engine.backend.slots
        ):
            entry = self._entries[self._pending.popleft()]
            if entry.status != "queued":
                continue
            if self._pass is None:  # the last pass was aborted
                self._start_pass()
            entry.status = "running"
            self._queued_count -= 1
            self._fed[entry.key] = entry
            self._feed.put(entry.job, self.store.get(entry.key))

    def _settle_outcome(self, outcome: JobResult) -> None:
        entry = self._fed.pop(outcome.job.key())
        self.stats["resumed" if outcome.resumed else "executed"] += 1
        self._settle_entry(
            entry, self.store.absorb(outcome), cached=outcome.resumed
        )
        self._feed_slots()

    def _requeue_unsettled(self) -> None:
        """Requeue, abandon or fail what an ended pass left unsettled."""
        unsettled = list(self._fed.values())
        self._fed.clear()
        requeued: List[str] = []
        for entry in unsettled:
            entry.requeues += 1
            if self._draining:
                entry.status = ABANDONED  # journal untouched
            elif entry.requeues <= MAX_REQUEUES:
                entry.status = "queued"
                self._queued_count += 1
                requeued.append(entry.key)
                self._emit(
                    "requeue", entry.job.label, requeues=entry.requeues
                )
            else:
                failed = JobResult(
                    entry.job,
                    "failed",
                    failure=JobFailure(
                        "ServiceError",
                        f"job never settled after {entry.requeues} "
                        "engine pass(es)",
                        transient=True,
                    ),
                    attempts=entry.requeues,
                )
                self._settle_entry(
                    entry, journal_record(failed), cached=False
                )
        self._pending.extendleft(reversed(requeued))

    def _settle_entry(
        self, entry: JobEntry, record: dict, cached: bool
    ) -> None:
        entry.record = record
        entry.cached = cached
        entry.status = _settled_status(record)
        self.stats["settled"] += 1
        for client in entry.clients:
            self._client_pending[client].discard(entry.key)
        entry.clients.clear()
        self._wake(entry.key)
        self._emit(
            "settled", entry.job.label,
            key=entry.key, status=entry.status, cached=cached,
        )

    # -- submission --------------------------------------------------------

    def _submit(
        self, payload: Any, client: str
    ) -> Tuple[int, Dict[str, Any]]:
        """Handle one POST /jobs; returns (http status, response body)."""
        if self._draining:
            return 503, {
                "error": "service is draining; resubmit to the next server"
            }
        job = job_from_submission(payload, telemetry_dir=self.telemetry_dir)
        key = job.key()
        self.stats["submissions"] += 1
        entry = self._entries.get(key)
        # terminal entry or stored record that resume semantics serve
        if entry is not None and entry.record is not None:
            if serves(entry.record):
                self.stats["cache_hits"] += 1
                self._emit("cache-hit", job.label, key=key, client=client)
                return 200, self._entry_payload(entry, cached=True)
        elif entry is None:
            record = self.store.get(key)
            if serves(record):
                self.stats["cache_hits"] += 1
                entry = JobEntry(
                    job, key, status=_settled_status(record),
                    record=record, cached=True,
                )
                self._entries[key] = entry
                self._emit("cache-hit", job.label, key=key, client=client)
                return 200, self._entry_payload(entry)
        # coalesce onto in-flight work (counts against the quota: a
        # pending job is pending, whoever asked first)
        if entry is not None and entry.status in PENDING_STATUSES:
            code = self._check_quota(client, key)
            if code is not None:
                return code
            entry.submissions += 1
            entry.clients.add(client)
            self._client_pending[client].add(key)
            self.stats["coalesced"] += 1
            self._emit("coalesced", job.label, key=key, client=client)
            return 202, self._entry_payload(entry, coalesced=True)
        # fresh execution (new key, or a failed record that re-runs)
        code = self._check_quota(client, key)
        if code is not None:
            return code
        if self._queued_count >= self.policy.max_queue:
            self.stats["rejected_queue"] += 1
            self._emit("reject-queue", job.label, client=client)
            return 429, {
                "error": (
                    f"job queue is full ({self.policy.max_queue} queued); "
                    "retry after in-flight work settles"
                ),
                "retry_after": RETRY_AFTER,
            }
        if entry is None:
            entry = JobEntry(job, key)
            self._entries[key] = entry
        else:  # failed-but-retryable record: run it again
            entry.status = "queued"
            entry.record = None
            entry.cached = False
            entry.requeues = 0
            entry.submissions += 1
        entry.clients.add(client)
        self._client_pending[client].add(key)
        self._pending.append(key)
        self._queued_count += 1
        self.stats["accepted"] += 1
        self._emit("submit", job.label, key=key, client=client)
        self._feed_slots()
        return 202, self._entry_payload(entry)

    def _check_quota(
        self, client: str, key: str
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """A 429 response if *client* is at its pending-jobs quota."""
        pending = self._client_pending[client]
        if key in pending:  # re-poking your own pending job is free
            return None
        if len(pending) >= self.policy.max_pending_per_client:
            self.stats["rejected_quota"] += 1
            self._emit("reject-quota", None, client=client)
            return 429, {
                "error": (
                    f"client {client!r} has "
                    f"{len(pending)} pending job(s) (quota "
                    f"{self.policy.max_pending_per_client}); wait for "
                    "results before submitting more"
                ),
                "retry_after": RETRY_AFTER,
            }
        return None

    def _entry_payload(
        self, entry: JobEntry, cached: Optional[bool] = None,
        coalesced: bool = False,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "key": entry.key,
            "label": entry.job.label,
            "status": entry.status,
            "cached": entry.cached if cached is None else cached,
            "submissions": entry.submissions,
        }
        if coalesced:
            payload["coalesced"] = True
        if entry.record is not None:
            payload["record"] = entry.record
        return payload

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader),
                    timeout=REQUEST_TIMEOUT,
                )
            except (asyncio.TimeoutError, TimeoutError):
                return
            except (
                asyncio.IncompleteReadError, ConnectionError, OSError
            ):
                return
            except _BadRequest as error:
                await self._respond(
                    writer, error.status, {"error": str(error)}
                )
                return
            if request is None:
                return
            task = asyncio.current_task()
            self._answering.add(task)
            task.add_done_callback(self._answering.discard)
            method, path, query, body, headers, peer = request
            try:
                status, payload = await self._dispatch(
                    method, path, query, body, headers, peer
                )
            except ReproError as error:
                status = 400 if isinstance(error, UsageError) else 500
                payload = {"error": str(error)}
            except Exception as error:  # noqa: BLE001 — stay up
                status, payload = 500, {"error": repr(error)}
            await self._respond(writer, status, payload)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader):
        """The parsed request, None for a silent peer, or a _BadRequest."""
        line = await self._read_line(reader)
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest(400, f"malformed Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                413,
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        return method.upper(), split.path, query, body, headers, None

    @staticmethod
    async def _read_line(reader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the line outgrew the stream reader's limit
            raise _BadRequest(400, "request or header line too long") from None

    async def _respond(self, writer, status: int, payload) -> None:
        if isinstance(payload, (bytes, bytearray)):
            body, content_type = bytes(payload), "application/x-ndjson"
        else:
            body = (
                json.dumps(payload, sort_keys=True, default=repr) + "\n"
            ).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        extra = ""
        if status in (429, 503) and isinstance(payload, dict):
            # mirror the JSON hint as the standard backpressure header so
            # generic HTTP clients (and ours) can pace their retries
            retry_after = payload.get("retry_after")
            if isinstance(retry_after, (int, float)) and retry_after >= 0:
                extra = f"Retry-After: {retry_after:g}\r\n"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _dispatch(
        self, method, path, query, body, headers, peer
    ) -> Tuple[int, Any]:
        parts = [part for part in path.split("/") if part]
        if method == "POST" and parts == ["jobs"]:
            try:
                payload = json.loads(body.decode("utf-8")) if body else None
            except (ValueError, UnicodeDecodeError) as error:
                return 400, {"error": f"request body is not JSON: {error}"}
            client = headers.get("x-repro-client") or "anonymous"
            return self._submit(payload, client)
        if method != "GET":
            return 405, {"error": f"{method} not supported on {path}"}
        if parts == ["healthz"]:
            return 200, {
                "status": "draining" if self._draining else "ok",
                "store": str(self.store.journal.path),
                "records": len(self.store),
                "engine_jobs": self.engine.jobs,
            }
        if parts == ["stats"]:
            stats = dict(self.stats)
            stats.update(
                queued=self._queued_count,
                running=len(self._fed),
                journal_errors=self.events.count("journal-error"),
                entries=len(self._entries),
                store_records=len(self.store),
                draining=self._draining,
                events=self.events.appended,
                policies=self.store.policy_counts(),
            )
            return 200, stats
        if parts == ["events"]:
            return await self._get_events(query)
        if parts == ["jobs"]:
            return 200, {
                "jobs": [
                    {
                        "key": entry.key,
                        "label": entry.job.label,
                        "status": entry.status,
                        "cached": entry.cached,
                        "policy": getattr(
                            entry.job.config, "throttle_policy", None
                        ),
                    }
                    for entry in self._entries.values()
                ]
            }
        if len(parts) >= 2 and parts[0] == "jobs":
            return await self._get_job(parts[1], parts[2:], query)
        return 404, {"error": f"no such endpoint: {path}"}

    def _wait_seconds(self, query) -> float:
        """A long-poll's ``?wait=`` in seconds, capped (ValueError if bad)."""
        wait = float(query.get("wait", "0"))
        return max(0.0, min(wait, MAX_EVENT_WAIT))

    async def _hold(self, topic: str, timeout: float) -> None:
        """Sleep up to *timeout* seconds, or until *topic* is woken."""
        waiter = asyncio.get_running_loop().create_future()
        waiters = self._waiters.setdefault(topic, set())
        waiters.add(waiter)
        try:
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            waiters.discard(waiter)
            if not waiters and self._waiters.get(topic) is waiters:
                del self._waiters[topic]

    def _wake(self, topic: str) -> None:
        for waiter in self._waiters.pop(topic, ()):
            if not waiter.done():
                waiter.set_result(None)

    async def _get_events(self, query) -> Tuple[int, Any]:
        try:
            after = int(query.get("after", "0"))
            wait = self._wait_seconds(query)
        except ValueError:
            return 400, {"error": "events cursor parameters must be numeric"}
        deadline = time.monotonic() + wait
        while True:
            events = self.events.since(after)
            remaining = deadline - time.monotonic()
            if events or remaining <= 0 or self._draining:
                break
            await self._hold(_EVENTS, min(_EVENT_POLL, remaining))
        next_cursor = events[-1]["seq"] if events else after
        return 200, {"events": events, "next": next_cursor}

    async def _get_job(
        self, key: str, rest: List[str], query
    ) -> Tuple[int, Any]:
        entry = self._entries.get(key)
        record = entry.record if entry is not None else self.store.get(key)
        if entry is None and record is None:
            return 404, {"error": f"unknown job key {key!r}"}
        if not rest:
            try:
                wait = self._wait_seconds(query)
            except ValueError:
                return 400, {"error": "wait must be numeric (seconds)"}
            if entry is None:
                return 200, self._record_payload(key, record)
            if (
                wait > 0
                and entry.status in PENDING_STATUSES
                and not self._draining
            ):
                await self._hold(key, wait)  # woken when the entry settles
            return 200, self._entry_payload(entry)
        if rest == ["result"]:
            if record is None:
                return 409, {
                    "error": f"job {key} has not settled yet",
                    "status": entry.status,
                }
            return 200, record
        if rest == ["series"]:
            return self._get_series(key, entry, record)
        return 404, {"error": f"no such endpoint under /jobs/{key}"}

    @staticmethod
    def _record_payload(key: str, record: dict) -> Dict[str, Any]:
        """Status payload for a key known only from the journal."""
        return {
            "key": key,
            "label": (
                f"{record.get('benchmark')}/{record.get('mechanism')}"
            ),
            "status": _settled_status(record),
            "cached": True,
            "record": record,
        }

    def _get_series(self, key, entry, record) -> Tuple[int, Any]:
        if self.telemetry_dir is None:
            return 404, {"error": "server started without --telemetry"}
        from repro.telemetry import series_path

        if entry is not None:
            benchmark = entry.job.benchmark
            mechanism = entry.job.mechanism
            input_set = entry.job.input_set
        else:
            benchmark = record.get("benchmark")
            mechanism = record.get("mechanism")
            input_set = record.get("input_set", "ref")
        path = series_path(
            self.telemetry_dir, benchmark, mechanism, input_set, key
        )
        if not path.exists():
            return 404, {
                "error": f"no telemetry series recorded for {key}"
            }
        return 200, path.read_bytes()

    def _emit(self, kind: str, name: Optional[str], **args) -> None:
        self.events.emit(
            round(time.monotonic() - self._t0, 6),
            kind, name, None, None, args or None,
        )


# -- embedding helpers -------------------------------------------------------


class ServerHandle:
    """A server running on a background thread (tests, embedding).

    ``url`` is live once the constructor returns; ``stop()`` drains and
    joins.  ``begin_drain()`` starts the drain while keeping the HTTP
    socket up — the deterministic way to observe the 503 path.
    """

    def __init__(self, server: SimulationServer, start_timeout: float = 10.0):
        self.server = server
        self._started = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self.thread.start()
        if not self._started.wait(start_timeout):
            raise ServiceError("service thread failed to start in time")
        if self._error is not None:
            raise ServiceError(f"service failed to start: {self._error}")

    @property
    def url(self) -> str:
        return self.server.url

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surfaced by the constructor
            self._error = error
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._started.set()
        await self._stop_event.wait()
        await self.server.shutdown()

    def _call(self, coroutine_factory: Callable, timeout: float):
        if self._loop is None:
            raise ServiceError("service loop is not running")
        future = asyncio.run_coroutine_threadsafe(
            coroutine_factory(), self._loop
        )
        return future.result(timeout)

    def begin_drain(self, timeout: float = 10.0) -> None:
        self._call(self.server.begin_drain, timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain in-flight work, shut the server down, join the thread."""
        if self._loop is not None and self.thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise ServiceError("service thread did not stop in time")


def start_server_thread(
    engine: ExecutionEngine, **kwargs
) -> ServerHandle:
    """Start a :class:`SimulationServer` on a background thread."""
    return ServerHandle(SimulationServer(engine, **kwargs))


def serve_forever(server: SimulationServer) -> int:
    """Run *server* in the foreground until SIGTERM/SIGINT drains it.

    The ``repro serve`` entrypoint.  The first signal begins a graceful
    drain (in-flight jobs settle to the journal); exit code 0.
    """
    import signal as _signal

    async def main() -> None:
        await server.start()
        print(
            f"repro service listening on {server.url} "
            f"(store: {server.store.journal.path}, "
            f"{len(server.store)} cached record(s))",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("repro service draining...", flush=True)
        await server.shutdown()
        print(
            f"repro service stopped ({server.stats['settled']} job(s) "
            "settled this life)",
            flush=True,
        )

    asyncio.run(main())
    return 0
