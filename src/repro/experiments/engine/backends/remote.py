"""The remote backend: sweep fan-out to ``repro worker --serve-stdio``.

Each host runs ``repro worker --serve-stdio`` under its transport
command (ssh by default), one persistent worker session per occupied
slot, up to the host's ``capacity``.  The ``subprocess`` backend is this
backend over one built-in loopback host, :data:`LOOPBACK_HOST`, sized by
the engine's ``--jobs`` and with zero cooldown.

Dispatch is *sticky with work-stealing*: a job's content-hashed key
picks a preferred host (stable across runs and host-list orderings), so
repeated sweeps land cells on the same machines — warm page caches, warm
trace files.  When the preferred host is full or unhealthy, the least
loaded healthy host steals the job (emitting a ``steal`` engine event),
so stickiness never idles capacity.

Health is observed, not assumed: a host with no idle session starts
sessions for all of its free slots at once, so their interpreters import
in parallel, and each answers a ping before its first job.  A host that
fails to spawn or answer — or dies mid-job — is marked lost, its
sessions are reaped, and it sits out ``recheck_seconds`` before dispatch
tries it again.  Capacity shrinks accordingly, the engine's retry/backoff
policy re-routes the affected jobs, and the shared checkpoint journal
keeps the whole fan-out resumable from any surviving mix of backends.
"""

from __future__ import annotations

import select
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendConnectError, BackendError
from repro.experiments.engine.backends.base import (
    ExecutorBackend,
    Outcome,
    worker_reference,
)
from repro.experiments.engine.backends.hosts import HostSpec
from repro.experiments.engine.backends.stdio import (
    DEFAULT_PING_TIMEOUT,
    StdioHandle,
    StdioTransport,
    child_environment,
)
from repro.experiments.engine.job import Job, ResultSnapshot

#: how long a lost host sits out before dispatch re-probes it
DEFAULT_RECHECK_SECONDS = 30.0

#: the ``subprocess`` backend's host: this interpreter, launched directly
LOOPBACK_HOST = HostSpec("localhost", python=sys.executable)


class RemoteBackend(ExecutorBackend):
    """Stdio workers on the hosts of an inventory."""

    name = "remote"

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        connect_timeout: float = DEFAULT_PING_TIMEOUT,
        recheck_seconds: float = DEFAULT_RECHECK_SECONDS,
    ):
        if not hosts:
            raise BackendConnectError("remote backend needs at least one host")
        super().__init__(slots=sum(spec.capacity for spec in hosts))
        self.hosts: List[HostSpec] = sorted(hosts, key=lambda s: s.name)
        self.connect_timeout = connect_timeout
        self.recheck_seconds = recheck_seconds
        #: host name -> monotonic time until which it is considered lost
        self._lost_until: Dict[str, float] = {}
        self._transports: List[StdioTransport] = []
        self._worker_ref: Optional[str] = None
        self._extra_paths: List[str] = []
        #: the loopback host takes its capacity from bind's --jobs
        self._sized_at_bind = False

    @classmethod
    def loopback(cls, slots: Optional[int] = None) -> "RemoteBackend":
        """The ``subprocess`` backend: :data:`LOOPBACK_HOST` alone.

        Its capacity is *slots*, or the engine's ``--jobs`` at bind.  Its
        cooldown is zero: the loopback host is this machine, so waiting
        to respawn would only idle the sweep.
        """
        backend = cls([LOOPBACK_HOST], recheck_seconds=0.0)
        backend.name = "subprocess"
        backend.slots = None if slots is None else max(1, int(slots))
        backend._sized_at_bind = True
        return backend

    def bind(self, worker, emit, slots: int) -> None:
        super().bind(worker, emit, slots)
        if self._sized_at_bind:
            self.hosts = [replace(LOOPBACK_HOST, capacity=self.slots)]
        from repro.experiments.engine.worker import default_worker

        if worker is not default_worker:
            # fails fast (BackendError) for lambdas/closures a fresh
            # interpreter could never re-import
            self._worker_ref, extra = worker_reference(worker)
            self._extra_paths = [extra] if extra else []

    def _retire(self, transport: StdioTransport) -> None:
        transport.kill()
        if transport in self._transports:
            self._transports.remove(transport)

    # -- health ------------------------------------------------------------

    def _healthy(self, spec: HostSpec) -> bool:
        return self._lost_until.get(spec.name, 0.0) <= time.monotonic()

    def _mark_lost(self, spec: HostSpec, why: str) -> None:
        self._lost_until[spec.name] = time.monotonic() + self.recheck_seconds
        self._emit(
            "host-down",
            spec.name,
            reason=why,
            retry_in=round(self.recheck_seconds, 3),
        )
        # sessions on a lost host are dead weight; drop them all
        for transport in [
            t for t in self._transports if t.host == spec.name
        ]:
            self._retire(transport)

    def capacity(self) -> int:
        return sum(
            spec.capacity for spec in self.hosts if self._healthy(spec)
        )

    def describe(self) -> dict:
        now = time.monotonic()
        return {
            "backend": self.name,
            "slots": self.slots,
            "hosts": [
                dict(
                    spec.to_dict(),
                    healthy=self._lost_until.get(spec.name, 0.0) <= now,
                )
                for spec in self.hosts
            ],
        }

    # -- dispatch ----------------------------------------------------------

    def preferred_host(self, job: Job) -> Optional[HostSpec]:
        """The sticky choice: stable hash of the job key over all hosts.

        Computed over the full inventory (not just the currently-healthy
        subset) so a host's brief outage does not permanently reshuffle
        every other job's placement.
        """
        if not self.hosts:
            return None
        index = int(job.key(), 16) % len(self.hosts)
        return self.hosts[index]

    def _busy_count(self, name: str) -> int:
        return sum(
            1
            for t in self._transports
            if t.host == name and t.busy is not None
        )

    def _free_slots(self, spec: HostSpec) -> int:
        return spec.capacity - self._busy_count(spec.name)

    def _acquire(self, job: Job) -> StdioTransport:
        preferred = self.preferred_host(job)
        candidates = [
            spec
            for spec in self.hosts
            if self._healthy(spec) and self._free_slots(spec) > 0
        ]
        # preferred first; thereafter least-loaded steals, names breaking
        # ties so the order is deterministic
        candidates.sort(
            key=lambda spec: (
                spec is not preferred,
                -self._free_slots(spec),
                spec.name,
            )
        )
        if not candidates:
            raise BackendConnectError(
                "no healthy host with free capacity "
                f"({len(self.hosts)} in inventory)"
            )
        for spec in candidates:
            transport = self._session_for(spec)
            if transport is None:
                continue  # connect failed; host marked lost, try the next
            if preferred is not None and spec.name != preferred.name:
                self._emit(
                    "steal",
                    job.label,
                    **{"from": preferred.name, "to": spec.name},
                )
            return transport
        raise BackendConnectError(
            "every candidate host failed its connection health-check"
        )

    def _session_for(self, spec: HostSpec) -> Optional[StdioTransport]:
        idle = [
            t
            for t in self._transports
            if t.host == spec.name and t.busy is None and t.alive
        ]
        try:
            if not idle:
                # start every free slot at once, so the workers'
                # interpreters import in parallel rather than one ping
                # after another
                env = None
                if spec.is_local:
                    extra = list(self._extra_paths)
                    if spec.pythonpath:
                        extra.append(spec.pythonpath)
                    env = child_environment(extra)
                for _ in range(self._free_slots(spec)):
                    transport = StdioTransport(
                        spec.worker_argv(), env=env, host=spec.name
                    )
                    self._transports.append(transport)
                    idle.append(transport)
            if not idle[0].checked:
                idle[0].ping(self.connect_timeout)
        except BackendConnectError as error:
            # reaps every session on the host, the unhealthy one included
            self._mark_lost(spec, str(error))
            return None
        return idle[0]

    # -- protocol ----------------------------------------------------------

    def submit(
        self,
        job: Job,
        attempt: int,
        fault=None,
        heartbeat: Optional[float] = None,
    ) -> StdioHandle:
        from repro.service.protocol import submission_from_job

        transport = self._acquire(job)
        rid = transport.next_id()
        request = {
            "op": "run",
            "id": rid,
            "job": submission_from_job(job),
            "worker": self._worker_ref,
            "fault": fault.to_dict() if fault is not None else None,
            "heartbeat": heartbeat,
            "telemetry_dir": job.telemetry_dir,
            "artifact_dir": job.artifact_dir,
            "record_trace": job.record_trace,
        }
        try:
            transport.send(request)
        except BackendError:
            self._retire(transport)
            raise
        handle = StdioHandle(
            job=job,
            attempt=attempt,
            started=time.monotonic(),
            host=transport.host,
            request_id=rid,
            session=transport,
        )
        transport.busy = handle
        return handle

    def poll(
        self,
        handles: Sequence[StdioHandle],
        timeout: float,
        wake: Optional[int] = None,
    ) -> List[Tuple[StdioHandle, Outcome]]:
        readable = [
            handle.session.fileno()
            for handle in handles
            if handle.session is not None and handle.session.alive
        ]
        if wake is not None:
            readable.append(wake)
        if readable and timeout > 0:
            try:
                select.select(readable, [], [], timeout)
            except (OSError, ValueError):
                pass  # a raced-dead fd; the per-handle scan sorts it out
        elif not handles and timeout > 0:
            time.sleep(timeout)
        settled: List[Tuple[StdioHandle, Outcome]] = []
        for handle in handles:
            outcome = self._poll_one(handle)
            if outcome is not None:
                settled.append((handle, outcome))
        return settled

    def cancel(self, handle: StdioHandle) -> None:
        transport = handle.session
        if transport is None:
            return
        # the job runs *in* the worker process: killing the attempt is
        # killing the transport (a fresh one respawns for the next job)
        transport.busy = None
        handle.session = None
        self._retire(transport)

    def close(self) -> None:
        for transport in list(self._transports):
            transport.shutdown()
        self._transports.clear()

    # -- outcome decoding --------------------------------------------------

    def _poll_one(self, handle: StdioHandle) -> Optional[Outcome]:
        transport = handle.session
        if transport is None:
            return None
        messages, eof = transport.read_messages()
        outcome: Optional[Outcome] = None
        for message in messages:
            if message.get("id") != handle.request_id:
                continue  # a stale beat from a cancelled predecessor
            event = message.get("event")
            if event == "heartbeat":
                handle.last_beat = time.monotonic()
            elif event == "outcome" and outcome is None:
                outcome = self._decode_outcome(handle, message)
            elif event == "error" and outcome is None:
                outcome = (
                    "error",
                    {
                        "type": "BackendError",
                        "message": (
                            f"worker rejected request: "
                            f"{message.get('error')}"
                        ),
                        "transient": False,
                    },
                )
        if outcome is not None:
            transport.busy = None
            handle.session = None
            return outcome
        if eof or not transport.alive:
            exitcode = transport.process.poll()
            transport.busy = None
            handle.session = None
            self._retire(transport)
            return (
                "error",
                {
                    "type": "WorkerCrashError",
                    "message": (
                        "worker died without a result "
                        f"(exit code {exitcode})"
                    ),
                    "transient": True,
                },
            )
        return None

    @staticmethod
    def _decode_outcome(handle: StdioHandle, message: dict) -> Outcome:
        if message.get("status") == "ok":
            key = message.get("key")
            if key is not None and key != handle.job.key():
                return (
                    "error",
                    {
                        "type": "BackendError",
                        "message": (
                            f"identity skew: executing host computed job "
                            f"key {key} for {handle.job.label} (expected "
                            f"{handle.job.key()}); check that every host "
                            "runs the same repro version"
                        ),
                        "transient": False,
                    },
                )
            return ("ok", ResultSnapshot(message.get("metrics") or {}))
        error = message.get("error")
        if not isinstance(error, dict):
            error = {
                "type": "JobError",
                "message": f"malformed outcome: {message!r}",
                "transient": False,
            }
        return ("error", error)

    # -- fault delivery ----------------------------------------------------

    def lose_host(self, handle: StdioHandle) -> None:
        """A mid-job host death: kill the session *and* the host."""
        host = handle.host
        self.cancel(handle)
        for spec in self.hosts:
            if spec.name == host:
                self._mark_lost(spec, "lost mid-job")
                break
