"""The remote backend: sweep fan-out across a host inventory.

Each host in the ``--hosts`` inventory runs ``repro worker
--serve-stdio`` under its transport command (ssh by default), speaking
the same protocol as the subprocess backend — one persistent worker
session per occupied slot, up to the host's ``capacity``.

Dispatch is *sticky with work-stealing*: a job's content-hashed key
picks a preferred host (stable across runs and host-list orderings), so
repeated sweeps land cells on the same machines — warm page caches, warm
trace files.  When the preferred host is full or unhealthy, the least
loaded healthy host steals the job (emitting a ``steal`` engine event),
so stickiness never idles capacity.

Health is observed, not assumed: every new session is ping-checked
before it takes a job; a host that fails to connect — or dies mid-job —
is marked lost and sits out ``recheck_seconds`` before dispatch tries it
again.  Capacity shrinks accordingly, the engine's retry/backoff policy
re-routes the affected jobs, and the shared checkpoint journal keeps the
whole fan-out resumable from any surviving mix of backends.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.errors import BackendConnectError
from repro.experiments.engine.backends.hosts import HostSpec
from repro.experiments.engine.backends.stdio import (
    DEFAULT_PING_TIMEOUT,
    StdioHandle,
    StdioPoolBackend,
    StdioTransport,
    child_environment,
)
from repro.experiments.engine.job import Job

#: how long a lost host sits out before dispatch re-probes it
DEFAULT_RECHECK_SECONDS = 30.0


class RemoteBackend(StdioPoolBackend):
    """Stdio workers on other machines, from a host inventory."""

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
        for transport in self._transports:
            if (
                transport.host == spec.name
                and transport.busy is None
                and transport.alive
            ):
                return transport
        env = None
        if spec.is_local:
            extra = list(self._extra_paths)
            if spec.pythonpath:
                extra.append(spec.pythonpath)
            env = child_environment(extra)
        transport = None
        try:
            transport = StdioTransport(
                spec.worker_argv(), env=env, host=spec.name
            )
            transport.ping(self.connect_timeout)
        except BackendConnectError as error:
            if transport is not None:
                transport.kill()  # spawned but unhealthy: reap it
            self._mark_lost(spec, str(error))
            return None
        self._transports.append(transport)
        return transport

    # -- fault delivery ----------------------------------------------------

    def lose_host(self, handle: StdioHandle) -> None:
        """A mid-job host death: kill the session *and* the host."""
        host = handle.host
        super().cancel(handle)
        for spec in self.hosts:
            if spec.name == host:
                self._mark_lost(spec, "lost mid-job")
                break
