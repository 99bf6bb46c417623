"""Pluggable executor backends: where sweep jobs physically run.

The engine's scheduling policy is backend-independent; these modules
supply the transport:

* :class:`LocalBackend` — forked worker processes on this machine (the
  default; bit-identical to the pre-backend engine);
* :class:`RemoteBackend` — persistent ``repro worker --serve-stdio``
  interpreters over pipes, with health-checked sticky work-stealing
  dispatch.  Under the name ``remote`` it drives the hosts of a
  ``--hosts`` TOML/JSON inventory; under ``subprocess`` it drives one
  built-in loopback host on this machine, sized by ``--jobs``.

All backends feed one shared CRC checkpoint journal, so the
content-hashed job key dedups across machines and a killed fan-out
resumes from any backend mix.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import UsageError
from repro.experiments.engine.backends.base import (
    AttemptHandle,
    ExecutorBackend,
    resolve_worker,
    worker_reference,
)
from repro.experiments.engine.backends.hosts import (
    HostSpec,
    hosts_from_dict,
    load_hosts,
)
from repro.experiments.engine.backends.local import LocalBackend
from repro.experiments.engine.backends.remote import RemoteBackend
from repro.experiments.engine.backends.stdio import StdioTransport

#: registry of backend names (the ``--backend`` vocabulary)
BACKEND_NAMES = ("local", "subprocess", "remote")


def create_backend(
    name: str,
    slots: Optional[int] = None,
    hosts: Union[None, str, Sequence[HostSpec]] = None,
) -> ExecutorBackend:
    """Build a backend by registry name.

    *hosts* is required for ``remote``: an inventory file path or a
    pre-parsed list of :class:`HostSpec`.  *slots* defaults to the
    engine's ``--jobs`` at bind time (remote capacity always comes from
    the inventory instead); for ``subprocess`` it is the loopback host's
    capacity.
    """
    if name == "local":
        if hosts:
            raise UsageError("--hosts only applies to --backend remote")
        return LocalBackend(slots=slots)
    if name == "subprocess":
        if hosts:
            raise UsageError("--hosts only applies to --backend remote")
        return RemoteBackend.loopback(slots)
    if name == "remote":
        if not hosts:
            raise UsageError(
                "--backend remote needs --hosts FILE (a TOML/JSON host "
                "inventory)"
            )
        specs = (
            load_hosts(hosts) if isinstance(hosts, (str, Path)) else hosts
        )
        return RemoteBackend(list(specs))
    raise UsageError(
        f"unknown backend {name!r}; valid backends: "
        f"{', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "AttemptHandle",
    "BACKEND_NAMES",
    "ExecutorBackend",
    "HostSpec",
    "LocalBackend",
    "RemoteBackend",
    "StdioTransport",
    "create_backend",
    "hosts_from_dict",
    "load_hosts",
    "resolve_worker",
    "worker_reference",
]
