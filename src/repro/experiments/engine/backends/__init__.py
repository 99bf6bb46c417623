"""Pluggable executor backends: where sweep jobs physically run.

The engine's scheduling policy is backend-independent; these modules
supply the transport:

* :class:`LocalBackend` — forked worker processes on this machine (the
  default; bit-identical to the pre-backend engine);
* :class:`SubprocessBackend` — persistent ``repro worker --serve-stdio``
  interpreters on this machine over pipes, ``--jobs`` of them, each
  health-checked before its first job.

Both backends feed one shared CRC checkpoint journal, so the
content-hashed job key dedups across them and a killed sweep resumes on
either.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import UsageError
from repro.experiments.engine.backends.base import (
    AttemptHandle,
    ExecutorBackend,
    resolve_worker,
    worker_reference,
)
from repro.experiments.engine.backends.local import LocalBackend
from repro.experiments.engine.backends.stdio import (
    StdioTransport,
    SubprocessBackend,
)

#: registry of backend names (the ``--backend`` vocabulary)
BACKEND_NAMES = ("local", "subprocess")


def create_backend(name: str, slots: Optional[int] = None) -> ExecutorBackend:
    """Build a backend by registry name.

    *slots* defaults to the engine's ``--jobs`` at bind time.
    """
    if name == "local":
        return LocalBackend(slots=slots)
    if name == "subprocess":
        return SubprocessBackend(slots=slots)
    raise UsageError(
        f"unknown backend {name!r}; valid backends: "
        f"{', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "AttemptHandle",
    "BACKEND_NAMES",
    "ExecutorBackend",
    "LocalBackend",
    "StdioTransport",
    "SubprocessBackend",
    "create_backend",
    "resolve_worker",
    "worker_reference",
]
