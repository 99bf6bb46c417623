"""Line-delimited JSON transport to ``repro worker --serve-stdio``.

A :class:`StdioTransport` owns one persistent worker process, spawned
from a host's argv (plain ``python`` for the loopback host behind the
``subprocess`` backend, ``ssh host python`` for an inventory host), and
speaks the protocol documented in :mod:`repro.experiments.engine.worker`:

* requests down stdin: ``{"op": "run"|"ping"|"shutdown", "id": N, ...}``
* responses up stdout: ``{"id": N, "event":
  "heartbeat"|"outcome"|"pong"|...}``

Jobs cross the boundary as *submissions* (the service's wire format), so
the far side recomputes the content-hashed job key and the dispatching
backend (:mod:`repro.experiments.engine.backends.remote`) verifies it.
Worker callables cross as ``"module:qualname"`` references.

One job is in flight per transport at a time; EOF on the child's stdout
maps to the same ``WorkerCrashError`` a fork-pool worker death produces.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BackendConnectError
from repro.experiments.engine.backends.base import AttemptHandle

#: how long ``ping`` waits for ``pong`` before declaring a host unreachable
DEFAULT_PING_TIMEOUT = 10.0

_READ_CHUNK = 65536


def child_environment(extra_paths: Sequence[str] = ()) -> Dict[str, str]:
    """The spawned worker's environment: inherit, extend ``PYTHONPATH``.

    Prepends the parent's ``repro`` package root plus *extra_paths* (the
    worker module's root, for test-defined workers), so ``python -m
    repro`` and the worker reference both import in a fresh interpreter
    regardless of how the parent found them.
    """
    import repro

    env = dict(os.environ)
    roots: List[str] = []
    origin = getattr(repro, "__file__", None)
    if origin:
        roots.append(str(Path(origin).resolve().parent.parent))
    for path in extra_paths:
        if path and path not in roots:
            roots.append(str(path))
    existing = env.get("PYTHONPATH", "")
    for part in existing.split(os.pathsep):
        if part and part not in roots:
            roots.append(part)
    env["PYTHONPATH"] = os.pathsep.join(roots)
    return env


class StdioTransport:
    """One persistent worker process and its protocol state."""

    def __init__(
        self,
        argv: Sequence[str],
        env: Optional[Dict[str, str]] = None,
        host: Optional[str] = None,
    ):
        self.argv = list(argv)
        self.host = host
        self.busy: Optional[AttemptHandle] = None
        #: answered a health-check ping (required before its first job)
        self.checked = False
        self._buffer = b""
        self._next_id = 0
        try:
            self.process = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
                bufsize=0,
            )
        except OSError as error:
            raise BackendConnectError(
                f"cannot spawn worker {' '.join(self.argv)}: {error}"
            ) from error
        os.set_blocking(self.process.stdout.fileno(), False)

    # -- plumbing ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def fileno(self) -> int:
        return self.process.stdout.fileno()

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send(self, payload: dict) -> None:
        data = (
            json.dumps(payload, sort_keys=True, default=repr) + "\n"
        ).encode("utf-8")
        try:
            self.process.stdin.write(data)
            self.process.stdin.flush()
        except (OSError, ValueError) as error:
            raise BackendConnectError(
                f"worker pipe broken ({self.describe()}): {error}"
            ) from error

    def read_messages(self) -> Tuple[List[dict], bool]:
        """(complete protocol messages available now, saw-EOF flag)."""
        eof = False
        while True:
            try:
                chunk = os.read(self.fileno(), _READ_CHUNK)
            except BlockingIOError:
                break
            except (OSError, ValueError):
                eof = True
                break
            if not chunk:
                eof = True
                break
            self._buffer += chunk
        messages: List[dict] = []
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except ValueError:
                continue  # garbage on the protocol stream; skip the line
            if isinstance(parsed, dict):
                messages.append(parsed)
        return messages, eof

    def ping(self, timeout: float = DEFAULT_PING_TIMEOUT) -> dict:
        """Round-trip a health check; raises on an unresponsive worker."""
        rid = self.next_id()
        self.send({"op": "ping", "id": rid})
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BackendConnectError(
                    f"worker did not answer ping within {timeout:g}s "
                    f"({self.describe()})"
                )
            select.select([self.fileno()], [], [], remaining)
            messages, eof = self.read_messages()
            for message in messages:
                if message.get("event") == "pong" and message.get("id") == rid:
                    self.checked = True
                    return message
            if eof:
                raise BackendConnectError(
                    f"worker exited during health check ({self.describe()})"
                )

    def shutdown(self) -> None:
        """Best-effort polite stop, then kill."""
        try:
            self.send({"op": "shutdown", "id": self.next_id()})
            self.process.wait(1.0)
        except Exception:
            pass
        self.kill()

    def kill(self) -> None:
        try:
            if self.alive:
                self.process.terminate()
                try:
                    self.process.wait(0.5)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(5)
        except (OSError, ValueError):
            pass
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except Exception:
                pass

    def describe(self) -> str:
        where = f" on {self.host}" if self.host else ""
        return f"pid {self.process.pid}{where}"


@dataclass
class StdioHandle(AttemptHandle):
    """An attempt in flight on one stdio transport."""

    request_id: int = 0
    session: StdioTransport = field(default=None, repr=False)
