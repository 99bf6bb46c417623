"""Host inventory for the remote backend: ``--hosts FILE`` parsing.

An inventory maps host names to connection specs.  TOML (Python 3.11+,
via stdlib ``tomllib``) or JSON — same schema::

    # sweep-hosts.toml
    [hosts.node1]
    capacity = 8                     # concurrent jobs (default 1)
    tags = ["fast", "numa"]          # free-form labels for reports
    # command = "ssh node1"          # transport argv (default: ssh <name>)
    # python = "python3"             # remote interpreter (default python3)

    [hosts.node2]
    capacity = 4

    // sweep-hosts.json
    {"hosts": {"node1": {"capacity": 8}, "node2": {"capacity": 4}}}

``command`` may be a string (shlex-split) or an argv list; an *empty*
command runs the worker directly on this machine — the loopback form of
the ``subprocess`` backend's built-in host, which the test suite also
uses to exercise multi-host dispatch without ssh.  The final worker argv
is ``<command> <python> -m repro worker --serve-stdio``.
"""

from __future__ import annotations

import json
import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import HostsFileError

PathLike = Union[str, Path]

_HOST_FIELDS = frozenset(
    {"command", "python", "capacity", "tags", "pythonpath"}
)


@dataclass(frozen=True)
class HostSpec:
    """One remote host: how to reach it and how much it can run."""

    name: str
    #: transport argv prefix ("ssh <name>" by default; () = run locally)
    command: Tuple[str, ...] = ()
    #: interpreter to exec on the far side
    python: str = "python3"
    #: concurrent jobs this host takes
    capacity: int = 1
    #: free-form labels surfaced in describe()/reports
    tags: Tuple[str, ...] = ()
    #: optional PYTHONPATH exported to the remote worker (loopback tests
    #: point it at this checkout; clusters usually install repro instead)
    pythonpath: Optional[str] = None

    def worker_argv(self) -> List[str]:
        """The full argv that starts a stdio worker on this host."""
        argv = list(self.command)
        if self.pythonpath:
            if argv:  # remote: export through the login shell's env
                argv += ["env", f"PYTHONPATH={self.pythonpath}"]
            # local loopback handles PYTHONPATH via the spawn environment
        argv += [self.python, "-m", "repro", "worker", "--serve-stdio"]
        return argv

    @property
    def is_local(self) -> bool:
        return not self.command

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "tags": list(self.tags),
            "command": list(self.command) or None,
        }


def _host_from_entry(name: str, entry: object) -> HostSpec:
    if not name:
        # the default command would be a bare `ssh`, which takes the
        # interpreter for the host name
        raise HostsFileError("host names must be non-empty")
    if not isinstance(entry, dict):
        raise HostsFileError(
            f"host {name!r}: spec must be an object, got {entry!r}"
        )
    unknown = set(entry) - _HOST_FIELDS
    if unknown:
        raise HostsFileError(
            f"host {name!r}: unknown field(s) "
            f"{', '.join(sorted(unknown))}; "
            f"valid fields: {', '.join(sorted(_HOST_FIELDS))}"
        )
    command = entry.get("command", ("ssh", name))
    if isinstance(command, str):
        try:
            argv = tuple(shlex.split(command))
        except ValueError as error:  # e.g. an unclosed quote
            raise HostsFileError(
                f"host {name!r}: command {command!r}: {error}"
            ) from error
    elif isinstance(command, (list, tuple)) and all(
        isinstance(part, str) for part in command
    ):
        argv = tuple(command)
    else:
        raise HostsFileError(
            f"host {name!r}: command must be a string or list of strings"
        )
    capacity = entry.get("capacity", 1)
    if not isinstance(capacity, int) or isinstance(capacity, bool) \
            or capacity < 1:
        raise HostsFileError(
            f"host {name!r}: capacity must be a positive integer, "
            f"got {capacity!r}"
        )
    tags = entry.get("tags", ())
    if not isinstance(tags, (list, tuple)) or not all(
        isinstance(tag, str) for tag in tags
    ):
        raise HostsFileError(
            f"host {name!r}: tags must be a list of strings"
        )
    python = entry.get("python", "python3")
    if not isinstance(python, str) or not python:
        raise HostsFileError(
            f"host {name!r}: python must be a non-empty string"
        )
    pythonpath = entry.get("pythonpath")
    if pythonpath is not None and not isinstance(pythonpath, str):
        raise HostsFileError(
            f"host {name!r}: pythonpath must be a string"
        )
    return HostSpec(
        name=name,
        command=argv,
        python=python,
        capacity=capacity,
        tags=tuple(tags),
        pythonpath=pythonpath,
    )


def hosts_from_dict(payload: object) -> List[HostSpec]:
    """Parse an already-decoded inventory mapping."""
    if not isinstance(payload, dict) or "hosts" not in payload:
        raise HostsFileError(
            'hosts inventory must be {"hosts": {<name>: {...}, ...}}'
        )
    hosts = payload["hosts"]
    if not isinstance(hosts, dict) or not hosts:
        raise HostsFileError(
            '"hosts" must be a non-empty mapping of host name -> spec'
        )
    specs = [
        _host_from_entry(str(name), entry) for name, entry in hosts.items()
    ]
    # deterministic dispatch wants a stable order whatever the file said
    return sorted(specs, key=lambda spec: spec.name)


def load_hosts(path: PathLike) -> List[HostSpec]:
    """Load a TOML or JSON ``--hosts`` inventory file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise HostsFileError(
            f"cannot read hosts file {path}: {error}"
        ) from error
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as error:  # Python < 3.11
            raise HostsFileError(
                f"{path}: TOML hosts files need Python 3.11+ (no tomllib "
                "on this interpreter); use the JSON form instead"
            ) from error
        try:
            payload = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as error:
            raise HostsFileError(
                f"{path}: not valid TOML: {error}"
            ) from error
    else:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise HostsFileError(
                f"{path}: not valid JSON: {error} (TOML inventories "
                "need a .toml suffix)"
            ) from error
    return hosts_from_dict(payload)
