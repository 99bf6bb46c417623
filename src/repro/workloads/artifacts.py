"""Artifact store: record a workload's trace once, replay it exactly.

A sweep meets one (benchmark, input set) trace under many mechanisms,
and one ECDP profile in every hinted cell, yet each worker process used
to build the workload, generate its trace and run the profiler again.
An :class:`ArtifactStore` is a directory of content-addressed files that
lets the first worker do that work and every later one reuse it.  A
store records every trace it misses unless it is opened with
``record=False``; the execution engine opens it so in a worker whose
trace no other job of its pass shares (``Job.record_trace``).

A trace artifact cannot be a bare list of ``MemOp``\\ s: generators write
the simulated memory that CDP scans while they trace (omnetpp, bisort,
health, ...), so materializing first changes what CDP finds.  The
artifact therefore holds three things:

* the memory image as it stands when the trace starts;
* the ops;
* every :meth:`SimulatedMemory.write_word` the generator made, tagged
  with the index of the next op it yielded.

Replay restores the image and applies each op's writes before yielding
that op, so at every ``next()`` memory holds exactly what live
generation would hold — including the op a suspended multicore core has
already pulled.  Writes after the last op are applied before the trace
ends.

Layout of ``<store>/<benchmark>.<input set>.<key>.trace``, little-endian::

    MAGIC  u32 header length  header JSON
    image: (u32 address, u32 value) * header["image_words"]
    blocks: u32 n_writes  u32 n_ops  (u32 address, u32 value) * n_writes
            (u32 pc, u32 addr, bool is_load, u32 work, i32 dep) * n_ops
    end block: u32 n_writes  u32 0xFFFFFFFF  (u32 address, u32 value) * n_writes
    u32 CRC-32 of everything above

A block's writes are applied before its first op.  A profile is
``<benchmark>.<input set>.<key>.profile``: the same framing, with the
pointer-group rows in the header and no body.

Keys hash the benchmark, the input set and a fingerprint of every
source the artifact depends on (profiles add the profiler's shape and
sources), so no artifact outlives the code that wrote it.  Files are
written under a temporary name and renamed into place.  A missing, short
or mismatched file is a miss and is recorded again; a write that fails
leaves the run live and no partial file behind.  :meth:`ArtifactStore.prune`
removes stale traces and the temporary files of killed recorders.

Hashes are BLAKE2b and checksums CRC-32, not OpenSSL's sha256: the first
OpenSSL digest in a freshly forked worker costs about 0.8 MB of resident
memory, and sweep workers are forked per job.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import struct
import sys
import zlib
from pathlib import Path
from typing import List, Optional, Tuple

from repro.compiler.pointer_group import PointerGroupProfile
from repro.core.instruction import MemOp, PcAllocator
from repro.memory.address import ADDRESS_MASK
from repro.memory.backing import SimulatedMemory
from repro.workloads.base import WorkloadInstance
from repro.workloads.registry import get_workload

#: bump when the file layout changes (it is part of every key)
FORMAT = 1
MAGIC = b"REPROART"

#: sources a trace depends on, relative to the package root
TRACE_SOURCES = ("workloads", "structures", "memory", "core/instruction.py")
#: a profile also depends on the profiler and its functional cache
PROFILE_SOURCES = TRACE_SOURCES + ("compiler", "cache")

_LENGTH = struct.Struct("<I")
_WORD = struct.Struct("<II")  # (address, value): image words and writes
_BLOCK = struct.Struct("<II")  # (n_writes, n_ops)
_OP = struct.Struct("<II?Ii")  # MemOp fields in order
_END = 0xFFFFFFFF
_CHECKSUM = struct.Struct("<I")  # CRC-32 trailer
#: a block ends after this many ops even when no write splits it
_BLOCK_OPS = 1024
#: files are written and read in pieces of about this size
_CHUNK_BYTES = 1 << 16
_CHUNK_WORDS = _CHUNK_BYTES // _WORD.size

_PACKAGE = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def source_fingerprint(parts: Tuple[str, ...]) -> str:
    """A hash of the named package sources (computed once per process)."""
    digest = hashlib.blake2b(digest_size=32)
    for part in parts:
        root = _PACKAGE / part
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            digest.update(path.relative_to(_PACKAGE).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def warm_keys() -> None:
    """Hash the sources now, so that processes forked later inherit it."""
    source_fingerprint(TRACE_SOURCES)
    source_fingerprint(PROFILE_SOURCES)


def _key(*fields) -> str:
    payload = json.dumps([FORMAT, *fields], sort_keys=True)
    return hashlib.blake2b(payload.encode(), digest_size=32).hexdigest()


def trace_key(benchmark: str, input_set: str) -> str:
    return _key("trace", benchmark, input_set, source_fingerprint(TRACE_SOURCES))


def profile_key(benchmark: str, input_set: str, shape) -> str:
    """Key of a profile; *shape* is the profiler's config dataclass."""
    return _key(
        "profile", benchmark, input_set, dataclasses.asdict(shape),
        source_fingerprint(PROFILE_SOURCES),
    )


def _u32(values) -> array.array:
    """*values* as little-endian u32s, in an array that writes as bytes."""
    out = array.array("I", values)
    if sys.byteorder == "big":
        out.byteswap()
    return out


class _Sink:
    """A temporary file that becomes *path* only once it is complete."""

    def __init__(self, path: Path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique per writer, so concurrent recorders of one key never mix
        self._tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        )
        self._file = open(self._tmp, "xb")
        self._path = path
        self._crc = 0
        text = json.dumps(header, sort_keys=True).encode()
        try:
            self.write(MAGIC + _LENGTH.pack(len(text)) + text)
        except OSError:
            self.discard()
            raise

    def write(self, data: bytes) -> None:
        self._file.write(data)
        self._crc = zlib.crc32(data, self._crc)

    def commit(self) -> None:
        """Rename into place; on failure the temporary file is removed."""
        try:
            self._file.write(_CHECKSUM.pack(self._crc))
            self._file.close()
            os.replace(self._tmp, self._path)
        except OSError:
            self.discard()

    def discard(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass


def _open_verified(path: Path, key: str):
    """(file, header, crc): *path* opened just past a header for *key*.

    The CRC covers what was read so far; finish it with
    :func:`_check_trailer` before trusting anything.  Raises on a
    missing file, a bad magic or a header for another key.
    """
    file = open(path, "rb")
    try:
        prefix = file.read(len(MAGIC) + _LENGTH.size)
        if len(prefix) != len(MAGIC) + _LENGTH.size or not prefix.startswith(MAGIC):
            raise ValueError("not an artifact")
        (length,) = _LENGTH.unpack(prefix[len(MAGIC):])
        text = file.read(length)
        if len(text) != length:
            raise ValueError("short header")
        header = json.loads(text)
        if header["key"] != key:
            raise ValueError("header names another key")
        return file, header, zlib.crc32(prefix + text)
    except BaseException:
        file.close()
        raise


def _check_trailer(file, crc: int) -> None:
    """Checksum the rest of *file* and compare with its trailer."""
    end = os.fstat(file.fileno()).st_size - _CHECKSUM.size
    while file.tell() < end:
        chunk = file.read(min(_CHUNK_BYTES, end - file.tell()))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
    if file.tell() != end or file.read() != _CHECKSUM.pack(crc):
        raise ValueError("checksum mismatch")


def _replay_blocks(path: Path, offset: int, memory: SimulatedMemory):
    """Per block: apply its writes, then hand over its ops (lazily)."""
    with open(path, "rb") as file:
        file.seek(offset)
        read = file.read
        while True:
            n_writes, n_ops = _BLOCK.unpack(read(_BLOCK.size))
            if n_writes:
                memory.update_words(_WORD.iter_unpack(read(n_writes * _WORD.size)))
            if n_ops == _END:
                return
            yield itertools.starmap(MemOp, _OP.iter_unpack(read(n_ops * _OP.size)))


class _Recorder:
    """Encodes a live trace's ops and memory writes into a :class:`_Sink`.

    Writes the memory image first, then shadows ``memory.write_word`` so
    every write the generator makes is logged until :meth:`close`.  The
    open block's ops collect in :attr:`ops` (at most :data:`_BLOCK_OPS`);
    :meth:`next_block` encodes them and opens the next block with the
    writes logged since.
    """

    def __init__(self, memory: SimulatedMemory, sink: _Sink):
        self.memory = memory
        self.sink: Optional[_Sink] = sink
        self.log: List[int] = []  # flattened writes since the last op
        self.ops: List[MemOp] = []  # the open block's ops
        self._head = _u32(())  # the open block's writes
        self._buffer = bytearray()  # encoded blocks not yet written
        words = memory.iter_words()
        while self.sink is not None:
            chunk = _u32(itertools.chain.from_iterable(
                itertools.islice(words, _CHUNK_WORDS)
            ))
            if not chunk:
                break
            self._write(chunk)
        if self.sink is not None:
            log = self.log
            write = memory.write_word

            def logged_write(addr: int, value: int) -> None:
                write(addr, value)
                log.extend((addr & ~3, value & ADDRESS_MASK))  # as stored

            # an instance attribute shadows the method for every caller
            memory.write_word = logged_write

    def next_block(self) -> None:
        """Close the open block; the writes logged since open the next."""
        if self.ops:
            self._buffer += _BLOCK.pack(len(self._head) // 2, len(self.ops))
            self._buffer += self._head
            self._buffer += b"".join(itertools.starmap(_OP.pack, self.ops))
            self.ops.clear()
        self._head = _u32(self.log)
        self.log.clear()
        if len(self._buffer) >= _CHUNK_BYTES:
            self._flush()

    def commit(self) -> None:
        self.next_block()
        self._buffer += _BLOCK.pack(len(self._head) // 2, _END)
        self._buffer += self._head
        self._flush()
        if self.sink is not None:
            self.sink.commit()
            self.sink = None

    def close(self) -> None:
        """Unhook memory; drop the file unless it was committed."""
        self.memory.__dict__.pop("write_word", None)
        if self.sink is not None:
            self.sink.discard()
            self.sink = None

    def _flush(self) -> None:
        if self.sink is not None:
            self._write(self._buffer)
        self._buffer.clear()

    def _write(self, data) -> None:
        try:
            self.sink.write(data)
        except OSError:  # disk full, store removed: finish the run live
            self.close()


class ArtifactStore:
    """Trace and profile artifacts in one directory, keyed by content.

    The store replays every trace it holds.  With *record* False it also
    records none: a worker whose trace no other job shares gains nothing
    from paying for the recording.
    """

    def __init__(self, directory, record: bool = True):
        self.directory = Path(directory)
        self.record = record

    def _path(self, benchmark: str, input_set: str, key: str, kind: str) -> Path:
        return self.directory / f"{benchmark}.{input_set}.{key[:16]}.{kind}"

    def prune(self) -> None:
        """Delete what no run of the current sources can read.

        That is temporary files left by recorders that were killed before
        they could clean up, and traces under a key the current sources
        no longer produce.  Call it only while nothing records into the
        store.  Profiles (under 1 KB each) are kept.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            parts = name.split(".")
            if len(parts) == 4 and parts[3] == "trace":
                stale = trace_key(parts[0], parts[1])[:16] != parts[2]
            else:
                stale = name.startswith(".") and name.endswith(".tmp")
            if stale:
                try:
                    os.unlink(self.directory / name)
                except OSError:
                    pass

    # -- traces ------------------------------------------------------------

    def instance(
        self, benchmark: str, input_set: str, record: bool = True
    ) -> WorkloadInstance:
        """A replayed instance if the store holds the trace, else a live one.

        Unless *record* or the store's own ``record`` is False, a live
        instance records its trace as it is consumed and stores it once
        the trace is exhausted.
        """
        workload = get_workload(benchmark)
        key = trace_key(benchmark, input_set)
        path = self._path(benchmark, input_set, key, "trace")
        replayed = self._load_trace(path, key)
        if replayed is not None:
            return replayed
        live = workload.build(input_set)
        if not (record and self.record):
            return live
        header = {"key": key, "benchmark": benchmark, "input_set": input_set}
        return dataclasses.replace(
            live, _trace_factory=lambda: self._record(live, path, header)
        )

    def _record(self, live: WorkloadInstance, path: Path, header: dict):
        """The live trace, recorded into *path* as it is consumed."""
        header.update(
            lds_pcs=sorted(live.lds_pcs),
            pcs=live.pcs.names(),
            image_words=len(live.memory),
        )
        try:
            sink = _Sink(path, header)
        except OSError:  # unwritable store: run live
            yield from live._trace_factory()
            return
        recorder = _Recorder(live.memory, sink)
        log, ops, limit = recorder.log, recorder.ops, _BLOCK_OPS
        append = ops.append
        try:
            for op in live._trace_factory():
                if log or len(ops) == limit:
                    recorder.next_block()
                append(op)
                yield op
            recorder.commit()
        finally:
            recorder.close()

    def _load_trace(self, path: Path, key: str) -> Optional[WorkloadInstance]:
        try:
            file, header, crc = _open_verified(path, key)
        except Exception:  # missing or unreadable: a miss
            return None
        with file:
            try:
                memory = SimulatedMemory()
                remaining = header["image_words"] * _WORD.size
                while remaining > 0:
                    chunk = file.read(min(remaining, _CHUNK_BYTES))
                    if not chunk or len(chunk) % _WORD.size:
                        raise ValueError("short image")
                    crc = zlib.crc32(chunk, crc)
                    memory.update_words(_WORD.iter_unpack(chunk))
                    remaining -= len(chunk)
                offset = file.tell()
                _check_trailer(file, crc)
                pcs = PcAllocator()
                for name in header["pcs"]:
                    pcs.pc(name)
                lds_pcs = set(header["lds_pcs"])
            except Exception:  # short, corrupt or foreign: a miss
                return None
        return WorkloadInstance(
            header["benchmark"], header["input_set"], memory, pcs, lds_pcs,
            lambda: itertools.chain.from_iterable(
                _replay_blocks(path, offset, memory)
            ),
        )

    # -- profiles ----------------------------------------------------------

    def load_profile(
        self, benchmark: str, input_set: str, shape
    ) -> Optional[PointerGroupProfile]:
        """The stored profile, or None (missing or bad: a miss)."""
        key = profile_key(benchmark, input_set, shape)
        try:
            file, header, crc = _open_verified(
                self._path(benchmark, input_set, key, "profile"), key
            )
        except Exception:
            return None
        with file:
            try:
                _check_trailer(file, crc)
                return PointerGroupProfile.from_rows(header["rows"])
            except Exception:
                return None

    def save_profile(
        self, benchmark: str, input_set: str, shape, profile: PointerGroupProfile
    ) -> None:
        key = profile_key(benchmark, input_set, shape)
        header = {"key": key, "rows": profile.to_rows()}
        try:
            sink = _Sink(self._path(benchmark, input_set, key, "profile"), header)
        except OSError:
            return
        sink.commit()
