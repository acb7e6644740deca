"""Append-only file: persistence log and, under GDPR, the audit trail.

Redis' AOF records every state-changing command; replaying the file
rebuilds the dataset.  The paper (Section 5.1) determines that piggybacking
the GDPR audit trail on the AOF has the least overhead, but has to extend
it to log *reads and scans* too — which is exactly the switch
``log_reads`` on :class:`AOFWriter`.

Entries use a length-prefixed, escape-free text framing (a simplified RESP):

    *<nargs>\\n$<len>\\n<arg bytes>\\n...$<len>\\n<arg bytes>\\n

Fsync policy mirrors ``appendfsync``: ``always`` flushes per command,
``everysec`` flushes when the engine clock crosses a 1-second boundary
(the default, and what the paper benchmarks), ``no`` leaves flushing to
the OS (here: file close).

Group commit: with ``batch_size > 1`` the ``always`` policy amortises the
fsync over a batch — entries buffer until ``batch_size`` of them are
pending, or until an append observes the 1-second clock boundary, then
hit the disk under one flush+fsync.  The :meth:`AOFWriter.batch` context
manager gives the engine's pipeline the same amortisation for an
explicit command batch: appends inside the block buffer unconditionally
and a single policy decision runs at block exit.  Framing is unchanged,
so replay and torn-write (``aof-load-truncated``) semantics are exactly
the per-append ones; the durability window widens from one entry to one
batch.  Like ``everysec`` (which has always worked this way here), the
policy is append-driven — there is no background flusher, so a partial
batch written by a client that then goes idle stays buffered until the
next append, an explicit :meth:`flush`, or :meth:`close`.  Choose
``batch_size=1`` (the default) when per-command durability matters.
"""

from __future__ import annotations

import io
import os
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.common.clock import Clock, SystemClock
from repro.common.errors import AOFCorruptError, ConfigurationError

FSYNC_POLICIES = ("always", "everysec", "no")

#: Commands that mutate the keyspace and are always logged + replayed.
MUTATING_COMMANDS = frozenset(
    {
        "SET", "DEL", "EXPIRE", "EXPIREAT", "PERSIST",
        "HSET", "HDEL", "HMSET",
        "SADD", "SREM",
        "FLUSHALL",
    }
)


#: arity -> the framing of an entry with that many arguments, as one
#: ``bytes %`` template.  Only small arities are kept: commands carry a
#: handful of fields, while an SMEMBERS audit entry can carry a whole set.
_TEMPLATES: dict[int, bytes] = {}
_MAX_TEMPLATE_ARITY = 64


def encode_entry(args: Iterable[bytes]) -> bytes:
    """Serialise one command into the AOF framing.

    One ``bytes %`` formats the whole entry, so the cost is per byte of
    the entry rather than per Python call per argument.
    """
    parts = list(args)
    n = len(parts)
    template = _TEMPLATES.get(n)
    if template is None:
        template = b"*%d\n" % n + b"$%d\n%b\n" * n
        if n <= _MAX_TEMPLATE_ARITY:
            _TEMPLATES[n] = template
    values = [None] * (2 * n)
    values[::2] = map(len, parts)
    values[1::2] = parts
    return template % tuple(values)


def decode_entries(data: bytes) -> Iterator[list[bytes]]:
    """Parse the AOF back into commands; raises on a malformed prefix.

    A *trailing* partial entry (torn final write after a crash) is ignored,
    matching Redis' ``aof-load-truncated yes`` behaviour.
    """
    pos = 0
    n = len(data)
    while pos < n:
        start = pos
        try:
            if data[pos:pos + 1] != b"*":
                raise AOFCorruptError(f"expected '*' at offset {pos}")
            eol = data.index(b"\n", pos)
            nargs = int(data[pos + 1:eol])
            pos = eol + 1
            args: list[bytes] = []
            for _ in range(nargs):
                if pos == n:
                    raise IndexError  # torn between two arguments
                if data[pos:pos + 1] != b"$":
                    raise AOFCorruptError(f"expected '$' at offset {pos}")
                eol = data.index(b"\n", pos)
                length = int(data[pos + 1:eol])
                pos = eol + 1
                if pos + length + 1 > n:
                    raise IndexError  # torn write
                args.append(data[pos:pos + length])
                pos += length
                if data[pos:pos + 1] != b"\n":
                    raise AOFCorruptError(f"missing terminator at offset {pos}")
                pos += 1
            yield args
        except (ValueError, IndexError):
            # Torn trailing entry (crash mid-append): stop replay here,
            # matching Redis' aof-load-truncated behaviour.  ``start`` marks
            # where the torn entry began for diagnostics.
            del start
            return


class AOFWriter:
    """Buffered append-only log with configurable fsync policy.

    With a ``cipher`` (the LUKS analogue), every byte is encrypted at its
    absolute file offset before it is buffered — the at-rest boundary a
    dm-crypt block device provides.  Reads of the file must decrypt from
    offset 0 (see :func:`load_aof`).
    """

    def __init__(
        self,
        path: str,
        fsync: str = "everysec",
        log_reads: bool = False,
        clock: Clock | None = None,
        cipher=None,
        batch_size: int = 1,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(f"unknown fsync policy {fsync!r}")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self.path = path
        self.fsync = fsync
        self.log_reads = log_reads
        self.batch_size = batch_size
        self._clock = clock or SystemClock()
        self._file = open(path, "ab")
        self._buffer = io.BytesIO()
        self._last_flush = self._clock.now()
        self._entries_logged = 0
        self._cipher = cipher
        self._offset = self._file.tell()  # absolute cipher offset
        # Stripes append concurrently; the RLock lets the fsync policy
        # call flush() while an append already holds it.
        self._lock = threading.RLock()
        self._pending = 0               # entries buffered since last flush
        # batch() depth is per-thread: a pipeline's group commit defers
        # only its own flush decision, it must not block (or change the
        # policy of) appends arriving from other stripes' threads.
        self._batch = threading.local()

    @property
    def entries_logged(self) -> int:
        return self._entries_logged

    def should_log(self, command: str) -> bool:
        """Mutations always; reads/scans only when auditing is on."""
        if command in MUTATING_COMMANDS:
            return True
        return self.log_reads

    def _batch_depth(self) -> int:
        return getattr(self._batch, "depth", 0)

    def append(self, args: Iterable[bytes]) -> None:
        with self._lock:
            data = encode_entry(args)
            if self._cipher is not None:
                data = self._cipher.apply(data, self._offset)
            self._offset += len(data)
            self._buffer.write(data)
            self._entries_logged += 1
            self._pending += 1
            if self._batch_depth() == 0:
                self._apply_fsync_policy()

    def append_many(self, entries: Iterable[Iterable[bytes]]) -> None:
        """Group-commit a batch: buffer every entry, one policy decision."""
        with self.batch():
            for args in entries:
                self.append(args)

    @contextmanager
    def batch(self):
        """Defer this thread's flush/fsync decisions to the end of the block.

        Appends from the block only buffer; one fsync-policy application
        runs at exit, so a pipeline of N commands pays at most one fsync.
        The writer lock is held per append, not across the block — other
        threads' appends proceed (and flush) normally in between.
        """
        self._batch.depth = self._batch_depth() + 1
        try:
            yield self
        finally:
            self._batch.depth -= 1
            if self._batch.depth == 0:
                with self._lock:
                    self._apply_fsync_policy(batch_boundary=True)

    def _apply_fsync_policy(self, batch_boundary: bool = False) -> None:
        if self.fsync == "always":
            # Group commit: wait for a full batch unless this *is* the
            # batch boundary; an append past the 1s clock boundary also
            # flushes (append-driven — idle buffers flush only on close).
            if (
                batch_boundary
                or self._pending >= self.batch_size
                or self._clock.now() - self._last_flush >= 1.0
            ):
                self.flush()
        elif self.fsync == "everysec":
            if self._clock.now() - self._last_flush >= 1.0:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            data = self._buffer.getvalue()
            if data:
                self._file.write(data)
                self._file.flush()
                os.fsync(self._file.fileno())
                self._buffer = io.BytesIO()
            self._pending = 0
            self._last_flush = self._clock.now()

    def size_bytes(self) -> int:
        """Bytes durably in the file plus bytes still buffered.

        Safe against a concurrently closed writer (an AOF rewrite swaps
        writers while other threads may be sizing the old one): a closed
        writer reports the file's on-disk size, since close() flushed.
        """
        with self._lock:
            if self._file.closed:
                try:
                    return os.path.getsize(self.path)
                except OSError:
                    return 0
            return self._file.tell() + len(self._buffer.getvalue())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self.flush()
                self._file.close()

    def __enter__(self) -> "AOFWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_aof(path: str, cipher=None) -> list[list[bytes]]:
    """Read every complete entry from an AOF file for replay.

    ``cipher`` must match the :class:`AOFWriter`'s (decryption starts at
    file offset 0).
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return []
    if cipher is not None:
        data = cipher.apply(data, 0)
    return list(decode_entries(data))
