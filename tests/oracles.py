"""Reference implementations of the Redis metadata-scan hot path.

These are the straightforward bodies the optimised code in ``src/``
replaced, kept verbatim so the equivalence tests can require the new
code to return exactly what they return:

* :func:`encode_entry` — the AOF framing, three buffer writes per argument
  (``repro.minikv.aof.encode_entry``);
* :func:`record_from_fields` — hash fields -> :class:`PersonalRecord`
  through nested closures (``RedisGDPRClient._record_from_fields``);
* :func:`check_record` — the field checks of
  ``PersonalRecord.__post_init__``, one helper call per field;
* :func:`to_server` — one message across the loopback TLS link as
  ``unwrap(wrap(payload))`` (``LoopbackSecureLink.to_server``), on
  :class:`ReferenceChannel`, whose ``wrap`` / ``unwrap`` run the keystream
  through ``KeystreamPool.apply`` once per end.
"""

from __future__ import annotations

import io
from typing import Iterable

from repro.common.errors import RecordFormatError
from repro.crypto.tls import ChannelError, SecureChannel
from repro.gdpr.record import PersonalRecord, parse_ttl


def encode_entry(args: Iterable[bytes]) -> bytes:
    """Serialise one command into the AOF framing."""
    parts = list(args)
    out = io.BytesIO()
    out.write(b"*%d\n" % len(parts))
    for part in parts:
        out.write(b"$%d\n" % len(part))
        out.write(part)
        out.write(b"\n")
    return out.getvalue()


def record_from_fields(key: str, fields: dict[str, bytes]) -> PersonalRecord:
    def text(name: str) -> str:
        return fields.get(name, b"").decode()

    def as_list(name: str) -> tuple:
        raw = text(name)
        return tuple(raw.split(",")) if raw else ()

    return PersonalRecord(
        key=key,
        data=text("data"),
        purposes=as_list("PUR"),
        ttl_seconds=parse_ttl(text("TTL")) if text("TTL") else 0.0,
        user=text("USR"),
        objections=as_list("OBJ"),
        decisions=as_list("DEC"),
        shared_with=as_list("SHR"),
        source=text("SRC"),
    )


def _check_ascii_field(name: str, value: str) -> None:
    if not value.isascii():
        raise RecordFormatError(f"{name} must be ASCII: {value!r}")
    if ";" in value:
        raise RecordFormatError(f"{name} may not contain ';': {value!r}")
    if "," in value:
        raise RecordFormatError(f"{name} may not contain ',': {value!r}")


def check_record(self) -> None:
    """Raise what ``PersonalRecord(...)`` raises for these attributes."""
    if not self.key:
        raise RecordFormatError("record key must be non-empty")
    _check_ascii_field("key", self.key)
    _check_ascii_field("data", self.data)
    _check_ascii_field("USR", self.user)
    _check_ascii_field("SRC", self.source)
    for attr, values in (
        ("PUR", self.purposes),
        ("OBJ", self.objections),
        ("DEC", self.decisions),
        ("SHR", self.shared_with),
    ):
        if not isinstance(values, tuple):
            raise RecordFormatError(f"{attr} must be a tuple, got {values!r}")
        for value in values:
            _check_ascii_field(attr, value)
    if self.ttl_seconds < 0:
        raise RecordFormatError("TTL must be >= 0")


class ReferenceChannel(SecureChannel):
    """:class:`SecureChannel` with its frame built and checked per end."""

    def wrap(self, payload: bytes) -> bytes:
        """Frame + encrypt an outgoing message."""
        header = self._HEADER.pack(self._tx_seq, len(payload))
        body = self._tx.apply(payload, offset=self._offset(self._tx_seq))
        self._tx_seq += 1
        return header + body

    def unwrap(self, frame: bytes) -> bytes:
        """Decrypt + verify an incoming message produced by :meth:`wrap`."""
        if len(frame) < self._HEADER.size:
            raise ChannelError("short frame")
        seq, length = self._HEADER.unpack_from(frame)
        if seq != self._rx_seq:
            raise ChannelError(f"sequence mismatch: got {seq}, want {self._rx_seq}")
        body = frame[self._HEADER.size:]
        if len(body) != length:
            raise ChannelError("length mismatch")
        plain = self._rx.apply(body, offset=self._offset(seq))
        self._rx_seq += 1
        return plain


def to_server(request: ReferenceChannel, payload: bytes) -> bytes:
    """One request across the link: the body of ``to_server`` on its
    request channel."""
    return request.unwrap(request.wrap(payload))
