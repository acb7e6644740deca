"""In-transit encryption wrapper — the Stunnel / SSL analogue.

The paper fronts Redis with Stunnel and runs PostgreSQL with SSL in
verify-CA mode.  Every client<->server message therefore pays a per-byte
encryption cost plus small framing overhead.  :class:`SecureChannel` sits
between the benchmark client stubs and the engines: requests and responses
are serialised, framed, encrypted with independent sequence counters per
direction, and decrypted on the other side.

The engines never see the channel — exactly like a real proxy — so turning
TLS on/off is purely a client-stub configuration, matching Section 5.
"""

from __future__ import annotations

import struct
import threading

from .stream import KeystreamPool


class ChannelError(Exception):
    """Frame corruption or sequence mismatch on the simulated channel."""


class SecureChannel:
    """Symmetric encrypted pipe with per-direction sequence counters."""

    _HEADER = struct.Struct("<QI")  # sequence, length

    def __init__(self, key: bytes = b"repro-tls-default-key") -> None:
        self._tx = KeystreamPool(key, nonce=0x544C5331)  # 'TLS1'
        self._rx = self._tx  # symmetric link: both ends share the pool
        self._tx_seq = 0
        self._rx_seq = 0

    @staticmethod
    def _offset(seq: int) -> int:
        # Spread consecutive frames across the pool so adjacent messages do
        # not reuse the exact same keystream window.
        return (seq * 8191) & 0xFFFFFFFF

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


class LoopbackSecureLink:
    """A client-side + server-side channel pair joined back to back.

    ``to_server()`` models one request crossing the wire (client wraps,
    server unwraps); ``to_client()`` the response.  With ``enabled=False``
    the payload passes through untouched, modelling a plaintext socket.

    Channels carry per-direction sequence counters, so — exactly like real
    TLS — a connection belongs to one thread.  The link keeps one channel
    pair per calling thread (the YCSB model: one connection per worker).
    Only the counters are per connection: every channel with the same key
    shares one keystream expansion (:class:`~repro.crypto.stream.KeystreamPool`),
    so a new thread's first request pays microseconds to connect, not the
    ~2 x 37 ms it would take to expand its own pools.
    """

    def __init__(self, key: bytes = b"repro-tls-default-key", enabled: bool = True) -> None:
        self.enabled = enabled
        self._key = key
        if enabled:
            self._local = threading.local()

    def _channels(self) -> tuple[SecureChannel, SecureChannel]:
        channels = getattr(self._local, "channels", None)
        if channels is None:
            channels = (SecureChannel(self._key), SecureChannel(self._key + b"/resp"))
            self._local.channels = channels
        return channels

    def to_server(self, payload: bytes) -> bytes:
        if not self.enabled:
            return payload
        request, _ = self._channels()
        return request.unwrap(request.wrap(payload))

    def to_client(self, payload: bytes) -> bytes:
        if not self.enabled:
            return payload
        _, response = self._channels()
        return response.unwrap(response.wrap(payload))
