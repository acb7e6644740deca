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
        return self._seal(payload)[0]

    def unwrap(self, frame: bytes) -> bytes:
        """Decrypt + verify an incoming message produced by :meth:`wrap`."""
        return self._open(frame)

    def round_trip(self, payload: bytes) -> bytes:
        """``unwrap(wrap(payload))`` for a back-to-back pair, in one pass.

        The same frame is built and every receiving-end check runs on it,
        and every byte is still XORed twice (once per end).  Both ends
        share the keystream pool and, message by message, the sequence
        number, so the keystream window is sliced and converted once.
        """
        return self._open(*self._seal(payload))

    def _seal(self, payload: bytes) -> tuple[bytes, int]:
        """The frame for ``payload`` and the keystream window that sealed it."""
        seq = self._tx_seq
        length = len(payload)
        window = int.from_bytes(self._tx.slice(self._offset(seq), length), "little")
        body = (int.from_bytes(payload, "little") ^ window).to_bytes(length, "little")
        self._tx_seq = seq + 1
        return self._HEADER.pack(seq, length) + body, window

    def _open(self, frame: bytes, window: int | None = None) -> bytes:
        """Check and decrypt ``frame``; ``window`` is the sender's keystream
        window when the sender is this channel's own back-to-back end."""
        if len(frame) < self._HEADER.size:
            raise ChannelError("short frame")
        seq, length = self._HEADER.unpack_from(frame)
        if seq != self._rx_seq:
            raise ChannelError(f"sequence mismatch: got {seq}, want {self._rx_seq}")
        body = frame[self._HEADER.size:]
        if len(body) != length:
            raise ChannelError("length mismatch")
        if window is None:
            window = int.from_bytes(self._rx.slice(self._offset(seq), length), "little")
        plain = (int.from_bytes(body, "little") ^ window).to_bytes(length, "little")
        self._rx_seq = seq + 1
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
        return self._channels()[0].round_trip(payload)

    def to_client(self, payload: bytes) -> bytes:
        if not self.enabled:
            return payload
        return self._channels()[1].round_trip(payload)
