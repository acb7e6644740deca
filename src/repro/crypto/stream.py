"""Pure-Python stream cipher used to simulate LUKS (at rest) and TLS (in transit).

The paper adds encryption to Redis via LUKS and Stunnel, and to PostgreSQL
via LUKS and SSL, and measures a ~10-20% throughput cost.  We reproduce the
*cost structure* — genuine CPU work proportional to the number of bytes
crossing the storage or network boundary — with a small ChaCha-style ARX
keystream generator.  It is NOT intended to be cryptographically reviewed;
it exists so that "encryption on" means real per-byte work, not a sleep().
"""

from __future__ import annotations

import hashlib
import struct
import threading

_MASK = 0xFFFFFFFF


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 7)


class StreamCipher:
    """ChaCha-like keystream XOR cipher with an 8-round core.

    Deterministic for a (key, nonce) pair; encrypt and decrypt are the same
    operation.  The block function is the dominant cost and scales linearly
    with payload size, matching the overhead model of disk/wire encryption.
    """

    BLOCK = 64  # bytes of keystream per core invocation

    def __init__(self, key: bytes, nonce: int = 0) -> None:
        if not key:
            raise ValueError("empty key")
        digest = hashlib.sha256(key).digest()
        self._key_words = list(struct.unpack("<8I", digest))
        self._nonce = nonce & _MASK

    def _block(self, counter: int) -> bytes:
        state = (
            [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574]
            + self._key_words
            + [counter & _MASK, (counter >> 32) & _MASK, self._nonce, 0]
        )
        working = list(state)
        for _ in range(4):  # 8 rounds = 4 double-rounds
            _quarter_round(working, 0, 4, 8, 12)
            _quarter_round(working, 1, 5, 9, 13)
            _quarter_round(working, 2, 6, 10, 14)
            _quarter_round(working, 3, 7, 11, 15)
            _quarter_round(working, 0, 5, 10, 15)
            _quarter_round(working, 1, 6, 11, 12)
            _quarter_round(working, 2, 7, 8, 13)
            _quarter_round(working, 3, 4, 9, 14)
        out = [(w + s) & _MASK for w, s in zip(working, state)]
        return struct.pack("<16I", *out)

    def keystream(self, length: int, counter: int = 0) -> bytes:
        blocks = []
        produced = 0
        while produced < length:
            blocks.append(self._block(counter))
            counter += 1
            produced += self.BLOCK
        return b"".join(blocks)[:length]

    def apply(self, data: bytes, counter: int = 0) -> bytes:
        """XOR ``data`` with the keystream (symmetric encrypt/decrypt)."""
        if not data:
            return b""
        stream = self.keystream(len(data), counter)
        return xor_bytes(data, stream)


def xor_bytes(data: bytes, stream: bytes) -> bytes:
    """Constant-factor-fast XOR of two equal-length byte strings."""
    n = len(data)
    return (int.from_bytes(data, "little") ^ int.from_bytes(stream[:n], "little")).to_bytes(
        n, "little"
    )


#: ``(key, nonce, size) -> keystream`` for every pool expanded so far in
#: this process.  The ARX expansion of a 64 KiB pool costs ~37 ms of pure
#: Python, and every TLS channel (one pair per calling thread per client)
#: and at-rest cipher asks for the same few ``(key, nonce)`` pairs — the
#: keys are deployment settings, so the map stays a handful of entries.
#: The values are immutable ``bytes``; the lock only keeps threads that
#: connect at the same instant from each paying the expansion.
_expansions: dict[tuple[bytes, int, int], bytes] = {}
_expansions_lock = threading.Lock()


def _expand(key: bytes, nonce: int, size: int) -> bytes:
    ident = (bytes(key), nonce, size)
    pool = _expansions.get(ident)
    if pool is None:
        with _expansions_lock:
            pool = _expansions.get(ident)
            if pool is None:
                pool = _expansions[ident] = StreamCipher(key, nonce).keystream(size)
    return pool


class KeystreamPool:
    """Precomputed keystream shared by many small encrypt operations.

    Real deployments get LUKS/TLS encryption from AES-NI at GB/s, so the
    per-value cost is small but proportional to payload size.  Running the
    ARX core per value in pure Python would be orders of magnitude more
    expensive than the store operations it wraps and would distort the
    overhead ratios the paper measures.  Instead we expand the cipher once
    into a pool and give each object a deterministic offset into it —
    per-byte work stays real (the XOR walks every byte) but cheap.

    The expansion is read-only after construction, so pools built with
    the same ``(key, nonce, size)`` share one copy of it: opening another
    connection costs a dict lookup, not another expansion.
    """

    def __init__(self, key: bytes, nonce: int, size: int = 1 << 16) -> None:
        if size <= 0:
            raise ValueError("pool size must be positive")
        self._pool = _expand(key, nonce, size)
        self._size = size

    @property
    def size(self) -> int:
        return self._size

    def slice(self, offset: int, length: int) -> bytes:
        """``length`` bytes of keystream starting at ``offset``, wrapping."""
        offset %= self._size
        chunk = self._pool[offset:offset + length]
        while len(chunk) < length:
            chunk += self._pool[: length - len(chunk)]
        return chunk

    def apply(self, data: bytes, offset: int) -> bytes:
        """XOR ``data`` against the pool at ``offset`` (symmetric)."""
        if not data:
            return b""
        return xor_bytes(data, self.slice(offset, len(data)))
