"""At-rest encryption wrapper — the LUKS analogue.

The paper puts Redis' and PostgreSQL's data directories on a LUKS-encrypted
block device: every byte persisted or loaded passes through the cipher.  We
model the same boundary: an :class:`AtRestCipher` that the storage engines
call on the value payloads they keep in their heaps and on every byte they
write to their persistence files (AOF / WAL / csvlog).

Each value gets its own deterministic offset into a precomputed keystream
pool (see :class:`~repro.crypto.stream.KeystreamPool` for why pooling is the
right cost model), so re-encrypting one value never disturbs another.
"""

from __future__ import annotations

import zlib

from .stream import KeystreamPool


class AtRestCipher:
    """Encrypt/decrypt value payloads at the storage boundary."""

    def __init__(self, key: bytes = b"repro-luks-default-key") -> None:
        self._pool = KeystreamPool(key, nonce=0x4C554B53)  # 'LUKS'

    def seal(self, token: str, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` stored under identifier ``token``."""
        return self._pool.apply(plaintext, offset=zlib.crc32(token.encode()))

    def open(self, token: str, ciphertext: bytes) -> bytes:
        """Decrypt a payload previously sealed under ``token``."""
        return self._pool.apply(ciphertext, offset=zlib.crc32(token.encode()))


class FileCipher:
    """Offset-addressed encryption for append-only files — the dm-crypt view.

    LUKS encrypts a block device: every byte written to a persistence file
    (AOF / WAL / csvlog) is ciphered at its absolute file offset, and reads
    decrypt at the same offset.  Because the keystream pool wraps, any
    window of the file can be decrypted independently given its offset —
    which is exactly how sector-addressed disk encryption behaves.
    """

    def __init__(self, key: bytes = b"repro-luks-default-key") -> None:
        self._pool = KeystreamPool(key, nonce=0x4C554B46)  # 'LUKF'

    def apply(self, data: bytes, offset: int) -> bytes:
        """Encrypt/decrypt ``data`` located at absolute file ``offset``."""
        return self._pool.apply(data, offset)

