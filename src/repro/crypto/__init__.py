"""Simulated LUKS (at-rest) and TLS (in-transit) encryption boundaries."""

from .luks import AtRestCipher
from .stream import KeystreamPool, StreamCipher, xor_bytes
from .tls import ChannelError, LoopbackSecureLink, SecureChannel

__all__ = [
    "StreamCipher",
    "KeystreamPool",
    "xor_bytes",
    "AtRestCipher",
    "SecureChannel",
    "LoopbackSecureLink",
    "ChannelError",
]
