"""Operation descriptors produced by workload generators.

The runtime engine executes :class:`Operation` objects: each knows its
taxonomy name, how to run itself against a client, and how to validate the
response (the correctness metric of Section 4.2.3).  Validators check
invariants that hold even under concurrent mutation — e.g. every datum
returned by READ-DATA-BY-USR must be owner-prefixed with the requested
user — so correctness is exact for single-threaded runs and sound (no
false failures) for multi-threaded ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Operation:
    """One benchmark operation: name + executor + response validator."""

    name: str
    execute: Callable  # (client) -> response
    validate: Callable = field(default=lambda response: True)

    def run(self, client) -> tuple[object, bool]:
        response = self.execute(client)
        return response, bool(self.validate(response))


# ---------------------------------------------------------------------------
# Shared validators
# ---------------------------------------------------------------------------

def is_nonneg_int(response) -> bool:
    return isinstance(response, int) and response >= 0


def is_bool(response) -> bool:
    return isinstance(response, bool)


def is_optional_str(response) -> bool:
    return response is None or isinstance(response, str)


def data_owned_by(user: str) -> Callable:
    """READ-DATA-BY-USR invariant: all rows owner-prefixed with ``user``."""
    prefix = user + ":"

    def check(response) -> bool:
        return isinstance(response, list) and all(
            isinstance(pair, tuple) and len(pair) == 2 and pair[1].startswith(prefix)
            for pair in response
        )

    return check


def metadata_user_is(user: str) -> Callable:
    """READ-METADATA-BY-USR invariant: every USR equals ``user``."""

    def check(response) -> bool:
        return isinstance(response, list) and all(
            metadata.get("USR") == user for _, metadata in response
        )

    return check


def metadata_for_key(key: str) -> Callable:
    """READ-METADATA-BY-KEY: absent, or a dict with all seven attributes."""

    def check(response) -> bool:
        if response is None:
            return True
        return isinstance(response, dict) and set(response) == {
            "PUR", "TTL", "USR", "OBJ", "DEC", "SHR", "SRC"
        }

    return check


def is_pair_list(response) -> bool:
    return isinstance(response, list) and all(
        isinstance(pair, tuple) and len(pair) == 2 for pair in response
    )
