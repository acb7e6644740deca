"""Personal-data records with their seven GDPR metadata attributes.

Section 4.2.1 of the paper fixes the record shape GDPRbench uses::

    <Key>;<Data>;PUR=...;TTL=...;USR=...;OBJ=...;DEC=...;SHR=...;SRC=...;

``ph-1x4b;123-456-7890;PUR=ads,2fa;TTL=365days;USR=neo;OBJ=;DEC=;SHR=;
SRC=first-party;`` — a variable-length unique key, variable-length personal
data, then seven attributes (three-letter names), each single-valued,
list-valued, or empty.  All fields are ASCII; ``;`` and ``,`` are reserved
as separators.  The paper renders empty attributes as ``∅``; on the wire we
emit the ASCII empty string and accept both.

This module is the metadata-explosion phenomenon made concrete: a 10-byte
datum carries ~25 bytes of mandatory metadata (Table 3's 3.5x space factor
starts here).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.common.errors import RecordFormatError

#: Attribute order on the wire (Section 4.2.1 example).
ATTRIBUTE_NAMES = ("PUR", "TTL", "USR", "OBJ", "DEC", "SHR", "SRC")

#: GDPR articles that give rise to each attribute (Table 1).
ATTRIBUTE_ARTICLES = {
    "PUR": ("5(1b)", "13", "14"),
    "TTL": ("5(1e)", "13(2a)", "17"),
    "USR": ("15",),
    "OBJ": ("21",),
    "DEC": ("15(1)", "22"),
    "SHR": ("13", "14"),
    "SRC": ("13", "14"),
}

_EMPTY_MARKS = ("", "∅")  # ASCII empty and the paper's ∅

_SECONDS_PER = {
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "min": 60.0,
    "mins": 60.0,
    "hour": 3600.0,
    "hours": 3600.0,
    "day": 86400.0,
    "days": 86400.0,
}


def format_ttl(seconds: float) -> str:
    """Render a TTL the way the paper does (``365days``, ``5min``...)."""
    if seconds < 0:
        raise RecordFormatError(f"negative TTL {seconds!r}")
    if seconds % 86400 == 0 and seconds >= 86400:
        return f"{int(seconds // 86400)}days"
    if seconds % 3600 == 0 and seconds >= 3600:
        return f"{int(seconds // 3600)}hours"
    if seconds % 60 == 0 and seconds >= 60:
        return f"{int(seconds // 60)}min"
    if seconds == int(seconds):
        return f"{int(seconds)}s"
    return f"{seconds}s"


@lru_cache(maxsize=1024)
def parse_ttl(text: str) -> float:
    """Parse ``365days`` / ``5min`` / ``300s`` into seconds.

    Cached: a pure function of its string, called once per record decoded
    by every Redis metadata scan, over a corpus that uses a few TTL
    spellings.  Malformed input raises on every call (errors are not
    cached).
    """
    text = text.strip()
    if not text:
        raise RecordFormatError("empty TTL")
    digits = ""
    idx = 0
    while idx < len(text) and (text[idx].isdigit() or text[idx] == "."):
        digits += text[idx]
        idx += 1
    unit = text[idx:].strip().lower() or "s"
    if not digits:
        raise RecordFormatError(f"malformed TTL {text!r}")
    if unit not in _SECONDS_PER:
        raise RecordFormatError(f"unknown TTL unit {unit!r}")
    return float(digits) * _SECONDS_PER[unit]


def _check_ascii_field(name: str, value: str) -> None:
    if not value.isascii():
        raise RecordFormatError(f"{name} must be ASCII: {value!r}")
    if ";" in value:
        raise RecordFormatError(f"{name} may not contain ';': {value!r}")
    if "," in value:
        raise RecordFormatError(f"{name} may not contain ',': {value!r}")


@dataclass(frozen=True)
class PersonalRecord:
    """One personal-data item plus its seven GDPR metadata attributes."""

    key: str
    data: str
    purposes: tuple = ()
    ttl_seconds: float = 0.0
    user: str = ""
    objections: tuple = ()
    decisions: tuple = ()
    shared_with: tuple = ()
    source: str = "first-party"

    def __post_init__(self):
        # Every record a Redis metadata scan decodes passes through here,
        # so the common case is one expression per field; a field that
        # fails it goes through _check_ascii_field, which raises the error.
        if not self.key:
            raise RecordFormatError("record key must be non-empty")
        for name, value in (("key", self.key), ("data", self.data),
                            ("USR", self.user), ("SRC", self.source)):
            if not (value.isascii() and ";" not in value and "," not in value):
                _check_ascii_field(name, value)
        for attr, values in (
            ("PUR", self.purposes),
            ("OBJ", self.objections),
            ("DEC", self.decisions),
            ("SHR", self.shared_with),
        ):
            if not isinstance(values, tuple):
                raise RecordFormatError(f"{attr} must be a tuple, got {values!r}")
            for value in values:
                if not (value.isascii() and ";" not in value and "," not in value):
                    _check_ascii_field(attr, value)
        if self.ttl_seconds < 0:
            raise RecordFormatError("TTL must be >= 0")

    # -- attribute access -------------------------------------------------

    def metadata(self) -> dict[str, object]:
        """The seven attributes as a name -> value dict."""
        return {
            "PUR": self.purposes,
            "TTL": self.ttl_seconds,
            "USR": self.user,
            "OBJ": self.objections,
            "DEC": self.decisions,
            "SHR": self.shared_with,
            "SRC": self.source,
        }

    def with_metadata(self, **updates) -> "PersonalRecord":
        """Copy with attribute changes (``purposes=(...)``, ``user=...``)."""
        return replace(self, **updates)

    def objects_to(self, purpose: str) -> bool:
        """True if this record's owner objected to ``purpose`` (G 21)."""
        return purpose in self.objections

    def allows_purpose(self, purpose: str) -> bool:
        """G 5(1b) + G 21: purpose must be declared and not objected to."""
        return purpose in self.purposes and not self.objects_to(purpose)

    # -- sizes (Table 3 accounting) ----------------------------------------

    def data_bytes(self) -> int:
        """Bytes of personal data proper (the Table 3 denominator)."""
        return len(self.data.encode())

    def metadata_bytes(self) -> int:
        """Bytes of metadata attribute payload (values, not labels)."""
        total = len(format_ttl(self.ttl_seconds).encode())
        total += len(self.user.encode()) + len(self.source.encode())
        for values in (self.purposes, self.objections, self.decisions, self.shared_with):
            total += sum(len(v.encode()) for v in values)
        return total

    # -- wire format --------------------------------------------------------

    def to_wire(self) -> str:
        """Serialise to the Section-4.2.1 record format."""
        parts = [self.key, self.data]
        rendered = {
            "PUR": ",".join(self.purposes),
            "TTL": format_ttl(self.ttl_seconds),
            "USR": self.user,
            "OBJ": ",".join(self.objections),
            "DEC": ",".join(self.decisions),
            "SHR": ",".join(self.shared_with),
            "SRC": self.source,
        }
        for name in ATTRIBUTE_NAMES:
            parts.append(f"{name}={rendered[name]}")
        return ";".join(parts) + ";"

    @classmethod
    def from_wire(cls, wire: str) -> "PersonalRecord":
        """Parse the Section-4.2.1 record format (tolerating the paper's ∅)."""
        if not wire.endswith(";"):
            raise RecordFormatError("record must end with ';'")
        parts = wire[:-1].split(";")
        if len(parts) != 2 + len(ATTRIBUTE_NAMES):
            raise RecordFormatError(
                f"expected {2 + len(ATTRIBUTE_NAMES)} fields, got {len(parts)}"
            )
        key, data = parts[0], parts[1]
        attrs: dict[str, str] = {}
        for chunk, expected in zip(parts[2:], ATTRIBUTE_NAMES):
            if "=" not in chunk:
                raise RecordFormatError(f"attribute {chunk!r} missing '='")
            name, _, value = chunk.partition("=")
            if name != expected:
                raise RecordFormatError(
                    f"attribute order violation: expected {expected}, got {name}"
                )
            attrs[name] = value

        def as_list(text: str) -> tuple:
            if text in _EMPTY_MARKS:
                return ()
            return tuple(text.split(","))

        def as_scalar(text: str) -> str:
            return "" if text in _EMPTY_MARKS else text

        return cls(
            key=key,
            data=data,
            purposes=as_list(attrs["PUR"]),
            ttl_seconds=parse_ttl(attrs["TTL"]),
            user=as_scalar(attrs["USR"]),
            objections=as_list(attrs["OBJ"]),
            decisions=as_list(attrs["DEC"]),
            shared_with=as_list(attrs["SHR"]),
            source=as_scalar(attrs["SRC"]),
        )
