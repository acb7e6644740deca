"""Exact-oracle shadow of the personal-data store.

Section 4.2.3 defines correctness as "the percentage of query responses
that match the results expected by the benchmark".  Under concurrency the
expected result of a query is racy, so the default validators check
invariants; a single-threaded run can do what GDPRbench itself does:
maintain a shadow copy of the personal-data store and compare every
response against it exactly.

:class:`ShadowStore` mirrors the client operations in plain Python, one
method per taxonomy operation (``read-data-by-key`` -> ``read_data_by_key``).
"""

from __future__ import annotations

from repro.gdpr.record import PersonalRecord


class ShadowStore:
    """A dict-of-records model of the personal-data store."""

    def __init__(self, clock=None) -> None:
        self._records: dict[str, PersonalRecord] = {}
        self._expiry: dict[str, float] = {}
        self._clock = clock
        self._now = 0.0

    def _time(self) -> float:
        return self._clock.now() if self._clock is not None else self._now

    # -- load/create -------------------------------------------------------

    def load(self, records) -> None:
        for record in records:
            self.create(record)

    def create(self, record: PersonalRecord) -> bool:
        self._records[record.key] = record
        self._expiry[record.key] = self._time() + record.ttl_seconds
        return True

    # -- reads ----------------------------------------------------------------

    def read_data_by_key(self, key: str):
        record = self._records.get(key)
        return None if record is None else record.data

    def read_data_by_pur(self, purpose: str):
        return sorted(
            (r.key, r.data) for r in self._records.values() if purpose in r.purposes
        )

    def read_data_by_usr(self, user: str):
        return sorted(
            (r.key, r.data) for r in self._records.values() if r.user == user
        )

    def read_data_by_obj(self, purpose: str):
        return sorted(
            (r.key, r.data)
            for r in self._records.values()
            if purpose not in r.objections
        )

    def read_data_by_dec(self, decision: str):
        return sorted(
            (r.key, r.data) for r in self._records.values() if decision in r.decisions
        )

    def read_metadata_by_key(self, key: str):
        record = self._records.get(key)
        return None if record is None else record.metadata()

    def read_metadata_by_usr(self, user: str):
        return sorted(
            ((r.key, r.metadata()) for r in self._records.values() if r.user == user),
            key=lambda pair: pair[0],
        )

    def read_metadata_by_shr(self, party: str):
        return sorted(
            ((r.key, r.metadata()) for r in self._records.values()
             if party in r.shared_with),
            key=lambda pair: pair[0],
        )

    # -- updates ---------------------------------------------------------------

    _FIELD_FOR = {
        "PUR": "purposes",
        "USR": "user",
        "OBJ": "objections",
        "DEC": "decisions",
        "SHR": "shared_with",
        "SRC": "source",
    }

    def update_data_by_key(self, key: str, data: str) -> int:
        record = self._records.get(key)
        if record is None:
            return 0
        self._records[key] = record.with_metadata(data=data)
        return 1

    def _apply_metadata(self, key: str, attribute: str, value) -> None:
        record = self._records[key]
        attribute = attribute.upper()
        if attribute == "TTL":
            self._records[key] = record.with_metadata(ttl_seconds=float(value))
            self._expiry[key] = self._time() + float(value)
        else:
            self._records[key] = record.with_metadata(
                **{self._FIELD_FOR[attribute]: value}
            )

    def update_metadata_by_key(self, key: str, attribute: str, value) -> int:
        if key not in self._records:
            return 0
        self._apply_metadata(key, attribute, value)
        return 1

    def _update_where(self, keep, attribute: str, value) -> int:
        keys = [k for k, r in self._records.items() if keep(r)]
        for key in keys:
            self._apply_metadata(key, attribute, value)
        return len(keys)

    def update_metadata_by_pur(self, purpose, attribute, value) -> int:
        return self._update_where(lambda r: purpose in r.purposes, attribute, value)

    def update_metadata_by_usr(self, user, attribute, value) -> int:
        return self._update_where(lambda r: r.user == user, attribute, value)

    def update_metadata_by_shr(self, party, attribute, value) -> int:
        return self._update_where(lambda r: party in r.shared_with, attribute, value)

    # -- deletes ---------------------------------------------------------------

    def delete_record_by_key(self, key: str) -> int:
        if self._records.pop(key, None) is None:
            return 0
        self._expiry.pop(key, None)
        return 1

    def _delete_where(self, keep) -> int:
        victims = [k for k, r in self._records.items() if keep(r)]
        for key in victims:
            del self._records[key]
            self._expiry.pop(key, None)
        return len(victims)

    def delete_record_by_pur(self, purpose: str) -> int:
        return self._delete_where(lambda r: purpose in r.purposes)

    def delete_record_by_usr(self, user: str) -> int:
        return self._delete_where(lambda r: r.user == user)

    def delete_record_by_ttl(self) -> int:
        now = self._time()
        victims = [k for k, deadline in self._expiry.items() if deadline <= now]
        for key in victims:
            del self._records[key]
            del self._expiry[key]
        return len(victims)

    def record_exists(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

