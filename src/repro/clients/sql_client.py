"""GDPR client stub for minisql (the PostgreSQL-like engine).

Mirrors how GDPRbench drives PostgreSQL (Section 5.2):

* personal records live in one ``personal_records`` table: key, data and
  the seven metadata attributes as typed columns (multi-valued attributes
  are TEXT_LIST), plus an absolute ``expiry`` timestamp the paper's
  modified INSERTs carry;
* ``metadata_indexing`` creates secondary indices on every metadata
  column (B-tree for scalars, inverted for lists) — the Figure 5c /
  Table 3 "PostgreSQL w/ metadata indices" configuration;
* ``timely_deletion`` attaches the 1-second TTL sweeper daemon;
* ``monitoring`` turns on csvlog statement logging including SELECT
  responses (the row-level-security policy analogue);
* ``encryption`` seals rows at rest and wraps the client<->server hop in
  the simulated SSL channel.

Access control is enforced client-side, as in the paper.

Scaling retrofits (the ROADMAP's production-engine track):

* ``locking`` forwards the engine's concurrency mode — per-table
  reader-writer locks (default) or the seed's single global lock;
* :meth:`SQLGDPRClient.pipeline` implements the shared
  :class:`~repro.clients.base.GDPRPipeline` contract: a YCSB statement
  batch runs inside one engine transaction (one lock acquisition, one WAL
  group commit) and one wire round-trip each way;
* ``durable=True`` + ``wal_batch_size`` arm the write-ahead log and its
  group commit (minikv's ``aof_batch_size`` analogue).
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
from typing import Iterable, Sequence

from repro.common.clock import Clock, SystemClock
from repro.common.errors import ConfigurationError
from repro.crypto.tls import LoopbackSecureLink
from repro.gdpr.acl import Principal
from repro.gdpr.audit import AuditEvent, events_from_csvlog, split_csv_line
from repro.gdpr.record import PersonalRecord
from repro.minisql.csvlog import CSVLogger
from repro.minisql.database import Database, MiniSQLConfig
from repro.minisql.sharded import ShardedDatabase, open_database
from repro.minisql.expr import Cmp, Contains, Expr, Not
from repro.minisql.schema import Column
from repro.minisql.types import FLOAT, TEXT, TEXT_LIST, TIMESTAMP

from .base import (
    PIPELINE_WRITE_KINDS,
    FeatureSet,
    GDPRClient,
    GDPRPipeline,
    normalise_attribute,
)
from .futures import autopipelined

RECORDS_TABLE = "personal_records"
YCSB_TABLE = "usertable"
YCSB_FIELDS = 10

#: metadata column -> index name for the full-indexing configuration
METADATA_INDEX_COLUMNS = ("usr", "pur", "obj", "dec", "shr", "src", "expiry")


#: YCSB pipeline kinds (live in the usertable; GDPR kinds live in
#: personal_records)
_YCSB_KINDS = frozenset({"read", "update", "insert"})


class SQLClientPipeline(GDPRPipeline):
    """minisql implementation of the shared :class:`GDPRPipeline` contract.

    Queued operations — YCSB primitives *and* the batchable GDPR query
    surface (``read-data-by-*``, ``read-metadata-by-key/usr``,
    ``delete-record-by-ttl``, ``update-metadata-by-*``) — execute inside
    **one engine transaction**: one lock-set acquisition over exactly the
    tables the batch touches, one maintenance tick, one WAL group commit,
    and one request + one response crossing the (possibly TLS) wire — the
    SQL analogue of Redis pipelining, built on
    :meth:`repro.minisql.database.Database.transaction`.

    Under ``locking="mvcc"`` a pure-read batch skips the transaction
    machinery entirely: every query runs lock-free against **one MVCC
    snapshot** (:meth:`repro.minisql.database.Database.snapshot_reader`),
    so the whole batch observes one consistent state, pays one statement-
    accounting hop, and never waits on — or delays — a concurrent purge.

    Statement errors follow the Redis pipeline semantics: every queued
    statement runs, failures (including per-operation access-control
    denials) are captured per slot, and the first one is raised after the
    batch commits.
    """

    def __init__(self, client: "SQLGDPRClient", parent=None) -> None:
        super().__init__(parent)
        self._client = client

    def _issue_ycsb(self, target, kind: str, key: str, payload):
        """Issue one YCSB point op's statement against ``target``.

        ``target`` is anything with the shared statement surface — a
        transaction / snapshot reader (executes immediately) or a
        :class:`~repro.minisql.sharded.ShardedSQLPipeline` (queues) —
        so the in-process and scatter/gather paths cannot drift in how
        they build the statements (projection, key predicate, TTL
        expiry stamping).
        """
        client = self._client
        if kind == "read":
            return target.select_point(
                YCSB_TABLE, "key", key,
                columns=list(payload) if payload is not None else None,
            )
        if kind == "update":
            return target.update(YCSB_TABLE, payload, Cmp("key", "=", key))
        row = {"key": key, **payload}  # insert
        if client.features.timely_deletion:
            row["expiry"] = client.clock.now() + client.YCSB_TTL_SECONDS
        return target.insert(YCSB_TABLE, row)

    @staticmethod
    def _shape_ycsb(kind: str, result):
        """An executed YCSB statement's raw result -> the op's response."""
        if kind == "read":
            return result[0] if result else None
        if kind == "update":
            return result
        return None  # insert

    def _run_op(self, runner, kind: str, key: str, payload):
        """One queued operation against ``runner`` (txn or snapshot reader)."""
        client = self._client
        if kind in _YCSB_KINDS:
            return self._shape_ycsb(kind, self._issue_ycsb(runner, kind, key, payload))
        if kind == "delete-record-by-ttl":
            return client._do_delete_record_by_ttl(runner, payload)
        if kind.startswith("update-metadata-by-"):
            principal, attribute, value = payload
            return client._do_update_metadata(
                runner, kind, principal, key, attribute, value
            )
        # the read-data-by-* / read-metadata-by-* family
        return client._do_gdpr_read(runner, kind, payload, key)

    def _run_ops(self, ops) -> tuple[list, list[Exception]]:
        client = self._client
        kinds = {kind for kind, _, _ in ops}
        if kinds & _YCSB_KINDS:
            client._ensure_ycsb_table()
        # One request round-trip carries the whole batch.
        client._wire([(kind, key) for kind, key, _ in ops])
        if isinstance(client.db, ShardedDatabase):
            responses, errors = self._drain_sharded(ops)
        else:
            responses, errors = self._drain_transactional(ops, kinds)
        # ...and one response round-trip carries every result back.
        client._wire(responses)
        return responses, errors

    def _drain_transactional(self, ops, kinds) -> tuple[list, list[Exception]]:
        """In-process engine: the whole batch inside one transaction (or,
        for a pure-read batch under MVCC, one lock-free snapshot)."""
        client = self._client
        read_tables: set[str] = set()
        write_tables: set[str] = set()
        for kind in kinds:
            table = YCSB_TABLE if kind in _YCSB_KINDS else RECORDS_TABLE
            if kind in PIPELINE_WRITE_KINDS:
                write_tables.add(table)
            else:
                read_tables.add(table)
        responses: list = []
        errors: list[Exception] = []

        def drain(runner) -> None:
            for kind, key, payload in ops:
                try:
                    responses.append(self._run_op(runner, kind, key, payload))
                except Exception as exc:  # captured per slot, batch continues
                    responses.append(exc)
                    errors.append(exc)

        if not write_tables and client.db.config.locking == "mvcc":
            # Lock-free fast path: one snapshot for the whole read batch.
            with client.db.snapshot_reader(statements=len(ops)) as reader:
                drain(reader)
        else:
            with client.db.transaction(
                read=read_tables - write_tables, write=write_tables
            ) as txn:
                drain(txn)
        return responses, errors

    def _drain_sharded(self, ops) -> tuple[list, list[Exception]]:
        """Sharded engine: scatter/gather sub-batches, one txn per shard.

        Runs of YCSB point operations queue onto a
        :class:`~repro.minisql.sharded.ShardedSQLPipeline`: the run splits
        into one statement sub-batch per involved shard, each sub-batch
        executes **inside one transaction on its worker** (per-shard
        transactional atomicity — the sharded analogue of the one-engine-
        transaction batch), and the workers run in parallel under their
        own GILs.  Multi-record GDPR operations flush the pending run and
        execute against the front facade, whose statements fan out
        internally; there is no cross-shard barrier between sub-batches
        (docs/sharding.md).
        """
        client = self._client
        responses: list = [None] * len(ops)
        errors: list[Exception] = []
        buffered: list = []  # (slot, kind, key, payload) point-op run
        for slot, (kind, key, payload) in enumerate(ops):
            if kind in _YCSB_KINDS:
                buffered.append((slot, kind, key, payload))
                continue
            self._flush_sharded(buffered, responses, errors)
            try:
                responses[slot] = self._run_op(client.db, kind, key, payload)
            except Exception as exc:
                responses[slot] = exc
                errors.append(exc)
        self._flush_sharded(buffered, responses, errors)
        return responses, errors

    def _flush_sharded(self, buffered: list, responses: list,
                       errors: list[Exception]) -> None:
        """Run buffered point ops as one scatter/gather statement batch."""
        if not buffered:
            return
        pipe = self._client.db.pipeline()
        for _slot, kind, key, payload in buffered:
            self._issue_ycsb(pipe, kind, key, payload)
        raw = pipe.execute(raise_on_error=False)
        for (slot, kind, _key, _payload), result in zip(buffered, raw):
            if isinstance(result, Exception):
                responses[slot] = result
                errors.append(result)
            else:
                responses[slot] = self._shape_ycsb(kind, result)
        buffered.clear()


@autopipelined
class SQLGDPRClient(GDPRClient):
    """DB-interface stub translating GDPR queries into minisql statements."""

    engine_name = "postgres"

    def __init__(
        self,
        features: FeatureSet | None = None,
        data_dir: str | None = None,
        clock: Clock | None = None,
        locking: str = "table-rw",
        wal_batch_size: int = 1,
        durable: bool = False,
        shards: int = 1,
        transport: str = "pipe",
        shard_addresses: tuple | None = None,
    ) -> None:
        super().__init__(features or FeatureSet.none())
        self.clock = clock or SystemClock()
        self._owns_dir = data_dir is None
        self._data_dir = data_dir or tempfile.mkdtemp(prefix="repro-minisql-")
        csvlog_path = None
        if self.features.monitoring:
            csvlog_path = os.path.join(self._data_dir, "postgresql.csv")
        wal_path = os.path.join(self._data_dir, "pg_wal.bin") if durable else None
        # shards=1 -> the paper's in-process facade on the client clock
        # (byte-identical to the seed construction path); shards>1 -> the
        # multi-process router of docs/sharding.md, whose statement
        # surface is identical, so everything below routes transparently.
        # The factory rejects a custom clock when sharded (workers keep
        # their own system clocks), so the sharded branch forwards the
        # caller's clock argument, not the resolved default.
        self.db: Database | ShardedDatabase = open_database(
            MiniSQLConfig(
                encryption_at_rest=self.features.encryption,
                wal_path=wal_path,
                csvlog_path=csvlog_path,
                log_statements=self.features.monitoring,
                locking=locking,
                wal_batch_size=wal_batch_size,
                shards=shards,
                transport=transport,
                shard_addresses=shard_addresses,
            ),
            clock=self.clock if shards <= 1 else clock,
        )
        #: front-side readers over the per-shard audit logs (the workers
        #: write them; get_system_logs parses them with the shared cipher)
        self._shard_csvlogs: list[CSVLogger] = []
        if isinstance(self.db, ShardedDatabase) and self.features.monitoring:
            self._shard_csvlogs = [
                CSVLogger(
                    path,
                    log_reads=self.features.monitoring,
                    clock=self.clock,
                    cipher=self.db._file_cipher,
                )
                for path in self.db.csvlog_paths
            ]
        self._link = LoopbackSecureLink(enabled=self.features.encryption)
        self._create_records_table()
        self._ycsb_ready = False
        self._ycsb_ddl_lock = threading.Lock()

    def pipeline(self) -> SQLClientPipeline:
        """A client command batch (one engine transaction + one wire trip)."""
        return SQLClientPipeline(self)

    def _create_records_table(self) -> None:
        if RECORDS_TABLE in self.db.catalog.tables():
            # Recovered from a durable WAL: the schema replayed already.
            # Indices the WAL lacks (store written without metadata_indexing)
            # are built from the heap now; the sweeper is in-memory state
            # and always needs re-attaching.
            if self.features.metadata_indexing:
                existing = {
                    info.name for info in self.db.catalog.indices_for(RECORDS_TABLE)
                }
                for column in METADATA_INDEX_COLUMNS:
                    if f"idx_{column}" not in existing:
                        self.db.create_index(f"idx_{column}", RECORDS_TABLE, column)
            if self.features.timely_deletion:
                self.db.enable_ttl(RECORDS_TABLE, "expiry")
            return
        self.db.create_table(
            RECORDS_TABLE,
            [
                Column("key", TEXT, nullable=False),
                Column("data", TEXT, nullable=False),
                Column("pur", TEXT_LIST),
                Column("ttl", FLOAT),
                Column("usr", TEXT),
                Column("obj", TEXT_LIST),
                Column("dec", TEXT_LIST),
                Column("shr", TEXT_LIST),
                Column("src", TEXT),
                Column("expiry", TIMESTAMP),
            ],
            primary_key="key",
        )
        if self.features.metadata_indexing:
            for column in METADATA_INDEX_COLUMNS:
                self.db.create_index(f"idx_{column}", RECORDS_TABLE, column)
        if self.features.timely_deletion:
            self.db.enable_ttl(RECORDS_TABLE, "expiry")

    # ------------------------------------------------------------------
    # Wire helper (the SSL boundary)
    # ------------------------------------------------------------------

    def _wire(self, payload) -> None:
        """Client<->server boundary: always serialise (the wire protocol),
        cipher only when the encryption feature is on (the SSL layer)."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self._link.enabled:
            self._link.to_server(blob)

    # ------------------------------------------------------------------
    # Record <-> row translation
    # ------------------------------------------------------------------

    def _row_from_record(self, record: PersonalRecord) -> dict:
        return {
            "key": record.key,
            "data": record.data,
            "pur": record.purposes,
            "ttl": record.ttl_seconds,
            "usr": record.user,
            "obj": record.objections,
            "dec": record.decisions,
            "shr": record.shared_with,
            "src": record.source,
            "expiry": self.clock.now() + record.ttl_seconds,
        }

    @staticmethod
    def _record_from_row(row: dict) -> PersonalRecord:
        return PersonalRecord(
            key=row["key"],
            data=row["data"],
            purposes=tuple(row["pur"] or ()),
            ttl_seconds=row["ttl"] or 0.0,
            user=row["usr"] or "",
            objections=tuple(row["obj"] or ()),
            decisions=tuple(row["dec"] or ()),
            shared_with=tuple(row["shr"] or ()),
            source=row["src"] or "",
        )

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------

    def load_records(self, records: Iterable[PersonalRecord]) -> int:
        loaded = 0
        for record in records:
            self.db.insert(RECORDS_TABLE, self._row_from_record(record))
            loaded += 1
        return loaded

    # ------------------------------------------------------------------
    # CREATE / DELETE
    # ------------------------------------------------------------------

    def create_record(self, principal: Principal, record: PersonalRecord) -> bool:
        self.acl.check_operation(principal, "create-record")
        self._wire(("create-record", record.key))
        self.db.insert(RECORDS_TABLE, self._row_from_record(record))
        self._wire(True)
        return True

    def delete_record_by_key(self, principal: Principal, key: str) -> int:
        self.acl.check_operation(principal, "delete-record-by-key")
        self._wire(("delete-record-by-key", key))
        rows = self.db.select(RECORDS_TABLE, Cmp("key", "=", key))
        if not rows:
            self._wire(0)
            return 0
        self.acl.check_record_access(principal, self._record_from_row(rows[0]), write=True)
        deleted = self.db.delete(RECORDS_TABLE, Cmp("key", "=", key))
        self._wire(deleted)
        return deleted

    def delete_record_by_pur(self, principal: Principal, purpose: str) -> int:
        self.acl.check_operation(principal, "delete-record-by-pur")
        self._wire(("delete-record-by-pur", purpose))
        deleted = self.db.delete(RECORDS_TABLE, Contains("pur", purpose))
        self._wire(deleted)
        return deleted

    def _do_delete_record_by_ttl(self, runner, principal: Principal) -> int:
        """DELETE-RECORD-BY-TTL core against any statement runner."""
        self.acl.check_operation(principal, "delete-record-by-ttl")
        return runner.delete(RECORDS_TABLE, Cmp("expiry", "<=", self.clock.now()))

    def delete_record_by_ttl(self, principal: Principal) -> int:
        self._wire(("delete-record-by-ttl",))
        deleted = self._do_delete_record_by_ttl(self.db, principal)
        self._wire(deleted)
        return deleted

    def delete_record_by_usr(self, principal: Principal, user: str) -> int:
        self.acl.check_operation(principal, "delete-record-by-usr")
        self._wire(("delete-record-by-usr", user))
        deleted = self.db.delete(RECORDS_TABLE, Cmp("usr", "=", user))
        self._wire(deleted)
        return deleted

    # ------------------------------------------------------------------
    # READ-DATA
    # ------------------------------------------------------------------

    #: metadata-conditioned read -> its WHERE tree (shared by the single-op
    #: wrappers and the pipelined batch path)
    _GDPR_READ_WHERE = {
        "read-data-by-pur": lambda arg: Contains("pur", arg),
        "read-data-by-usr": lambda arg: Cmp("usr", "=", arg),
        "read-data-by-obj": lambda arg: Not(Contains("obj", arg)),
        "read-data-by-dec": lambda arg: Contains("dec", arg),
        "read-metadata-by-usr": lambda arg: Cmp("usr", "=", arg),
        "read-metadata-by-shr": lambda arg: Contains("shr", arg),
    }

    def _do_gdpr_read(self, runner, op: str, principal: Principal, arg: str):
        """One GDPR read query against any statement runner.

        ``runner`` is anything with the shared statement surface — the
        :class:`~repro.minisql.database.Database` facade (single-op path),
        an open :class:`~repro.minisql.transaction.Transaction`, or a
        lock-free :class:`~repro.minisql.database.SnapshotReader` (the
        MVCC batch path).  Access control is checked per operation and
        per record, exactly as the single-op methods always have.
        """
        self.acl.check_operation(principal, op)
        if op in ("read-data-by-key", "read-metadata-by-key"):
            rows = runner.select(RECORDS_TABLE, Cmp("key", "=", arg))
            if not rows:
                return None
            record = self._record_from_row(rows[0])
            if op == "read-data-by-key":
                self.acl.check_record_access(principal, record)
                return record.data
            self.acl.check_metadata_access(principal, record)
            return record.metadata()
        where = self._GDPR_READ_WHERE[op](arg)
        metadata = op.startswith("read-metadata")
        out = []
        for row in runner.select(RECORDS_TABLE, where):
            record = self._record_from_row(row)
            if metadata:
                self.acl.check_metadata_access(principal, record)
                out.append((record.key, record.metadata()))
            else:
                self.acl.check_record_access(principal, record)
                out.append((record.key, record.data))
        return out

    def _gdpr_read(self, op: str, principal: Principal, arg: str):
        """Single-op wrapper: wire the request, run the core, wire the reply."""
        self._wire((op, arg) if arg else (op,))
        result = self._do_gdpr_read(self.db, op, principal, arg)
        self._wire(result)
        return result

    def read_data_by_key(self, principal: Principal, key: str) -> str | None:
        return self._gdpr_read("read-data-by-key", principal, key)

    def read_data_by_pur(self, principal: Principal, purpose: str) -> list:
        return self._gdpr_read("read-data-by-pur", principal, purpose)

    def read_data_by_usr(self, principal: Principal, user: str) -> list:
        return self._gdpr_read("read-data-by-usr", principal, user)

    def read_data_by_obj(self, principal: Principal, purpose: str) -> list:
        return self._gdpr_read("read-data-by-obj", principal, purpose)

    def read_data_by_dec(self, principal: Principal, decision: str) -> list:
        return self._gdpr_read("read-data-by-dec", principal, decision)

    # ------------------------------------------------------------------
    # READ-METADATA
    # ------------------------------------------------------------------

    def read_metadata_by_key(self, principal: Principal, key: str) -> dict | None:
        return self._gdpr_read("read-metadata-by-key", principal, key)

    def read_metadata_by_usr(self, principal: Principal, user: str) -> list:
        return self._gdpr_read("read-metadata-by-usr", principal, user)

    def read_metadata_by_shr(self, principal: Principal, third_party: str) -> list:
        return self._gdpr_read("read-metadata-by-shr", principal, third_party)

    # ------------------------------------------------------------------
    # UPDATE
    # ------------------------------------------------------------------

    def update_data_by_key(self, principal: Principal, key: str, data: str) -> int:
        self.acl.check_operation(principal, "update-data-by-key")
        self._wire(("update-data-by-key", key))
        rows = self.db.select(RECORDS_TABLE, Cmp("key", "=", key))
        if not rows:
            self._wire(0)
            return 0
        self.acl.check_record_access(principal, self._record_from_row(rows[0]), write=True)
        changed = self.db.update(RECORDS_TABLE, {"data": data}, Cmp("key", "=", key))
        self._wire(changed)
        return changed

    def _assignments_for(self, attribute: str, value) -> dict:
        attribute = attribute.upper()
        canonical = normalise_attribute(attribute, value)
        if attribute == "TTL":
            return {"ttl": canonical, "expiry": self.clock.now() + canonical}
        return {attribute.lower(): canonical}

    #: group metadata update -> its WHERE tree (shared with the batch path)
    _GDPR_UPDATE_WHERE = {
        "update-metadata-by-pur": lambda arg: Contains("pur", arg),
        "update-metadata-by-usr": lambda arg: Cmp("usr", "=", arg),
        "update-metadata-by-shr": lambda arg: Contains("shr", arg),
    }

    def _do_update_metadata(self, runner, op: str, principal: Principal,
                            arg: str, attribute: str, value) -> int:
        """One UPDATE-METADATA query against any writable statement runner."""
        self.acl.check_operation(principal, op)
        if op == "update-metadata-by-key":
            rows = runner.select(RECORDS_TABLE, Cmp("key", "=", arg))
            if not rows:
                return 0
            self.acl.check_metadata_access(principal, self._record_from_row(rows[0]))
            where: Expr = Cmp("key", "=", arg)
        else:
            where = self._GDPR_UPDATE_WHERE[op](arg)
        return runner.update(RECORDS_TABLE, self._assignments_for(attribute, value), where)

    def _update_metadata(self, op: str, principal: Principal, arg: str,
                         attribute: str, value) -> int:
        self._wire((op, arg, attribute))
        changed = self._do_update_metadata(self.db, op, principal, arg, attribute, value)
        self._wire(changed)
        return changed

    def update_metadata_by_key(self, principal: Principal, key: str, attribute: str, value) -> int:
        return self._update_metadata("update-metadata-by-key", principal, key, attribute, value)

    def update_metadata_by_pur(self, principal: Principal, purpose: str, attribute: str, value) -> int:
        return self._update_metadata("update-metadata-by-pur", principal, purpose, attribute, value)

    def update_metadata_by_usr(self, principal: Principal, user: str, attribute: str, value) -> int:
        return self._update_metadata("update-metadata-by-usr", principal, user, attribute, value)

    def update_metadata_by_shr(self, principal: Principal, third_party: str, attribute: str, value) -> int:
        return self._update_metadata("update-metadata-by-shr", principal, third_party, attribute, value)

    # ------------------------------------------------------------------
    # GET-SYSTEM
    # ------------------------------------------------------------------

    @staticmethod
    def _events_from_lines(lines: list[str]) -> list[AuditEvent]:
        events = []
        for line in lines:
            parts = split_csv_line(line)
            if len(parts) != 5:
                continue
            try:
                events.append(
                    AuditEvent(
                        timestamp=float(parts[0]),
                        operation=parts[1],
                        target=parts[2],
                        detail=parts[3],
                        rows=int(parts[4]),
                    )
                )
            except ValueError:
                continue
        return events

    def get_system_logs(self, principal: Principal, start: float | None = None,
                        end: float | None = None, limit: int = 100) -> list[AuditEvent]:
        self.acl.check_operation(principal, "get-system-logs")
        if isinstance(self.db, ShardedDatabase):
            if not self._shard_csvlogs:
                return []
            # The audit trail is per-shard (one csvlog per worker); flush
            # every worker's buffer, then read front-side.
            self.db.flush_csvlog()
            if start is None and end is None:
                # Fast path: recent-activity probe.  Split the limit
                # exactly — every shard contributes its share of
                # most-recent events (the first ``limit % shards`` shards
                # take the remainder), concatenated in shard order, the
                # same rule the Redis client uses for per-shard AOFs.
                logs = self._shard_csvlogs
                events: list[AuditEvent] = []
                for index, logger in enumerate(logs):
                    share = limit
                    if limit:
                        share = limit // len(logs) + (1 if index < limit % len(logs) else 0)
                        if share == 0:
                            continue
                    events.extend(self._events_from_lines(logger.tail(share)))
                return events
            # Time-ranged investigation: csvlog lines carry timestamps,
            # so the per-shard trails merge into one global order.
            events = []
            for logger in self._shard_csvlogs:
                events.extend(events_from_csvlog(logger, start, end))
            events.sort(key=lambda event: event.timestamp)
            return events[-limit:]
        if self.db.csvlog is None:
            return []
        if start is None and end is None:
            # Fast path: recent-activity probe, bounded tail read.
            return self._events_from_lines(self.db.csvlog.tail(limit))
        events = events_from_csvlog(self.db.csvlog, start, end)
        return events[-limit:]

    def _record_exists(self, key: str) -> bool:
        return self.db.count(RECORDS_TABLE, Cmp("key", "=", key)) > 0

    # ------------------------------------------------------------------
    # YCSB primitives
    # ------------------------------------------------------------------

    #: G 5(1e): with timely deletion on, even YCSB rows carry an expiry,
    #: and the sweeper daemon patrols the usertable — the paper's TTL cost.
    YCSB_TTL_SECONDS = 5 * 86400.0

    def _ensure_ycsb_table(self) -> None:
        if self._ycsb_ready:
            return
        with self._ycsb_ddl_lock:
            if self._ycsb_ready:
                return
            self._create_ycsb_table()
            self._ycsb_ready = True

    def _create_ycsb_table(self) -> None:
        if YCSB_TABLE not in self.db.catalog.tables():
            columns = [Column("key", TEXT, nullable=False)] + [
                Column(f"field{i}", TEXT) for i in range(YCSB_FIELDS)
            ]
            if self.features.timely_deletion:
                columns.append(Column("expiry", TIMESTAMP))
            self.db.create_table(YCSB_TABLE, columns, primary_key="key")
        # recovered from a durable WAL: the table replayed already, but the
        # sweeper daemon is in-memory state and needs (re-)attaching
        if self.features.timely_deletion:
            schema = self.db.catalog.table(YCSB_TABLE)
            if "expiry" not in schema.column_names():
                # a durable store written without timely_deletion has no
                # expiry column to sweep; refuse loudly rather than run
                # with a feature flag that cannot be honoured
                raise ConfigurationError(
                    f"durable store at {self._data_dir!r} was created without "
                    "timely_deletion; its usertable has no expiry column"
                )
            self.db.enable_ttl(YCSB_TABLE, "expiry")

    def ycsb_insert(self, key: str, fields: dict) -> None:
        self._ensure_ycsb_table()
        self._wire(("insert", key))
        row = {"key": key, **fields}
        if self.features.timely_deletion:
            row["expiry"] = self.clock.now() + self.YCSB_TTL_SECONDS
        self.db.insert(YCSB_TABLE, row)
        self._wire(True)

    def ycsb_read(self, key: str, fields: Sequence[str] | None = None) -> dict | None:
        self._ensure_ycsb_table()
        self._wire(("read", key))
        rows = self.db.select(
            YCSB_TABLE, Cmp("key", "=", key),
            columns=list(fields) if fields is not None else None,
        )
        out = rows[0] if rows else None
        self._wire(out)
        return out

    def ycsb_update(self, key: str, fields: dict) -> int:
        self._ensure_ycsb_table()
        self._wire(("update", key))
        changed = self.db.update(YCSB_TABLE, fields, Cmp("key", "=", key))
        self._wire(changed)
        return changed

    def ycsb_scan(self, start_key: str, count: int) -> list:
        self._ensure_ycsb_table()
        self._wire(("scan", start_key, count))
        rows = self.db.select(
            YCSB_TABLE, Cmp("key", ">=", start_key),
            order_by="key", limit=count,
        )
        self._wire(len(rows))
        return rows

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def personal_data_bytes(self) -> int:
        rows = self.db.select(RECORDS_TABLE, columns=["data"], _internal=True)
        return sum(len(row["data"].encode()) for row in rows)

    def total_db_bytes(self) -> int:
        return self.db.disk_usage()["total_bytes"]

    def record_count(self) -> int:
        return self.db.count(RECORDS_TABLE)

    def close(self) -> None:
        for logger in self._shard_csvlogs:
            logger.close()
        self.db.close()
        if self._owns_dir:
            shutil.rmtree(self._data_dir, ignore_errors=True)
