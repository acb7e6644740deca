"""minisql — the PostgreSQL-like relational engine (the paper's RDBMS).

One :class:`Database` composes the engine's three layers:

* :class:`~repro.minisql.storage.Storage` — catalog, heap tables,
  secondary indices, the write-ahead log (with group commit), and the
  per-scope :class:`~repro.minisql.storage.WriteSession` undo logs;
* :class:`~repro.minisql.executor.Executor` — plan → rows: access-path
  selection (cached by predicate shape), residual filtering, projection,
  the MVCC write protocol, and snapshot-visibility reads;
* :class:`~repro.minisql.transaction.LockManager` /
  :class:`~repro.minisql.transaction.Transaction` — per-table
  reader-writer locking, the seed's single global lock, or MVCC
  (lock-free snapshot reads + writer-only table locks), plus
  ``begin()/commit()/rollback()`` statement batches with one WAL fsync
  per commit.

The facade keeps the seed's public statement surface and adds
:meth:`begin` / :meth:`transaction` for batched execution and
:meth:`snapshot_reader` for a lock-free read-only statement surface at
one MVCC snapshot.  The GDPR retrofit switches map onto the paper's
Section 5.2 changes:

* ``encryption_at_rest`` — the persistence files (WAL, csvlog) are
  encrypted at the disk boundary, the LUKS analogue; buffer-cache pages
  (the in-memory heap) stay plaintext exactly as they do on a dm-crypt
  volume, and the in-transit half lives in the client stub (SSL analogue).
* ``csvlog_path`` + ``log_statements`` — statement logging incl. SELECT
  responses (csvlog + row-level-security policy).
* ``enable_ttl()`` — expiry-timestamp column + 1-second sweeper daemon
  (which also runs the version vacuum for its table).
* ``create_index()`` — metadata indexing via secondary B-tree / inverted
  indices (Figure 3b / Figure 5c).

Statements take programmatic predicate trees (:mod:`repro.minisql.expr`);
a tiny SQL front-end in :mod:`repro.minisql.sql` parses text for examples.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.common.clock import Clock, SystemClock
from repro.common.errors import CatalogError, ConfigurationError
from repro.crypto.luks import FileCipher

from .csvlog import CSVLogger
from .executor import Executor
from .expr import Cmp, Expr
from .mvcc import CommitClock, SnapshotManager
from .planner import Plan
from .schema import Column
from .storage import Storage
from .transaction import LockManager, Transaction
from .ttl_daemon import TTLSweeper


@dataclass
class MiniSQLConfig:
    """Feature switches for the GDPR retrofit (defaults = stock engine).

    Every default preserves the paper's measured behaviour; the non-default
    settings are this repo's scaling retrofits.
    """

    #: Default ``False`` — plaintext persistence, the paper's stock
    #: PostgreSQL.  ``True`` seals rows, WAL, and csvlog at the disk
    #: boundary (the LUKS retrofit of Section 5.2).
    encryption_at_rest: bool = False
    #: Default ``None`` — no write-ahead log, the in-memory baseline every
    #: figure measures unless durability is under test.  A path arms WAL
    #: logging + crash recovery by replay.
    wal_path: str | None = None
    #: Default ``"everysec"`` — PostgreSQL-style background flush cadence;
    #: ``"always"`` fsyncs per record (or per group, see
    #: ``wal_batch_size``), ``"no"`` leaves flushing to close().
    fsync: str = "everysec"
    #: Default ``None`` — no statement log.  A path arms the csvlog (the
    #: paper's monitoring retrofit needs ``log_statements=True`` too).
    csvlog_path: str | None = None
    #: Default ``False`` — only writes are logged.  ``True`` also logs
    #: SELECTs with their response payloads (the row-level-security audit
    #: policy of Section 5.2 the monitoring feature measures).
    log_statements: bool = False
    #: Default ``1.0`` second — the paper's timely-deletion daemon period
    #: ("currently set to 1 sec").
    ttl_interval: float = 1.0
    #: Concurrency mode.  Default ``"table-rw"`` — per-table
    #: reader-writer locks (readers share, writers exclusive).
    #: ``"global"`` — the seed's single lock, kept as the benchmark
    #: baseline (the paper's single-session execution model).
    #: ``"mvcc"`` — snapshot-isolated lock-free reads + writer-only table
    #: locks + WAL-backed rollback (see docs/minisql-concurrency.md).
    #: Observable single-threaded results are identical in all modes.
    locking: str = "table-rw"
    #: WAL group commit (mirrors minikv's ``aof_batch_size``).  Default
    #: ``1`` — under ``fsync='always'`` every record pays its own fsync,
    #: the paper's per-statement durability cost; larger values amortise
    #: the fsync over that many records.  Transactions always commit with
    #: one fsync regardless.
    wal_batch_size: int = 1
    #: Worker-process count (mirrors ``MiniKVConfig.shards``).  Default
    #: ``1`` — the in-process engine, the paper's single-node execution
    #: model, byte-identical to the seed construction path.  ``> 1``
    #: selects the multi-process sharded deployment (rows partitioned by
    #: primary key; per-shard WAL/csvlog at ``<path>.shard<i>``) — built
    #: via :func:`repro.minisql.sharded.open_database`; the in-process
    #: facade itself rejects ``shards > 1``.
    shards: int = 1
    #: Default ``"pipe"`` — sharded workers talk over multiprocessing
    #: pipes (mirrors ``MiniKVConfig.transport``).  ``"tcp"`` carries the
    #: same protocol over sockets: without ``shard_addresses`` the router
    #: spawns local workers on ephemeral loopback ports; with them the
    #: workers are external ``tools/shard_server.py`` processes.  Ignored
    #: when ``shards == 1``.
    transport: str = "pipe"
    #: Default ``None`` — the router spawns its own workers.  A sequence
    #: of ``"host:port"`` strings (one per shard, ``transport="tcp"``
    #: only) connects to externally-run shard servers instead.
    shard_addresses: tuple | None = None

    def gdpr_features(self, has_indices: bool, has_ttl: bool) -> dict[str, bool]:
        return {
            "encryption": self.encryption_at_rest,
            "timely_deletion": has_ttl,
            "monitoring": self.csvlog_path is not None and self.log_statements,
            "metadata_indexing": has_indices,
            "access_control": False,  # enforced in the client, as in the paper
        }


#: max serialised response bytes embedded in one SELECT audit line
_SELECT_AUDIT_CAP = 4096


class SnapshotReader:
    """A read-only statement surface pinned to one snapshot.

    Obtained from :meth:`Database.snapshot_reader`.  Under MVCC every
    method reads the same commit-timestamp snapshot without taking any
    table lock — the batched GDPR metadata-scan path.  In the lock-based
    modes the reader degrades gracefully: each method takes the ordinary
    per-statement read lock and reads latest (there are no snapshots to
    pin).
    """

    def __init__(self, db: "Database", ts: int | None) -> None:
        self._db = db
        self._ts = ts

    def select(self, table: str, where: Expr | None = None,
               columns: Sequence[str] | None = None, limit: int | None = None,
               order_by: str | None = None, descending: bool = False) -> list[dict]:
        db = self._db
        if self._ts is not None:  # MVCC: the snapshot replaces the lock
            rows, plan = db._executor.select(
                table, where, columns=columns, limit=limit,
                order_by=order_by, descending=descending, at=self._ts,
            )
            db._audit_select(table, rows, plan)
            return rows
        with db._locks.read(table):
            rows, plan = db._executor.select(
                table, where, columns=columns, limit=limit,
                order_by=order_by, descending=descending, at=None,
            )
            db._audit_select(table, rows, plan)
        return rows

    def select_point(self, table: str, column: str, value,
                     columns: Sequence[str] | None = None) -> list[dict]:
        db = self._db
        if self._ts is not None:
            rows = db._executor.select_point(
                table, column, value, columns=columns, at=self._ts
            )
        else:
            with db._locks.read(table):
                rows = db._executor.select_point(table, column, value, columns=columns)
        if db.csvlog is not None and db.csvlog.log_reads:
            # same audit contract as Transaction.select_point: batched
            # point reads must not drop out of the SELECT audit trail
            plan = db._executor.plan(table, Cmp(column, "=", value))
            db._audit_select(table, rows, plan)
        return rows

    def count(self, table: str, where: Expr | None = None) -> int:
        db = self._db
        if self._ts is not None:
            return db._executor.count(table, where, at=self._ts)
        with db._locks.read(table):
            return db._executor.count(table, where)

    def aggregate(self, table: str, function: str, column: str | None = None,
                  where: Expr | None = None, group_by: str | None = None):
        db = self._db
        if self._ts is not None:
            return db._executor.aggregate(
                table, function, column=column, where=where,
                group_by=group_by, at=self._ts,
            )
        with db._locks.read(table):
            return db._executor.aggregate(
                table, function, column=column, where=where, group_by=group_by,
            )


class Database:
    """A single-node relational database instance (layer facade)."""

    def __init__(self, config: MiniSQLConfig | None = None, clock: Clock | None = None) -> None:
        self.config = config or MiniSQLConfig()
        if self.config.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.config.shards > 1:
            raise ConfigurationError(
                "shards > 1 is the multi-process deployment; build it via "
                "repro.minisql.sharded.open_database"
            )
        self.clock = clock or SystemClock()
        self._file_cipher = FileCipher() if self.config.encryption_at_rest else None
        self._locks = LockManager(self.config.locking)  # validates the mode
        self._storage = Storage(
            wal_path=self.config.wal_path,
            fsync=self.config.fsync,
            wal_batch_size=self.config.wal_batch_size,
            cipher=self._file_cipher,
            clock=self.clock,
            mvcc=(self.config.locking == "mvcc"),
        )
        self._executor = Executor(self._storage, clock=self.clock)
        #: the MVCC machinery exists in every mode (lock-based modes simply
        #: never acquire snapshots, so the vacuum horizon stays unbounded)
        self._commit_clock = CommitClock()
        self._snapshots = SnapshotManager(self._commit_clock)
        #: reentrant: DDL statements nest (create_table -> pkey index)
        self._ddl_lock = threading.RLock()
        self._sweepers: dict[str, TTLSweeper] = {}
        self._statements = 0
        self._statements_lock = threading.Lock()
        self._in_maintenance = threading.local()
        self.csvlog: CSVLogger | None = None
        if self.config.csvlog_path is not None:
            self.csvlog = CSVLogger(
                self.config.csvlog_path,
                log_reads=self.config.log_statements,
                clock=self.clock,
                cipher=self._file_cipher,
            )

    # ------------------------------------------------------------------
    # Layer plumbing
    # ------------------------------------------------------------------

    @property
    def catalog(self):
        return self._storage.catalog

    #: autovacuum fires when dead tuples exceed threshold + scale * live
    #: (PostgreSQL's defaults).
    AUTOVACUUM_THRESHOLD = 50
    AUTOVACUUM_SCALE = 0.2

    def _count_statement(self) -> None:
        with self._statements_lock:
            self._statements += 1

    def _count_statements(self, n: int) -> None:
        """Batch form of the statement counter (one lock hop per batch)."""
        with self._statements_lock:
            self._statements += n

    def _on_statement(self, internal: bool = False) -> None:
        """Per-statement hook: count it, then run due maintenance.

        Maintenance runs *before* the statement's own table lock is
        acquired, so the sweeper's and autovacuum's write locks never nest
        inside a lock this thread already holds.
        """
        self._count_statement()
        if internal or self._storage.replaying:
            return
        self._maintain()

    def _maintain(self) -> None:
        """TTL sweeps + autovacuum; re-entry safe (sweeps issue statements).

        Runs against a snapshot of the sweeper/heap maps, so a concurrent
        ``drop_table`` can pull a table out from under it; a vanished
        table is simply skipped (the seed's global lock made this race
        impossible, and it must not surface as an error in whatever user
        statement happened to trigger maintenance).
        """
        if getattr(self._in_maintenance, "active", False):
            return
        self._in_maintenance.active = True
        try:
            now = self.clock.now()
            for sweeper in list(self._sweepers.values()):
                if sweeper.due(now):
                    try:
                        sweeper.run(now)
                    except CatalogError:
                        continue  # table dropped concurrently
            for name, heap in list(self._storage.heaps.items()):
                if heap.dead_count > self.AUTOVACUUM_THRESHOLD + self.AUTOVACUUM_SCALE * heap.live_count:
                    try:
                        self._vacuum_locked(name)
                    except CatalogError:
                        continue  # table dropped concurrently
        finally:
            self._in_maintenance.active = False

    def _vacuum_locked(self, table: str) -> int:
        """Write-locked, horizon-gated vacuum of one table (maintenance)."""
        with self._locks.write(table):
            return self._storage.vacuum_table(table, self._snapshots.horizon())

    def _log_csv(self, kind: str, table: str, detail: str, rows: int) -> None:
        if self.csvlog is not None and not self._storage.replaying:
            self.csvlog.log(kind, table, detail, rows)

    def _audit_select(self, table: str, rows: list[dict], plan: Plan) -> None:
        if self.csvlog is not None and self.csvlog.log_reads:
            # The paper's row-level-security policy records query
            # *responses*, not just statements: a breach report must
            # say which personal data was exposed (G 33(3a)).  The
            # response payload is serialised into the audit line,
            # capped so a huge export cannot blow up one log record.
            detail = plan.describe() + " -> " + repr(rows)[:_SELECT_AUDIT_CAP]
            self._log_csv("SELECT", table, detail, len(rows))

    # ------------------------------------------------------------------
    # Write sessions (commit stamping / statement scopes)
    # ------------------------------------------------------------------

    def _commit_session(self, session) -> None:
        """Stamp a write session's versions under one commit timestamp.

        Version stamps only carry meaning for MVCC snapshot readers; the
        lock-based modes skip the stamping pass (their deletes are marked
        dead immediately and nobody reads ``xmin``), keeping the seed's
        per-statement cost on the write hot path.
        """
        if not session.changes:
            return
        if self._locks.mode != "mvcc":
            session.changes.clear()
            return
        with self._commit_clock.committing() as ts:
            self._storage.commit_session(session, ts)

    @contextmanager
    def _write_scope(self, table: str):
        """One autocommit write statement: lock (+ session + stamp in MVCC).

        Under MVCC the statement runs in a write session so an error rolls
        it back (statement atomicity — pending version stamps must not
        leak) and a success stamps one commit timestamp.  The lock-based
        modes take just the write lock, exactly the seed's hot path: an
        autocommit statement there never rolls back (a failing statement's
        earlier row effects stand, the seed semantics), so the session
        bookkeeping would buy nothing.  Explicit transactions open
        sessions in every mode — that is where ``rollback()`` lives.
        """
        if self._locks.mode != "mvcc":
            with self._locks.write(table):
                yield
            return
        with self._locks.write(table):
            session = self._storage.begin_session()
            try:
                yield
            except BaseException:
                self._storage.rollback_session(session)
                raise
            else:
                self._commit_session(session)
            finally:
                self._storage.end_session(session)

    @contextmanager
    def _read_scope(self, table: str):
        """One autocommit read statement; yields the snapshot ts (or None).

        MVCC acquires a snapshot and takes **no lock**; the lock-based
        modes take the table's shared (or global) lock and read latest.
        """
        if self._locks.mode == "mvcc":
            ts = self._snapshots.acquire()
            try:
                yield ts
            finally:
                self._snapshots.release(ts)
        else:
            with self._locks.read(table):
                yield None

    @contextmanager
    def snapshot_reader(self, statements: int = 0):
        """A read-only statement surface pinned to one snapshot.

        Under MVCC the yielded :class:`SnapshotReader` runs every query
        lock-free at one commit-timestamp snapshot — the natural unit for
        a batched compliance scan (all reads of the batch observe one
        consistent state).  In lock-based modes it falls back to ordinary
        per-statement read locking.  ``statements`` is the batch's
        statement count, charged up front in one counter hop (maintenance
        also runs once, before the snapshot is taken, mirroring the
        per-statement hook).
        """
        if statements:
            self._count_statements(statements)
            if not self._storage.replaying:
                self._maintain()
        if self._locks.mode == "mvcc":
            ts = self._snapshots.acquire()
            try:
                yield SnapshotReader(self, ts)
            finally:
                self._snapshots.release(ts)
        else:
            yield SnapshotReader(self, None)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self, read: Sequence[str] = (), write: Sequence[str] = (),
              _internal: bool = False) -> Transaction:
        """Start a transaction holding the declared tables' locks.

        Statements on the returned :class:`Transaction` run without
        re-locking; ``commit()`` releases the locks after one WAL group
        commit, and ``rollback()`` undoes the batch via WAL-backed undo.
        Tables touched but not declared are locked on first use when that
        preserves ascending-name acquisition order (refused otherwise —
        see :class:`~repro.minisql.transaction.Transaction`).  Under MVCC
        the read set costs nothing: those tables are covered by the
        transaction's snapshot.
        """
        return Transaction(self, read=read, write=write, internal=_internal).begin()

    def transaction(self, read: Sequence[str] = (), write: Sequence[str] = (),
                    _internal: bool = False) -> Transaction:
        """Context-manager form of :meth:`begin` (commit on clean exit)."""
        return Transaction(self, read=read, write=write, internal=_internal)

    # ------------------------------------------------------------------
    # DDL (catalog lock above table locks; never inside a transaction)
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str | None = None,
    ) -> None:
        with self._ddl_lock:
            self._count_statement()
            self._storage.create_table(name, columns, primary_key)
            if primary_key is not None:
                self.create_index(f"{name}_pkey", name, primary_key, unique=True)
            self._log_csv("DDL", name, "CREATE TABLE", 0)

    def drop_table(self, name: str) -> None:
        with self._ddl_lock:
            self._count_statement()
            with self._locks.write(name):
                self._storage.drop_table(name)
            self._sweepers.pop(name, None)
            self._log_csv("DDL", name, "DROP TABLE", 0)

    def create_index(self, name: str, table: str, column: str, unique: bool = False) -> None:
        """Create a secondary index (built immediately from the heap)."""
        with self._ddl_lock:
            self._count_statement()
            with self._locks.write(table):
                self._storage.create_index(name, table, column, unique=unique)
            self._log_csv("DDL", table, f"CREATE INDEX {name} ON {table}({column})", 0)

    def drop_index(self, name: str) -> None:
        with self._ddl_lock:
            self._count_statement()
            info = self.catalog.index(name)
            with self._locks.write(info.table):
                self._storage.drop_index(name)
            self._log_csv("DDL", info.table, f"DROP INDEX {name}", 0)

    def enable_ttl(self, table: str, column: str, interval: float | None = None) -> TTLSweeper:
        """Attach the timely-deletion daemon to ``table.column``."""
        with self._ddl_lock:
            schema = self.catalog.table(table)
            schema.column_index(column)  # validate
            sweeper = TTLSweeper(
                self, table, column,
                interval=self.config.ttl_interval if interval is None else interval,
            )
            self._sweepers[table] = sweeper
            return sweeper

    @property
    def ttl_enabled(self) -> bool:
        return bool(self._sweepers)

    # ------------------------------------------------------------------
    # DML / queries (autocommit: one statement, one lock scope)
    # ------------------------------------------------------------------

    def insert(self, table: str, values: Mapping[str, object], _internal: bool = False) -> int:
        self._on_statement(internal=_internal)
        with self._write_scope(table):
            # audit lines are written inside the lock scope so the csvlog
            # order matches the apply order (the seed's guarantee — an
            # auditor replaying the log must reconstruct the final state)
            rid = self._executor.insert(table, values)
            self._log_csv("INSERT", table, table, 1)
        return rid

    def select(
        self,
        table: str,
        where: Expr | None = None,
        columns: Sequence[str] | None = None,
        limit: int | None = None,
        order_by: str | None = None,
        descending: bool = False,
        _internal: bool = False,
    ) -> list[dict]:
        """Run a query; returns a list of column->value dicts."""
        self._on_statement(internal=_internal)
        with self._read_scope(table) as at:
            rows, plan = self._executor.select(
                table, where, columns=columns, limit=limit,
                order_by=order_by, descending=descending, at=at,
            )
            self._audit_select(table, rows, plan)
        return rows

    def count(self, table: str, where: Expr | None = None) -> int:
        self._on_statement()  # a user statement: sweepers/autovacuum may run
        with self._read_scope(table) as at:
            return self._executor.count(table, where, at=at)

    def aggregate(
        self,
        table: str,
        function: str,
        column: str | None = None,
        where: Expr | None = None,
        group_by: str | None = None,
    ):
        """COUNT/SUM/MIN/MAX/AVG, optionally grouped by one column.

        ``column=None`` is COUNT(*) semantics (rows, not values).  Without
        ``group_by`` returns a scalar; with it, a dict of group -> value.
        Regulators use this for census queries — e.g. records held per
        customer — without ever touching personal data.
        """
        self._on_statement()
        with self._read_scope(table) as at:
            return self._executor.aggregate(
                table, function, column=column, where=where, group_by=group_by,
                at=at,
            )

    def update(
        self,
        table: str,
        assignments: Mapping[str, object],
        where: Expr | None = None,
        _internal: bool = False,
    ) -> int:
        self._on_statement(internal=_internal)
        with self._write_scope(table):
            changed = self._executor.update(table, assignments, where)
            self._log_csv("UPDATE", table, repr(sorted(assignments)), changed)
        return changed

    def delete(self, table: str, where: Expr | None = None, _internal: bool = False) -> int:
        self._on_statement(internal=_internal)
        with self._write_scope(table):
            removed = self._executor.delete(table, where)
            self._log_csv("DELETE", table, repr(where), removed)
        return removed

    def vacuum(self, table: str | None = None) -> int:
        self._count_statement()
        tables = [table] if table is not None else self.catalog.tables()
        reclaimed = 0
        for name in tables:
            try:
                reclaimed += self._vacuum_locked(name)
            except CatalogError:
                if table is not None:
                    raise  # an explicit target must exist
                # a database-wide sweep skips concurrently dropped tables
        return reclaimed

    def explain(self, table: str, where: Expr | None = None) -> str:
        with self._locks.read(table):
            return self._executor.explain(table, where)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def table_stats(self, table: str) -> dict:
        with self._locks.read(table):
            heap = self._storage.heap(table)
            index_bytes = {
                info.name: self._storage.indices[info.name].size_bytes()
                for info in self.catalog.indices_for(table)
            }
            return {
                "live_rows": heap.live_count,
                "dead_rows": heap.dead_count,
                "heap_bytes": heap.total_bytes(),
                "index_bytes": index_bytes,
                "total_bytes": heap.total_bytes() + sum(index_bytes.values()),
            }

    def disk_usage(self) -> dict:
        """Total footprint: heaps + indices + WAL + csvlog (Table 3).

        Reads the layers' byte counters without table locks — each counter
        is a single attribute read, so a concurrent writer can at worst
        make the snapshot momentarily stale, never inconsistent per table.
        """
        heap_bytes = sum(h.total_bytes() for h in list(self._storage.heaps.values()))
        index_bytes = sum(i.size_bytes() for i in list(self._storage.indices.values()))
        wal_bytes = self._storage.wal.size_bytes() if self._storage.wal else 0
        log_bytes = self.csvlog.size_bytes() if self.csvlog else 0
        return {
            "heap_bytes": heap_bytes,
            "index_bytes": index_bytes,
            "wal_bytes": wal_bytes,
            "csvlog_bytes": log_bytes,
            "total_bytes": heap_bytes + index_bytes + wal_bytes + log_bytes,
        }

    def info(self) -> dict:
        return {
            "tables": self.catalog.tables(),
            "statements": self._statements,
            "gdpr_features": self.config.gdpr_features(
                has_indices=any(
                    not info.name.endswith("_pkey")
                    for t in self.catalog.tables()
                    for info in self.catalog.indices_for(t)
                ),
                has_ttl=self.ttl_enabled,
            ),
            "disk_usage": self.disk_usage(),
        }

    # ------------------------------------------------------------------

    def close(self) -> None:
        self._storage.close()
        if self.csvlog is not None:
            self.csvlog.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
