"""Multi-process sharded minisql behind the ``Database`` facade.

The SQL twin of :mod:`repro.minikv.sharded` (PR 4's headline): every
minisql configuration so far — including MVCC — executes all engine
bytecode on one GIL, so the ``fig8t`` thread-scaling curves flatten at
one core while the sharded minikv keeps climbing.  This module
hash-partitions each table's **rows by primary key** across
``MiniSQLConfig.shards`` worker processes:

* each worker owns one shard: a full :class:`~repro.minisql.database.Database`
  (``shards=1``) with its own WAL at ``<wal_path>.shard<i>`` and its own
  csvlog at ``<csvlog_path>.shard<i>``, so durability, crash recovery,
  TTL sweeping, autovacuum, and the audit trail are all per-shard and
  independent;
* the front (:class:`ShardedDatabase`) exposes the facade's statement
  surface: DDL fans out (every shard holds the same catalog, different
  rows), a row routes to shard ``crc32(str(pk_value)) % N`` on INSERT,
  point statements whose WHERE pins the primary key (``Cmp(pk, '=', v)``)
  route to that one shard, and every other SELECT / COUNT / AGGREGATE /
  UPDATE / DELETE fans out with a gather-side merge (concatenate + late
  sort/limit for rows, sums for counts, per-function folds for
  aggregates — AVG decomposes into per-shard SUM + COUNT);
* :meth:`ShardedDatabase.pipeline` scatter/gathers a statement batch:
  one sub-batch message per involved shard, each executed **inside one
  transaction on its worker** (one lock-set acquisition, one WAL group
  commit — per-shard transactional atomicity), with the workers running
  in parallel under their own GILs;
* a worker that dies is respawned on the next statement that touches it
  and replays its shard's WAL before serving — recovery is per-shard and
  never stalls the other shards.

What stays single-shard (the honest cost of partitioning, tabled in
``docs/sharding.md``): cross-shard statements are **not atomic across
shards** (each shard applies its part atomically; concurrent observers
can see one shard's effects first), explicit ``begin()``/``transaction()``
handles are refused on the front (use :meth:`~ShardedDatabase.pipeline`
for per-shard atomicity), a primary key cannot be reassigned by UPDATE
(rows are partitioned by it), and tables created without a primary key
live wholly on shard 0.

``shards=1`` deployments pay none of this: callers go through
:func:`open_database`, which returns a plain in-process
:class:`Database` — the paper's semantics, byte-identical to the seed
construction path — unless ``shards > 1``.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.common.errors import ConfigurationError, SQLError
from repro.common.hashring import in_slot, key_point
from repro.common.sharding import (
    ShardConnectionError as _BaseShardConnectionError,
    ShardRouter,
    serve_shard,
    shard_path,
)
from repro.crypto.luks import FileCipher

from .database import Database, MiniSQLConfig
from .executor import Executor
from .expr import Cmp, Expr
from .schema import Column


class SQLShardConnectionError(_BaseShardConnectionError, SQLError):
    """A minisql shard worker could not be reached even after a respawn."""


#: statement methods that take the written side of a table (everything
#: else on the batch surface is a read)
_WRITE_METHODS = frozenset({"insert", "update", "delete"})


def shard_store_path(base_path: str, index: int) -> str:
    """Per-shard persistence file (WAL / csvlog) for one worker."""
    return shard_path(base_path, index)


def _worker_config(config: MiniSQLConfig, index: int) -> MiniSQLConfig:
    """The engine config one worker runs: its own shard, one process."""
    return dataclasses.replace(
        config,
        shards=1,
        transport="pipe",
        shard_addresses=None,
        wal_path=(
            shard_store_path(config.wal_path, index)
            if config.wal_path is not None else None
        ),
        csvlog_path=(
            shard_store_path(config.csvlog_path, index)
            if config.csvlog_path is not None else None
        ),
    )


class _ShardBackend(Database):
    """The engine one minisql shard worker runs.

    A full :class:`Database` plus the handful of RPC helpers the front
    needs that the facade does not expose as plain picklable methods
    (property access, sweeper handles, catalog bootstrap).
    """

    def select_point(self, table: str, column: str, value,
                     columns: Sequence[str] | None = None) -> list[dict]:
        """Point lookup as a statement (the pipelined read hot path)."""
        return self.select(table, Cmp(column, "=", value), columns=columns)

    def describe(self) -> dict[str, tuple[str, Column] | None]:
        """table -> (pk name, pk Column), for front routing bootstrap.

        The Column rides along so the front can canonicalize values
        through the declared type before hashing (an INSERT carrying the
        int ``1`` and a SELECT carrying the coerced ``1.0`` must route
        to the same shard).  Tables without a primary key map to None.
        """
        out: dict[str, tuple[str, Column] | None] = {}
        for name in self.catalog.tables():
            schema = self.catalog.table(name)
            if schema.primary_key is None:
                out[name] = None
            else:
                out[name] = (schema.primary_key,
                             schema.column(schema.primary_key))
        return out

    def get_catalog(self):
        """The shard's catalog (identical on every shard: DDL fans out)."""
        return self.catalog

    def arm_ttl(self, table: str, column: str,
                interval: float | None = None) -> None:
        """``enable_ttl`` minus the sweeper handle (not picklable)."""
        self.enable_ttl(table, column, interval)

    def flush_csvlog(self) -> None:
        """Force buffered audit lines to disk for front-side readers."""
        if self.csvlog is not None:
            self.csvlog.flush()

    def flush_wal(self) -> None:
        """Force the WAL buffer to disk (minikv's ``flush_aof`` twin)."""
        if self._storage.wal is not None:
            self._storage.wal.flush()

    # -- online resharding (the worker side; see docs/sharding.md) --------

    def migrate_dump(self, lo: int, hi: int) -> dict[str, list[dict]]:
        """Every pk-routed row whose key falls in ring slot ``(lo, hi]``.

        Rows are read through the statement surface, so the dump sees
        exactly the committed state (including writes still buffered for
        the WAL file — the catch-up step).  Tables without a primary key
        are not ring-placed (they live on the anchor shard) and are
        skipped here; :meth:`migrate_dump_tables` moves them wholesale.
        """
        out: dict[str, list[dict]] = {}
        for name in self.catalog.tables():
            pk = self.catalog.table(name).primary_key
            if pk is None:
                continue
            rows = [
                row for row in self.select(name, _internal=True)
                if in_slot(key_point(str(row[pk])), lo, hi)
            ]
            if rows:
                out[name] = rows
        return out

    def migrate_dump_tables(self, tables: Sequence[str]) -> dict[str, list[dict]]:
        """Whole tables (the pk-less anchor set), for anchor handover."""
        return {name: self.select(name, _internal=True) for name in tables}

    def migrate_apply(self, payload: Mapping[str, list[dict]]) -> int:
        """Install dumped rows; idempotent so a repaired migration can
        re-apply (delete-by-pk first; pk-less tables are replaced whole —
        their rows only ever live on one shard)."""
        applied = 0
        for name, rows in payload.items():
            pk = self.catalog.table(name).primary_key
            if pk is None:
                self.delete(name, None, _internal=True)
            for row in rows:
                if pk is not None:
                    self.delete(name, Cmp(pk, "=", row[pk]), _internal=True)
                self.insert(name, row, _internal=True)
                applied += 1
        return applied

    def migrate_drop(self, payload: Mapping[str, list[dict]]) -> int:
        """Forget dumped rows after the destination applied them."""
        dropped = 0
        for name, rows in payload.items():
            pk = self.catalog.table(name).primary_key
            if pk is None:
                continue  # pk-less tables move by handover, never by slot
            for row in rows:
                dropped += self.delete(name, Cmp(pk, "=", row[pk]), _internal=True)
        return dropped

    def dump_catalog(self) -> dict:
        """DDL as data: everything a fresh shard needs to mirror us."""
        tables = []
        for name in self.catalog.tables():
            schema = self.catalog.table(name)
            tables.append((name, list(schema.columns), schema.primary_key))
        indices = []
        for name in self.catalog.tables():
            for info in self.catalog.indices_for(name):
                if info.name == f"{name}_pkey":
                    continue  # create_table rebuilds the pkey index itself
                indices.append((info.name, info.table, info.column, info.unique))
        ttls = [
            (sweeper.table, sweeper.column, sweeper.interval)
            for sweeper in self._sweepers.values()
        ]
        return {"tables": tables, "indices": indices, "ttls": ttls}

    def load_catalog(self, payload: Mapping) -> None:
        """Mirror a dumped catalog; idempotent (repair may replay it)."""
        existing = set(self.catalog.tables())
        for name, columns, primary_key in payload["tables"]:
            if name not in existing:
                self.create_table(name, columns, primary_key)
        for name, table, column, unique in payload["indices"]:
            index_names = {
                info.name for t in self.catalog.tables()
                for info in self.catalog.indices_for(t)
            }
            if name not in index_names:
                self.create_index(name, table, column, unique=unique)
        for table, column, interval in payload["ttls"]:
            if table not in self._sweepers:
                self.enable_ttl(table, column, interval)


def _run_statement_batch(db: _ShardBackend, calls: list) -> list:
    """One ``("batch", ...)`` message: a statement sub-batch, atomically.

    The whole sub-batch runs inside **one transaction** — one lock-set
    acquisition over exactly the tables it touches, one maintenance
    tick, one WAL group commit — with failures captured per slot
    (every statement runs; the front raises the first error after the
    gather), mirroring ``SQLClientPipeline``'s error contract.  Under
    ``locking="mvcc"`` a pure-read sub-batch skips the transaction
    machinery and runs lock-free against one snapshot.
    """
    read_tables: set[str] = set()
    write_tables: set[str] = set()
    for method, args, _kwargs in calls:
        table = args[0]
        if method in _WRITE_METHODS:
            write_tables.add(table)
        else:
            read_tables.add(table)
    results: list = []

    def drain(runner) -> None:
        for method, args, kwargs in calls:
            try:
                results.append(getattr(runner, method)(*args, **kwargs))
            except Exception as exc:  # captured per slot, batch continues
                results.append(exc)

    if not write_tables and db.config.locking == "mvcc":
        with db.snapshot_reader(statements=len(calls)) as reader:
            drain(reader)
    else:
        with db.transaction(
            read=sorted(read_tables - write_tables), write=sorted(write_tables)
        ) as txn:
            drain(txn)
    return results


def _worker_main(conn, config: MiniSQLConfig) -> None:
    """One shard worker: replay the shard WAL, then serve the connection."""
    engine = _ShardBackend(config)  # replays this shard's WAL if one exists
    serve_shard(conn, engine, _run_statement_batch, SQLError)


class ShardedSQLPipeline:
    """A queued statement batch scatter/gathered across shard workers.

    The SQL analogue of :class:`~repro.minikv.sharded.ShardedPipeline`:
    queueing methods mirror the statement surface and return ``self``;
    :meth:`execute` splits the queue into one sub-batch per involved
    shard, ships each as a single message, and every worker runs its
    sub-batch **inside one transaction** — so atomicity is per shard
    (each sub-batch commits atomically on its shard; there is no
    cross-shard barrier).  Point statements occupy one slot part;
    fan-out statements (a SELECT/UPDATE/DELETE/COUNT whose WHERE does
    not pin the primary key) split into one part per shard and merge at
    gather time (row concatenation / count sums).
    """

    __slots__ = ("_front", "_slots", "_per_shard")

    def __init__(self, front: "ShardedDatabase") -> None:
        self._front = front
        #: one entry per queued statement: (merge kind, parts, limit),
        #: where parts are (shard index, position in that shard's
        #: sub-batch) and limit re-cuts a fan-out "rows" merge at gather
        self._slots: list[tuple[str, tuple[tuple[int, int], ...], int | None]] = []
        self._per_shard: dict[int, list[tuple[str, tuple, dict]]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def _queue_parts(self, merge: str, indices: Sequence[int], method: str,
                     args: tuple, kwargs: dict,
                     limit: int | None = None) -> "ShardedSQLPipeline":
        parts = []
        for index in indices:
            calls = self._per_shard.setdefault(index, [])
            parts.append((index, len(calls)))
            calls.append((method, args, kwargs))
        self._slots.append((merge, tuple(parts), limit))
        return self

    def _queue_routed(self, merge: str, table: str, where, method: str,
                      args: tuple, kwargs: dict,
                      limit: int | None = None) -> "ShardedSQLPipeline":
        index = self._front._route_where(table, where)
        indices = self._front.shard_ids if index is None else (index,)
        return self._queue_parts(merge, indices, method, args, kwargs, limit)

    # -- queueing surface (mirrors the statement surface) -----------------

    def insert(self, table: str, values: Mapping[str, object]) -> "ShardedSQLPipeline":
        values = dict(values)
        index = self._front._route_row(table, values)
        return self._queue_parts("one", (index,), "insert", (table, values), {})

    def update(self, table: str, assignments: Mapping[str, object],
               where: Expr | None = None) -> "ShardedSQLPipeline":
        self._front._check_pk_assignment(table, assignments)
        return self._queue_routed(
            "sum", table, where, "update", (table, dict(assignments), where), {}
        )

    def delete(self, table: str, where: Expr | None = None) -> "ShardedSQLPipeline":
        return self._queue_routed("sum", table, where, "delete", (table, where), {})

    def select(self, table: str, where: Expr | None = None,
               columns: Sequence[str] | None = None,
               limit: int | None = None) -> "ShardedSQLPipeline":
        # each shard applies `limit` locally (no shard ships more than
        # that), then the gather re-cuts the concatenation to `limit`
        return self._queue_routed(
            "rows", table, where, "select", (table, where),
            {"columns": list(columns) if columns is not None else None,
             "limit": limit},
            limit=limit,
        )

    def select_point(self, table: str, column: str, value,
                     columns: Sequence[str] | None = None) -> "ShardedSQLPipeline":
        front = self._front
        kwargs = {"columns": list(columns) if columns is not None else None}
        if front._pks.get(table) == column:
            indices: Sequence[int] = (front._shard_for_value(table, value),)
        else:
            indices = front.shard_ids
        return self._queue_parts(
            "rows", indices, "select_point", (table, column, value), kwargs
        )

    def count(self, table: str, where: Expr | None = None) -> "ShardedSQLPipeline":
        return self._queue_routed("sum", table, where, "count", (table, where), {})

    # -- execution --------------------------------------------------------

    def execute(self, raise_on_error: bool = True) -> list:
        """Run the batch; per-statement results in queue order.

        Failures are captured per slot and the first is raised after the
        whole batch completes (pass ``raise_on_error=False`` to receive
        them in the result list) — the client pipeline's contract.
        """
        slots, self._slots = self._slots, []
        per_shard, self._per_shard = self._per_shard, {}
        if not slots:
            return []
        gathered = self._front._scatter(
            [(index, ("batch", calls)) for index, calls in per_shard.items()]
        )
        results = []
        for merge, parts, limit in slots:
            if len(parts) == 1:
                index, position = parts[0]
                value = gathered[index][position]
                if merge == "rows" and isinstance(value, list):
                    value = list(value)
            elif merge == "sum":
                value = 0
                for index, position in parts:
                    part = gathered[index][position]
                    if isinstance(part, Exception):
                        value = part
                        break
                    value += part
            else:  # "rows": concatenate in shard order, re-cut to limit
                value = []
                for index, position in sorted(parts):
                    part = gathered[index][position]
                    if isinstance(part, Exception):
                        value = part
                        break
                    value.extend(part)
                if limit is not None and isinstance(value, list):
                    value = value[:limit]
            results.append(value)
        if raise_on_error:
            for value in results:
                if isinstance(value, Exception):
                    raise value
        return results


class ShardedDatabase(ShardRouter):
    """Shard router: the ``Database`` statement surface over N workers.

    Construct via :func:`open_database` so that ``shards=1``
    configurations stay on the in-process engine.  Worker lifecycle,
    crash recovery, and the scatter/gather transport come from
    :class:`repro.common.sharding.ShardRouter`; this class adds primary-
    key routing and the gather-side merges.
    """

    worker_target = staticmethod(_worker_main)
    worker_name = "minisql-shard"
    error_class = SQLShardConnectionError

    def __init__(self, config: MiniSQLConfig | None = None) -> None:
        self.config = config or MiniSQLConfig()
        if self.config.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        self._file_cipher = FileCipher() if self.config.encryption_at_rest else None
        super().__init__(
            self.config.shards,
            transport=self.config.transport,
            addresses=self.config.shard_addresses,
            # the topology file lives next to the WAL; without durability
            # the topology is in-memory like everything else
            base_path=self.config.wal_path,
        )
        #: table -> primary key name, and table -> pk Column (for value
        #: canonicalization) — the routing maps.  Bootstrapped from the
        #: anchor shard so a WAL-recovered deployment routes correctly
        #: (DDL fans out, so every shard holds the same catalog).
        self._pks: dict[str, str | None] = {}
        self._pk_columns: dict[str, Column] = {}
        for table, pk_info in self._call(self._anchor_id, "describe").items():
            self._register_pk(table, pk_info)

    # ------------------------------------------------------------------
    # Router hooks
    # ------------------------------------------------------------------

    def _shard_config(self, shard_id: int) -> MiniSQLConfig:
        return _worker_config(self.config, shard_id)

    def _shard_files(self, shard_id: int) -> list[str]:
        paths = []
        if self.config.wal_path is not None:
            paths.append(shard_store_path(self.config.wal_path, shard_id))
        if self.config.csvlog_path is not None:
            paths.append(shard_store_path(self.config.csvlog_path, shard_id))
        return paths

    def _on_shard_added(self, shard_id: int) -> None:
        """Clone the catalog onto the fresh shard (DDL fans out, so every
        live shard already agrees; any of them can be the template)."""
        template = min(i for i in self._shards if i != shard_id)
        payload = self._call(template, "dump_catalog")
        self._call(shard_id, "load_catalog", payload)

    def _before_shard_removed(self, shard_id: int, surviving_ids) -> None:
        """Hand pk-less tables over when the anchor shard departs.

        Tables without a primary key are not ring-placed: all their rows
        live on the anchor (smallest live id).  Removing the anchor
        re-homes them wholesale onto the next-smallest id; the apply
        replaces the target's (empty) copy, so a repaired re-run is safe.
        """
        if shard_id != min(shard_id, *surviving_ids):
            return  # not the anchor: nothing lives outside the ring
        nopk = [
            table for table, pk_info
            in self._call(shard_id, "describe").items()
            if pk_info is None
        ]
        if not nopk:
            return
        payload = self._call(shard_id, "migrate_dump_tables", nopk)
        self._call(min(surviving_ids), "migrate_apply", payload)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _register_pk(self, table: str,
                     pk_info: tuple[str, Column] | None) -> None:
        if pk_info is None:
            self._pks[table] = None
            self._pk_columns.pop(table, None)
        else:
            self._pks[table], self._pk_columns[table] = pk_info

    def _shard_for_value(self, table: str, value) -> int:
        """The shard owning primary-key ``value`` (ring point of its text).

        The value is canonicalized through the declared column type
        first, so the int ``1`` an INSERT carries and the stored float
        ``1.0`` a later point SELECT carries hash identically — routing
        must agree with what validation stores.  A value the type
        rejects routes on its raw text; the statement itself raises the
        real error on its worker.
        """
        column = self._pk_columns.get(table)
        if column is not None:
            try:
                value = column.validate(value)
            except Exception:
                pass  # let the routed statement surface the type error
        return self._owner(key_point(str(value)))

    def _route_row(self, table: str, values: Mapping[str, object]) -> int:
        """The shard a new row lands on: hash of its primary key value.

        Tables without a primary key have no routing attribute and live
        wholly on shard 0 (documented in docs/sharding.md).
        """
        pk = self._pks.get(table)
        if pk is None:
            return self._anchor_id
        return self._shard_for_value(table, values.get(pk))

    def _route_where(self, table: str, where: Expr | None) -> int | None:
        """Shard index when ``where`` pins the primary key, else None.

        A WHERE routes when a **top-level conjunct** is the point shape
        ``Cmp(pk, '=', value)`` — the bare predicate itself, or any arm
        of an ``And`` tree (``Expr.conjuncts`` flattens nested ``And``s).
        Rows satisfying such a WHERE can live on no other shard: INSERT
        routed the key there and UPDATE may not reassign a primary key,
        and AND only ever narrows the match.  Everything else — ranges,
        other columns, disjunctions (an OR arm does not constrain the
        whole match) — fans out.  Two contradictory pk conjuncts
        (``pk=1 AND pk=2``) route to either key's shard: the match is
        empty everywhere, so any single shard answers correctly.
        """
        pk = self._pks.get(table)
        if pk is None or where is None:
            return None
        for conjunct in where.conjuncts():
            if (isinstance(conjunct, Cmp) and conjunct.op == "="
                    and conjunct.column == pk):
                return self._shard_for_value(table, conjunct.value)
        return None

    def _check_pk_assignment(self, table: str, assignments: Mapping[str, object]) -> None:
        pk = self._pks.get(table)
        if pk is not None and pk in assignments:
            raise SQLError(
                f"sharded minisql cannot reassign primary key {pk!r} of "
                f"{table!r}: rows are partitioned by it (DELETE + INSERT "
                "to move a row)"
            )

    # ------------------------------------------------------------------
    # DDL (fans out: every shard holds the same catalog)
    # ------------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[Column],
                     primary_key: str | None = None) -> None:
        columns = list(columns)
        self._fanout("create_table", (name, columns, primary_key))
        if primary_key is None:
            self._register_pk(name, None)
        else:
            pk_column = next(c for c in columns if c.name == primary_key)
            self._register_pk(name, (primary_key, pk_column))

    def drop_table(self, name: str) -> None:
        self._fanout("drop_table", (name,))
        self._pks.pop(name, None)
        self._pk_columns.pop(name, None)

    def create_index(self, name: str, table: str, column: str,
                     unique: bool = False) -> None:
        self._fanout("create_index", (name, table, column), {"unique": unique})

    def drop_index(self, name: str) -> None:
        self._fanout("drop_index", (name,))

    def enable_ttl(self, table: str, column: str,
                   interval: float | None = None) -> None:
        """Attach the timely-deletion daemon on every shard.

        Each worker arms its own sweeper over its own rows; the per-shard
        sweeper handle stays in the worker (it is not picklable), so this
        returns ``None`` — unlike the in-process facade.
        """
        self._fanout("arm_ttl", (table, column, interval))

    # ------------------------------------------------------------------
    # DML / queries
    # ------------------------------------------------------------------

    def insert(self, table: str, values: Mapping[str, object],
               _internal: bool = False) -> int:
        return self._call(
            self._route_row(table, values), "insert", table, dict(values),
            _internal=_internal,
        )

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
        """Run a query; point-on-pk routes, everything else fans out.

        The fan-out merge reproduces the facade's semantics: each shard
        applies ``order_by``/``limit`` locally (so no shard ships more
        than ``limit`` rows), the gather concatenates, re-sorts with the
        executor's NULLS-last key, and re-cuts to ``limit``.
        """
        index = self._route_where(table, where)
        if index is not None:
            return self._call(
                index, "select", table, where, columns=columns, limit=limit,
                order_by=order_by, descending=descending, _internal=_internal,
            )
        fetch_columns = columns
        if (columns is not None and order_by is not None
                and order_by not in columns):
            # the gather-side sort needs the order column; strip it after
            fetch_columns = list(columns) + [order_by]
        gathered = self._fanout("select", (table, where), {
            "columns": fetch_columns, "limit": limit, "order_by": order_by,
            "descending": descending, "_internal": _internal,
        })
        rows = [row for i in sorted(gathered) for row in gathered[i]]
        if order_by is not None:
            rows.sort(
                key=lambda row: (row[order_by] is None, row[order_by]),
                reverse=descending,
            )
        if limit is not None:
            rows = rows[:limit]
        if fetch_columns is not columns:
            for row in rows:
                del row[order_by]
        return rows

    def select_point(self, table: str, column: str, value,
                     columns: Sequence[str] | None = None) -> list[dict]:
        """Point lookup: one shard when ``column`` is the primary key."""
        if self._pks.get(table) == column:
            return self._call(
                self._shard_for_value(table, value), "select_point",
                table, column, value, columns=columns,
            )
        gathered = self._fanout(
            "select_point", (table, column, value), {"columns": columns}
        )
        return [row for i in sorted(gathered) for row in gathered[i]]

    def count(self, table: str, where: Expr | None = None) -> int:
        index = self._route_where(table, where)
        if index is not None:
            return self._call(index, "count", table, where)
        return sum(self._fanout("count", (table, where)).values())

    def aggregate(
        self,
        table: str,
        function: str,
        column: str | None = None,
        where: Expr | None = None,
        group_by: str | None = None,
    ):
        """COUNT/SUM/MIN/MAX/AVG with a per-function gather-side fold.

        COUNT and SUM sum the per-shard results, MIN/MAX take the
        extremum, and AVG decomposes into per-shard SUM + COUNT (a mean
        of per-shard means would weight shards, not rows).  ``group_by``
        folds the same way per group across the shard dicts.  Empty-set
        semantics match the executor: COUNT is 0, the rest are ``None``.
        """
        function = function.lower()
        if function not in Executor.AGGREGATES:
            raise SQLError(
                f"unknown aggregate {function!r}; choose from "
                f"{sorted(Executor.AGGREGATES)}"
            )
        index = self._route_where(table, where)
        if index is not None:
            return self._call(
                index, "aggregate", table, function, column=column,
                where=where, group_by=group_by,
            )
        if function == "avg":
            if column is None:
                raise SQLError("AVG requires a column")
            sums = self._merged_aggregate(table, "sum", column, where, group_by)
            counts = self._merged_aggregate(table, "count", column, where, group_by)
            if group_by is None:
                return sums / counts if counts else None
            return {
                group: (sums[group] / counts[group]) if counts.get(group) else None
                for group in sums
            }
        return self._merged_aggregate(table, function, column, where, group_by)

    #: per-shard aggregate results -> one value (non-None parts only)
    _AGGREGATE_MERGES = {
        "count": sum,
        "sum": sum,
        "min": min,
        "max": max,
    }

    def _merged_aggregate(self, table: str, function: str, column, where, group_by):
        fold = self._AGGREGATE_MERGES[function]
        gathered = self._fanout("aggregate", (table, function), {
            "column": column, "where": where, "group_by": group_by,
        })
        parts = [gathered[i] for i in sorted(gathered)]
        if group_by is None:
            values = [part for part in parts if part is not None]
            if not values:
                return 0 if function == "count" else None
            return fold(values)
        merged: dict = {}
        for part in parts:
            for group, value in part.items():
                if value is None:
                    merged.setdefault(group, None)
                elif merged.get(group) is None:
                    merged[group] = value
                else:
                    merged[group] = fold((merged[group], value))
        return merged

    def update(
        self,
        table: str,
        assignments: Mapping[str, object],
        where: Expr | None = None,
        _internal: bool = False,
    ) -> int:
        self._check_pk_assignment(table, assignments)
        assignments = dict(assignments)
        index = self._route_where(table, where)
        if index is not None:
            return self._call(
                index, "update", table, assignments, where, _internal=_internal
            )
        return sum(self._fanout(
            "update", (table, assignments, where), {"_internal": _internal}
        ).values())

    def delete(self, table: str, where: Expr | None = None,
               _internal: bool = False) -> int:
        index = self._route_where(table, where)
        if index is not None:
            return self._call(index, "delete", table, where, _internal=_internal)
        return sum(self._fanout(
            "delete", (table, where), {"_internal": _internal}
        ).values())

    def vacuum(self, table: str | None = None) -> int:
        return sum(self._fanout("vacuum", (table,)).values())

    def explain(self, table: str, where: Expr | None = None) -> str:
        """Plans are identical on every shard; the anchor answers."""
        return self._call(self._anchor_id, "explain", table, where)

    def pipeline(self) -> ShardedSQLPipeline:
        """A new scatter/gather statement batch (one txn per shard)."""
        return ShardedSQLPipeline(self)

    # -- refused single-shard-only surface --------------------------------

    def begin(self, *args, **kwargs):
        """Cross-shard interactive transactions are not supported."""
        raise SQLError(
            "sharded minisql has no cross-shard transactions; use "
            "pipeline() for per-shard transactional batches, or shards=1"
        )

    transaction = begin

    def snapshot_reader(self, *args, **kwargs):
        """There is no cross-shard snapshot to pin."""
        raise SQLError(
            "sharded minisql has no cross-shard snapshots; each shard "
            "reads its own (use shards=1 for a global snapshot surface)"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def catalog(self):
        """The catalog (fetched from the anchor; identical on every shard)."""
        return self._call(self._anchor_id, "get_catalog")

    @property
    def ttl_enabled(self) -> bool:
        return bool(
            self._call(self._anchor_id, "info")
            ["gdpr_features"]["timely_deletion"]
        )

    @property
    def wal_paths(self) -> list[str]:
        """The live shards' WAL files (empty when durability is off)."""
        if self.config.wal_path is None:
            return []
        return [shard_store_path(self.config.wal_path, i)
                for i in self.shard_ids]

    @property
    def csvlog_paths(self) -> list[str]:
        """The live shards' statement/audit logs (empty without monitoring)."""
        if self.config.csvlog_path is None:
            return []
        return [shard_store_path(self.config.csvlog_path, i)
                for i in self.shard_ids]

    def flush_csvlog(self) -> None:
        """Flush every shard's csvlog (audit readers parse the files)."""
        self._fanout("flush_csvlog")

    def flush_wal(self) -> None:
        """Flush every shard's WAL buffer (the ``flush_aof`` analogue)."""
        self._fanout("flush_wal")

    def table_stats(self, table: str) -> dict:
        gathered = self._fanout("table_stats", (table,))
        per_shard = [gathered[i] for i in sorted(gathered)]
        index_bytes: dict[str, int] = {}
        for stats in per_shard:
            for name, size in stats["index_bytes"].items():
                index_bytes[name] = index_bytes.get(name, 0) + size
        return {
            "live_rows": sum(s["live_rows"] for s in per_shard),
            "dead_rows": sum(s["dead_rows"] for s in per_shard),
            "heap_bytes": sum(s["heap_bytes"] for s in per_shard),
            "index_bytes": index_bytes,
            "total_bytes": sum(s["total_bytes"] for s in per_shard),
        }

    def disk_usage(self) -> dict:
        gathered = self._fanout("disk_usage")
        per_shard = list(gathered.values())
        return {
            key: sum(usage[key] for usage in per_shard)
            for key in per_shard[0]
        }

    def info(self) -> dict:
        gathered = self._fanout("info")
        per_shard = [gathered[i] for i in sorted(gathered)]
        return {
            "tables": per_shard[0]["tables"],
            "statements": sum(i["statements"] for i in per_shard),
            "gdpr_features": per_shard[0]["gdpr_features"],
            "disk_usage": {
                key: sum(i["disk_usage"][key] for i in per_shard)
                for key in per_shard[0]["disk_usage"]
            },
            "shards": self.shard_count,
            "statements_per_shard": [i["statements"] for i in per_shard],
        }

    def __enter__(self) -> "ShardedDatabase":
        return self


def open_database(config: MiniSQLConfig | None = None, clock=None):
    """Engine factory honouring ``MiniSQLConfig.shards``.

    ``shards=1`` (the default) returns the in-process :class:`Database` —
    the paper's execution model, byte-identical to the seed facade.
    ``shards > 1`` returns a :class:`ShardedDatabase` front over that
    many worker processes.  Sharded workers keep their own system clocks
    (a clock cannot be shared across processes), so injecting a custom
    ``clock`` requires ``shards=1``.
    """
    config = config or MiniSQLConfig()
    if config.shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if config.shards == 1:
        return Database(config, clock=clock)
    if clock is not None:
        raise ConfigurationError(
            "sharded minisql workers run on their own system clocks; "
            "custom clocks require shards=1"
        )
    return ShardedDatabase(config)
