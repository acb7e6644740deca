"""Multi-process sharded minikv — the deployment that escapes the GIL.

Every configuration so far runs the whole keyspace inside one Python
process, so lock striping and pipelining can only shrink *contention*:
all engine bytecode still serialises on one GIL, and throughput cannot
scale past one core.  This module hash-partitions the keyspace across
``MiniKVConfig.shards`` **worker processes** — the striping layer's
natural seam, promoted to a process boundary:

* each worker owns one shard: a full :class:`~repro.minikv.engine.MiniKV`
  engine (``shards=1``) with its own expiry cycles and its own AOF
  (``<aof_path>.shard<i>``), so persistence, replay, and the audit trail
  are per-shard and independent;
* the front (:class:`ShardedMiniKV`) exposes the engine's command
  surface and routes each key with the same ``crc32(key) % N`` rule the
  stripes use; cross-key commands (SCAN, KEYS, purge, FLUSHALL, INFO)
  fan out to every shard and merge;
* :meth:`ShardedMiniKV.pipeline` scatter/gathers a command batch: the
  batch splits into one sub-batch per involved shard, every sub-batch is
  shipped in a single message, the workers execute them **in parallel**
  (each under its own GIL, as one engine pipeline = one lock scope + one
  expiry tick + one AOF group commit), and the front reassembles the
  responses in queue order — one request/response round-trip per shard
  per batch;
* a worker that dies is respawned on the next command that touches it;
  the replacement replays its shard's AOF before serving, so recovery is
  per-shard and never stalls the other shards.

The worker loop and the router transport live in
:mod:`repro.common.sharding` (shared with the sharded minisql front);
this module supplies the minikv command surface on top.

Consistency contract (details in ``docs/sharding.md``): single-key
commands keep exactly the engine's per-key linearizability — a key lives
on one shard and its worker serialises commands — but multi-key and
fan-out operations are **not atomic across shards**: each shard applies
its sub-batch atomically, and concurrent observers may see one shard's
effects before another's.  A command retried through worker recovery is
at-least-once: the replayed AOF already holds the acknowledged prefix,
and the retried command re-applies (idempotent for the engine's
write surface; counters such as DELETE's may differ across the retry).

``shards=1`` deployments should not pay any of this: callers go through
:func:`open_minikv`, which returns a plain in-process :class:`MiniKV`
(the paper's semantics, byte-identical to the seed) unless ``shards > 1``.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ConfigurationError, KVError
from repro.common.hashring import in_slot, key_point
from repro.common.sharding import (
    ShardConnectionError as _BaseShardConnectionError,
    ShardRouter,
    serve_shard,
    shard_path,
)
from repro.crypto.luks import FileCipher

from .datatypes import HashValue, StringValue
from .engine import MiniKV, MiniKVConfig


class ShardConnectionError(_BaseShardConnectionError, KVError):
    """A minikv shard worker could not be reached even after a respawn."""


#: Engine commands that queue on an engine-side pipeline inside a worker
#: (the vocabulary of a ``("batch", ...)`` message).  Everything here has
#: a queueing twin on :class:`~repro.minikv.engine.Pipeline`.
BATCHABLE_COMMANDS = (
    "set", "get", "delete", "exists", "expire", "expireat", "persist",
    "ttl", "hset", "hmset", "hset_if_exists", "hmset_if_exists", "hget",
    "hgetall", "hdel", "sadd", "srem", "smembers", "sismember",
)

#: Single-key commands the front routes by ``crc32(key) % shards``.
#: (``delete`` is multi-key and ``scan`` carries a composite cursor, so
#: both get explicit implementations instead of a generated router.)
_KEYED_COMMANDS = tuple(c for c in BATCHABLE_COMMANDS if c != "delete")


def shard_aof_path(base_path: str, index: int) -> str:
    """Per-shard AOF file derived from the deployment's base path."""
    return shard_path(base_path, index)


def _worker_config(config: MiniKVConfig, index: int) -> MiniKVConfig:
    """The engine config one worker runs: its own shard, one process."""
    return dataclasses.replace(
        config,
        shards=1,
        transport="pipe",
        shard_addresses=None,
        aof_path=(
            shard_aof_path(config.aof_path, index)
            if config.aof_path is not None else None
        ),
        # de-correlate the lazy expiry cycles across shards, mirroring
        # how the striped engine seeds each stripe's cycle differently
        expiry_seed=config.expiry_seed + index,
    )


class _ShardBackend(MiniKV):
    """The engine one shard worker runs: ``MiniKV`` + migration RPCs.

    The three ``migrate_*`` methods are the worker side of online
    resharding (``docs/sharding.md``): the dump reads live state under
    the engine's own locks (so it includes acknowledged writes that have
    not hit the AOF file yet — the catch-up), and the apply replays
    through the public write surface, so the destination's AOF records
    the arrivals durably.  Apply is delete-before-insert and the router
    only drops after a successful apply, so every step is idempotent and
    a crash mid-migration repairs by re-running the plan.
    """

    def migrate_dump(self, lo: int, hi: int) -> list:
        """Every live key in ring slot ``(lo, hi]``: (kind, key, payload,
        deadline) tuples, expired keys skipped (death needs no ticket)."""
        now = self.clock.now()
        items: list[tuple] = []
        with self._locked_all():
            for stripe in self._stripes:
                for key, value in stripe.data.items():
                    if not in_slot(key_point(key), lo, hi):
                        continue
                    if stripe.expires.is_expired(key, now):
                        continue
                    deadline = stripe.expires.deadline(key)
                    if isinstance(value, StringValue):
                        items.append(("string", key, value.data, deadline))
                    elif isinstance(value, HashValue):
                        items.append(("hash", key, dict(value.fields), deadline))
                    else:  # SetValue
                        items.append(("set", key, sorted(value.members), deadline))
        return items

    def migrate_apply(self, items: list) -> int:
        """Install dumped keys (idempotent: any stale twin dies first)."""
        for kind, key, payload, deadline in items:
            self.delete(key)
            if kind == "string":
                self.set(key, payload)
            elif kind == "hash":
                self.hmset(key, payload)
            else:
                self.sadd(key, *payload)
            if deadline is not None:
                self.expireat(key, deadline)
        return len(items)

    def migrate_drop(self, items: list) -> int:
        """Forget dumped keys after the destination applied them."""
        keys = [key for _kind, key, _payload, _deadline in items]
        return self.delete(*keys) if keys else 0


def _run_engine_batch(engine: MiniKV, calls: list) -> list:
    """One ``("batch", ...)`` message: an engine pipeline, per-slot errors.

    Queue-phase failures (e.g. an arity error the in-process Pipeline
    would raise at queue time) are captured per slot, like execution
    failures: one bad command must not abort the other slots' commands.
    """
    pipe = engine.pipeline()
    queue_errors: dict[int, Exception] = {}
    for position, (method, args, kwargs) in enumerate(calls):
        try:
            getattr(pipe, method)(*args, **kwargs)
        except Exception as exc:
            queue_errors[position] = exc
    executed = iter(pipe.execute(raise_on_error=False))
    return [
        queue_errors[position] if position in queue_errors else next(executed)
        for position in range(len(calls))
    ]


def _worker_main(conn, config: MiniKVConfig) -> None:
    """One shard worker: replay the shard AOF, then serve the connection."""
    engine = _ShardBackend(config)  # replays this shard's AOF if one exists
    serve_shard(conn, engine, _run_engine_batch, KVError)


class ShardedPipeline:
    """A queued command batch scatter/gathered across shard workers.

    Mirrors :class:`~repro.minikv.engine.Pipeline`'s queueing surface and
    error semantics.  At :meth:`execute` the queue splits into one
    sub-batch per involved shard; every sub-batch crosses its worker's
    pipe as a single message and runs there as one engine pipeline, so a
    batch costs one round-trip per involved shard — with the workers
    executing their sub-batches concurrently.  Atomicity is therefore
    **per shard**: each worker applies its sub-batch under one lock
    scope, but there is no cross-shard barrier.
    """

    __slots__ = ("_front", "_slots", "_per_shard")

    def __init__(self, front: "ShardedMiniKV") -> None:
        self._front = front
        #: one entry per queued command: a tuple of (shard index,
        #: position in that shard's sub-batch) parts.  Single-key
        #: commands have one part; multi-key DELETE may have several.
        self._slots: list[tuple[tuple[int, int], ...]] = []
        self._per_shard: dict[int, list[tuple[str, tuple, dict]]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def _queue(self, method: str, key: str, args: tuple,
               kwargs: dict) -> "ShardedPipeline":
        index = self._front._shard_index(key)
        calls = self._per_shard.setdefault(index, [])
        self._slots.append(((index, len(calls)),))
        calls.append((method, args, kwargs))
        return self

    def delete(self, *keys: str) -> "ShardedPipeline":
        by_shard: dict[int, list[str]] = {}
        for key in keys:
            by_shard.setdefault(self._front._shard_index(key), []).append(key)
        if not by_shard:  # keyless DELETE still occupies a result slot
            by_shard[self._front._anchor_id] = []
        parts = []
        for index in sorted(by_shard):
            calls = self._per_shard.setdefault(index, [])
            parts.append((index, len(calls)))
            calls.append(("delete", tuple(by_shard[index]), {}))
        self._slots.append(tuple(parts))
        return self

    def execute(self, raise_on_error: bool = True) -> list:
        """Run the batch; per-command results in queue order.

        Failures are captured per slot and the first is raised after the
        whole batch completes (pass ``raise_on_error=False`` to receive
        them in the result list) — the engine pipeline's contract.
        """
        slots, self._slots = self._slots, []
        per_shard, self._per_shard = self._per_shard, {}
        if not slots:
            return []
        gathered = self._front._scatter(
            [(index, ("batch", calls)) for index, calls in per_shard.items()]
        )
        results = []
        for parts in slots:
            if len(parts) == 1:
                index, position = parts[0]
                value = gathered[index][position]
            else:  # multi-key DELETE split across shards: sum the counts
                value = 0
                for index, position in parts:
                    part = gathered[index][position]
                    if isinstance(part, Exception):
                        value = part
                        break
                    value += part
            results.append(value)
        if raise_on_error:
            for value in results:
                if isinstance(value, Exception):
                    raise value
        return results


def _make_keyed_command(method: str):
    def command(self, key, *args, **kwargs):
        # _call_point resolves the owner under the topology lock, so a
        # concurrent reshard cannot slip between routing and exchange
        return self._call_point(key_point(key), method, key, *args, **kwargs)
    command.__name__ = method
    command.__qualname__ = f"ShardedMiniKV.{method}"
    command.__doc__ = f"Route ``{method.upper()}`` to its key's shard worker."
    return command


class ShardedMiniKV(ShardRouter):
    """Shard router: the engine command surface over N worker processes.

    Construct via :func:`open_minikv` so that ``shards=1`` configurations
    stay on the in-process engine.  Worker lifecycle, crash recovery, and
    the scatter/gather transport come from
    :class:`repro.common.sharding.ShardRouter`.
    """

    worker_target = staticmethod(_worker_main)
    worker_name = "minikv-shard"
    error_class = ShardConnectionError

    def __init__(self, config: MiniKVConfig | None = None) -> None:
        self.config = config or MiniKVConfig()
        if self.config.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        self._file_cipher = FileCipher() if self.config.encryption_at_rest else None
        super().__init__(
            self.config.shards,
            transport=self.config.transport,
            addresses=self.config.shard_addresses,
            base_path=self.config.aof_path,
        )

    # ------------------------------------------------------------------
    # Routing + router hooks
    # ------------------------------------------------------------------

    def _shard_config(self, shard_id: int) -> MiniKVConfig:
        return _worker_config(self.config, shard_id)

    def _shard_files(self, shard_id: int) -> list[str]:
        if self.config.aof_path is None:
            return []
        return [shard_aof_path(self.config.aof_path, shard_id)]

    def _shard_index(self, key: str) -> int:
        """The shard id owning ``key`` on the consistent-hash ring."""
        return self._owner(key_point(key))

    # ------------------------------------------------------------------
    # Command surface
    # ------------------------------------------------------------------
    # Single-key commands are generated below from _KEYED_COMMANDS: each
    # routes to its key's worker with the shard lock held for exactly one
    # request/response exchange.

    def delete(self, *keys: str) -> int:
        """Multi-key DELETE: one message per involved shard, counts summed."""
        by_shard: dict[int, list[str]] = {}
        for key in keys:
            by_shard.setdefault(self._shard_index(key), []).append(key)
        if not by_shard:
            return 0
        gathered = self._scatter([
            (index, ("call", "delete", tuple(shard_keys), {}))
            for index, shard_keys in by_shard.items()
        ])
        return sum(gathered.values())

    def pipeline(self) -> ShardedPipeline:
        """A new scatter/gather command batch."""
        return ShardedPipeline(self)

    def scan(self, cursor: int = 0, match: str | None = None,
             count: int = 10) -> tuple[int, list[str]]:
        """Cursor iteration over the union keyspace, shard by shard.

        The cursor packs ``(shard position, that shard's inner SCAN
        cursor)`` as ``inner * nshards + position + 1`` over the sorted
        live shard ids; ``0`` still means "traversal complete".
        Guarantees compose from the per-shard engine SCAN: keys stable
        for the whole traversal are returned at least once, deletions are
        skipped, concurrent inserts may be missed.  There is no
        cross-shard snapshot — each shard is traversed against its own
        snapshot, taken when the cursor enters it — and a reshard
        invalidates in-flight cursors (the position→id mapping changes;
        restart the traversal from 0, as after a snapshot eviction).
        """
        ids = self.shard_ids
        nshards = len(ids)
        if cursor == 0:
            position, inner = 0, 0
        else:
            position = (cursor - 1) % nshards
            inner = (cursor - 1) // nshards
        inner_next, batch = self._call(ids[position], "scan", inner, match, count)
        if inner_next != 0:
            return inner_next * nshards + position + 1, batch
        if position + 1 < nshards:
            return position + 2, batch  # (next shard, inner cursor 0)
        return 0, batch

    # -- keyless fan-outs, each with its named merge ---------------------

    def purge_expired(self) -> list[str]:
        """Erase every expired key on every shard; union of the names."""
        gathered = self._fanout("purge_expired")
        return [key for index in sorted(gathered) for key in gathered[index]]

    def cron(self) -> int:
        return sum(self._fanout("cron").values())

    def keys(self, pattern: str = "*") -> list[str]:
        gathered = self._fanout("keys", (pattern,))
        return [key for index in sorted(gathered) for key in gathered[index]]

    def randomkey(self) -> str | None:
        for key in self._fanout("randomkey").values():
            if key is not None:
                return key
        return None

    def dbsize(self) -> int:
        return sum(self._fanout("dbsize").values())

    def flushall(self) -> None:
        self._fanout("flushall")

    def memory_used(self) -> int:
        return sum(self._fanout("memory_used").values())

    def aof_size(self) -> int:
        return sum(self._fanout("aof_size").values())

    def flush_aof(self) -> None:
        """Flush every shard's AOF (audit readers parse the files)."""
        self._fanout("flush_aof")

    def rewrite_aof(self, archive_path: str | None = None) -> tuple[int, int]:
        """Compact every shard's AOF; summed ``(old_size, new_size)``.

        The engine's BGREWRITEAOF analogue, fanned out: each worker
        compacts its own shard file under its own locks, so the rewrites
        run in parallel and no shard stalls another.  The GDPR archival
        contract is per shard too: with ``log_reads=True`` the shard AOFs
        are the audit trail, so each worker refuses to compact without an
        archive path, and ``archive_path`` lands the full historical logs
        at ``<archive_path>.shard<i>`` — one archive per shard, readable
        with the same per-shard tooling as the live trail.
        """
        gathered = self._fanout_rewrite(archive_path)
        per_shard = [gathered[index] for index in sorted(gathered)]
        return (
            sum(old for old, _ in per_shard),
            sum(new for _, new in per_shard),
        )

    def _fanout_rewrite(self, archive_path: str | None) -> dict[int, object]:
        return self._scatter([
            (index, ("call", "rewrite_aof", (
                shard_path(archive_path, index)
                if archive_path is not None else None,
            ), {}))
            for index in self.shard_ids
        ])

    def info(self) -> dict:
        """Aggregate INFO across shards (+ ``shards`` and per-shard keys)."""
        gathered = self._fanout("info")
        per_shard = [gathered[index] for index in sorted(gathered)]
        merged = {
            "keys": sum(i["keys"] for i in per_shard),
            "keys_with_expiry": sum(i["keys_with_expiry"] for i in per_shard),
            "memory_used_bytes": sum(i["memory_used_bytes"] for i in per_shard),
            "aof_size_bytes": sum(i["aof_size_bytes"] for i in per_shard),
            "commands_processed": sum(i["commands_processed"] for i in per_shard),
            "expiry_algorithm": per_shard[0]["expiry_algorithm"],
            "stripes": per_shard[0]["stripes"],
            "gdpr_features": per_shard[0]["gdpr_features"],
            "shards": self.shard_count,
            "keys_per_shard": [i["keys"] for i in per_shard],
        }
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def aof_paths(self) -> list[str]:
        """The live shards' AOF files (empty when persistence is off)."""
        if self.config.aof_path is None:
            return []
        return [shard_aof_path(self.config.aof_path, i) for i in self.shard_ids]

    def __enter__(self) -> "ShardedMiniKV":
        return self


for _method in _KEYED_COMMANDS:
    setattr(ShardedMiniKV, _method, _make_keyed_command(_method))
for _method in BATCHABLE_COMMANDS:
    if _method != "delete":
        def _queue_method(self, key, *args, _m=_method, **kwargs):
            return self._queue(_m, key, (key, *args), kwargs)
        _queue_method.__name__ = _method
        _queue_method.__qualname__ = f"ShardedPipeline.{_method}"
        _queue_method.__doc__ = f"Queue ``{_method.upper()}`` for its key's shard."
        setattr(ShardedPipeline, _method, _queue_method)
del _method


def open_minikv(config: MiniKVConfig | None = None, clock=None):
    """Engine factory honouring ``MiniKVConfig.shards``.

    ``shards=1`` (the default) returns the in-process :class:`MiniKV` —
    the paper's execution model, byte-identical to the seed engine.
    ``shards > 1`` returns a :class:`ShardedMiniKV` front over that many
    worker processes.  Sharded workers keep their own system clocks
    (a clock cannot be shared across processes), so injecting a custom
    ``clock`` requires ``shards=1``.
    """
    config = config or MiniKVConfig()
    if config.shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if config.shards == 1:
        return MiniKV(config, clock=clock)
    if clock is not None:
        raise ConfigurationError(
            "sharded minikv workers run on their own system clocks; "
            "custom clocks require shards=1"
        )
    return ShardedMiniKV(config)
