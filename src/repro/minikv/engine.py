"""minikv — the Redis-like in-memory key-value engine.

This is the reproduction's stand-in for Redis v5.0 (Section 5.1 of the
paper): a hash-table keyspace holding typed values (strings, hashes, sets),
TTL support with Redis' lazy sampling expiry cycle, and append-only-file
persistence.  The GDPR retrofit toggles map one-to-one onto the paper's
modifications:

* ``encryption_at_rest`` — LUKS analogue: the persistence file (AOF) is
  encrypted at the disk boundary.  In-memory values stay plaintext, just
  as Redis' heap does on a dm-crypt volume; the in-transit half lives in
  the client stub (the Stunnel analogue).
* ``ttl_algorithm="strict"`` — replaces the lazy expiry cycle with a full
  scan of the expires dictionary per tick (the paper's ~120-line Redis
  patch).
* ``aof_path`` + ``log_reads`` — audit trail piggybacked on the AOF,
  extended to record reads and scans (Section 5.1: "we update its internal
  logic to log all interactions including reads and scans").

Concurrency model: the keyspace is hash-partitioned into ``stripes`` lock
stripes, each owning its slice of the data dict, its expires index, and
its own active-expiry cycle.  A single-key command locks only its stripe,
so independent keys proceed in parallel; cross-key commands (multi-key
DELETE, SCAN, KEYS, FLUSHALL, AOF rewrite, purges) acquire every involved
stripe lock in ascending stripe order, which makes deadlock impossible.
``stripes=1`` (the default) degenerates to Redis' single event loop — one
lock serialises everything, exactly the paper's execution model — while
benchmarks opt into wider striping to measure the scaling headroom.

Batching: :meth:`MiniKV.pipeline` mirrors Redis pipelining/MULTI — a
queued command batch executes under one multi-stripe lock acquisition,
one expiry-cycle tick per involved stripe, and one AOF group commit.
"""

from __future__ import annotations

import fnmatch
import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Mapping

from repro.common.clock import Clock, SystemClock
from repro.common.errors import ConfigurationError
from repro.crypto.luks import FileCipher

from . import aof as aof_mod
from .datatypes import HashValue, SetValue, StringValue, Value, expect_type
from .expiry import (
    ExpiresIndex,
    HeapExpiryCycle,
    LazyExpiryCycle,
    StrictExpiryCycle,
    StripedExpiresView,
    aggregate_stats,
)

#: SCAN cursors pack (snapshot generation, position); positions fit 32 bits.
_SCAN_POSITION_BITS = 32
_SCAN_POSITION_MASK = (1 << _SCAN_POSITION_BITS) - 1
#: Live scan snapshots kept before the oldest is evicted.  A cursor whose
#: snapshot was evicted restarts its traversal (duplicates, never misses),
#: so this bounds memory for abandoned cursors while more than this many
#: genuinely concurrent traversals degrade to restarts, not wrong results.
_SCAN_SNAPSHOT_CAP = 64


@dataclass
class MiniKVConfig:
    """Feature switches for the GDPR retrofit (defaults = stock Redis).

    Every default preserves the paper's measured Redis v5.0 behaviour;
    the non-default settings are this repo's scaling retrofits.
    """

    #: Default ``False`` — plaintext persistence, the paper's stock Redis.
    #: ``True`` encrypts the AOF at the disk boundary (the LUKS retrofit
    #: of Section 5.1; in-memory values stay plaintext as on dm-crypt).
    encryption_at_rest: bool = False
    #: Default ``None`` — no persistence, Redis' in-memory baseline.  A
    #: path arms the append-only file (and the audit trail when
    #: ``log_reads`` is set).
    aof_path: str | None = None
    #: Default ``"everysec"`` — Redis' appendfsync default, the paper's
    #: configuration; ``"always"`` fsyncs per command (or per group, see
    #: ``aof_batch_size``), ``"no"`` leaves flushing to the OS.
    fsync: str = "everysec"
    #: Default ``False`` — only writes reach the AOF, stock Redis.
    #: ``True`` extends the log to reads and scans (Section 5.1's
    #: monitoring retrofit: "log all interactions including reads").
    log_reads: bool = False
    #: Default ``0`` — deterministic seed for the lazy expiry cycle's
    #: sampling; any fixed value reproduces the paper's probabilistic
    #: expiry behaviour reproducibly.
    expiry_seed: int = 0
    #: Default ``"lazy"`` — Redis' sampling expiry cycle, the stock engine
    #: the paper benchmarks.  ``"strict"`` applies the paper's ~120-line
    #: patch: a full expires-dict scan per tick (strict timely deletion).
    #: ``"heap"`` answers the paper's §7.2 "efficient time-based deletion"
    #: challenge: a deadline-ordered min-heap, strict timeliness at
    #: O(k log n) per tick.
    ttl_algorithm: str = "lazy"
    #: Default ``1`` — Redis' single-event-loop semantics, the paper's
    #: execution model (one lock serialises everything); >1 hash-partitions
    #: the keyspace into that many lock stripes so independent keys
    #: proceed in parallel under multi-threaded clients.
    stripes: int = 1
    #: Default ``1`` — under ``fsync='always'`` every command pays its own
    #: fsync, the paper's per-command durability cost; larger values
    #: amortise the fsync over that many AOF entries (group commit).
    aof_batch_size: int = 1
    #: Default ``1`` — one in-process engine, the paper's deployment shape
    #: (byte-identical to the seed: no worker processes, no IPC).  >1
    #: selects the multi-process sharded deployment: that many worker
    #: processes each own a hash partition of the keyspace — and its own
    #: AOF — behind a shard router, escaping the GIL (see
    #: docs/sharding.md).  Build sharded engines via
    #: :func:`repro.minikv.sharded.open_minikv`; :class:`MiniKV` itself
    #: rejects ``shards > 1``.
    shards: int = 1
    #: Default ``"pipe"`` — sharded workers talk over multiprocessing
    #: pipes (local-only, the PR 4 deployment).  ``"tcp"`` carries the
    #: same one-reply-per-message protocol over sockets (length-prefixed
    #: pickled frames, see docs/sharding.md): without ``shard_addresses``
    #: the router still spawns local workers on ephemeral loopback ports;
    #: with them the workers are external ``tools/shard_server.py``
    #: processes.  Ignored when ``shards == 1`` (no workers exist).
    transport: str = "pipe"
    #: Default ``None`` — the router spawns its own workers.  A sequence
    #: of ``"host:port"`` strings (one per shard, ``transport="tcp"``
    #: only) connects to externally-run shard servers instead; shard
    #: persistence then lives wherever each server was started.
    shard_addresses: tuple | None = None

    @property
    def gdpr_features(self) -> dict[str, bool]:
        """Feature vector reported by GET-SYSTEM-FEATURES."""
        return {
            "encryption": self.encryption_at_rest,
            "timely_deletion": self.ttl_algorithm in ("strict", "heap"),
            "monitoring": self.aof_path is not None and self.log_reads,
            "metadata_indexing": False,   # Redis has no secondary indices
            "access_control": False,      # deferred to the client (paper §5.1)
        }


class _Stripe:
    """One lock-striped keyspace partition: lock + data + expires + cycle."""

    __slots__ = ("index", "lock", "data", "expires", "cycle", "commands")

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.RLock()
        self.data: dict[str, Value] = {}
        self.expires = ExpiresIndex()
        self.cycle = None  # set by the engine once its delete callback exists
        self.commands = 0


class Pipeline:
    """A queued command batch executed under one lock acquisition.

    Mirrors Redis pipelining fused with MULTI: commands queue client-side
    (each queueing method returns ``self`` for chaining) and ``execute()``
    runs the whole batch under one multi-stripe lock acquisition, one
    expiry tick per involved stripe, and one AOF group commit.  Results
    come back as a list in queue order.

    Error semantics follow Redis/redis-py: a failing command does not
    stop the batch or roll back earlier commands — every command
    executes, failures are captured per slot, and ``execute()`` raises
    the first captured error afterwards (pass ``raise_on_error=False``
    to receive the exceptions in the result list instead).  The batch is
    *isolated* — the stripe locks are held throughout, so concurrent
    observers of the touched stripes see all of its effects or none —
    but, like Redis MULTI, it is not all-or-nothing under command errors.
    """

    __slots__ = ("_engine", "_calls")

    def __init__(self, engine: "MiniKV") -> None:
        self._engine = engine
        # (bound _do_* method, stripes touched, args); the stripe is
        # resolved at queue time so execute() never re-hashes a key.
        self._calls: list[tuple] = []

    def __len__(self) -> int:
        return len(self._calls)

    def _queue(self, method: str, key: str, args: tuple) -> "Pipeline":
        engine = self._engine
        stripe = engine._stripe_for(key)
        self._calls.append(
            (getattr(engine, "_do_" + method), (stripe,), args + (stripe,))
        )
        return self

    # -- queueing mirrors of the engine command surface -----------------

    def set(self, key: str, value: bytes, ttl: float | None = None) -> "Pipeline":
        return self._queue("set", key, (key, value, ttl))

    def get(self, key: str) -> "Pipeline":
        return self._queue("get", key, (key,))

    def delete(self, *keys: str) -> "Pipeline":
        engine = self._engine
        stripes = tuple({engine._stripe_for(key) for key in keys})
        self._calls.append((engine._do_delete, stripes, (keys,)))
        return self

    def exists(self, key: str) -> "Pipeline":
        return self._queue("exists", key, (key,))

    def expire(self, key: str, seconds: float) -> "Pipeline":
        return self._queue("expire", key, (key, seconds))

    def expireat(self, key: str, deadline: float) -> "Pipeline":
        return self._queue("expireat", key, (key, deadline))

    def persist(self, key: str) -> "Pipeline":
        return self._queue("persist", key, (key,))

    def ttl(self, key: str) -> "Pipeline":
        return self._queue("ttl", key, (key,))

    def hset(self, key: str, field: str, value: bytes) -> "Pipeline":
        return self._queue("hset", key, (key, field, value))

    def hmset(self, key: str, mapping: Mapping[str, bytes]) -> "Pipeline":
        return self._queue("hmset", key, (key, mapping))

    def hset_if_exists(self, key: str, field: str, value: bytes) -> "Pipeline":
        return self._queue("hset_if_exists", key, (key, field, value))

    def hmset_if_exists(self, key: str, mapping: Mapping[str, bytes]) -> "Pipeline":
        return self._queue("hmset_if_exists", key, (key, mapping))

    def hget(self, key: str, field: str) -> "Pipeline":
        return self._queue("hget", key, (key, field))

    def hgetall(self, key: str) -> "Pipeline":
        # Hottest queue method (GDPR record fetch + YCSB read): inlined.
        engine = self._engine
        stripe = engine._stripe_for(key)
        self._calls.append((engine._do_hgetall, (stripe,), (key, stripe)))
        return self

    def hdel(self, key: str, *fields: str) -> "Pipeline":
        return self._queue("hdel", key, (key, fields))

    def sadd(self, key: str, *members: bytes) -> "Pipeline":
        return self._queue("sadd", key, (key, members))

    def srem(self, key: str, *members: bytes) -> "Pipeline":
        return self._queue("srem", key, (key, members))

    def smembers(self, key: str) -> "Pipeline":
        return self._queue("smembers", key, (key,))

    def sismember(self, key: str, member: bytes) -> "Pipeline":
        return self._queue("sismember", key, (key, member))

    def execute(self, raise_on_error: bool = True) -> list:
        """Run the batch; returns per-command results in queue order.

        Every command executes even if an earlier one fails (Redis
        semantics).  With ``raise_on_error`` (the default) the first
        captured exception is raised after the batch completes;
        otherwise exceptions appear in the result list at their slots.
        """
        calls, self._calls = self._calls, []
        results = self._engine._execute_pipeline(calls)
        if raise_on_error:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results


class MiniKV:
    """The engine.  Commands are thread-safe via hash-partitioned stripes."""

    def __init__(self, config: MiniKVConfig | None = None, clock: Clock | None = None) -> None:
        self.config = config or MiniKVConfig()
        self.clock = clock or SystemClock()
        if self.config.stripes < 1:
            raise ConfigurationError("stripes must be >= 1")
        if self.config.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.config.shards > 1:
            raise ConfigurationError(
                "shards > 1 is the multi-process deployment; build it via "
                "repro.minikv.sharded.open_minikv (or ShardedMiniKV)"
            )
        algorithm = self.config.ttl_algorithm
        cycle_classes = {
            "lazy": LazyExpiryCycle,
            "strict": StrictExpiryCycle,
            "heap": HeapExpiryCycle,
        }
        try:
            cycle_cls = cycle_classes[algorithm]
        except KeyError:
            raise ConfigurationError(
                f"unknown ttl_algorithm {algorithm!r}; choose from {sorted(cycle_classes)}"
            ) from None
        self._stripes = [_Stripe(i) for i in range(self.config.stripes)]
        self._nstripes = len(self._stripes)
        for stripe in self._stripes:
            stripe.cycle = cycle_cls(
                stripe.expires,
                (lambda key, s=stripe: self._evict(s, key)),
                seed=self.config.expiry_seed + stripe.index,
            )
        #: read-only union view kept for introspection/experiments
        self._expires = (
            self._stripes[0].expires if self._nstripes == 1
            else StripedExpiresView([s.expires for s in self._stripes])
        )
        self._file_cipher = FileCipher() if self.config.encryption_at_rest else None
        #: SCAN snapshot cache: generation -> stable key ordering, so a
        #: full cursor traversal is O(n) total instead of O(n²/count).
        self._scan_snapshots: OrderedDict[int, list[str]] = OrderedDict()
        self._scan_gen = 0
        self._aof: aof_mod.AOFWriter | None = None
        if self.config.aof_path is not None:
            self._replay(self.config.aof_path)
            self._aof = aof_mod.AOFWriter(
                self.config.aof_path,
                fsync=self.config.fsync,
                log_reads=self.config.log_reads,
                clock=self.clock,
                cipher=self._file_cipher,
                batch_size=self.config.aof_batch_size,
            )

    # ------------------------------------------------------------------
    # Internals: striping, locking, cron, passive expiry, logging
    # ------------------------------------------------------------------

    def _stripe_for(self, key: str) -> _Stripe:
        if self._nstripes == 1:
            return self._stripes[0]
        return self._stripes[zlib.crc32(key.encode()) % self._nstripes]

    def _involved(self, keys) -> list[_Stripe]:
        """Stripes touched by ``keys``, ascending — the lock order."""
        if self._nstripes == 1:
            return [self._stripes[0]]
        indexes = {zlib.crc32(key.encode()) % self._nstripes for key in keys}
        if not indexes:  # keyless batch: still needs a lock + tick home
            return [self._stripes[0]]
        return [self._stripes[i] for i in sorted(indexes)]

    @contextmanager
    def _locked(self, stripes: list[_Stripe]):
        """Hold several stripe locks; callers pass them in ascending order."""
        for stripe in stripes:
            stripe.lock.acquire()
        try:
            yield
        finally:
            for stripe in reversed(stripes):
                stripe.lock.release()

    def _locked_all(self):
        return self._locked(self._stripes)

    def _evict(self, stripe: _Stripe, key: str) -> None:
        """Deletion callback used by the active expiry cycles."""
        stripe.data.pop(key, None)
        stripe.expires.remove(key)
        self._log("DEL", key.encode())

    def purge_expired(self) -> list[str]:
        """Actively erase every expired key right now; returns their names.

        This is the engine-side half of DELETE-RECORD-BY-TTL: a controller
        purging expired personal data cannot wait for the lazy cycle to
        sample its way through the keyspace.
        """
        with self._locked_all():
            # Deliberately skip the expiry tick: it would evict keys before
            # we can snapshot (and count) them.
            self._stripes[0].commands += 1
            now = self.clock.now()
            expired: list[str] = []
            for stripe in self._stripes:
                for key in stripe.expires.all_expired(now):
                    self._evict(stripe, key)
                    expired.append(key)
            return expired

    def cron(self) -> int:
        """Run every stripe's active expiry cycle if a tick has elapsed.

        Redis calls this ``serverCron``; minikv invokes it at the top of
        every command (for the locked stripe), and benchmarks may call it
        directly while fast-forwarding a virtual clock.  Returns keys
        erased.
        """
        erased = 0
        for stripe in self._stripes:
            with stripe.lock:
                now = self.clock.now()
                if stripe.cycle.due(now):
                    erased += stripe.cycle.run(now)
        return erased

    @property
    def expiry_stats(self):
        return aggregate_stats([stripe.cycle.stats for stripe in self._stripes])

    def _expire_if_due(self, stripe: _Stripe, key: str) -> bool:
        """Passive expiry: purge ``key`` if its deadline has passed."""
        deadline = stripe.expires.deadline(key)
        if deadline is None or deadline > self.clock.now():
            return False
        self._evict(stripe, key)
        return True

    def _log(self, command: str, *args: bytes) -> None:
        if self._aof is not None and self._aof.should_log(command):
            self._aof.append([command.encode(), *args])

    def _live(self, stripe: _Stripe, key: str) -> Value | None:
        """Value behind ``key`` after passive expiry, or None.

        Flattened for the hot read path: only keys carrying a deadline
        (an invariant: ``expires`` ⊆ ``data``) pay the clock read.
        """
        value = stripe.data.get(key)
        if value is None:
            return None
        deadline = stripe.expires.deadline(key)
        if deadline is not None and deadline <= self.clock.now():
            self._evict(stripe, key)
            return None
        return value

    def _begin(self, stripe: _Stripe) -> None:
        stripe.commands += 1
        now = self.clock.now()
        if stripe.cycle.due(now):
            stripe.cycle.run(now)

    def _tick(self, stripes: list[_Stripe], count: int) -> None:
        """Batch-granular `_begin`: one expiry tick per involved stripe."""
        stripes[0].commands += count
        now = self.clock.now()
        for stripe in stripes:
            if stripe.cycle.due(now):
                stripe.cycle.run(now)

    # ------------------------------------------------------------------
    # Pipelining
    # ------------------------------------------------------------------

    def pipeline(self) -> Pipeline:
        """A new command batch (Redis pipeline/MULTI analogue)."""
        return Pipeline(self)

    def _execute_pipeline(self, calls: list[tuple]) -> list:
        if not calls:
            return []
        seen: set[_Stripe] = set()
        for _, stripes, _ in calls:
            seen.update(stripes)
        if not seen:  # keyless batch (e.g. delete()): still needs a home
            seen.add(self._stripes[0])
        involved = (
            sorted(seen, key=lambda stripe: stripe.index)
            if len(seen) > 1 else list(seen)
        )
        with self._locked(involved):
            self._tick(involved, count=len(calls))
            aof_batch = self._aof.batch() if self._aof is not None else nullcontext()
            with aof_batch:
                results = []
                for method, _, args in calls:
                    try:
                        results.append(method(*args))
                    except Exception as exc:  # captured per slot, Redis-style
                        results.append(exc)
                return results

    # ------------------------------------------------------------------
    # String commands
    # ------------------------------------------------------------------

    def set(self, key: str, value: bytes, ttl: float | None = None) -> None:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            self._do_set(key, value, ttl, stripe)

    def _do_set(self, key: str, value: bytes, ttl: float | None = None,
                stripe: _Stripe | None = None) -> None:
        stripe = stripe or self._stripe_for(key)
        self._expire_if_due(stripe, key)
        stripe.data[key] = StringValue(value)
        stripe.expires.remove(key)  # SET clears any previous TTL
        self._log("SET", key.encode(), value)
        if ttl is not None:
            self._expire_locked(stripe, key, ttl)

    def get(self, key: str) -> bytes | None:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_get(key, stripe)

    def _do_get(self, key: str, stripe: _Stripe | None = None) -> bytes | None:
        stripe = stripe or self._stripe_for(key)
        value = self._live(stripe, key)
        if value is None:
            self._log("GET", key.encode())
            return None
        expect_type(value, "string")
        # Audit entries for reads carry the response payload: a G 33(3a)
        # breach report must say which personal data was exposed.
        self._log("GET", key.encode(), value.data)
        return value.data

    def delete(self, *keys: str) -> int:
        involved = self._involved(keys)
        with self._locked(involved):
            self._tick(involved, count=1)
            return self._do_delete(keys)

    def _do_delete(self, keys: tuple[str, ...]) -> int:
        removed = 0
        for key in keys:
            stripe = self._stripe_for(key)
            self._expire_if_due(stripe, key)
            if key in stripe.data:
                del stripe.data[key]
                stripe.expires.remove(key)
                removed += 1
                self._log("DEL", key.encode())
        return removed

    def exists(self, key: str) -> bool:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_exists(key, stripe)

    def _do_exists(self, key: str, stripe: _Stripe | None = None) -> bool:
        stripe = stripe or self._stripe_for(key)
        self._log("EXISTS", key.encode())
        return self._live(stripe, key) is not None

    # ------------------------------------------------------------------
    # TTL commands
    # ------------------------------------------------------------------

    def _expire_locked(self, stripe: _Stripe, key: str, seconds: float) -> bool:
        if key not in stripe.data:
            return False
        deadline = self.clock.now() + seconds
        stripe.expires.set(key, deadline)
        if isinstance(stripe.cycle, HeapExpiryCycle):
            stripe.cycle.schedule(key, deadline)
        self._log("EXPIREAT", key.encode(), repr(deadline).encode())
        return True

    def expire(self, key: str, seconds: float) -> bool:
        """Set a relative TTL; returns False if the key does not exist."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_expire(key, seconds, stripe)

    def _do_expire(self, key: str, seconds: float,
                   stripe: _Stripe | None = None) -> bool:
        stripe = stripe or self._stripe_for(key)
        self._expire_if_due(stripe, key)
        return self._expire_locked(stripe, key, seconds)

    def expireat(self, key: str, deadline: float) -> bool:
        """Set an absolute expiry deadline (engine-clock domain)."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_expireat(key, deadline, stripe)

    def _do_expireat(self, key: str, deadline: float,
                     stripe: _Stripe | None = None) -> bool:
        stripe = stripe or self._stripe_for(key)
        self._expire_if_due(stripe, key)
        if key not in stripe.data:
            return False
        stripe.expires.set(key, deadline)
        if isinstance(stripe.cycle, HeapExpiryCycle):
            stripe.cycle.schedule(key, deadline)
        self._log("EXPIREAT", key.encode(), repr(deadline).encode())
        return True

    def persist(self, key: str) -> bool:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_persist(key, stripe)

    def _do_persist(self, key: str, stripe: _Stripe | None = None) -> bool:
        stripe = stripe or self._stripe_for(key)
        self._expire_if_due(stripe, key)
        if key not in stripe.data or key not in stripe.expires:
            return False
        stripe.expires.remove(key)
        self._log("PERSIST", key.encode())
        return True

    def ttl(self, key: str) -> float:
        """Remaining TTL in seconds; -2 if missing, -1 if no expiry."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_ttl(key, stripe)

    def _do_ttl(self, key: str, stripe: _Stripe | None = None) -> float:
        stripe = stripe or self._stripe_for(key)
        if self._live(stripe, key) is None:
            return -2.0
        deadline = stripe.expires.deadline(key)
        if deadline is None:
            return -1.0
        return max(0.0, deadline - self.clock.now())

    # ------------------------------------------------------------------
    # Hash commands (GDPRbench stores records as hashes)
    # ------------------------------------------------------------------

    def _hash_for_write(self, stripe: _Stripe, key: str) -> HashValue:
        self._expire_if_due(stripe, key)
        value = stripe.data.get(key)
        expect_type(value, "hash")
        if value is None:
            value = HashValue()
            stripe.data[key] = value
        return value

    def hset(self, key: str, field: str, value: bytes) -> int:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_hset(key, field, value, stripe)

    def _do_hset(self, key: str, field: str, value: bytes,
                 stripe: _Stripe | None = None) -> int:
        stripe = stripe or self._stripe_for(key)
        hash_value = self._hash_for_write(stripe, key)
        created = 0 if field in hash_value.fields else 1
        hash_value.fields[field] = value
        self._log("HSET", key.encode(), field.encode(), value)
        return created

    def hmset(self, key: str, mapping: Mapping[str, bytes]) -> None:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            self._do_hmset(key, mapping, stripe)

    def _do_hmset(self, key: str, mapping: Mapping[str, bytes],
                  stripe: _Stripe | None = None) -> None:
        stripe = stripe or self._stripe_for(key)
        hash_value = self._hash_for_write(stripe, key)
        log_args: list[bytes] = [key.encode()]
        for field, value in mapping.items():
            hash_value.fields[field] = value
            log_args.append(field.encode())
            log_args.append(value)
        self._log("HMSET", *log_args)

    def hset_if_exists(self, key: str, field: str, value: bytes) -> int:
        """HSET only when the hash already exists (Lua-script analogue).

        GDPR clients need read-modify-write on records without recreating
        a concurrently-deleted record as a phantom hash; real deployments
        use a Lua script or WATCH/MULTI for this.  Returns 1 if written.
        """
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_hset_if_exists(key, field, value, stripe)

    def _do_hset_if_exists(self, key: str, field: str, value: bytes,
                           stripe: _Stripe | None = None) -> int:
        stripe = stripe or self._stripe_for(key)
        value_obj = self._live(stripe, key)
        if value_obj is None:
            return 0
        expect_type(value_obj, "hash")
        value_obj.fields[field] = value
        self._log("HSET", key.encode(), field.encode(), value)
        return 1

    def hmset_if_exists(self, key: str, mapping: Mapping[str, bytes]) -> int:
        """HMSET only when the hash already exists; returns 1 if written."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_hmset_if_exists(key, mapping, stripe)

    def _do_hmset_if_exists(self, key: str, mapping: Mapping[str, bytes],
                            stripe: _Stripe | None = None) -> int:
        stripe = stripe or self._stripe_for(key)
        value_obj = self._live(stripe, key)
        if value_obj is None:
            return 0
        expect_type(value_obj, "hash")
        log_args: list[bytes] = [key.encode()]
        for field, value in mapping.items():
            value_obj.fields[field] = value
            log_args.append(field.encode())
            log_args.append(value)
        self._log("HMSET", *log_args)
        return 1

    def hget(self, key: str, field: str) -> bytes | None:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_hget(key, field, stripe)

    def _do_hget(self, key: str, field: str,
                 stripe: _Stripe | None = None) -> bytes | None:
        stripe = stripe or self._stripe_for(key)
        value = self._live(stripe, key)
        if value is None:
            self._log("HGET", key.encode(), field.encode())
            return None
        expect_type(value, "hash")
        payload = value.fields.get(field)
        self._log("HGET", key.encode(), field.encode(), payload or b"")
        return payload

    def hgetall(self, key: str) -> dict[str, bytes]:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_hgetall(key, stripe)

    def _do_hgetall(self, key: str, stripe: _Stripe | None = None) -> dict[str, bytes]:
        stripe = stripe or self._stripe_for(key)
        value = self._live(stripe, key)
        if value is None:
            self._log("HGETALL", key.encode())
            return {}
        if type(value) is not HashValue:  # fast path for the hot read
            expect_type(value, "hash")
        out = dict(value.fields)
        if self._aof is not None and self._aof.should_log("HGETALL"):
            log_args = [key.encode()]
            for field, payload in out.items():
                log_args.append(field.encode())
                log_args.append(payload)
            self._log("HGETALL", *log_args)
        return out

    def hdel(self, key: str, *fields: str) -> int:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_hdel(key, fields, stripe)

    def _do_hdel(self, key: str, fields: tuple[str, ...],
                 stripe: _Stripe | None = None) -> int:
        stripe = stripe or self._stripe_for(key)
        value = self._live(stripe, key)
        if value is None:
            return 0
        expect_type(value, "hash")
        removed = 0
        for field in fields:
            if field in value.fields:
                del value.fields[field]
                removed += 1
                self._log("HDEL", key.encode(), field.encode())
        if not value.fields:
            del stripe.data[key]
            stripe.expires.remove(key)
        return removed

    # ------------------------------------------------------------------
    # Set commands
    # ------------------------------------------------------------------

    def sadd(self, key: str, *members: bytes) -> int:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_sadd(key, members, stripe)

    def _do_sadd(self, key: str, members: tuple[bytes, ...],
                 stripe: _Stripe | None = None) -> int:
        stripe = stripe or self._stripe_for(key)
        self._expire_if_due(stripe, key)
        value = stripe.data.get(key)
        expect_type(value, "set")
        if value is None:
            value = SetValue()
            stripe.data[key] = value
        added = 0
        for member in members:
            if member not in value.members:
                value.members.add(member)
                added += 1
                self._log("SADD", key.encode(), member)
        return added

    def srem(self, key: str, *members: bytes) -> int:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_srem(key, members, stripe)

    def _do_srem(self, key: str, members: tuple[bytes, ...],
                 stripe: _Stripe | None = None) -> int:
        stripe = stripe or self._stripe_for(key)
        value = self._live(stripe, key)
        if value is None:
            return 0
        expect_type(value, "set")
        removed = 0
        for member in members:
            if member in value.members:
                value.members.remove(member)
                removed += 1
                self._log("SREM", key.encode(), member)
        if not value.members:
            del stripe.data[key]
            stripe.expires.remove(key)
        return removed

    def smembers(self, key: str) -> set[bytes]:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_smembers(key, stripe)

    def _do_smembers(self, key: str, stripe: _Stripe | None = None) -> set[bytes]:
        stripe = stripe or self._stripe_for(key)
        value = self._live(stripe, key)
        if value is None:
            self._log("SMEMBERS", key.encode())
            return set()
        expect_type(value, "set")
        members = set(value.members)
        if self._aof is not None and self._aof.should_log("SMEMBERS"):
            self._log("SMEMBERS", key.encode(), *sorted(members))
        return members

    def sismember(self, key: str, member: bytes) -> bool:
        stripe = self._stripe_for(key)
        with stripe.lock:
            self._begin(stripe)
            return self._do_sismember(key, member, stripe)

    def _do_sismember(self, key: str, member: bytes,
                      stripe: _Stripe | None = None) -> bool:
        stripe = stripe or self._stripe_for(key)
        value = self._live(stripe, key)
        self._log("SISMEMBER", key.encode(), member)
        if value is None:
            return False
        expect_type(value, "set")
        return member in value.members

    # ------------------------------------------------------------------
    # Keyspace commands
    # ------------------------------------------------------------------

    def _snapshot_keys(self) -> list[str]:
        """Stable key ordering across all stripes (caller holds all locks)."""
        keys: list[str] = []
        for stripe in self._stripes:
            keys.extend(stripe.data.keys())
        return keys

    def _cache_snapshot(self, gen: int) -> list[str]:
        """Build + cache a scan snapshot under ``gen``, evicting to cap."""
        keys = self._snapshot_keys()
        self._scan_snapshots[gen] = keys
        while len(self._scan_snapshots) > _SCAN_SNAPSHOT_CAP:
            self._scan_snapshots.popitem(last=False)
        return keys

    def scan(
        self, cursor: int = 0, match: str | None = None, count: int = 10
    ) -> tuple[int, list[str]]:
        """Cursor-based iteration over the keyspace, like Redis SCAN.

        The cursor packs a snapshot generation and a position into that
        snapshot's stable key ordering; the snapshot is built once per
        traversal (cursor 0) and cached, so a full walk costs O(n) total
        rather than re-materialising the keyspace every batch.  Keys
        deleted mid-traversal are skipped; keys inserted mid-traversal may
        be missed — Redis SCAN makes the same weaker guarantee, and
        GDPRbench only relies on full traversal of stable keys.  A cursor
        whose cached snapshot was evicted (more than the cap of
        traversals in flight) restarts from position 0 of a fresh
        snapshot: stable keys may then be returned twice — which Redis
        SCAN also permits — but are never silently missed.
        """
        with self._locked_all():
            self._tick(self._stripes, count=1)
            self._log("SCAN", str(cursor).encode())
            if cursor == 0:
                self._scan_gen += 1
                gen = self._scan_gen
                keys = self._cache_snapshot(gen)
                position = 0
            else:
                gen = cursor >> _SCAN_POSITION_BITS
                position = cursor & _SCAN_POSITION_MASK
                keys = self._scan_snapshots.get(gen)
                if keys is None:
                    # Snapshot evicted: resuming a numeric position inside
                    # a *different* ordering would skip keys, so restart
                    # the traversal on a fresh snapshot instead.
                    keys = self._cache_snapshot(gen)
                    position = 0
            now = self.clock.now()
            batch: list[str] = []
            while position < len(keys) and len(batch) < count:
                key = keys[position]
                position += 1
                stripe = self._stripe_for(key)
                if key not in stripe.data or stripe.expires.is_expired(key, now):
                    continue
                if match is None or fnmatch.fnmatchcase(key, match):
                    batch.append(key)
            if position >= len(keys):
                self._scan_snapshots.pop(gen, None)
                return 0, batch
            return (gen << _SCAN_POSITION_BITS) | position, batch

    def keys(self, pattern: str = "*") -> list[str]:
        with self._locked_all():
            self._tick(self._stripes, count=1)
            self._log("KEYS", pattern.encode())
            now = self.clock.now()
            return [
                key
                for stripe in self._stripes
                for key in stripe.data
                if not stripe.expires.is_expired(key, now)
                and fnmatch.fnmatchcase(key, pattern)
            ]

    def randomkey(self) -> str | None:
        with self._locked_all():
            self._tick(self._stripes, count=1)
            for stripe in self._stripes:
                for key in stripe.data:
                    if not stripe.expires.is_expired(key, self.clock.now()):
                        return key
            return None

    def dbsize(self) -> int:
        with self._locked_all():
            self._tick(self._stripes, count=1)
            now = self.clock.now()
            return sum(
                1
                for stripe in self._stripes
                for key in stripe.data
                if not stripe.expires.is_expired(key, now)
            )

    def flushall(self) -> None:
        with self._locked_all():
            self._tick(self._stripes, count=1)
            for stripe in self._stripes:
                stripe.data.clear()
                stripe.expires.clear()
            self._scan_snapshots.clear()
            self._log("FLUSHALL")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_used(self) -> int:
        """Approximate bytes held by live values (INFO memory analogue)."""
        with self._locked_all():
            return sum(
                value.memory_bytes()
                for stripe in self._stripes
                for value in stripe.data.values()
            )

    def aof_size(self) -> int:
        return self._aof.size_bytes() if self._aof else 0

    def flush_aof(self) -> None:
        """Force buffered AOF entries to disk (audit readers need this)."""
        if self._aof is not None:
            self._aof.flush()

    @property
    def _commands_processed(self) -> int:
        return sum(stripe.commands for stripe in self._stripes)

    def info(self) -> dict:
        with self._locked_all():
            return {
                "keys": sum(len(stripe.data) for stripe in self._stripes),
                "keys_with_expiry": sum(len(stripe.expires) for stripe in self._stripes),
                "memory_used_bytes": self.memory_used(),
                "aof_size_bytes": self.aof_size(),
                "commands_processed": self._commands_processed,
                "expiry_algorithm": self._stripes[0].cycle.name,
                "stripes": self._nstripes,
                "gdpr_features": self.config.gdpr_features,
            }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _replay(self, path: str) -> None:
        """Rebuild the keyspace from an existing AOF before appending."""
        for entry in aof_mod.load_aof(path, cipher=self._file_cipher):
            if not entry:
                continue
            command = entry[0].decode()
            args = entry[1:]
            if command == "SET":
                key = args[0].decode()
                stripe = self._stripe_for(key)
                stripe.data[key] = StringValue(args[1])
                stripe.expires.remove(key)
            elif command == "DEL":
                key = args[0].decode()
                stripe = self._stripe_for(key)
                stripe.data.pop(key, None)
                stripe.expires.remove(key)
            elif command == "EXPIREAT":
                key = args[0].decode()
                stripe = self._stripe_for(key)
                if key in stripe.data:
                    deadline = float(args[1])
                    stripe.expires.set(key, deadline)
                    if isinstance(stripe.cycle, HeapExpiryCycle):
                        stripe.cycle.schedule(key, deadline)
            elif command == "PERSIST":
                key = args[0].decode()
                self._stripe_for(key).expires.remove(key)
            elif command in ("HSET", "HMSET"):
                key = args[0].decode()
                stripe = self._stripe_for(key)
                value = stripe.data.get(key)
                if not isinstance(value, HashValue):
                    value = HashValue()
                    stripe.data[key] = value
                pairs = args[1:]
                for i in range(0, len(pairs) - 1, 2):
                    field = pairs[i].decode()
                    value.fields[field] = pairs[i + 1]
            elif command == "HDEL":
                key = args[0].decode()
                stripe = self._stripe_for(key)
                value = stripe.data.get(key)
                if isinstance(value, HashValue):
                    value.fields.pop(args[1].decode(), None)
                    if not value.fields:
                        del stripe.data[key]
            elif command == "SADD":
                key = args[0].decode()
                stripe = self._stripe_for(key)
                value = stripe.data.get(key)
                if not isinstance(value, SetValue):
                    value = SetValue()
                    stripe.data[key] = value
                value.members.add(args[1])
            elif command == "SREM":
                key = args[0].decode()
                stripe = self._stripe_for(key)
                value = stripe.data.get(key)
                if isinstance(value, SetValue):
                    value.members.discard(args[1])
                    if not value.members:
                        del stripe.data[key]
            elif command == "FLUSHALL":
                for stripe in self._stripes:
                    stripe.data.clear()
                    stripe.expires.clear()
            # Read commands in an audit-enabled AOF are ignored on replay.

    def rewrite_aof(self, archive_path: str | None = None) -> tuple[int, int]:
        """Compact the AOF to the minimal commands rebuilding current state
        (Redis' BGREWRITEAOF, done synchronously).

        Returns ``(old_size, new_size)`` in bytes.

        GDPR caveat: when the AOF doubles as the audit trail
        (``log_reads=True``), rewriting would destroy the G 30 records of
        processing.  Pass ``archive_path`` to move the full historical log
        aside before compacting; without it, rewriting an audit-bearing
        AOF raises :class:`ConfigurationError`.
        """
        import os as _os
        import shutil as _shutil

        with self._locked_all():
            if self._aof is None:
                raise ConfigurationError("engine has no AOF to rewrite")
            if self.config.log_reads and archive_path is None:
                raise ConfigurationError(
                    "AOF carries the audit trail (log_reads=True); pass "
                    "archive_path to preserve G 30 records before compacting"
                )
            path = self.config.aof_path
            assert path is not None
            self._aof.close()
            old_size = _os.path.getsize(path)
            if archive_path is not None:
                _shutil.copy2(path, archive_path)

            rewrite_path = path + ".rewrite"
            compact = aof_mod.AOFWriter(
                rewrite_path, fsync="always", clock=self.clock,
                cipher=self._file_cipher,
            )
            now = self.clock.now()
            with compact.batch():  # group commit: one fsync for the rewrite
                for stripe in self._stripes:
                    for key, value in stripe.data.items():
                        if stripe.expires.is_expired(key, now):
                            continue
                        if isinstance(value, StringValue):
                            compact.append([b"SET", key.encode(), value.data])
                        elif isinstance(value, HashValue):
                            args: list[bytes] = [b"HMSET", key.encode()]
                            for field, payload in value.fields.items():
                                args.append(field.encode())
                                args.append(payload)
                            compact.append(args)
                        elif isinstance(value, SetValue):
                            for member in sorted(value.members):
                                compact.append([b"SADD", key.encode(), member])
                        deadline = stripe.expires.deadline(key)
                        if deadline is not None:
                            compact.append(
                                [b"EXPIREAT", key.encode(), repr(deadline).encode()]
                            )
            compact.close()
            new_size = _os.path.getsize(rewrite_path)
            _os.replace(rewrite_path, path)
            self._aof = aof_mod.AOFWriter(
                path,
                fsync=self.config.fsync,
                log_reads=self.config.log_reads,
                clock=self.clock,
                cipher=self._file_cipher,
                batch_size=self.config.aof_batch_size,
            )
            return old_size, new_size

    def close(self) -> None:
        if self._aof is not None:
            self._aof.close()

    def __enter__(self) -> "MiniKV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
