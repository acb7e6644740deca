"""GDPR client stub for minikv (the Redis-like engine).

Mirrors how GDPRbench drives Redis (Section 5.1):

* each personal record is a hash at ``rec:<key>`` whose fields are the
  data plus the seven metadata attributes (and ``EXP``, the absolute
  expiry deadline the controller needs for purge-by-TTL);
* Redis has **no secondary indices**, so every metadata-conditioned query
  (by user, purpose, objection, sharing...) is a full keyspace SCAN with a
  client-side filter — the O(n) access the paper blames for Redis' 4
  orders of magnitude GDPRbench slowdown;
* encryption in transit (the Stunnel analogue) wraps every request and
  response payload on a loopback secure link;
* metadata-based access control is enforced here in the client, exactly
  as the paper does.

YCSB rows live in hashes at ``user:<key>``; an in-client sorted key list
plays the role the YCSB Redis binding gives to a ZSET index for scans.

Scaling retrofits (the ROADMAP's production-engine track):

* ``client_indices=True`` maintains SET reverse indices on USR, PUR, OBJ,
  DEC, and SHR (plus a ``midx:keys`` master set so negative queries like
  READ-DATA-BY-OBJ resolve as a set difference), the §7.2
  "efficient metadata indexing" challenge;
* the same switch arms a client-side **expiry index** (lazy min-heap of
  EXP deadlines) so DELETE-RECORD-BY-TTL verifies only the due candidates
  instead of sweeping every record's EXP field;
* multi-record queries (delete-by-usr/pur, indexed reads, metadata group
  updates) run through engine **pipelines**: one multi-stripe lock
  acquisition, one AOF group commit, and one wire round-trip per batch
  instead of per record;
* :meth:`RedisGDPRClient.pipeline` exposes the same batching for YCSB
  read/update/insert streams, and ``stripes``/``aof_batch_size`` forward
  the engine's lock-striping and fsync group-commit knobs.
"""

from __future__ import annotations

import bisect
import heapq
import os
import pickle
import shutil
import tempfile
import threading
from typing import Iterable, Sequence

from repro.common.clock import Clock, SystemClock
from repro.crypto.tls import LoopbackSecureLink
from repro.gdpr.acl import Principal
from repro.gdpr.audit import AuditEvent, events_from_aof
from repro.gdpr.record import PersonalRecord, format_ttl, parse_ttl
from repro.minikv.engine import MiniKV, MiniKVConfig
from repro.minikv.sharded import ShardedMiniKV, open_minikv, shard_aof_path

from .base import FeatureSet, GDPRClient, GDPRPipeline, normalise_attribute
from .futures import autopipelined

_REC_PREFIX = "rec:"
_YCSB_PREFIX = "user:"
_SCAN_BATCH = 256
#: Max commands per engine pipeline: bounds multi-stripe lock hold time.
_PIPELINE_CHUNK = 256


#: queue kinds that resolve to a single engine command (batched into one
#: engine pipeline); everything else runs through its own already-pipelined
#: multi-record implementation inside the batch stream
_ENGINE_POINT_KINDS = frozenset({
    "read", "update", "insert", "read-data-by-key", "read-metadata-by-key",
})


class RedisClientPipeline(GDPRPipeline):
    """minikv implementation of the shared :class:`GDPRPipeline` contract.

    Executes a queued batch with a single request and a single response
    crossing the (possibly TLS) wire — the client half of Redis
    pipelining.  Point operations (the YCSB primitives plus
    ``read-data-by-key`` / ``read-metadata-by-key``, the dominant ops of
    the processor and customer workloads) coalesce into engine pipelines:
    one multi-stripe lock acquisition, one expiry tick, one AOF group
    commit per run of consecutive point ops.  Multi-record GDPR
    operations (``read-data-by-pur``, ``delete-record-by-ttl``,
    ``update-metadata-by-*``, ...) flush the pending point run and then
    execute through their own internally-pipelined engines — a Redis
    client cannot fuse a SCAN-shaped query into a static command batch.

    Queueing methods return pending
    :class:`~repro.clients.futures.ResultFuture` slots; :meth:`execute`
    returns the real responses in queue order.  Failures — including
    per-operation access-control denials — are captured per slot and the
    first is raised after the batch completes.
    """

    def __init__(self, client: "RedisGDPRClient", parent=None) -> None:
        super().__init__(parent)
        self._client = client

    def _flush_points(self, buffered: list, responses: list, errors: list) -> None:
        """Run buffered point ops as one engine pipeline; fill their slots."""
        if not buffered:
            return
        client = self._client
        arm_ttl = client.features.timely_deletion
        pipe = client.engine.pipeline()
        for _slot, kind, key, _payload in buffered:
            if kind in ("read-data-by-key", "read-metadata-by-key"):
                pipe.hgetall(_REC_PREFIX + key)
                continue
            redis_key = _YCSB_PREFIX + key
            if kind == "read":
                pipe.hgetall(redis_key)
            elif kind == "update":
                pipe.hmset_if_exists(
                    redis_key, {f: v.encode() for f, v in _payload.items()}
                )
            else:  # insert
                pipe.hmset(redis_key, {f: v.encode() for f, v in _payload.items()})
                if arm_ttl:
                    pipe.expire(redis_key, client.YCSB_TTL_SECONDS)
        # errors ride in their result slots so one poisoned command
        # cannot void its batch-mates (the per-slot capture below)
        raw = pipe.execute(raise_on_error=False)
        inserted: list[str] = []
        cursor = 0
        for slot, kind, key, payload in buffered:
            result = raw[cursor]
            cursor += 1
            try:
                if isinstance(result, Exception):
                    raise result
                if kind == "read":
                    if not result:
                        responses[slot] = None
                    elif payload is None:
                        responses[slot] = {f: v.decode() for f, v in result.items()}
                    else:
                        responses[slot] = {
                            f: v.decode() for f, v in result.items() if f in payload
                        }
                elif kind == "update":
                    responses[slot] = result
                elif kind == "insert":
                    if arm_ttl:
                        cursor += 1  # the paired EXPIRE result
                    inserted.append(key)
                    responses[slot] = None
                else:  # read-data-by-key / read-metadata-by-key
                    principal = payload
                    op = kind
                    client.acl.check_operation(principal, op)
                    if not result:
                        responses[slot] = None
                        continue
                    record = client._record_from_fields(key, result)
                    if op == "read-data-by-key":
                        client.acl.check_record_access(principal, record)
                        responses[slot] = record.data
                    else:
                        client.acl.check_metadata_access(principal, record)
                        responses[slot] = record.metadata()
            except Exception as exc:  # captured per slot, batch continues
                responses[slot] = exc
                errors.append(exc)
        if inserted:
            with client._ycsb_keys_lock:
                for key in inserted:
                    idx = bisect.bisect_left(client._ycsb_keys, key)
                    if idx >= len(client._ycsb_keys) or client._ycsb_keys[idx] != key:
                        client._ycsb_keys.insert(idx, key)
        buffered.clear()

    def _run_multi(self, kind: str, key: str, payload):
        """One multi-record GDPR op through its single-op implementation."""
        client = self._client
        if kind == "delete-record-by-ttl":
            return client.delete_record_by_ttl(payload)
        if kind.startswith("update-metadata-by-"):
            principal, attribute, value = payload
            method = getattr(client, kind.replace("-", "_"))
            return method(principal, key, attribute, value)
        # read-data-by-{pur,usr,obj,dec} / read-metadata-by-usr
        method = getattr(client, kind.replace("-", "_"))
        return method(payload, key)

    def _run_ops(self, ops) -> tuple[list, list[Exception]]:
        client = self._client
        # One request round-trip carries the whole batch.  Multi-record
        # ops wire their own full request inside their single-op
        # implementation, so their slots travel as bare kind markers here
        # (same no-double-count rule as the response frame below).
        client._wire([
            (kind, key) if kind in _ENGINE_POINT_KINDS else (kind,)
            for kind, key, _ in ops
        ])
        responses: list = [None] * len(ops)
        errors: list[Exception] = []
        buffered: list = []  # (slot, kind, key, payload) point-op run
        multi_slots: set[int] = set()
        for slot, (kind, key, payload) in enumerate(ops):
            if kind in _ENGINE_POINT_KINDS:
                buffered.append((slot, kind, key, payload))
                continue
            multi_slots.add(slot)
            self._flush_points(buffered, responses, errors)
            try:
                responses[slot] = self._run_multi(kind, key, payload)
            except Exception as exc:
                responses[slot] = exc
                errors.append(exc)
        self._flush_points(buffered, responses, errors)
        # ...and one response round-trip carries the point results back.
        # Multi-record responses already crossed the wire inside their
        # single-op implementations; shipping them again here would
        # double-count their serialisation, so their slots travel as
        # placeholders in the batch frame.
        client._wire([
            None if slot in multi_slots else response
            for slot, response in enumerate(responses)
        ])
        return responses, errors


@autopipelined
class RedisGDPRClient(GDPRClient):
    """DB-interface stub translating GDPR queries into minikv commands."""

    engine_name = "redis"

    def __init__(
        self,
        features: FeatureSet | None = None,
        data_dir: str | None = None,
        clock: Clock | None = None,
        expiry_seed: int = 0,
        engine_ttl: bool = True,
        ttl_algorithm: str = "",
        client_indices: bool = False,
        stripes: int = 1,
        aof_batch_size: int = 1,
        shards: int = 1,
        transport: str = "pipe",
        shard_addresses: tuple | None = None,
    ) -> None:
        super().__init__(features or FeatureSet.none())
        self.clock = clock or SystemClock()
        self._owns_dir = data_dir is None
        self._data_dir = data_dir or tempfile.mkdtemp(prefix="repro-minikv-")
        self._aof_path: str | None = None
        if self.features.monitoring:
            self._aof_path = os.path.join(self._data_dir, "redis.aof")
        self._engine_ttl = engine_ttl
        engine_config = MiniKVConfig(
            encryption_at_rest=self.features.encryption,
            aof_path=self._aof_path,
            fsync="everysec",
            log_reads=self.features.monitoring,
            expiry_seed=expiry_seed,
            # timely deletion is the paper's strict patch unless the
            # caller picked an algorithm explicitly
            ttl_algorithm=ttl_algorithm or (
                "strict" if self.features.timely_deletion else "lazy"
            ),
            stripes=stripes,
            aof_batch_size=aof_batch_size,
            shards=shards,
            transport=transport,
            shard_addresses=shard_addresses,
        )
        # shards=1 -> the paper's in-process engine on the client clock
        # (byte-identical to the seed construction path); shards>1 -> the
        # multi-process router of docs/sharding.md, whose command surface
        # is identical, so everything below — pipelines included — routes
        # transparently.  The factory rejects a custom clock when sharded
        # (workers keep their own system clocks), so the sharded branch
        # forwards the caller's clock argument, not the resolved default.
        self.engine: MiniKV | ShardedMiniKV = open_minikv(
            engine_config, clock=self.clock if shards <= 1 else clock
        )
        self._link = LoopbackSecureLink(enabled=self.features.encryption)
        self._ycsb_keys: list[str] = []  # sorted; the ZSET-index analogue
        self._ycsb_keys_lock = threading.Lock()
        #: §7.2 "efficient metadata indexing" for a KV store: client-
        #: maintained SET reverse indices on USR, PUR, OBJ, DEC, and SHR
        #: (how production Redis deployments index secondary attributes),
        #: plus a master key set for negative queries.  Lookups fall back
        #: to SCAN when indices are off; stale entries left by engine-side
        #: TTL expiry are cleaned lazily on read.
        self._client_indices = client_indices
        if client_indices:
            self.features.metadata_indexing = True
        #: Client-side expiry index (the ROADMAP's last scan-bound path):
        #: a lazy min-heap of (EXP deadline, key) fed by every store and
        #: TTL update.  DELETE-RECORD-BY-TTL pops due entries and verifies
        #: each candidate's current EXP instead of sweeping every record's
        #: EXP field; a TTL extension simply leaves a stale heap entry
        #: behind, discarded when its verification fetch disagrees.
        self._exp_heap: list[tuple[float, str]] = []
        self._exp_lock = threading.Lock()

    def _exp_index_add(self, deadline: float, key: str) -> None:
        if self._client_indices:
            with self._exp_lock:
                heapq.heappush(self._exp_heap, (deadline, key))

    def pipeline(self) -> RedisClientPipeline:
        """A client command batch (one engine pipeline + one wire trip)."""
        return RedisClientPipeline(self)

    # ------------------------------------------------------------------
    # Wire helpers (the Stunnel boundary)
    # ------------------------------------------------------------------

    def _wire(self, payload) -> None:
        """Push a request or response across the client<->server boundary.

        Every configuration pays protocol serialisation (real clients
        always encode requests/responses — RESP here); the encryption
        feature additionally runs the serialised bytes through the TLS
        channel, so the *marginal* cost of encryption is the cipher work,
        matching how Stunnel layers on top of the existing protocol.
        """
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self._link.enabled:
            self._link.to_server(blob)

    # ------------------------------------------------------------------
    # Record <-> hash translation
    # ------------------------------------------------------------------

    @staticmethod
    def _fields_from_record(record: PersonalRecord, expiry_at: float) -> dict[str, bytes]:
        return {
            "data": record.data.encode(),
            "PUR": ",".join(record.purposes).encode(),
            "TTL": format_ttl(record.ttl_seconds).encode(),
            "USR": record.user.encode(),
            "OBJ": ",".join(record.objections).encode(),
            "DEC": ",".join(record.decisions).encode(),
            "SHR": ",".join(record.shared_with).encode(),
            "SRC": record.source.encode(),
            "EXP": repr(expiry_at).encode(),
        }

    @staticmethod
    def _record_from_fields(key: str, fields: dict[str, bytes]) -> PersonalRecord:
        def text(name: str) -> str:
            return fields.get(name, b"").decode()

        def as_list(name: str) -> tuple:
            raw = text(name)
            return tuple(raw.split(",")) if raw else ()

        return PersonalRecord(
            key=key,
            data=text("data"),
            purposes=as_list("PUR"),
            ttl_seconds=parse_ttl(text("TTL")) if text("TTL") else 0.0,
            user=text("USR"),
            objections=as_list("OBJ"),
            decisions=as_list("DEC"),
            shared_with=as_list("SHR"),
            source=text("SRC"),
        )

    # -- client-side reverse indices (SET per attribute value) ------------

    @staticmethod
    def _usr_index(user: str) -> str:
        return f"midx:usr:{user}"

    @staticmethod
    def _pur_index(purpose: str) -> str:
        return f"midx:pur:{purpose}"

    @staticmethod
    def _obj_index(purpose: str) -> str:
        return f"midx:obj:{purpose}"

    @staticmethod
    def _dec_index(decision: str) -> str:
        return f"midx:dec:{decision}"

    @staticmethod
    def _shr_index(third_party: str) -> str:
        return f"midx:shr:{third_party}"

    @staticmethod
    def _all_index() -> str:
        """Master SET of every record key: the universe for negative
        queries (READ-DATA-BY-OBJ keeps records NOT objecting)."""
        return "midx:keys"

    def _index_keys(self, record: PersonalRecord) -> list[str]:
        """Every reverse-index SET a record belongs to."""
        keys = [self._all_index(), self._usr_index(record.user)]
        keys.extend(self._pur_index(p) for p in record.purposes)
        keys.extend(self._obj_index(o) for o in record.objections)
        keys.extend(self._dec_index(d) for d in record.decisions)
        keys.extend(self._shr_index(s) for s in record.shared_with)
        return keys

    def _index_add(self, record: PersonalRecord, pipe=None) -> None:
        member = record.key.encode()
        own_pipe = pipe is None
        if own_pipe:
            pipe = self.engine.pipeline()
        for index_key in self._index_keys(record):
            pipe.sadd(index_key, member)
        if own_pipe:
            pipe.execute()

    def _index_remove(self, record: PersonalRecord, pipe=None) -> None:
        member = record.key.encode()
        own_pipe = pipe is None
        if own_pipe:
            pipe = self.engine.pipeline()
        for index_key in self._index_keys(record):
            pipe.srem(index_key, member)
        if own_pipe:
            pipe.execute()

    def _fetch_member_records(
        self, members, stale_index_key: str
    ) -> list[PersonalRecord]:
        """Pipelined fetch of the records behind index SET ``members``.

        Each chunk of HGETALLs runs as one engine pipeline and its
        responses cross the wire as one payload.  Entries whose hash has
        vanished (engine-side TTL expiry or races) are stale; they are
        dropped from ``stale_index_key`` lazily here.
        """
        members = list(members)
        out: list[PersonalRecord] = []
        stale: list[bytes] = []
        for start in range(0, len(members), _PIPELINE_CHUNK):
            chunk = members[start:start + _PIPELINE_CHUNK]
            pipe = self.engine.pipeline()
            for member in chunk:
                pipe.hgetall(_REC_PREFIX + member.decode())
            responses = pipe.execute()
            live = []
            for member, fields in zip(chunk, responses):
                if not fields:
                    stale.append(member)
                    continue
                live.append(fields)
                out.append(self._record_from_fields(member.decode(), fields))
            if live:
                self._wire(live)  # one response round-trip per chunk
        if stale:
            self.engine.srem(stale_index_key, *stale)  # lazy cleanup
        return out

    def _indexed_records(self, index_key: str) -> list[PersonalRecord] | None:
        """Records behind one reverse-index SET, or None if indices are off."""
        if not self._client_indices:
            return None
        return self._fetch_member_records(self.engine.smembers(index_key), index_key)

    def _store(self, record: PersonalRecord) -> None:
        expiry_at = self.clock.now() + record.ttl_seconds
        redis_key = _REC_PREFIX + record.key
        previous = self._fetch(record.key) if self._client_indices else None
        self.engine.hmset(redis_key, self._fields_from_record(record, expiry_at))
        if self._engine_ttl and record.ttl_seconds > 0:
            self.engine.expire(redis_key, record.ttl_seconds)
        if self._client_indices:
            if previous is not None:
                self._index_remove(previous)
            self._index_add(record)
            self._exp_index_add(expiry_at, record.key)

    def _fetch(self, key: str) -> PersonalRecord | None:
        fields = self.engine.hgetall(_REC_PREFIX + key)
        if not fields:
            return None
        return self._record_from_fields(key, fields)

    def _iter_records(self) -> Iterable[PersonalRecord]:
        """Full keyspace traversal — the only metadata 'index' Redis has.

        Redis cannot filter on hash fields server-side, so every record
        crosses the client<->server boundary on every metadata-conditioned
        query: each HGETALL response is pushed through the wire layer.
        This transfer amplification is the architectural reason the paper's
        Redis runs GDPR workloads orders of magnitude slower than an RDBMS
        that filters before shipping results.
        """
        cursor = 0
        while True:
            cursor, keys = self.engine.scan(cursor, match=_REC_PREFIX + "*", count=_SCAN_BATCH)
            for redis_key in keys:
                fields = self.engine.hgetall(redis_key)
                if fields:
                    self._wire(fields)
                    yield self._record_from_fields(redis_key[len(_REC_PREFIX):], fields)
            if cursor == 0:
                return

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------

    def load_records(self, records: Iterable[PersonalRecord]) -> int:
        loaded = 0
        for record in records:
            self._store(record)
            loaded += 1
        return loaded

    # ------------------------------------------------------------------
    # CREATE / DELETE
    # ------------------------------------------------------------------

    def create_record(self, principal: Principal, record: PersonalRecord) -> bool:
        self.acl.check_operation(principal, "create-record")
        self._wire(("create-record", record.key))
        self._store(record)
        self._wire(True)
        return True

    def delete_record_by_key(self, principal: Principal, key: str) -> int:
        self.acl.check_operation(principal, "delete-record-by-key")
        self._wire(("delete-record-by-key", key))
        record = self._fetch(key)
        if record is None:
            self._wire(0)
            return 0
        self.acl.check_record_access(principal, record, write=True)
        deleted = self.engine.delete(_REC_PREFIX + key)
        if deleted and self._client_indices:
            self._index_remove(record)
        self._wire(deleted)
        return deleted

    def _delete_records(self, victims: list[PersonalRecord]) -> int:
        """Erase a victim list in pipelined chunks (one lock + one group
        commit per chunk).  Index removals are queued unconditionally: if
        the record vanished concurrently its index entries are stale
        anyway, and SREM on a gone member is a no-op."""
        deleted = 0
        for start in range(0, len(victims), _PIPELINE_CHUNK):
            chunk = victims[start:start + _PIPELINE_CHUNK]
            pipe = self.engine.pipeline()
            slots = []
            for record in chunk:
                slots.append(len(pipe))
                pipe.delete(_REC_PREFIX + record.key)
                if self._client_indices:
                    self._index_remove(record, pipe=pipe)
            results = pipe.execute()
            deleted += sum(results[slot] for slot in slots)
        return deleted

    def delete_record_by_pur(self, principal: Principal, purpose: str) -> int:
        self.acl.check_operation(principal, "delete-record-by-pur")
        self._wire(("delete-record-by-pur", purpose))
        victims = self._indexed_records(self._pur_index(purpose))
        if victims is None:
            victims = [r for r in self._iter_records() if purpose in r.purposes]
        deleted = self._delete_records(victims)
        self._wire(deleted)
        return deleted

    def delete_record_by_ttl(self, principal: Principal) -> int:
        self.acl.check_operation(principal, "delete-record-by-ttl")
        self._wire(("delete-record-by-ttl",))
        # Engine-side: erase everything whose Redis TTL has lapsed.
        deleted = sum(
            1 for key in self.engine.purge_expired() if key.startswith(_REC_PREFIX)
        )
        now = self.clock.now()
        if self._client_indices:
            # Expiry-indexed path: pop due (deadline, key) entries and
            # verify each candidate's live EXP — O(expired), not O(n).
            deleted += self._delete_records(self._expired_via_exp_index(now))
        else:
            # Records tracked only by the EXP metadata field (covers
            # engine_ttl=False deployments); full scan, as a controller
            # without indices must.
            for record in list(self._iter_records()):
                fields = self.engine.hgetall(_REC_PREFIX + record.key)
                deadline = float(fields.get("EXP", b"inf"))
                if deadline <= now:
                    deleted += self.engine.delete(_REC_PREFIX + record.key)
        self._wire(deleted)
        return deleted

    def _expired_via_exp_index(self, now: float) -> list[PersonalRecord]:
        """Resolve the expiry index's due entries to genuinely expired records.

        Heap entries are lazy: a TTL extension leaves the old deadline in
        place and pushes a new one, and records deleted by other paths (or
        by engine-side expiry) leave entries with no hash behind.  Each
        candidate's hash is therefore fetched (pipelined, one chunk per
        round-trip) and kept only when its *current* EXP has passed.
        """
        candidates: list[str] = []
        with self._exp_lock:
            while self._exp_heap and self._exp_heap[0][0] <= now:
                candidates.append(heapq.heappop(self._exp_heap)[1])
        victims: list[PersonalRecord] = []
        seen: set[str] = set()
        fresh: list[str] = []
        for key in candidates:
            if key not in seen:
                seen.add(key)
                fresh.append(key)
        for start in range(0, len(fresh), _PIPELINE_CHUNK):
            chunk = fresh[start:start + _PIPELINE_CHUNK]
            pipe = self.engine.pipeline()
            for key in chunk:
                pipe.hgetall(_REC_PREFIX + key)
            for key, fields in zip(chunk, pipe.execute()):
                if not fields:
                    continue  # already gone; entry was stale
                if float(fields.get("EXP", b"inf")) <= now:
                    victims.append(self._record_from_fields(key, fields))
                # else: TTL was extended; its newer heap entry survives
        return victims

    def delete_record_by_usr(self, principal: Principal, user: str) -> int:
        self.acl.check_operation(principal, "delete-record-by-usr")
        self._wire(("delete-record-by-usr", user))
        victims = self._indexed_records(self._usr_index(user))
        if victims is None:
            victims = [r for r in self._iter_records() if r.user == user]
        deleted = self._delete_records(victims)
        self._wire(deleted)
        return deleted

    # ------------------------------------------------------------------
    # READ-DATA
    # ------------------------------------------------------------------

    def read_data_by_key(self, principal: Principal, key: str) -> str | None:
        self.acl.check_operation(principal, "read-data-by-key")
        self._wire(("read-data-by-key", key))
        record = self._fetch(key)
        if record is None:
            self._wire(None)
            return None
        self.acl.check_record_access(principal, record)
        self._wire(record.data)
        return record.data

    def _read_data_where(self, principal: Principal, op: str, keep) -> list:
        self.acl.check_operation(principal, op)
        self._wire((op,))
        out = []
        for record in self._iter_records():
            if keep(record):
                self.acl.check_record_access(principal, record)
                out.append((record.key, record.data))
        self._wire(out)
        return out

    def _project_records(self, principal: Principal, op: str,
                         records, keep, metadata: bool) -> list:
        """ACL-checked projection of a pre-fetched record list: the one
        shared tail of every indexed READ-DATA / READ-METADATA query."""
        self.acl.check_operation(principal, op)
        self._wire((op,))
        out = []
        for record in records:
            if keep(record):
                if metadata:
                    self.acl.check_metadata_access(principal, record)
                    out.append((record.key, record.metadata()))
                else:
                    self.acl.check_record_access(principal, record)
                    out.append((record.key, record.data))
        self._wire(out)
        return out

    def _read_data_from_records(self, principal: Principal, op: str,
                                records, keep) -> list:
        return self._project_records(principal, op, records, keep, metadata=False)

    def _read_data_indexed(self, principal: Principal, op: str,
                           index_key: str, keep) -> list | None:
        """Index-assisted READ-DATA; None when indices are off."""
        records = self._indexed_records(index_key)
        if records is None:
            return None
        return self._project_records(principal, op, records, keep, metadata=False)

    def _read_metadata_indexed(self, principal: Principal, op: str,
                               index_key: str, keep) -> list | None:
        """Index-assisted READ-METADATA; None when indices are off."""
        records = self._indexed_records(index_key)
        if records is None:
            return None
        return self._project_records(principal, op, records, keep, metadata=True)

    def read_data_by_pur(self, principal: Principal, purpose: str) -> list:
        indexed = self._read_data_indexed(
            principal, "read-data-by-pur", self._pur_index(purpose),
            lambda r: purpose in r.purposes,
        )
        if indexed is not None:
            return indexed
        return self._read_data_where(
            principal, "read-data-by-pur", lambda r: purpose in r.purposes
        )

    def read_data_by_usr(self, principal: Principal, user: str) -> list:
        indexed = self._read_data_indexed(
            principal, "read-data-by-usr", self._usr_index(user),
            lambda r: r.user == user,
        )
        if indexed is not None:
            return indexed
        return self._read_data_where(
            principal, "read-data-by-usr", lambda r: r.user == user
        )

    def read_data_by_obj(self, principal: Principal, purpose: str) -> list:
        if self._client_indices:
            # Negative query: records NOT objecting = master set minus the
            # objectors' reverse index, resolved client-side in O(matches).
            members = (
                self.engine.smembers(self._all_index())
                - self.engine.smembers(self._obj_index(purpose))
            )
            records = self._fetch_member_records(members, self._all_index())
            return self._read_data_from_records(
                principal, "read-data-by-obj", records,
                lambda r: purpose not in r.objections,
            )
        return self._read_data_where(
            principal, "read-data-by-obj", lambda r: purpose not in r.objections
        )

    def read_data_by_dec(self, principal: Principal, decision: str) -> list:
        indexed = self._read_data_indexed(
            principal, "read-data-by-dec", self._dec_index(decision),
            lambda r: decision in r.decisions,
        )
        if indexed is not None:
            return indexed
        return self._read_data_where(
            principal, "read-data-by-dec", lambda r: decision in r.decisions
        )

    # ------------------------------------------------------------------
    # READ-METADATA
    # ------------------------------------------------------------------

    def read_metadata_by_key(self, principal: Principal, key: str) -> dict | None:
        self.acl.check_operation(principal, "read-metadata-by-key")
        self._wire(("read-metadata-by-key", key))
        record = self._fetch(key)
        if record is None:
            self._wire(None)
            return None
        self.acl.check_metadata_access(principal, record)
        metadata = record.metadata()
        self._wire(metadata)
        return metadata

    def _read_metadata_where(self, principal: Principal, op: str, keep) -> list:
        self.acl.check_operation(principal, op)
        self._wire((op,))
        out = []
        for record in self._iter_records():
            if keep(record):
                self.acl.check_metadata_access(principal, record)
                out.append((record.key, record.metadata()))
        self._wire(out)
        return out

    def read_metadata_by_usr(self, principal: Principal, user: str) -> list:
        indexed = self._read_metadata_indexed(
            principal, "read-metadata-by-usr", self._usr_index(user),
            lambda r: r.user == user,
        )
        if indexed is not None:
            return indexed
        return self._read_metadata_where(
            principal, "read-metadata-by-usr", lambda r: r.user == user
        )

    def read_metadata_by_shr(self, principal: Principal, third_party: str) -> list:
        indexed = self._read_metadata_indexed(
            principal, "read-metadata-by-shr", self._shr_index(third_party),
            lambda r: third_party in r.shared_with,
        )
        if indexed is not None:
            return indexed
        return self._read_metadata_where(
            principal, "read-metadata-by-shr", lambda r: third_party in r.shared_with
        )

    # ------------------------------------------------------------------
    # UPDATE
    # ------------------------------------------------------------------

    def update_data_by_key(self, principal: Principal, key: str, data: str) -> int:
        self.acl.check_operation(principal, "update-data-by-key")
        self._wire(("update-data-by-key", key))
        record = self._fetch(key)
        if record is None:
            self._wire(0)
            return 0
        self.acl.check_record_access(principal, record, write=True)
        written = self.engine.hset_if_exists(_REC_PREFIX + key, "data", data.encode())
        self._wire(written)
        return written

    #: Metadata attributes carrying a reverse index:
    #: attribute -> (old-record value accessor, index-key builder).
    #: One table so adding an index can't drift between the two roles.
    _INDEXED_ATTRIBUTES = {
        "USR": (lambda record: (record.user,), _usr_index.__func__),
        "PUR": (lambda record: record.purposes, _pur_index.__func__),
        "OBJ": (lambda record: record.objections, _obj_index.__func__),
        "DEC": (lambda record: record.decisions, _dec_index.__func__),
        "SHR": (lambda record: record.shared_with, _shr_index.__func__),
    }

    def _queue_attr_reindex(self, pipe, key: str, attribute: str, canonical,
                            old_record: PersonalRecord | None) -> None:
        """Queue the SREM/SADD moves for one record's attribute change."""
        member = key.encode()
        old_values, index_key_for = self._INDEXED_ATTRIBUTES[attribute]
        new_values = (canonical,) if attribute == "USR" else tuple(canonical)
        if old_record is not None:
            for value in old_values(old_record):
                pipe.srem(index_key_for(value), member)
        for value in new_values:
            pipe.sadd(index_key_for(value), member)

    def _apply_metadata(self, key: str, attribute: str, value,
                        old_record: PersonalRecord | None = None) -> int:
        """Single-record UPDATE-METADATA: a one-element group update, so
        the attribute encodings live only in :meth:`_apply_metadata_batch`."""
        record = old_record
        if record is None or record.key != key:
            record = self._fetch(key)
            if record is None:
                return 0
        return self._apply_metadata_batch([record], attribute, value)

    def _apply_metadata_batch(self, records: list[PersonalRecord],
                              attribute: str, value) -> int:
        """Group UPDATE-METADATA: the attribute writes for a victim chunk
        run as one pipeline, then the follow-ups (TTL re-arm, reverse-index
        moves) for the records actually written run as a second one."""
        attribute = attribute.upper()
        canonical = normalise_attribute(attribute, value)
        changed = 0
        for start in range(0, len(records), _PIPELINE_CHUNK):
            chunk = records[start:start + _PIPELINE_CHUNK]
            pipe = self.engine.pipeline()
            exp_at = None
            if attribute == "TTL":
                exp_at = self.clock.now() + canonical
                payload = {
                    "TTL": format_ttl(canonical).encode(),
                    "EXP": repr(exp_at).encode(),
                }
                for record in chunk:
                    pipe.hmset_if_exists(_REC_PREFIX + record.key, payload)
            elif attribute in ("USR", "SRC"):
                for record in chunk:
                    pipe.hset_if_exists(
                        _REC_PREFIX + record.key, attribute, canonical.encode()
                    )
            else:
                encoded = ",".join(canonical).encode()
                for record in chunk:
                    pipe.hset_if_exists(_REC_PREFIX + record.key, attribute, encoded)
            written_flags = pipe.execute()
            followup = self.engine.pipeline()
            for record, written in zip(chunk, written_flags):
                if not written:
                    continue
                changed += 1
                if attribute == "TTL":
                    self._exp_index_add(exp_at, record.key)
                    if self._engine_ttl and canonical > 0:
                        followup.expire(_REC_PREFIX + record.key, canonical)
                elif self._client_indices and attribute in self._INDEXED_ATTRIBUTES:
                    self._queue_attr_reindex(
                        followup, record.key, attribute, canonical, old_record=record
                    )
            if len(followup):
                followup.execute()
        return changed

    def update_metadata_by_key(self, principal: Principal, key: str, attribute: str, value) -> int:
        self.acl.check_operation(principal, "update-metadata-by-key")
        self._wire(("update-metadata-by-key", key, attribute))
        record = self._fetch(key)
        if record is None:
            self._wire(0)
            return 0
        self.acl.check_metadata_access(principal, record)
        written = self._apply_metadata(key, attribute, value, old_record=record)
        self._wire(written)
        return written

    def _update_metadata_where(self, principal: Principal, op: str, keep, attribute: str, value,
                               index_key: str | None = None) -> int:
        self.acl.check_operation(principal, op)
        self._wire((op, attribute))
        records = self._indexed_records(index_key) if index_key is not None else None
        if records is None:
            records = list(self._iter_records())
        victims = [record for record in records if keep(record)]
        changed = self._apply_metadata_batch(victims, attribute, value)
        self._wire(changed)
        return changed

    def update_metadata_by_pur(self, principal: Principal, purpose: str, attribute: str, value) -> int:
        return self._update_metadata_where(
            principal, "update-metadata-by-pur",
            lambda r: purpose in r.purposes, attribute, value,
            index_key=self._pur_index(purpose),
        )

    def update_metadata_by_usr(self, principal: Principal, user: str, attribute: str, value) -> int:
        return self._update_metadata_where(
            principal, "update-metadata-by-usr",
            lambda r: r.user == user, attribute, value,
            index_key=self._usr_index(user),
        )

    def update_metadata_by_shr(self, principal: Principal, third_party: str, attribute: str, value) -> int:
        return self._update_metadata_where(
            principal, "update-metadata-by-shr",
            lambda r: third_party in r.shared_with, attribute, value,
            index_key=self._shr_index(third_party),
        )

    # ------------------------------------------------------------------
    # GET-SYSTEM
    # ------------------------------------------------------------------

    def get_system_logs(self, principal: Principal, start: float | None = None,
                        end: float | None = None, limit: int = 100) -> list[AuditEvent]:
        self.acl.check_operation(principal, "get-system-logs")
        if self._aof_path is None:
            return []
        self.engine.flush_aof()
        cipher = self.engine._file_cipher
        if isinstance(self.engine, ShardedMiniKV):
            # The audit trail is per-shard (one AOF per worker) and the
            # AOF carries no timestamps, so there is no global recency
            # order to recover.  Split the limit exactly instead: every
            # shard contributes its share of most-recent events (the
            # first ``limit % shards`` shards take the remainder),
            # concatenated in shard order — each shard's own trail stays
            # ordered and no shard can crowd another out.
            paths = self.engine.aof_paths
            events: list[AuditEvent] = []
            for index, path in enumerate(paths):
                share = limit
                if limit:
                    share = limit // len(paths) + (1 if index < limit % len(paths) else 0)
                    if share == 0:
                        continue
                events.extend(events_from_aof(path, limit=share, cipher=cipher))
            return events
        return events_from_aof(self._aof_path, limit=limit, cipher=cipher)

    def rewrite_aof(self, archive_path: str | None = None) -> tuple[int, int]:
        """Compact the engine AOF(s); returns summed ``(old, new)`` sizes.

        With monitoring on the AOF doubles as the G 30 audit trail, so the
        engine refuses to compact without ``archive_path`` — the archival
        path is shard-aware: on the in-process engine the history lands at
        ``archive_path`` itself, on a sharded deployment each worker
        archives its own trail at ``<archive_path>.shard<i>`` (readable
        with the same :func:`~repro.gdpr.audit.events_from_aof` tooling as
        the live per-shard files).
        """
        return self.engine.rewrite_aof(archive_path)

    def audit_archive_paths(self, archive_path: str) -> list[str]:
        """Where :meth:`rewrite_aof` lands the audit history for this
        deployment: the path itself in-process, one ``.shard<i>`` file
        per worker when sharded."""
        if isinstance(self.engine, ShardedMiniKV):
            return [shard_aof_path(archive_path, index)
                    for index in range(self.engine.shard_count)]
        return [archive_path]

    def _record_exists(self, key: str) -> bool:
        return self.engine.exists(_REC_PREFIX + key)

    # ------------------------------------------------------------------
    # YCSB primitives
    # ------------------------------------------------------------------

    #: GDPR requires every personal datum to expire (G 5(1e)); when the
    #: timely-deletion feature is on, even YCSB rows carry this TTL, which
    #: is what makes the paper's TTL bar cost ~20% on traditional workloads.
    YCSB_TTL_SECONDS = 5 * 86400.0

    def ycsb_insert(self, key: str, fields: dict) -> None:
        self._wire(("insert", key))
        redis_key = _YCSB_PREFIX + key
        self.engine.hmset(redis_key, {f: v.encode() for f, v in fields.items()})
        if self.features.timely_deletion:
            self.engine.expire(redis_key, self.YCSB_TTL_SECONDS)
        with self._ycsb_keys_lock:
            idx = bisect.bisect_left(self._ycsb_keys, key)
            if idx >= len(self._ycsb_keys) or self._ycsb_keys[idx] != key:
                self._ycsb_keys.insert(idx, key)
        self._wire(True)

    def ycsb_read(self, key: str, fields: Sequence[str] | None = None) -> dict | None:
        self._wire(("read", key))
        raw = self.engine.hgetall(_YCSB_PREFIX + key)
        if not raw:
            self._wire(None)
            return None
        out = {f: v.decode() for f, v in raw.items() if fields is None or f in fields}
        self._wire(out)
        return out

    def ycsb_update(self, key: str, fields: dict) -> int:
        self._wire(("update", key))
        if not self.engine.exists(_YCSB_PREFIX + key):
            self._wire(0)
            return 0
        self.engine.hmset(_YCSB_PREFIX + key, {f: v.encode() for f, v in fields.items()})
        self._wire(1)
        return 1

    def ycsb_scan(self, start_key: str, count: int) -> list:
        self._wire(("scan", start_key, count))
        with self._ycsb_keys_lock:
            idx = bisect.bisect_left(self._ycsb_keys, start_key)
            window = self._ycsb_keys[idx:idx + count]
        out = []
        for key in window:
            raw = self.engine.hgetall(_YCSB_PREFIX + key)
            if raw:
                out.append({f: v.decode() for f, v in raw.items()})
        self._wire(len(out))
        return out

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def personal_data_bytes(self) -> int:
        return sum(r.data_bytes() for r in self._iter_records())

    def total_db_bytes(self) -> int:
        return self.engine.memory_used() + self.engine.aof_size()

    def record_count(self) -> int:
        count = 0
        cursor = 0
        while True:
            cursor, keys = self.engine.scan(cursor, match=_REC_PREFIX + "*", count=_SCAN_BATCH)
            count += len(keys)
            if cursor == 0:
                return count

    def close(self) -> None:
        self.engine.close()
        if self._owns_dir:
            shutil.rmtree(self._data_dir, ignore_errors=True)
