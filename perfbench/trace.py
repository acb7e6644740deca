"""Outside-in span tracer for the perfbench traced pass.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` wraps the
*public* callables of each layer (class attributes and module
functions) before the client is built and restores them afterwards, so
every call into a layer records a span on a thread-local stack:

* a span's **self time** is its duration minus the part its child spans
  cover, so self times of all wrapped calls add up to the time spent
  under root spans and never double count;
* every span feeds per-thread aggregates ``[calls, total_ns, self_ns,
  weight]`` (``weight`` is a per-wrap-point count such as bytes);
* for sampled benchmark operations the raw spans
  ``(name, start, end, id, parent, op)`` are kept in memory and written
  as JSON lines when the run ends.  A full-GDPR minikv metadata query
  makes ~30k layer calls, so keeping every span of every operation
  would cost gigabytes; the aggregates cover all of them.

Shard workers are forked from the traced process.  A fork hook restores
the original callables in the child, so workers run untraced code and
their spans are (by design) not collected.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from types import FunctionType

#: GDPR query surface of both client stubs: one root span per call
GDPR_METHODS = (
    "create_record", "delete_record_by_key", "delete_record_by_pur",
    "delete_record_by_ttl", "delete_record_by_usr",
    "read_data_by_key", "read_data_by_pur", "read_data_by_usr",
    "read_data_by_obj", "read_data_by_dec",
    "read_metadata_by_key", "read_metadata_by_usr", "read_metadata_by_shr",
    "update_data_by_key", "update_metadata_by_key", "update_metadata_by_pur",
    "update_metadata_by_usr", "update_metadata_by_shr",
    "get_system_logs", "verify_deletion", "load_records",
)

KV_COMMANDS = (
    "set", "get", "delete", "exists", "expire", "expireat", "persist", "ttl",
    "hset", "hmset", "hset_if_exists", "hmset_if_exists", "hget", "hgetall",
    "hdel", "sadd", "srem", "smembers", "sismember", "scan", "keys",
    "dbsize", "purge_expired", "cron", "flush_aof", "memory_used", "aof_size",
)

SQL_STATEMENTS = ("select", "select_point", "insert", "update", "delete",
                  "count", "aggregate")


def _first_len(args, _result) -> int:
    return len(args[1]) if len(args) > 1 else 0     # (self, payload, ...)


def _second_len(args, _result) -> int:
    return len(args[2]) if len(args) > 2 else 0     # (self, token, payload)


def _result_len(_args, result) -> int:
    return len(result)


#: (layer, "module" or "module:Class", names, weigh) — ``weigh(args,
#: result)`` adds to the wrap point's weight column (bytes or items)
WRAP_POINTS = (
    ("clients", "repro.clients.redis_client:RedisGDPRClient", GDPR_METHODS, None),
    ("clients", "repro.clients.sql_client:SQLGDPRClient", GDPR_METHODS, None),
    ("clients", "repro.clients.base:GDPRPipeline", ("execute",), _result_len),
    ("clients.futures", "repro.clients.futures:AutoPipe", ("enqueue", "flush"), None),
    ("gdpr.acl", "repro.gdpr.acl:AccessController",
     ("check_operation", "check_record_access", "check_metadata_access"), None),
    ("crypto.tls", "repro.crypto.tls:LoopbackSecureLink",
     ("to_server", "to_client"), _first_len),
    ("crypto.luks", "repro.crypto.luks:AtRestCipher", ("seal", "open"), _second_len),
    ("crypto.luks", "repro.crypto.luks:FileCipher", ("apply",), _first_len),
    ("minikv.engine", "repro.minikv.engine:MiniKV", KV_COMMANDS, None),
    ("minikv.engine", "repro.minikv.engine:Pipeline", ("execute",), _result_len),
    ("minikv.expiry", "repro.minikv.expiry:StrictExpiryCycle", ("run",), None),
    ("minikv.aof", "repro.minikv.aof:AOFWriter",
     ("append", "append_many", "flush"), None),
    ("minikv.aof", "repro.minikv.aof", ("load_aof",), _result_len),
    ("minisql.database", "repro.minisql.database:Database", SQL_STATEMENTS, None),
    ("minisql.executor", "repro.minisql.executor:Executor",
     SQL_STATEMENTS + ("matching", "plan"), None),
    ("minisql.wal", "repro.minisql.wal:WALWriter", ("append", "flush"), None),
    ("minisql.wal", "repro.minisql.wal", ("load_wal",), _result_len),
    ("minisql.csvlog", "repro.minisql.csvlog:CSVLogger",
     ("log", "flush", "tail", "lines_between"), None),
    ("minisql.ttl_daemon", "repro.minisql.ttl_daemon:TTLSweeper", ("run",), None),
    ("gdpr.audit", "repro.gdpr.audit",
     ("events_from_aof", "events_from_csvlog"), None),
    ("common.sharding", "repro.minikv.sharded:ShardedMiniKV", KV_COMMANDS, None),
    ("common.sharding", "repro.minikv.sharded:ShardedPipeline", ("execute",), None),
    ("common.sharding", "repro.minisql.sharded:ShardedDatabase", SQL_STATEMENTS, None),
    ("common.sharding", "repro.minisql.sharded:ShardedSQLPipeline", ("execute",), None),
    ("common.netshard", "repro.common.netshard:SocketConnection",
     ("send", "recv"), None),
    ("common.hashring", "repro.common.hashring:HashRing",
     ("owner", "owner_of_key"), None),
    ("common.hashring", "repro.common.hashring", ("key_point",), None),
)

#: cap on raw spans kept for the JSON-lines file
MAX_RAW_SPANS = 200_000

_active: "Tracer | None" = None
_fork_hook_registered = False


def _restore_in_forked_child() -> None:
    if _active is not None:
        _active.uninstall()


class _ThreadState(threading.local):
    """Per-thread span stack, aggregates and raw-span buffer."""

    def __init__(self, tracer: "Tracer") -> None:
        self.stack: list = []          # open spans: [child_ns, span_id]
        self.agg = [[0, 0, 0, 0] for _ in tracer.names]
        self.rec: list | None = None   # raw-span buffer while an op is sampled
        self.sid = 0                   # last span id handed out on this thread
        self.root = 0                  # span id of the current benchmark op
        self.op = -1
        self.spans: list = []
        with tracer._lock:
            tracer._thread_aggs.append(self.agg)
            tracer._thread_spans.append((threading.get_ident(), self.spans))


class _PickleProxy:
    """Stands in for the ``pickle`` global of ``common.netshard`` so frame
    encode/decode time and size are visible apart from socket waiting."""

    def __init__(self, real, dumps, loads) -> None:
        self._real = real
        self.dumps = dumps
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs/removes the wrappers and owns everything they record."""

    def __init__(self) -> None:
        self.names: list[str] = []     # wrap index -> "Class.method"
        self.layers: list[str] = []    # wrap index -> layer
        self._patches: list[tuple[object, str, object, bool]] = []
        self._lock = threading.Lock()
        self._thread_aggs: list[list] = []
        self._thread_spans: list[tuple[int, list]] = []
        self._raw_spans = 0
        self._state: _ThreadState | None = None
        self.installed = False

    # -- install / uninstall -------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def install(self) -> None:
        """Wrap every point of :data:`WRAP_POINTS`; call before the client
        under test is built (forked workers inherit, then shed, the wraps)."""
        global _active, _fork_hook_registered
        if self.installed:
            return
        plan = []
        for layer, target, names, weigh in WRAP_POINTS:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            label = class_name or module_name.rsplit(".", 1)[1]
            for name in names:
                original = owner.__dict__.get(name) if class_name else getattr(owner, name, None)
                if class_name and original is None and hasattr(owner, name):
                    original = getattr(owner, name)  # inherited: shadow it
                if not isinstance(original, FunctionType):
                    continue  # not part of this class's surface
                index = self._register(layer, f"{label}.{name}")
                plan.append((owner, name, original, index, weigh, bool(class_name)))
        netshard = importlib.import_module("repro.common.netshard")
        encode = self._register("common.netshard", "netshard.encode")
        decode = self._register("common.netshard", "netshard.decode")
        self._state = _ThreadState(self)
        for owner, name, original, index, weigh, is_class in plan:
            wrapped = self._wrap(original, index, weigh)
            if is_class:
                self._patch(owner, name, wrapped)
            else:
                # ``from module import fn`` copies the reference: patch
                # every repro module that holds the original function
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") \
                            and module.__dict__.get(name) is original:
                        self._patch(module, name, wrapped)
        real_pickle = netshard.pickle
        self._patch(netshard, "pickle", _PickleProxy(
            real_pickle,
            self._wrap(real_pickle.dumps, encode, _result_len),
            self._wrap(real_pickle.loads, decode,
                       lambda args, _result: len(args[0]) if args else 0),
        ))
        self.installed = True
        _active = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_restore_in_forked_child)
            _fork_hook_registered = True

    def _patch(self, owner, name: str, replacement) -> None:
        own = name in owner.__dict__
        self._patches.append((owner, name, owner.__dict__.get(name), own))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        global _active
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()
        self.installed = False
        if _active is self:
            _active = None

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, fn, index: int, weigh):
        state = self._state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = state.stack
            rec = state.rec
            if rec is None:
                cell = [0, 0]
            else:
                state.sid = sid = state.sid + 1
                cell = [0, sid]
                parent = stack[-1][1] if stack else state.root
            stack.append(cell)
            weight = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if weigh is not None:
                    weight = weigh(args, result)
                return result
            finally:
                spent = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                agg = state.agg[index]
                agg[0] += 1
                agg[1] += spent
                agg[2] += spent - cell[0]
                agg[3] += weight
                if rec is not None:
                    rec.append((index, start, start + spent, cell[1], parent, state.op))

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    # -- benchmark-operation roots ---------------------------------------

    def begin_op(self, op_id: int, sample: bool) -> None:
        """Mark the start of one benchmark operation on this thread;
        ``sample`` keeps its raw spans (until :data:`MAX_RAW_SPANS`)."""
        state = self._state
        state.op = op_id
        if sample and self._raw_spans < MAX_RAW_SPANS:
            state.sid = state.root = state.sid + 1
            state.rec = state.spans

    def end_op(self, name: str, start_ns: int, end_ns: int) -> None:
        state = self._state
        if state.rec is not None:
            state.rec.append((f"op:{name}", start_ns, end_ns, state.root, 0, state.op))
            self._raw_spans += state.sid - state.root + 1
            state.rec = None

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Zero the aggregates (between the set-up and the timed window)."""
        with self._lock:
            for agg in self._thread_aggs:
                for row in agg:
                    row[0] = row[1] = row[2] = row[3] = 0

    def totals(self) -> dict[str, list[int]]:
        """``name -> [calls, total_ns, self_ns, weight]`` over all threads."""
        merged = {name: [0, 0, 0, 0] for name in self.names}
        with self._lock:
            for agg in self._thread_aggs:
                for name, row in zip(self.names, agg):
                    total = merged[name]
                    for column in range(4):
                        total[column] += row[column]
        return merged

    def write_spans(self, path: str) -> int:
        """Write the sampled raw spans as JSON lines; returns the count."""
        count = 0
        with self._lock:
            buffers = list(self._thread_spans)
        with open(path, "w", encoding="utf-8") as handle:
            for thread_id, spans in buffers:
                for index, start, end, sid, parent, op in spans:
                    name = index if isinstance(index, str) else \
                        f"{self.layers[index]}:{self.names[index]}"
                    handle.write(json.dumps({
                        "name": name, "start": start, "end": end,
                        "id": sid, "parent": parent, "op": op,
                        "thread": thread_id,
                    }) + "\n")
                    count += 1
        return count


def self_times(spans: list[tuple[int, int, int, int]]) -> dict[int, int]:
    """Self time per span id from the ``(id, parent, start, end)`` records
    of a span file — the arithmetic the wrappers do incrementally: a
    span's duration minus the durations of its direct children."""
    own = {sid: end - start for sid, _parent, start, end in spans}
    for sid, parent, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own
