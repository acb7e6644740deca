"""Shared multi-process shard plumbing: worker loop + front-side router.

Both engines escape the GIL the same way — hash-partition the store
across worker processes, each running a full in-process engine, behind a
front that routes commands and scatter/gathers batches.  minikv grew the
machinery first (PR 4); this module is that machinery hoisted so the
sharded minisql deployment is the *same* implementation with an engine
plugged in, not a parallel copy:

* :func:`serve_shard` — the worker side: the strictly one-reply-per-
  message protocol loop.  Messages are ``("call", method, args, kwargs)``
  (one engine command), ``("batch", [(method, args, kwargs), ...])``
  (executed by the engine-specific ``run_batch`` hook: an engine pipeline
  for minikv, one transaction for minisql), and ``("stop",)`` (flush +
  close + exit).  A worker never sends unsolicited data, so the front can
  always resynchronise by counting replies.
* :class:`ShardRouter` — the front side: worker lifecycle (start,
  crash-respawn-replay-retry, graceful :meth:`~ShardRouter.restart_shard`
  bounce, :meth:`~ShardRouter.close`), per-shard connection locks (one
  outstanding exchange per shard), and the deadlock-free scatter/gather
  (:meth:`~ShardRouter._scatter`: locks in ascending shard order, all
  sends before the first receive, every send matched with exactly one
  receive even when replies are errors).

The protocol is transport-agnostic: anything with ``send``/``recv``/
``close`` carries it.  Three transports exist —

* ``transport="pipe"`` (default): a ``multiprocessing`` duplex pipe to a
  local worker process — the original deployment, byte-identical.
* ``transport="tcp"`` with no addresses: the router still spawns local
  worker processes, but each binds an ephemeral ``127.0.0.1`` port and
  the exchange crosses a real socket (length-prefixed pickled frames,
  :mod:`repro.common.netshard`) — the benchmarkable router-tax config.
* ``transport="tcp"`` with ``addresses``: the workers are **external**
  ``tools/shard_server.py`` processes, possibly on other hosts; the
  router only connects.  "Respawn" becomes "reconnect": the server
  builds a fresh engine per connection (replaying the shard's
  persistence file), so recovery semantics match the pipe transport.

Placement is a consistent-hash ring (:mod:`repro.common.hashring`) over
the **live shard-id set**, not ``hash % N``: ids are allocated once and
never reused, and :meth:`~ShardRouter.add_shard` /
:meth:`~ShardRouter.remove_shard` reshard *online* by streaming only the
ring slots whose owner changes — each slot cut over under a brief
exclusive hold on the topology lock while traffic to every other slot
keeps flowing.  The live topology (ids, id counter, pending migration)
persists next to the data files at ``<base>.topology`` so a crash in the
middle of a migration repairs itself on reopen (the slot move is
copy-before-delete, hence idempotent to re-run).

Engine modules subclass :class:`ShardRouter` with their command surface,
set :attr:`~ShardRouter.worker_target` to a module-level worker function
(so it pickles under the ``spawn`` start method), implement
:meth:`~ShardRouter._shard_config`, and derive their engine-flavoured
:class:`ShardConnectionError` subclass.  Durability is per shard by
construction: each worker's persistence file lives at :func:`shard_path`
(``<base>.shard<i>``) and replays before serving.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

from .errors import ConfigurationError, ReproError
from .hashring import DEFAULT_VNODES, HashRing, in_slot, plan_migration
from .rwlock import RWLock

#: transports :class:`ShardRouter` accepts
TRANSPORTS = ("pipe", "tcp")


class ShardConnectionError(ReproError):
    """A shard worker could not be reached even after a respawn.

    Engine modules subclass this next to their own error family (e.g.
    ``KVError``) so callers can catch either hierarchy.
    """


def shard_path(base_path: str, index: int) -> str:
    """Per-shard persistence file derived from the deployment's base path."""
    return f"{base_path}.shard{index}"


def topology_path(base_path: str) -> str:
    """The deployment's topology file (live shard ids + migration marker)."""
    return f"{base_path}.topology"


def parse_address(address) -> tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` → a ``(host, int(port))`` pair."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(
                f"shard address {address!r} is not 'host:port'"
            )
        return host, int(port)
    host, port = address
    return str(host), int(port)


def serve_shard(conn, engine, run_batch, error_factory,
                should_stop=None) -> None:
    """One shard worker's serve loop: strictly one reply per message.

    ``engine`` is the already-constructed in-process engine (its
    constructor replayed this shard's persistence file); ``run_batch``
    maps a ``("batch", calls)`` message to a per-slot result list with
    failures captured per slot; ``error_factory`` builds the engine
    family's exception for a reply that cannot cross the transport.

    ``should_stop`` (optional zero-arg callable) is the graceful-
    shutdown hook: it is polled **between** messages — the current
    request always gets its reply first, then the loop drains out, and
    the ``finally`` closes the engine so its persistence flushes.  Both
    connection flavours (``multiprocessing`` pipes and
    :class:`~repro.common.netshard.SocketConnection`) expose the
    ``poll(timeout)`` this needs.
    """
    try:
        while True:
            if should_stop is not None:
                while not conn.poll(0.2):
                    if should_stop():
                        return  # drained: last reply already sent
            try:
                message = conn.recv()
            except EOFError:
                return  # front vanished; engine.close() still runs below
            kind = message[0]
            if kind == "stop":
                engine.close()
                conn.send(("ok", None))
                return
            try:
                if kind == "call":
                    _, method, args, kwargs = message
                    reply = ("ok", getattr(engine, method)(*args, **kwargs))
                else:  # "batch"
                    reply = ("ok", run_batch(engine, message[1]))
            except Exception as exc:
                reply = ("err", exc)
            try:
                conn.send(reply)
            except Exception:
                # unpicklable result/exception: degrade, never desync
                conn.send(("err", error_factory(
                    f"unserialisable reply: {reply!r:.200}"
                )))
    finally:
        engine.close()
        conn.close()


def _tcp_worker_entry(bootstrap, target, config) -> None:
    """A locally-spawned TCP worker: bind, report the port, serve one front.

    The worker owns one connection for its whole life — when the serve
    loop returns (graceful stop, front EOF, or a desynced stream) the
    process exits, exactly like a pipe worker, so crash recovery stays
    "terminate + respawn + replay" on both transports.
    """
    import socket

    from .netshard import SocketConnection

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    bootstrap.send(listener.getsockname()[1])
    bootstrap.close()
    sock, _peer = listener.accept()
    listener.close()
    target(SocketConnection(sock), config)


class Shard:
    """Front-side handle for one worker: connection + lock (+ process).

    The lock serialises request/response exchanges on the connection —
    one outstanding message per shard — so concurrent client threads
    interleave at message granularity, exactly like stripe locks.
    ``process`` is ``None`` for external (addressed) TCP shards: their
    lifetime belongs to ``tools/shard_server.py``, not the router.
    """

    __slots__ = ("index", "config", "address", "process", "conn", "lock")

    def __init__(self, index: int, config, address=None) -> None:
        self.index = index
        self.config = config
        self.address = address
        self.process = None
        self.conn = None
        self.lock = threading.Lock()


class ShardRouter:
    """Worker lifecycle + ring routing + transport shared by both fronts.

    Subclasses provide :attr:`worker_target` (a module-level function
    taking ``(conn, config)``), :attr:`worker_name` (process-name prefix,
    so leak checks can find strays), :attr:`error_class` (their
    :class:`ShardConnectionError` subclass), and
    :meth:`_shard_config` (the engine config for one shard id).  The
    router is thread-safe: each shard connection carries one exchange at
    a time, fan-outs acquire shard locks in ascending id order (the same
    deadlock-free discipline the in-process stripe locks use), and every
    exchange holds the topology lock shared — so a reshard's per-slot
    exclusive hold briefly drains traffic, cuts one slot over, and lets
    traffic flow again.
    """

    #: module-level worker function, ``staticmethod`` in the subclass
    worker_target = None
    #: process-name prefix: workers are named ``<worker_name>-<index>``
    worker_name = "shard"
    #: the engine-flavoured :class:`ShardConnectionError` subclass
    error_class = ShardConnectionError

    def __init__(self, shard_count: int, *, transport: str = "pipe",
                 addresses=None, base_path: str | None = None) -> None:
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown shard transport {transport!r}; choose from {TRANSPORTS}"
            )
        if addresses is not None and transport != "tcp":
            raise ConfigurationError(
                "shard_addresses requires transport='tcp'"
            )
        # fork starts workers in milliseconds and is available on the
        # platforms we target; spawn is the portable fallback
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._transport = transport
        self._closed = False
        #: shared by every exchange, held exclusively per reshard slot
        self._topology_lock = RWLock()
        #: serialises add_shard/remove_shard against each other
        self._admin_lock = threading.Lock()
        #: slots already cut over mid-reshard: ``(lo, hi, new_owner)``
        self._moved_slots: list[tuple[int, int, int]] = []
        self._topology_path = (
            topology_path(base_path) if base_path is not None else None
        )

        doc = self._load_topology()
        if doc is not None:
            # the persisted topology wins over the config: a resharded
            # deployment's id set (and its ring's vnode count — placement
            # is a fact about the data files) came from real migrations
            shard_ids = [int(i) for i in doc["shard_ids"]]
            self._next_id = int(doc["next_id"])
            self._ring_vnodes = int(doc["vnodes"])
            saved = doc.get("addresses") or {}
            self._addresses = {
                int(i): parse_address(a) for i, a in saved.items()
            } or None
            pending = doc.get("migration")
        else:
            shard_ids = list(range(shard_count))
            self._next_id = shard_count
            self._ring_vnodes = DEFAULT_VNODES
            if addresses is not None:
                addresses = [parse_address(a) for a in addresses]
                if len(addresses) != shard_count:
                    raise ConfigurationError(
                        f"shard_addresses has {len(addresses)} entries for "
                        f"{shard_count} shards"
                    )
                self._addresses = dict(zip(shard_ids, addresses))
            else:
                self._addresses = None
            pending = None

        start_ids = sorted(
            set(shard_ids)
            | (set(pending["from"]) | set(pending["to"]) if pending else set())
        )
        self._shards: dict[int, Shard] = {}
        try:
            for sid in start_ids:
                shard = Shard(sid, self._shard_config(sid),
                              (self._addresses or {}).get(sid))
                self._start(shard)
                self._shards[sid] = shard
            self._ring = HashRing(
                pending["from"] if pending else shard_ids, self._ring_vnodes
            )
            if pending:
                self._repair_migration(
                    [int(i) for i in pending["from"]],
                    [int(i) for i in pending["to"]],
                )
        except BaseException:
            # no front object reaches the caller, so nobody else could
            # ever stop the workers and sockets already started
            self.close()
            raise

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _shard_config(self, shard_id: int):
        """The engine config shard ``shard_id``'s worker runs."""
        raise NotImplementedError

    def _shard_files(self, shard_id: int) -> list[str]:
        """Persistence files owned by one shard (unlinked after removal)."""
        return []

    def _on_shard_added(self, shard_id: int) -> None:
        """Bootstrap a freshly-added empty shard (e.g. clone the catalog)."""

    def _before_shard_removed(self, shard_id: int, surviving_ids) -> None:
        """Move any non-ring-placed state off a departing shard."""

    # ------------------------------------------------------------------
    # Topology persistence
    # ------------------------------------------------------------------

    def _load_topology(self) -> dict | None:
        if self._topology_path is None or not os.path.exists(self._topology_path):
            return None
        with open(self._topology_path, encoding="utf-8") as handle:
            return json.load(handle)

    def _save_topology(self, shard_ids, migration: dict | None) -> None:
        if self._topology_path is None:
            return
        doc = {
            "version": 1,
            "shard_ids": sorted(int(i) for i in shard_ids),
            "next_id": self._next_id,
            "vnodes": self._ring_vnodes,
            "addresses": (
                {str(i): f"{h}:{p}" for i, (h, p) in self._addresses.items()}
                if self._addresses else None
            ),
            "migration": migration,
        }
        tmp = f"{self._topology_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._topology_path)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _start(self, shard: Shard) -> None:
        if self._transport == "tcp":
            from .netshard import connect_shard

            if shard.address is not None:
                # external server: connecting *is* starting (the server
                # builds a fresh engine per accepted connection)
                shard.process = None
                shard.conn = connect_shard(*shard.address)
                return
            bootstrap_recv, bootstrap_send = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_tcp_worker_entry,
                args=(bootstrap_send, type(self).worker_target, shard.config),
                name=f"{self.worker_name}-{shard.index}",
                daemon=True,
            )
            process.start()
            bootstrap_send.close()
            try:
                port = bootstrap_recv.recv()
            except EOFError:
                process.join(timeout=5)
                raise self.error_class(
                    f"shard {shard.index} tcp worker exited before binding"
                ) from None
            finally:
                bootstrap_recv.close()
            try:
                shard.conn = connect_shard("127.0.0.1", port)
            except BaseException:
                # the worker parks in accept() forever: never leave it
                process.terminate()
                process.join(timeout=5)
                raise
            shard.process = process
            return
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=type(self).worker_target,
            args=(child_conn, shard.config),
            name=f"{self.worker_name}-{shard.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end: worker death -> EOF
        shard.process = process
        shard.conn = parent_conn

    def _respawn(self, shard: Shard) -> None:
        """Replace a dead worker; the replacement replays its shard's log.

        For an external TCP shard this is a *reconnect*: the server
        accepts the next connection with a freshly-constructed engine,
        which replayed the shard's persistence file — the same recovery
        the local respawn performs.
        """
        if self._closed:
            # Never resurrect workers after close(): the deployment's
            # data directory may already be gone, and a silently
            # respawned empty shard would answer wrongly instead of
            # failing loudly.
            raise self.error_class("sharded engine is closed")
        try:
            shard.conn.close()
        except OSError:
            pass
        if shard.process is not None:
            if shard.process.is_alive():
                shard.process.terminate()
            shard.process.join(timeout=5)
        self._start(shard)

    def restart_shard(self, index: int) -> None:
        """Deliberately bounce one worker (stop + respawn + log replay).

        Unlike crash recovery, a deliberate bounce asks the worker to
        stop gracefully first, so it flushes its persistence buffer —
        under an ``everysec`` flush policy a hard kill here would
        silently drop acknowledged writes still sitting in the buffer.
        """
        with self._topology_lock.read_locked():
            shard = self._shards[index]
            with shard.lock:
                try:
                    shard.conn.send(("stop",))
                    shard.conn.recv()
                except (EOFError, OSError):
                    pass  # already dead: fall through to the crash path
                self._respawn(shard)

    def _stop_shard(self, shard: Shard) -> None:
        """Graceful stop (flush + close) and reap, one shard."""
        with shard.lock:
            try:
                shard.conn.send(("stop",))
                shard.conn.recv()
            except (EOFError, OSError):
                pass
            try:
                shard.conn.close()
            except OSError:
                pass
        if shard.process is not None:
            shard.process.join(timeout=5)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _exchange(self, shard: Shard, message: tuple) -> tuple:
        """One send+receive on ``shard``'s connection (caller holds its lock).

        Raises ``EOFError``/``OSError`` on transport failure — the
        caller decides the recovery policy.
        """
        if self._closed:
            raise self.error_class("sharded engine is closed")
        shard.conn.send(message)
        return shard.conn.recv()

    def _exchange_after_respawn(self, shard: Shard, message: tuple) -> tuple:
        """Crash recovery: respawn (log replay) + one retried exchange.

        The retry makes commands at-least-once across a worker crash;
        a second transport failure is surfaced as an ``("err", ...)``
        reply for the caller to raise.
        """
        self._respawn(shard)
        try:
            return self._exchange(shard, message)
        except (EOFError, OSError):
            return ("err", self.error_class(
                f"shard {shard.index} worker died again on the retried "
                f"{message[0]!r}"
            ))

    def _request(self, shard: Shard, message: tuple):
        """One exchange with crash recovery (caller holds ``shard.lock``)."""
        try:
            status, payload = self._exchange(shard, message)
        except (EOFError, OSError):
            status, payload = self._exchange_after_respawn(shard, message)
        if status == "err":
            raise payload
        return payload

    def _rpc(self, shard_id: int, method: str, *args, **kwargs):
        """One engine command on one shard, **without** the topology lock.

        Only the reshard machinery calls this directly (it already holds
        the topology lock exclusively); everything else goes through
        :meth:`_call` / :meth:`_call_point`.
        """
        shard = self._shards[shard_id]
        with shard.lock:
            return self._request(shard, ("call", method, args, kwargs))

    def _call(self, index: int, method: str, *args, **kwargs):
        """One engine command on one shard (lock held for the exchange)."""
        with self._topology_lock.read_locked():
            return self._rpc(index, method, *args, **kwargs)

    def _call_point(self, point: int, method: str, *args, **kwargs):
        """A keyed command routed by ring position *under* the topology
        lock, so the owner cannot change between routing and exchange —
        this is what makes a reshard's per-slot cutover linearizable for
        the single-key surface."""
        with self._topology_lock.read_locked():
            return self._rpc(self._owner(point), method, *args, **kwargs)

    def _owner(self, point: int) -> int:
        """The live owner of a ring position (mid-reshard overlay aware)."""
        for lo, hi, dst in self._moved_slots:
            if in_slot(point, lo, hi):
                return dst
        return self._ring.owner(point)

    def _scatter(self, requests: list[tuple[int, tuple]]) -> dict[int, object]:
        """Send one message per shard, gather every reply; parallel workers.

        Locks are taken in ascending shard order (deadlock-free); all
        sends complete before the first receive, so the involved workers
        execute concurrently.  Every send is matched with exactly one
        receive even when a reply is an error — the connections stay in
        sync — and the first error is raised after the gather completes.
        """
        with self._topology_lock.read_locked():
            return self._scatter_unlocked(requests)

    def _scatter_unlocked(self, requests: list[tuple[int, tuple]]) -> dict[int, object]:
        if self._closed:
            raise self.error_class("sharded engine is closed")
        requests = sorted(requests)
        shards = [self._shards[index] for index, _ in requests]
        for shard in shards:
            shard.lock.acquire()
        try:
            sent: list[tuple[int, Shard, tuple]] = []
            gathered: dict[int, object] = {}
            first_error: Exception | None = None
            for (index, message), shard in zip(requests, shards):
                try:
                    shard.conn.send(message)
                except (EOFError, OSError):
                    try:
                        self._respawn(shard)
                        shard.conn.send(message)
                    except (EOFError, OSError):
                        # keep going: shards already sent to are still
                        # owed exactly one reply each, and must get
                        # their receive before anything raises
                        first_error = first_error or self.error_class(
                            f"shard {shard.index} worker died again on the "
                            f"retried {message[0]!r}"
                        )
                        continue
                sent.append((index, shard, message))
            for index, shard, message in sent:
                try:
                    status, payload = shard.conn.recv()
                except (EOFError, OSError):
                    status, payload = self._exchange_after_respawn(shard, message)
                if status == "err":
                    first_error = first_error or payload
                else:
                    gathered[index] = payload
            if first_error is not None:
                raise first_error
            return gathered
        finally:
            for shard in reversed(shards):
                shard.lock.release()

    def _fanout(self, method: str, args: tuple = (),
                kwargs: dict | None = None) -> dict[int, object]:
        """Run one command on every live shard; per-shard results by id."""
        with self._topology_lock.read_locked():
            return self._scatter_unlocked([
                (index, ("call", method, args, kwargs or {}))
                for index in sorted(self._shards)
            ])

    # ------------------------------------------------------------------
    # Online resharding
    # ------------------------------------------------------------------

    def add_shard(self, address=None) -> dict:
        """Grow the deployment by one shard, migrating only ~1/N of keys.

        Allocates a never-reused shard id, starts its worker (or, on the
        addressed TCP transport, connects to ``address``), persists a
        migration marker, then streams every ring slot whose owner
        changes — each slot cut over under a brief exclusive hold while
        traffic to the rest of the ring keeps flowing.  Returns movement
        stats (``keys_moved``, ``slots_moved``, ``shard_id``) — the
        fig12m experiment's measurement.
        """
        with self._admin_lock:
            if self._closed:
                raise self.error_class("sharded engine is closed")
            old_ids = sorted(self._shards)
            new_id = self._next_id
            self._next_id += 1
            new_ids = old_ids + [new_id]
            if self._addresses is not None:
                if address is None:
                    raise ConfigurationError(
                        "this deployment runs addressed tcp shards: "
                        "add_shard needs the new shard server's address"
                    )
                self._addresses[new_id] = parse_address(address)
            elif address is not None:
                raise ConfigurationError(
                    "address given but this deployment spawns its own workers"
                )
            self._save_topology(
                old_ids, migration={"from": old_ids, "to": new_ids}
            )
            shard = Shard(new_id, self._shard_config(new_id),
                          (self._addresses or {}).get(new_id))
            with self._topology_lock.write_locked():
                self._start(shard)
                self._shards[new_id] = shard
            self._on_shard_added(new_id)
            stats = self._reshard(old_ids, new_ids)
            self._save_topology(new_ids, migration=None)
            stats["shard_id"] = new_id
            return stats

    def remove_shard(self, shard_id: int) -> dict:
        """Drain one shard onto the ring's survivors, then retire it.

        The departing shard's slots stream to their new owners (copy,
        cut over, no need to delete from a worker that is about to be
        stopped), the worker stops gracefully, and its persistence files
        are unlinked — the id is never reused, so a stale file could
        never be resurrected anyway.
        """
        with self._admin_lock:
            if self._closed:
                raise self.error_class("sharded engine is closed")
            old_ids = sorted(self._shards)
            if shard_id not in self._shards:
                raise self.error_class(f"no such shard id {shard_id}")
            if len(old_ids) == 1:
                raise self.error_class("cannot remove the last shard")
            new_ids = [i for i in old_ids if i != shard_id]
            self._save_topology(
                old_ids, migration={"from": old_ids, "to": new_ids}
            )
            self._before_shard_removed(shard_id, new_ids)
            stats = self._reshard(old_ids, new_ids)
            with self._topology_lock.write_locked():
                shard = self._shards.pop(shard_id)
            self._stop_shard(shard)
            if self._addresses is not None:
                self._addresses.pop(shard_id, None)
            self._save_topology(new_ids, migration=None)
            for path in self._shard_files(shard_id):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            stats["shard_id"] = shard_id
            return stats

    def _reshard(self, old_ids, new_ids) -> dict:
        """Stream every changed ring slot, one brief cutover at a time."""
        old_ring = HashRing(old_ids, self._ring_vnodes)
        new_ring = HashRing(new_ids, self._ring_vnodes)
        tasks = plan_migration(old_ring, new_ring)
        survivors = set(new_ids)
        keys_moved = slots_moved = 0
        for lo, hi, src, dst in tasks:
            with self._topology_lock.write_locked():
                keys_moved += self._migrate_slot(
                    lo, hi, src, dst, drop=src in survivors
                )
                self._moved_slots.append((lo, hi, dst))
            slots_moved += 1
        with self._topology_lock.write_locked():
            self._ring = new_ring
            self._moved_slots = []
        return {"keys_moved": keys_moved, "slots_moved": slots_moved}

    def _migrate_slot(self, lo: int, hi: int, src: int, dst: int,
                      drop: bool = True) -> int:
        """Move one ring slot's keys; copy-before-delete, so re-runnable.

        The dump reads the source engine's *live* state under its own
        locks — acknowledged writes that only just reached the source's
        AOF/WAL buffer are included by construction, which is the
        catch-up step — and the apply goes through the destination's
        public write surface, so the destination's own log records the
        arrivals durably before the source forgets them.
        """
        payload = self._rpc(src, "migrate_dump", lo, hi)
        moved = self._rpc(dst, "migrate_apply", payload)
        if drop and moved:
            self._rpc(src, "migrate_drop", payload)
        return moved

    def _repair_migration(self, from_ids, to_ids) -> None:
        """Finish a migration a crash interrupted (constructor path).

        Every slot move is copy-before-delete and every apply is
        delete-before-insert, so re-running the whole plan converges on
        the target placement no matter where the crash fell.
        """
        for sid in sorted(set(to_ids) - set(from_ids)):
            self._on_shard_added(sid)
        for sid in sorted(set(from_ids) - set(to_ids)):
            self._before_shard_removed(sid, to_ids)
        self._reshard(from_ids, to_ids)
        for sid in sorted(set(from_ids) - set(to_ids)):
            shard = self._shards.pop(sid)
            self._stop_shard(shard)
            if self._addresses is not None:
                self._addresses.pop(sid, None)
            for path in self._shard_files(sid):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        self._save_topology(to_ids, migration=None)

    # ------------------------------------------------------------------
    # Introspection + lifecycle
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """The live shard ids, ascending (ids are never reused)."""
        return tuple(sorted(self._shards))

    @property
    def _anchor_id(self) -> int:
        """The smallest live id: home for state that is not ring-placed."""
        return min(self._shards)

    def close(self) -> None:
        """Stop every worker (each flushes + closes its persistence first)."""
        if self._closed:
            return
        with self._topology_lock.write_locked():
            if self._closed:
                return
            self._closed = True
        for index in sorted(self._shards):
            self._stop_shard(self._shards[index])

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
