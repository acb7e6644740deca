"""ShardedMiniKV: routing, scatter/gather batches, per-shard AOF recovery.

The contract under test is docs/sharding.md: the sharded front exposes
the engine command surface unchanged, per-key operations stay on one
worker, cross-key operations merge per-shard results, and a worker that
dies is respawned with its shard rebuilt from its own AOF while the
other shards keep serving.
"""

import multiprocessing
import os

import pytest

from repro.common.errors import ConfigurationError, WrongTypeError
from repro.minikv import (
    MiniKV,
    MiniKVConfig,
    ShardedMiniKV,
    open_minikv,
    shard_aof_path,
)


def sharded(tmp_path=None, shards=3, **overrides):
    config = MiniKVConfig(
        shards=shards,
        aof_path=(str(tmp_path / "kv.aof") if tmp_path is not None else None),
        **overrides,
    )
    return ShardedMiniKV(config)


class TestFactoryAndConfig:
    def test_open_minikv_default_is_in_process(self):
        with open_minikv(MiniKVConfig()) as kv:
            assert isinstance(kv, MiniKV)

    def test_open_minikv_sharded(self):
        with open_minikv(MiniKVConfig(shards=2)) as kv:
            assert isinstance(kv, ShardedMiniKV)
            assert kv.shard_count == 2

    def test_engine_rejects_sharded_config(self):
        with pytest.raises(ConfigurationError):
            MiniKV(MiniKVConfig(shards=2))

    def test_custom_clock_requires_one_shard(self):
        from repro.common.clock import VirtualClock

        with pytest.raises(ConfigurationError):
            open_minikv(MiniKVConfig(shards=2), clock=VirtualClock())

    def test_invalid_shard_counts_rejected_everywhere(self):
        for shards in (0, -1):
            with pytest.raises(ConfigurationError):
                open_minikv(MiniKVConfig(shards=shards))
            with pytest.raises(ConfigurationError):
                MiniKV(MiniKVConfig(shards=shards))
            with pytest.raises(ConfigurationError):
                ShardedMiniKV(MiniKVConfig(shards=shards))


class TestRouting:
    def test_commands_route_and_merge(self):
        with sharded() as kv:
            for i in range(60):
                kv.set(f"k{i}", b"v%d" % i)
            assert kv.get("k17") == b"v17"
            assert kv.exists("k0") and not kv.exists("nope")
            assert kv.dbsize() == 60
            assert sorted(kv.keys()) == sorted(f"k{i}" for i in range(60))
            assert kv.delete("k1", "k2", "k3", "nope") == 3
            assert kv.dbsize() == 57
            info = kv.info()
            assert info["shards"] == 3
            assert sum(info["keys_per_shard"]) == info["keys"] == 57
            # keys actually spread across workers (crc32 is uniform enough
            # that 60 keys cannot all land on one of 3 shards)
            assert all(count > 0 for count in info["keys_per_shard"])

    def test_hash_and_set_commands(self):
        with sharded() as kv:
            kv.hmset("h", {"a": b"1", "b": b"2"})
            assert kv.hget("h", "a") == b"1"
            assert kv.hgetall("h") == {"a": b"1", "b": b"2"}
            assert kv.hdel("h", "a") == 1
            kv.sadd("s", b"x", b"y")
            assert kv.smembers("s") == {b"x", b"y"}
            assert kv.sismember("s", b"x")
            assert kv.srem("s", b"x") == 1

    def test_engine_errors_cross_the_process_boundary(self):
        with sharded() as kv:
            kv.set("str", b"plain")
            with pytest.raises(WrongTypeError):
                kv.hgetall("str")

    def test_scan_traverses_every_shard_exactly_once(self):
        with sharded() as kv:
            expected = {f"k{i}" for i in range(100)}
            for key in expected:
                kv.set(key, b"v")
            seen = []
            cursor = 0
            while True:
                cursor, batch = kv.scan(cursor, count=9)
                seen.extend(batch)
                if cursor == 0:
                    break
            assert sorted(seen) == sorted(expected)  # no dupes, no misses

    def test_scan_match_and_flushall(self):
        with sharded() as kv:
            for i in range(20):
                kv.set(f"rec:{i}", b"r")
                kv.set(f"usr:{i}", b"u")
            matched = []
            cursor = 0
            while True:
                cursor, batch = kv.scan(cursor, match="rec:*", count=7)
                matched.extend(batch)
                if cursor == 0:
                    break
            assert len(matched) == 20
            kv.flushall()
            assert kv.dbsize() == 0 and kv.randomkey() is None

    def test_scan_continues_across_restart_shard_mid_iteration(self, tmp_path):
        """A composite cursor stays valid across a deliberate worker
        bounce: shards not yet entered are traversed by the fresh worker
        (which replayed its AOF), and the union is still exact."""
        config = MiniKVConfig(shards=3, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always")
        with ShardedMiniKV(config) as kv:
            expected = {f"k{i}" for i in range(90)}
            for key in expected:
                kv.set(key, b"v")
            seen = []
            cursor, batch = kv.scan(0, count=7)  # cursor now inside shard 0
            seen.extend(batch)
            assert cursor != 0
            # bounce a shard the traversal has not reached yet — and the
            # one currently mid-traversal is untouched, so its snapshot
            # generation survives
            kv.restart_shard(2)
            while cursor != 0:
                cursor, batch = kv.scan(cursor, count=7)
                seen.extend(batch)
            assert sorted(seen) == sorted(expected)  # no dupes, no misses

    def test_scan_survives_restart_of_inflight_shard(self, tmp_path):
        """Bouncing the shard the cursor is currently inside degrades
        gracefully: the fresh worker re-snapshots at the cursor's
        generation and the traversal still terminates with every durable
        key of the *other* shards intact."""
        config = MiniKVConfig(shards=2, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always")
        with ShardedMiniKV(config) as kv:
            expected = {f"k{i}" for i in range(40)}
            for key in expected:
                kv.set(key, b"v")
            seen = []
            cursor, batch = kv.scan(0, count=5)  # mid-shard-0
            seen.extend(batch)
            kv.restart_shard(0)  # graceful: flushes + replays shard 0
            rounds = 0
            while cursor != 0:
                cursor, batch = kv.scan(cursor, count=5)
                seen.extend(batch)
                rounds += 1
                assert rounds < 100  # the traversal must terminate
            # every key still exists (restart lost nothing durable)...
            assert sorted(kv.keys()) == sorted(expected)
            # ...and the traversal covered shard 1 completely
            shard1 = {k for k in expected if kv._shard_index(k) == 1}
            assert shard1 <= set(seen)

    def test_ttl_commands_and_purge_fan_out(self):
        with sharded() as kv:
            for i in range(30):
                kv.set(f"k{i}", b"v")
                kv.expireat(f"k{i}", -1.0)  # already expired, every shard
            kv.set("keeper", b"v")
            expired = kv.purge_expired()
            assert sorted(expired) == sorted(f"k{i}" for i in range(30))
            assert kv.keys() == ["keeper"]
            assert kv.ttl("keeper") == -1.0
            assert kv.ttl("gone") == -2.0


class TestShardedPipeline:
    def test_batch_matches_unsharded_results(self):
        with sharded() as kv, MiniKV() as plain:
            for engine in (kv, plain):
                pipe = engine.pipeline()
                for i in range(40):
                    pipe.set(f"k{i}", b"v%d" % i)
                pipe.hmset("h", {"f": b"1"})
                pipe.get("k5")
                pipe.delete("k0", "k1", "missing")
                pipe.hgetall("h")
                pipe.exists("k2")
                engine.results = pipe.execute()
            assert kv.results == plain.results

    def test_error_captured_per_slot(self):
        with sharded() as kv:
            kv.set("str", b"x")
            pipe = kv.pipeline()
            pipe.get("str")
            pipe.hget("str", "f")  # wrong type
            pipe.set("ok", b"fine")
            results = pipe.execute(raise_on_error=False)
            assert results[0] == b"x"
            assert isinstance(results[1], WrongTypeError)
            assert kv.get("ok") == b"fine"  # batch did not stop at the error
            with pytest.raises(WrongTypeError):
                kv.pipeline().hget("str", "f").execute()

    def test_queue_phase_error_captured_per_slot(self):
        """An arity error in one queued command fills its slot and leaves
        the rest of the batch — on every shard — intact."""
        with sharded() as kv:
            pipe = kv.pipeline()
            pipe.set("a", b"1")
            pipe.expire("b")  # missing ttl argument -> TypeError in worker
            pipe.set("c", b"3")
            results = pipe.execute(raise_on_error=False)
            assert results[0] is None
            assert isinstance(results[1], TypeError)
            assert results[2] is None
            assert kv.get("a") == b"1" and kv.get("c") == b"3"

    def test_queue_methods_accept_keywords_like_engine_pipeline(self):
        with sharded() as kv:
            pipe = kv.pipeline()
            pipe.set("a", b"1", ttl=3600.0)  # the engine Pipeline form
            pipe.ttl("a")
            results = pipe.execute()
            assert results[0] is None and 0 < results[1] <= 3600.0

    def test_len_counts_queued_commands(self):
        with sharded() as kv:
            pipe = kv.pipeline()
            assert len(pipe) == 0
            pipe.set("a", b"1")
            pipe.delete("a", "b", "c")  # multi-shard, still one slot
            assert len(pipe) == 2
            assert pipe.execute() == [None, 1]
            assert pipe.execute() == []  # queue drained, object reusable


class TestRecovery:
    def test_cold_restart_replays_every_shard(self, tmp_path):
        config = MiniKVConfig(shards=3, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always", aof_batch_size=16)
        with ShardedMiniKV(config) as kv:
            pipe = kv.pipeline()
            for i in range(90):
                pipe.set(f"k{i}", b"v%d" % i)
            pipe.execute()
            kv.hmset("h", {"a": b"1"})
            for index, path in enumerate(kv.aof_paths):
                assert path == shard_aof_path(config.aof_path, index)
                assert os.path.exists(path)
        with ShardedMiniKV(config) as kv:
            assert kv.dbsize() == 91
            assert kv.get("k42") == b"v42"
            assert kv.hgetall("h") == {"a": b"1"}

    def test_killed_worker_respawns_and_replays_mid_run(self, tmp_path):
        """Kill a worker between batches: the router must respawn it, the
        replacement must rebuild the shard from its own AOF, and routing
        (point ops and scatter/gather batches) must resume seamlessly."""
        config = MiniKVConfig(shards=3, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always")
        with ShardedMiniKV(config) as kv:
            pipe = kv.pipeline()
            for i in range(60):
                pipe.set(f"k{i}", b"v%d" % i)
            pipe.execute()
            victim = kv._shards[1]
            victim_pid = victim.process.pid
            victim.process.kill()
            victim.process.join()
            # every durable key is still readable — including the dead
            # worker's shard, transparently rebuilt from its AOF
            for i in range(60):
                assert kv.get(f"k{i}") == b"v%d" % i
            assert kv._shards[1].process.pid != victim_pid
            # scatter/gather across all shards works on the new worker
            pipe = kv.pipeline()
            for i in range(60, 90):
                pipe.set(f"k{i}", b"v%d" % i)
            pipe.execute()
            assert kv.dbsize() == 90

    def test_kill_during_scatter_gather_batch(self, tmp_path):
        """A worker death detected *inside* a batch exchange: the gather
        respawns the shard, re-sends its sub-batch, and the batch still
        returns a full, ordered result set."""
        config = MiniKVConfig(shards=3, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always")
        with ShardedMiniKV(config) as kv:
            pipe = kv.pipeline()
            for i in range(30):
                pipe.set(f"k{i}", b"v%d" % i)
            pipe.execute()
            kv._shards[2].process.kill()
            kv._shards[2].process.join()
            # this batch's scatter hits the dead pipe mid-flight
            pipe = kv.pipeline()
            for i in range(30):
                pipe.get(f"k{i}")
            results = pipe.execute()
            assert results == [b"v%d" % i for i in range(30)]

    def test_deliberate_restart_shard(self, tmp_path):
        config = MiniKVConfig(shards=2, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always")
        with ShardedMiniKV(config) as kv:
            kv.set("a", b"1")
            kv.set("b", b"2")
            for index in range(kv.shard_count):
                kv.restart_shard(index)
            assert kv.get("a") == b"1" and kv.get("b") == b"2"

    def test_deliberate_restart_flushes_everysec_buffer(self, tmp_path):
        """restart_shard is a *graceful* bounce: under fsync='everysec'
        (the client default) acknowledged writes still sitting in the
        AOF buffer must be flushed before the worker goes down."""
        config = MiniKVConfig(shards=2, aof_path=str(tmp_path / "kv.aof"),
                              fsync="everysec")
        with ShardedMiniKV(config) as kv:
            for i in range(20):
                kv.set(f"k{i}", b"v%d" % i)
            for index in range(kv.shard_count):
                kv.restart_shard(index)
            assert kv.dbsize() == 20
            assert all(kv.get(f"k{i}") == b"v%d" % i for i in range(20))

    def test_crash_only_loses_unflushed_tail_not_other_shards(self, tmp_path):
        """fsync='always' acks are durable per shard; killing one worker
        never affects the other shards' data."""
        config = MiniKVConfig(shards=2, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always")
        with ShardedMiniKV(config) as kv:
            for i in range(40):
                kv.set(f"k{i}", b"v%d" % i)
            before = {key: kv.get(key) for key in kv.keys()}
            kv._shards[0].process.kill()
            kv._shards[0].process.join()
            after = {key: kv.get(key) for key in kv.keys()}
            assert after == before

    def test_commands_after_close_fail_loudly(self):
        """close() is final: no silent worker resurrection against an
        empty keyspace, no leaked daemon processes."""
        import multiprocessing

        from repro.minikv.sharded import ShardConnectionError

        kv = sharded(shards=2)
        kv.set("a", b"1")
        kv.close()
        with pytest.raises(ShardConnectionError):
            kv.get("a")
        with pytest.raises(ShardConnectionError):
            kv.dbsize()
        with pytest.raises(ShardConnectionError):
            kv.pipeline().set("b", b"2").execute()
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("minikv-shard-")
        ]

    def test_encrypted_shard_aofs_replay(self, tmp_path):
        config = MiniKVConfig(shards=2, aof_path=str(tmp_path / "kv.aof"),
                              fsync="always", encryption_at_rest=True)
        with ShardedMiniKV(config) as kv:
            kv.set("secret", b"payload")
            kv._shards[kv._shard_index("secret")].process.kill()
            assert kv.get("secret") == b"payload"  # respawn decrypts + replays
        with ShardedMiniKV(config) as kv:
            assert kv.get("secret") == b"payload"


class TestConstructionFailure:
    """A front whose construction raises leaves nothing running behind it."""

    @staticmethod
    def _live_workers():
        return [
            p for p in multiprocessing.active_children()
            if p.name.startswith("minikv-shard-")
        ]

    @staticmethod
    def _is_closed(conn) -> bool:
        # pipe ends expose ``closed``; closed sockets report fd -1
        return getattr(conn, "closed", None) is True or conn.fileno() == -1

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_failed_start_reaps_started_shards(self, monkeypatch, transport):
        from repro.minikv.sharded import ShardConnectionError

        started = []
        real_start = ShardedMiniKV._start

        def start(self, shard):
            if started:
                raise ShardConnectionError("second shard unreachable")
            real_start(self, shard)
            started.append(shard)

        monkeypatch.setattr(ShardedMiniKV, "_start", start)
        with pytest.raises(ShardConnectionError, match="unreachable"):
            ShardedMiniKV(MiniKVConfig(shards=3, transport=transport))
        assert len(started) == 1
        assert self._is_closed(started[0].conn)
        assert not self._live_workers()

    def test_failed_migration_repair_reaps_every_shard(self, monkeypatch):
        shards = []
        real_start = ShardedMiniKV._start

        def start(self, shard):
            real_start(self, shard)
            shards.append(shard)

        def repair(self, from_ids, to_ids):
            raise OSError("repair failed")

        monkeypatch.setattr(ShardedMiniKV, "_start", start)
        monkeypatch.setattr(ShardedMiniKV, "_load_topology", lambda self: {
            "shard_ids": [0, 1], "next_id": 3, "vnodes": 64,
            "migration": {"from": [0, 1], "to": [0, 1, 2]},
        })
        monkeypatch.setattr(ShardedMiniKV, "_repair_migration", repair)
        with pytest.raises(OSError, match="repair failed"):
            ShardedMiniKV(MiniKVConfig(shards=2))
        assert len(shards) == 3
        assert all(self._is_closed(shard.conn) for shard in shards)
        assert not self._live_workers()

    def test_failed_connect_reaps_the_spawned_tcp_worker(self, monkeypatch):
        import repro.common.netshard as netshard

        def refuse(host, port, *args, **kwargs):
            raise ConnectionError(f"shard server {host}:{port} unreachable")

        # the worker bound and reported its port, then the connect failed:
        # without cleanup it would sit in accept() for the process lifetime
        monkeypatch.setattr(netshard, "connect_shard", refuse)
        with pytest.raises(ConnectionError, match="unreachable"):
            ShardedMiniKV(MiniKVConfig(shards=2, transport="tcp"))
        assert not self._live_workers()
