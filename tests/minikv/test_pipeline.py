"""Engine pipelining: batch results, atomicity, and amortised ticking.

A pipeline executes its queued batch under one multi-stripe lock
acquisition and one expiry tick per involved stripe — so a batch is
atomic with respect to other commands on the stripes it touches, and its
results must equal running the same commands serially.
"""

import threading

import pytest

from repro.common.clock import VirtualClock
from repro.minikv import MiniKV, MiniKVConfig, load_aof


@pytest.fixture(params=[1, 8])
def kv(request):
    engine = MiniKV(MiniKVConfig(stripes=request.param))
    yield engine
    engine.close()


class TestBatchSemantics:
    def test_results_in_queue_order(self, kv):
        pipe = kv.pipeline()
        pipe.set("a", b"1").set("b", b"2").get("a").get("b").get("nope")
        pipe.exists("a").delete("a").exists("a")
        results = pipe.execute()
        assert results == [None, None, b"1", b"2", None, True, 1, False]

    def test_matches_serial_execution(self, kv):
        serial = MiniKV(MiniKVConfig())
        try:
            commands = [
                ("set", ("k1", b"v1", None)),
                ("hset", ("h", "f", b"x")),
                ("hmset", ("h", {"g": b"y"})),
                ("sadd", ("s", (b"m1", b"m2"))),
                ("hgetall", ("h",)),
                ("smembers", ("s",)),
                ("hdel", ("h", ("f",))),
                ("srem", ("s", (b"m1",))),
                ("ttl", ("k1",)),
                ("get", ("k1",)),
            ]
            pipe = kv.pipeline()
            pipe.set("k1", b"v1").hset("h", "f", b"x").hmset("h", {"g": b"y"})
            pipe.sadd("s", b"m1", b"m2").hgetall("h").smembers("s")
            pipe.hdel("h", "f").srem("s", b"m1").ttl("k1").get("k1")
            got = pipe.execute()

            want = []
            serial.set("k1", b"v1")
            want.append(None)
            want.append(serial.hset("h", "f", b"x"))
            serial.hmset("h", {"g": b"y"})
            want.append(None)
            want.append(serial.sadd("s", b"m1", b"m2"))
            want.append(serial.hgetall("h"))
            want.append(serial.smembers("s"))
            want.append(serial.hdel("h", "f"))
            want.append(serial.srem("s", b"m1"))
            want.append(serial.ttl("k1"))
            want.append(serial.get("k1"))
            assert got == want
            assert sorted(kv.keys()) == sorted(serial.keys())
        finally:
            serial.close()

    def test_empty_pipeline(self, kv):
        assert kv.pipeline().execute() == []

    def test_keyless_delete_in_pipeline(self, kv):
        """delete() with no keys (an empty victim list) must not crash."""
        assert kv.pipeline().delete().execute() == [0]
        pipe = kv.pipeline()
        pipe.set("a", b"1").delete().get("a")
        assert pipe.execute() == [None, 0, b"1"]

    def test_command_errors_captured_per_slot(self, kv):
        """Redis semantics: a failing command neither stops the batch nor
        rolls back earlier commands; execute() raises afterwards unless
        raise_on_error=False."""
        from repro.common.errors import WrongTypeError

        kv.sadd("a-set", b"member")
        pipe = kv.pipeline()
        pipe.set("before", b"1").hset("a-set", "f", b"x").set("after", b"2")
        results = pipe.execute(raise_on_error=False)
        assert results[0] is None and results[2] is None
        assert isinstance(results[1], WrongTypeError)
        # every other command still applied
        assert kv.get("before") == b"1" and kv.get("after") == b"2"
        pipe.hset("a-set", "f", b"x")
        with pytest.raises(WrongTypeError):
            pipe.execute()

    def test_pipeline_reusable_after_execute(self, kv):
        pipe = kv.pipeline()
        pipe.set("a", b"1")
        assert pipe.execute() == [None]
        assert len(pipe) == 0
        pipe.get("a")
        assert pipe.execute() == [b"1"]

    def test_ttl_commands_in_pipeline(self, kv):
        clock = VirtualClock()
        timed = MiniKV(MiniKVConfig(stripes=4), clock=clock)
        try:
            pipe = timed.pipeline()
            pipe.set("x", b"1", ttl=10.0).set("y", b"2")
            pipe.expire("y", 20.0).persist("x").ttl("y")
            results = pipe.execute()
            assert results[2] is True and results[3] is True
            assert results[4] == 20.0
            assert timed.ttl("x") == -1.0  # persisted
        finally:
            timed.close()

    def test_counts_every_command(self, kv):
        before = kv.info()["commands_processed"]
        pipe = kv.pipeline()
        for i in range(25):
            pipe.set(f"k{i}", b"v")
        pipe.execute()
        assert kv.info()["commands_processed"] - before >= 25


class TestTickAmortisation:
    def test_one_expiry_tick_per_batch(self):
        """A 100-command batch on one stripe runs the strict cycle once,
        where 100 serial commands at tick boundaries would run it often."""
        clock = VirtualClock()
        kv = MiniKV(MiniKVConfig(ttl_algorithm="strict"), clock=clock)
        try:
            for i in range(20):
                kv.set(f"seed{i}", b"v", ttl=10_000.0)
            ticks_before = kv.expiry_stats.ticks
            pipe = kv.pipeline()
            for i in range(100):
                pipe.set(f"b{i}", b"v")
            clock.advance(1.0)  # make the cycle due exactly once
            pipe.execute()
            assert kv.expiry_stats.ticks == ticks_before + 1
        finally:
            kv.close()


class TestAtomicity:
    def test_batches_serialise_on_shared_stripes(self):
        """Concurrent read-modify-write batches over one key never lose
        increments: each batch holds the key's stripe for its duration."""
        kv = MiniKV(MiniKVConfig(stripes=8))
        try:
            # Atomicity witness: a batch writing two keys on different
            # stripes is observed either fully or not at all.
            stop = threading.Event()
            mismatches = []

            def writer():
                flip = False
                while not stop.is_set():
                    pipe = kv.pipeline()
                    value = b"x" if flip else b"y"
                    pipe.set("left", value).set("right", value)
                    pipe.execute()
                    flip = not flip

            def reader():
                for _ in range(2000):
                    pipe = kv.pipeline()
                    pipe.get("left").get("right")
                    left, right = pipe.execute()
                    if left != right:
                        mismatches.append((left, right))

            kv.pipeline().set("left", b"x").set("right", b"x").execute()
            w = threading.Thread(target=writer)
            r = threading.Thread(target=reader)
            w.start(); r.start()
            r.join(); stop.set(); w.join()
            assert mismatches == []
        finally:
            kv.close()

    def test_concurrent_pipelines_no_lost_updates(self):
        kv = MiniKV(MiniKVConfig(stripes=16))
        try:
            def worker(tid):
                pipe = kv.pipeline()
                for i in range(300):
                    pipe.sadd(f"bucket{i % 7}", f"{tid}:{i}".encode())
                    if len(pipe) >= 32:
                        pipe.execute()
                pipe.execute()

            pool = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            total = sum(len(kv.smembers(f"bucket{i}")) for i in range(7))
            assert total == 8 * 300
        finally:
            kv.close()


class TestPipelineWithAOF:
    def test_pipeline_logs_and_replays(self, tmp_path):
        path = str(tmp_path / "pipe.aof")
        with MiniKV(MiniKVConfig(aof_path=path, fsync="always")) as kv:
            pipe = kv.pipeline()
            pipe.set("a", b"1").hmset("h", {"f": b"v"}).sadd("s", b"m")
            pipe.delete("missing")
            pipe.execute()
        with MiniKV(MiniKVConfig(aof_path=path, fsync="always")) as kv2:
            assert kv2.get("a") == b"1"
            assert kv2.hgetall("h") == {"f": b"v"}
            assert kv2.smembers("s") == {b"m"}

    def test_pipeline_on_encrypted_aof(self, tmp_path):
        path = str(tmp_path / "enc.aof")
        config = MiniKVConfig(
            aof_path=path, fsync="always", encryption_at_rest=True, stripes=4
        )
        with MiniKV(config) as kv:
            pipe = kv.pipeline()
            for i in range(30):
                pipe.set(f"k{i}", b"secret%d" % i)
            pipe.execute()
        # ciphertext on disk…
        raw = open(path, "rb").read()
        assert b"secret0" not in raw
        # …but replay with the cipher restores everything
        with MiniKV(config) as kv2:
            assert kv2.get("k7") == b"secret7"
            assert kv2.dbsize() == 30
