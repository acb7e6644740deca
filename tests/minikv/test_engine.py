"""Tests for the minikv engine: strings, hashes, sets, keyspace commands."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import WrongTypeError
from repro.minikv import MiniKV, MiniKVConfig


@pytest.fixture
def kv():
    engine = MiniKV(clock=VirtualClock())
    yield engine
    engine.close()


class TestStrings:
    def test_set_get(self, kv):
        kv.set("k", b"value")
        assert kv.get("k") == b"value"

    def test_get_missing_is_none(self, kv):
        assert kv.get("nope") is None

    def test_set_overwrites(self, kv):
        kv.set("k", b"one")
        kv.set("k", b"two")
        assert kv.get("k") == b"two"

    def test_delete_returns_count(self, kv):
        kv.set("a", b"1")
        kv.set("b", b"2")
        assert kv.delete("a", "b", "missing") == 2
        assert kv.get("a") is None

    def test_exists(self, kv):
        assert not kv.exists("k")
        kv.set("k", b"v")
        assert kv.exists("k")

    def test_wrong_type_on_hash_key(self, kv):
        kv.hset("h", "f", b"v")
        with pytest.raises(WrongTypeError):
            kv.get("h")


class TestHashes:
    def test_hset_hget(self, kv):
        assert kv.hset("h", "f", b"v") == 1  # created
        assert kv.hset("h", "f", b"w") == 0  # overwritten
        assert kv.hget("h", "f") == b"w"

    def test_hget_missing_field(self, kv):
        kv.hset("h", "f", b"v")
        assert kv.hget("h", "other") is None
        assert kv.hget("missing", "f") is None

    def test_hmset_hgetall(self, kv):
        kv.hmset("h", {"a": b"1", "b": b"2"})
        assert kv.hgetall("h") == {"a": b"1", "b": b"2"}
        assert kv.hgetall("missing") == {}

    def test_hdel_removes_fields_and_empty_hash(self, kv):
        kv.hmset("h", {"a": b"1", "b": b"2"})
        assert kv.hdel("h", "a") == 1
        assert kv.hdel("h", "a") == 0
        assert kv.hdel("h", "b") == 1
        assert not kv.exists("h")  # empty hash disappears, like Redis

    def test_hset_if_exists_declines_on_missing_key(self, kv):
        assert kv.hset_if_exists("ghost", "f", b"v") == 0
        assert not kv.exists("ghost")
        kv.hset("h", "f", b"v")
        assert kv.hset_if_exists("h", "g", b"w") == 1
        assert kv.hget("h", "g") == b"w"

    def test_hmset_if_exists_declines_on_missing_key(self, kv):
        assert kv.hmset_if_exists("ghost", {"f": b"v"}) == 0
        kv.hset("h", "f", b"v")
        assert kv.hmset_if_exists("h", {"f": b"x", "g": b"y"}) == 1
        assert kv.hgetall("h") == {"f": b"x", "g": b"y"}

    def test_wrong_type_on_string_key(self, kv):
        kv.set("s", b"v")
        with pytest.raises(WrongTypeError):
            kv.hset("s", "f", b"v")


class TestSets:
    def test_sadd_smembers(self, kv):
        assert kv.sadd("s", b"a", b"b", b"a") == 2
        assert kv.smembers("s") == {b"a", b"b"}

    def test_sismember(self, kv):
        kv.sadd("s", b"a")
        assert kv.sismember("s", b"a")
        assert not kv.sismember("s", b"b")
        assert not kv.sismember("missing", b"a")

    def test_srem_and_empty_removal(self, kv):
        kv.sadd("s", b"a", b"b")
        assert kv.srem("s", b"a", b"zz") == 1
        assert kv.srem("s", b"b") == 1
        assert not kv.exists("s")


class TestKeyspace:
    def test_dbsize(self, kv):
        for i in range(5):
            kv.set(f"k{i}", b"v")
        assert kv.dbsize() == 5

    def test_keys_pattern(self, kv):
        kv.set("user:1", b"a")
        kv.set("user:2", b"b")
        kv.set("other", b"c")
        assert sorted(kv.keys("user:*")) == ["user:1", "user:2"]
        assert len(kv.keys()) == 3

    def test_scan_full_traversal(self, kv):
        for i in range(25):
            kv.set(f"k{i}", b"v")
        seen = []
        cursor = 0
        while True:
            cursor, batch = kv.scan(cursor, count=7)
            seen.extend(batch)
            if cursor == 0:
                break
        assert sorted(seen) == sorted(f"k{i}" for i in range(25))

    def test_scan_with_match(self, kv):
        kv.set("rec:1", b"a")
        kv.set("usr:1", b"b")
        _, batch = kv.scan(0, match="rec:*", count=10)
        assert batch == ["rec:1"]

    def test_flushall(self, kv):
        kv.set("a", b"1", ttl=100)
        kv.hset("h", "f", b"v")
        kv.flushall()
        assert kv.dbsize() == 0
        assert kv.info()["keys_with_expiry"] == 0

    def test_randomkey(self, kv):
        assert kv.randomkey() is None
        kv.set("only", b"v")
        assert kv.randomkey() == "only"

    def test_info_reports_features(self):
        engine = MiniKV(MiniKVConfig(ttl_algorithm="strict"))
        info = engine.info()
        assert info["expiry_algorithm"] == "strict"
        assert info["gdpr_features"]["timely_deletion"] is True
        assert info["gdpr_features"]["metadata_indexing"] is False
        engine.close()

    def test_memory_accounting_grows_and_shrinks(self, kv):
        empty = kv.memory_used()
        kv.set("k", b"x" * 1000)
        grown = kv.memory_used()
        assert grown > empty + 1000
        kv.delete("k")
        assert kv.memory_used() == empty
