"""AOF framing, fsync policies, replay, crash tolerance, encryption."""

import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import AOFCorruptError, ConfigurationError
from repro.crypto.luks import FileCipher
from repro.minikv import MiniKV, MiniKVConfig
from repro.minikv.aof import AOFWriter, decode_entries, encode_entry, load_aof
from tests import oracles


class TestFraming:
    def test_roundtrip_single(self):
        entry = [b"SET", b"key", b"value"]
        assert list(decode_entries(encode_entry(entry))) == [entry]

    def test_roundtrip_many(self):
        entries = [[b"SET", b"k", b"v"], [b"DEL", b"k"], [b"FLUSHALL"]]
        blob = b"".join(encode_entry(e) for e in entries)
        assert list(decode_entries(blob)) == entries

    def test_binary_safe_values(self):
        entry = [b"SET", b"k", bytes(range(256))]
        assert list(decode_entries(encode_entry(entry))) == [entry]

    def test_torn_trailing_entry_skipped(self):
        good = encode_entry([b"SET", b"k", b"v"])
        torn = encode_entry([b"SET", b"k2", b"w"])[:-4]
        assert list(decode_entries(good + torn)) == [[b"SET", b"k", b"v"]]

    def test_tail_torn_between_arguments_skipped(self):
        # the data ends exactly where the torn entry's next '$' belongs
        blob = b"*1\n$3\nSET\n*3\n$3\nSET\n$1\nk\n"
        assert list(decode_entries(blob)) == [[b"SET"]]
        # ...and so at every line boundary inside a torn final entry
        good = encode_entry([b"SET", b"k", b"v"])
        torn = encode_entry([b"SET", b"key2", b"value2"])
        for cut in (i + 1 for i, byte in enumerate(torn[:-1]) if byte == ord("\n")):
            assert list(decode_entries(good + torn[:cut])) == [[b"SET", b"k", b"v"]]

    def test_wrong_byte_where_argument_expected_rejected(self):
        with pytest.raises(AOFCorruptError, match=r"expected '\$'"):
            list(decode_entries(b"*2\n$3\nSET\n#1\nk\n"))

    def test_garbage_prefix_rejected(self):
        with pytest.raises(AOFCorruptError):
            list(decode_entries(b"not-an-entry"))

    @given(st.lists(st.lists(st.binary(max_size=30), max_size=5), max_size=10))
    @settings(max_examples=50)
    def test_roundtrip_property(self, entries):
        blob = b"".join(encode_entry(e) for e in entries)
        assert list(decode_entries(blob)) == entries

    # arities past the template cache (64) take the uncached path
    @given(st.lists(st.binary(max_size=40) | st.sampled_from(
        [b"", b"\n", b"*", b"$", b"*2\n$1\nx\n", b"%d%b%%"]), max_size=80))
    @settings(max_examples=150)
    def test_encoding_matches_reference(self, args):
        assert encode_entry(args) == oracles.encode_entry(args)
        assert encode_entry(iter(args)) == oracles.encode_entry(args)

    def test_encoding_edge_cases_match_reference(self):
        for args in ([], [b""], [b"\n*\n"], [b"SMEMBERS", *[b"m%d" % i for i in range(300)]]):
            assert encode_entry(args) == oracles.encode_entry(args)


class TestRecordedBytes:
    """The AOF bytes of a fixed command sequence on a virtual clock.  The
    digests were recorded at commit f9f63e9, before the entry framing was
    rewritten as one ``bytes %`` per entry and HGETALL built its own audit
    entry; they must never move."""

    DIGESTS = {
        False: "988ef8d751d5a92ceca459168582ffb7483e344bd62590fec697d990463711c4",
        True: "3f0e6b0ea813613aa9b7acb59c803960ef10cda085562791ba77dd35bfb15e4f",
    }

    @pytest.mark.parametrize("encrypted", [False, True])
    def test_aof_matches_recorded_digest(self, tmp_path, encrypted):
        path = str(tmp_path / "kv.aof")
        clock = VirtualClock()
        kv = MiniKV(MiniKVConfig(aof_path=path, log_reads=True,
                                 encryption_at_rest=encrypted), clock=clock)
        for i in range(40):
            kv.hmset(f"rec:k{i:03d}", {
                "data": f"d{i}\n*$".encode(), "PUR": b"ads,2fa", "TTL": b"",
                "EXP": repr(3600.5 + i).encode(), "bin": bytes(range(i % 7)),
            })
        kv.hset("rec:k001", "USR", b"neo")
        kv.hdel("rec:k002", "bin", "nope")
        kv.expire("rec:k003", 5.25)
        clock.advance(0.5)
        cursor = 0
        while True:
            cursor, keys = kv.scan(cursor, match="rec:*", count=16)
            for key in keys:
                kv.hgetall(key)
            if cursor == 0:
                break
        kv.hgetall("rec:ghost")
        pipe = kv.pipeline()
        for i in range(5):
            pipe.hgetall(f"rec:k{i:03d}")
        pipe.execute()
        clock.advance(10)
        kv.hgetall("rec:k003")  # expired: evicted, then logged bare
        kv.close()
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert digest == self.DIGESTS[encrypted]


class TestAOFWriter:
    def test_unknown_fsync_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            AOFWriter(str(tmp_path / "x.aof"), fsync="sometimes")

    def test_always_policy_flushes_immediately(self, tmp_path):
        path = str(tmp_path / "a.aof")
        writer = AOFWriter(path, fsync="always")
        writer.append([b"SET", b"k", b"v"])
        assert os.path.getsize(path) > 0
        writer.close()

    def test_everysec_policy_batches(self, tmp_path):
        clock = VirtualClock()
        path = str(tmp_path / "a.aof")
        writer = AOFWriter(path, fsync="everysec", clock=clock)
        writer.append([b"SET", b"k", b"v"])
        assert os.path.getsize(path) == 0  # still buffered
        clock.advance(1.1)
        writer.append([b"SET", b"k2", b"v"])
        assert os.path.getsize(path) > 0  # the window flushed
        writer.close()

    def test_should_log_reads_only_when_enabled(self, tmp_path):
        writer = AOFWriter(str(tmp_path / "a.aof"), log_reads=False)
        assert writer.should_log("SET")
        assert not writer.should_log("GET")
        writer.log_reads = True
        assert writer.should_log("GET")
        writer.close()

    def test_size_includes_buffer(self, tmp_path):
        clock = VirtualClock()
        writer = AOFWriter(str(tmp_path / "a.aof"), fsync="everysec", clock=clock)
        writer.append([b"SET", b"k", b"v" * 100])
        assert writer.size_bytes() > 100
        writer.close()

    def test_entries_logged_counter(self, tmp_path):
        writer = AOFWriter(str(tmp_path / "a.aof"), fsync="always")
        for i in range(5):
            writer.append([b"SET", f"k{i}".encode(), b"v"])
        assert writer.entries_logged == 5
        writer.close()


class TestEncryptedAOF:
    def test_file_bytes_are_ciphered(self, tmp_path):
        path = str(tmp_path / "enc.aof")
        cipher = FileCipher()
        writer = AOFWriter(path, fsync="always", cipher=cipher)
        writer.append([b"SET", b"secret-key", b"secret-value"])
        writer.close()
        raw = open(path, "rb").read()
        assert b"secret-value" not in raw
        assert load_aof(path, cipher=cipher) == [[b"SET", b"secret-key", b"secret-value"]]

    def test_append_after_reopen_keeps_offsets(self, tmp_path):
        path = str(tmp_path / "enc.aof")
        cipher = FileCipher()
        w1 = AOFWriter(path, fsync="always", cipher=cipher)
        w1.append([b"SET", b"a", b"1"])
        w1.close()
        w2 = AOFWriter(path, fsync="always", cipher=cipher)
        w2.append([b"SET", b"b", b"2"])
        w2.close()
        assert load_aof(path, cipher=cipher) == [[b"SET", b"a", b"1"], [b"SET", b"b", b"2"]]


class TestEngineReplay:
    def _engine(self, tmp_path, **kw):
        return MiniKV(
            MiniKVConfig(aof_path=str(tmp_path / "kv.aof"), fsync="always", **kw)
        )

    def test_full_state_rebuild(self, tmp_path):
        kv = self._engine(tmp_path)
        kv.set("s", b"string")
        kv.hmset("h", {"f1": b"a", "f2": b"b"})
        kv.hdel("h", "f1")
        kv.sadd("set", b"m1", b"m2")
        kv.srem("set", b"m1")
        kv.set("gone", b"x")
        kv.delete("gone")
        kv.close()

        kv2 = self._engine(tmp_path)
        assert kv2.get("s") == b"string"
        assert kv2.hgetall("h") == {"f2": b"b"}
        assert kv2.smembers("set") == {b"m2"}
        assert not kv2.exists("gone")
        kv2.close()

    def test_expireat_survives_restart(self, tmp_path):
        clock = VirtualClock()
        kv = MiniKV(MiniKVConfig(aof_path=str(tmp_path / "kv.aof"), fsync="always"),
                    clock=clock)
        kv.set("k", b"v", ttl=100)
        kv.close()
        clock.advance(50)
        kv2 = MiniKV(MiniKVConfig(aof_path=str(tmp_path / "kv.aof"), fsync="always"),
                     clock=clock)
        assert kv2.ttl("k") == pytest.approx(50, abs=0.1)
        clock.advance(60)
        assert kv2.get("k") is None
        kv2.close()

    def test_flushall_replays(self, tmp_path):
        kv = self._engine(tmp_path)
        kv.set("a", b"1")
        kv.flushall()
        kv.set("b", b"2")
        kv.close()
        kv2 = self._engine(tmp_path)
        assert not kv2.exists("a")
        assert kv2.get("b") == b"2"
        kv2.close()

    def test_torn_final_write_recovers_prefix(self, tmp_path):
        path = str(tmp_path / "kv.aof")
        kv = MiniKV(MiniKVConfig(aof_path=path, fsync="always"))
        kv.set("a", b"1")
        kv.set("b", b"2")
        kv.close()
        # simulate crash mid-append
        size = os.path.getsize(path)
        with open(path, "ab") as f:
            f.write(b"*3\n$3\nSET\n$1\nc\n$5\nxx")  # truncated entry
        kv2 = MiniKV(MiniKVConfig(aof_path=path, fsync="always"))
        assert kv2.get("a") == b"1"
        assert kv2.get("b") == b"2"
        assert not kv2.exists("c")
        kv2.close()

    def test_read_logging_entries_do_not_break_replay(self, tmp_path):
        path = str(tmp_path / "kv.aof")
        kv = MiniKV(MiniKVConfig(aof_path=path, fsync="always", log_reads=True))
        kv.set("a", b"1")
        kv.get("a")
        kv.hmset("h", {"f": b"v"})
        kv.hgetall("h")
        kv.keys()
        kv.close()
        kv2 = MiniKV(MiniKVConfig(aof_path=path, fsync="always", log_reads=True))
        assert kv2.get("a") == b"1"
        assert kv2.hgetall("h") == {"f": b"v"}
        kv2.close()

    def test_encrypted_engine_replay(self, tmp_path):
        path = str(tmp_path / "kv.aof")
        kv = MiniKV(MiniKVConfig(aof_path=path, fsync="always", encryption_at_rest=True))
        kv.set("secret", b"payload-123")
        kv.close()
        raw = open(path, "rb").read()
        assert b"payload-123" not in raw  # at-rest encryption held
        kv2 = MiniKV(MiniKVConfig(aof_path=path, fsync="always", encryption_at_rest=True))
        assert kv2.get("secret") == b"payload-123"
        kv2.close()

    def test_audit_trail_grows_with_reads_when_enabled(self, tmp_path):
        path = str(tmp_path / "kv.aof")
        kv = MiniKV(MiniKVConfig(aof_path=path, fsync="always", log_reads=True))
        kv.set("k", b"v")
        before = kv.aof_size()
        for _ in range(10):
            kv.get("k")
        assert kv.aof_size() > before
        kv.close()

    def test_reads_not_logged_by_default(self, tmp_path):
        path = str(tmp_path / "kv.aof")
        kv = MiniKV(MiniKVConfig(aof_path=path, fsync="always", log_reads=False))
        kv.set("k", b"v")
        before = kv.aof_size()
        for _ in range(10):
            kv.get("k")
        assert kv.aof_size() == before
        kv.close()
