"""Tests for the simulated LUKS / TLS encryption boundaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.luks import AtRestCipher, FileCipher
from repro.crypto.stream import KeystreamPool, StreamCipher, xor_bytes
from repro.crypto.tls import ChannelError, LoopbackSecureLink, SecureChannel
from tests import oracles


class TestStreamCipher:
    def test_roundtrip(self):
        cipher = StreamCipher(b"key")
        data = b"the quick brown fox"
        assert cipher.apply(cipher.apply(data)) == data

    def test_ciphertext_differs_from_plaintext(self):
        cipher = StreamCipher(b"key")
        data = b"A" * 64
        assert cipher.apply(data) != data

    def test_different_keys_different_streams(self):
        a = StreamCipher(b"key-a").keystream(64)
        b = StreamCipher(b"key-b").keystream(64)
        assert a != b

    def test_different_counters_different_streams(self):
        cipher = StreamCipher(b"key")
        assert cipher.keystream(64, counter=0) != cipher.keystream(64, counter=1)

    def test_keystream_length_exact(self):
        cipher = StreamCipher(b"key")
        for n in (1, 63, 64, 65, 1000):
            assert len(cipher.keystream(n)) == n

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(b"")

    def test_empty_payload(self):
        assert StreamCipher(b"key").apply(b"") == b""

    @given(st.binary(max_size=500), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_roundtrip_property(self, data, counter):
        cipher = StreamCipher(b"prop-key")
        assert cipher.apply(cipher.apply(data, counter), counter) == data


class TestXorBytes:
    def test_self_inverse(self):
        data, stream = b"hello world", b"0123456789abc"
        once = xor_bytes(data, stream)
        assert xor_bytes(once, stream) == data

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_length_preserved(self, data):
        stream = bytes(len(data))
        assert xor_bytes(data, stream) == data  # zero stream is identity


class TestKeystreamPool:
    def test_roundtrip_any_offset(self):
        pool = KeystreamPool(b"key", nonce=1, size=1024)
        data = b"payload-bytes"
        for offset in (0, 500, 1020, 5000):
            assert pool.apply(pool.apply(data, offset), offset) == data

    def test_wraps_around(self):
        pool = KeystreamPool(b"key", nonce=1, size=64)
        chunk = pool.slice(60, 10)  # crosses the pool boundary
        assert len(chunk) == 10
        assert chunk[:4] == pool.slice(60, 4)
        assert chunk[4:] == pool.slice(0, 6)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            KeystreamPool(b"key", nonce=1, size=0)


class TestAtRestCipher:
    def test_roundtrip_per_token(self):
        cipher = AtRestCipher()
        sealed = cipher.seal("tok", b"secret")
        assert sealed != b"secret"
        assert cipher.open("tok", sealed) == b"secret"

    def test_different_tokens_different_ciphertexts(self):
        cipher = AtRestCipher()
        assert cipher.seal("a", b"same-data") != cipher.seal("bbb", b"same-data")


class TestFileCipher:
    def test_roundtrip_at_offset(self):
        cipher = FileCipher()
        blob = cipher.apply(b"log line\n", 12345)
        assert cipher.apply(blob, 12345) == b"log line\n"

    def test_append_stream_decodable_in_one_pass(self):
        """Writing chunks at running offsets decrypts as one buffer."""
        cipher = FileCipher()
        chunks = [b"first", b"second-longer", b"x"]
        encrypted = b""
        offset = 0
        for chunk in chunks:
            encrypted += cipher.apply(chunk, offset)
            offset += len(chunk)
        assert cipher.apply(encrypted, 0) == b"".join(chunks)

    def test_window_decrypts_independently(self):
        """Any window decrypts given its offset (the dm-crypt property)."""
        cipher = FileCipher()
        plain = bytes(range(256)) * 4
        whole = cipher.apply(plain, 0)
        window = whole[100:200]
        assert cipher.apply(window, 100) == plain[100:200]


class TestSecureChannel:
    def test_wrap_unwrap_roundtrip(self):
        channel = SecureChannel(b"k")
        for payload in (b"", b"x", b"y" * 1000):
            assert channel.unwrap(channel.wrap(payload)) == payload

    def test_sequence_enforced(self):
        tx = SecureChannel(b"k")
        frame1 = tx.wrap(b"one")
        frame2 = tx.wrap(b"two")
        rx = SecureChannel(b"k")
        with pytest.raises(ChannelError):
            rx.unwrap(frame2)  # skipped frame1

    def test_short_frame_rejected(self):
        with pytest.raises(ChannelError):
            SecureChannel(b"k").unwrap(b"abc")

    def test_truncated_body_rejected(self):
        channel = SecureChannel(b"k")
        frame = channel.wrap(b"hello-world")
        with pytest.raises(ChannelError):
            SecureChannel(b"k").unwrap(frame[:-3])


class TestLoopbackSecureLink:
    def test_disabled_is_passthrough(self):
        link = LoopbackSecureLink(enabled=False)
        assert link.to_server(b"raw") == b"raw"
        assert link.to_client(b"raw") == b"raw"

    def test_enabled_roundtrips(self):
        link = LoopbackSecureLink(enabled=True)
        for i in range(10):
            payload = f"msg-{i}".encode()
            assert link.to_server(payload) == payload
            assert link.to_client(payload) == payload

    def test_concurrent_threads_do_not_interfere(self):
        import threading

        link = LoopbackSecureLink(enabled=True)
        errors = []

        def talk(tag):
            try:
                for i in range(500):
                    payload = f"{tag}-{i}".encode()
                    assert link.to_server(payload) == payload
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=talk, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestSharedExpansion:
    """Pools with one ``(key, nonce, size)`` share a single expansion, and
    sharing changed no byte: the constants below were recorded from the
    per-instance expansion this replaced (commit a912cb3)."""

    def test_same_parameters_share_one_expansion(self):
        first = KeystreamPool(b"shared-key", nonce=7, size=256)
        second = KeystreamPool(b"shared-key", nonce=7, size=256)
        assert first._pool is second._pool
        assert KeystreamPool(b"shared-key", nonce=8, size=256)._pool is not first._pool
        assert KeystreamPool(b"shared-key", nonce=7, size=128)._pool is not first._pool

    def test_second_channel_skips_the_expansion(self, monkeypatch):
        SecureChannel(b"warm-key")
        monkeypatch.setattr(
            StreamCipher, "keystream",
            lambda *a, **k: pytest.fail("expansion re-run for a cached pool"))
        SecureChannel(b"warm-key")

    def test_threads_opening_at_once_expand_once(self, monkeypatch):
        import threading

        calls = []
        original = StreamCipher.keystream

        def counting(self, length, counter=0):
            calls.append(length)
            return original(self, length, counter)

        monkeypatch.setattr(StreamCipher, "keystream", counting)
        start = threading.Barrier(8)
        pools = []

        def build():
            start.wait(timeout=10)
            pools.append(KeystreamPool(b"race-key", nonce=3, size=4096))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(pools) == 8 and calls == [4096]
        assert all(pool._pool is pools[0]._pool for pool in pools)

    def test_ciphertext_matches_recorded_bytes(self):
        assert KeystreamPool(b"key", nonce=1, size=64).slice(0, 64).hex() == (
            "c98c5b00b6267a2d191e732c9d680f93bc11af319dc498d535d786e7777e59a8"
            "ae8d9af4ed60856641036dd9f3e11e5ee8c8e87a4eac5c0c44cfce804a381824")
        assert AtRestCipher().seal(
            "user:0001", b"personal datum \xe2\x9c\x93"
        ).hex() == "ca2cb1f114f4a27981c59707b2db18a17cec"
        # offset 65530 crosses the 64 KiB pool boundary
        assert FileCipher().apply(b"*3\r\n$3\r\nSET\r\n", 65530).hex() == \
            "11d960d994f52af3ce70baeab1"
        channel = SecureChannel()
        assert channel.wrap(b"request-one").hex() == \
            "00000000000000000b000000415ea47e73fd4f187a893d"
        assert channel.wrap(b"request-two").hex() == \
            "01000000000000000b00000013996f03d7ee94f095cc01"

    def test_logs_written_before_the_change_still_replay(self, tmp_path):
        from repro.minikv.aof import load_aof
        from repro.minisql.wal import load_wal

        aof = tmp_path / "old.aof"
        aof.write_bytes(bytes.fromhex(
            "0dca9711ddede861b999e16b697f3b3a81c82129aeaa6c6c3bfc765ac5c73510"
            "66dc75aedb5e796a459caeb0f7d97dc9f12cba57ca10a7f4cba6da7c735d44ed"))
        assert load_aof(str(aof), cipher=FileCipher()) == [
            [b"SET", b"k1", b"v1"], [b"HSET", b"h", b"f", b"x"], [b"DEL", b"k1"]]
        wal = tmp_path / "old.wal"
        wal.write_bytes(bytes.fromhex(
            "0df99d356ee22e3bed93c55963140a1829fc4231ecc5342ca554432419df700f"
            "6d7441c5df3d3e3edb7c30e052fd18c3db1e30766c08e3b187acfe4e79ba7383"
            "456db8986c17f81592f8aab0b7977b"))
        assert load_wal(str(wal), cipher=FileCipher()) == [
            ("insert", "t", 0, (1, "alice")), ("delete", "t", 0)]


class TestFusedRoundTrip:
    """``SecureChannel.round_trip`` (what the loopback link runs per
    message) against the per-end reference in ``tests/oracles.py``."""

    @given(st.lists(st.binary(max_size=300), max_size=12))
    @settings(max_examples=60)
    def test_matches_reference(self, payloads):
        fused, reference = SecureChannel(), oracles.ReferenceChannel()
        for payload in payloads:
            assert fused.round_trip(payload) == payload
            assert oracles.to_server(reference, payload) == payload
            assert (fused._tx_seq, fused._rx_seq) == (reference._tx_seq, reference._rx_seq)

    @given(st.lists(st.binary(max_size=300), max_size=12))
    @settings(max_examples=60)
    def test_frames_match_reference(self, payloads):
        fused, reference = SecureChannel(b"k"), oracles.ReferenceChannel(b"k")
        for payload in payloads:
            frame = fused.wrap(payload)
            assert frame == reference.wrap(payload)
            assert fused.unwrap(frame) == reference.unwrap(frame) == payload

    def test_same_corruptions_raise(self):
        fused, reference = SecureChannel(), oracles.ReferenceChannel()
        for channel in (fused, reference):
            channel.wrap(b"lost")  # a frame the receiving end never saw
        messages = []
        for call in (fused.round_trip, lambda p: oracles.to_server(reference, p)):
            with pytest.raises(ChannelError, match="sequence mismatch") as info:
                call(b"next")
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert (fused._tx_seq, fused._rx_seq) == (reference._tx_seq, reference._rx_seq)
        for frame in (b"abc", reference.wrap(b"hello-world")[:-3]):
            with pytest.raises(ChannelError) as want:
                oracles.ReferenceChannel().unwrap(frame)
            with pytest.raises(ChannelError, match=str(want.value)):
                SecureChannel().unwrap(frame)

    def test_link_runs_one_round_trip_per_message(self, monkeypatch):
        link = LoopbackSecureLink(enabled=True)
        calls = []
        original = SecureChannel.round_trip
        monkeypatch.setattr(SecureChannel, "round_trip",
                            lambda self, p: calls.append(p) or original(self, p))
        assert link.to_server(b"req") == b"req"
        assert link.to_client(b"resp") == b"resp"
        assert calls == [b"req", b"resp"]
