"""Lock-striped keyspace: multi-threaded correctness and striped expiry.

The stripes must be invisible semantically: any interleaving of per-key
commands yields the same final state as some serial order (no lost
updates), cross-key commands see a consistent multi-stripe view, and the
per-stripe expiry cycles together erase exactly what one global cycle
would.
"""

import threading

import pytest

from repro.common.clock import VirtualClock
from repro.minikv import MiniKV, MiniKVConfig
from repro.minikv.expiry import StripedExpiresView


@pytest.fixture(params=[1, 4, 16])
def striped_kv(request):
    kv = MiniKV(MiniKVConfig(stripes=request.param))
    yield kv
    kv.close()


class TestSingleThreadParity:
    """stripes=N must behave exactly like stripes=1 for serial commands."""

    def test_basic_commands_agree_across_stripe_counts(self):
        engines = [
            MiniKV(MiniKVConfig(stripes=n), clock=VirtualClock())
            for n in (1, 4, 16)
        ]
        try:
            for kv in engines:
                for i in range(40):
                    kv.set(f"k{i}", b"v%d" % i)
                kv.hmset("h", {"f1": b"a", "f2": b"b"})
                kv.sadd("s", b"m1", b"m2")
                kv.delete("k0", "k7", "k39", "missing")
                kv.expire("k1", 500.0)
            first = engines[0]
            for kv in engines[1:]:
                assert kv.dbsize() == first.dbsize()
                assert sorted(kv.keys()) == sorted(first.keys())
                assert kv.hgetall("h") == first.hgetall("h")
                assert kv.smembers("s") == first.smembers("s")
                assert kv.ttl("k1") == first.ttl("k1")
                assert kv.get("k3") == first.get("k3")
        finally:
            for kv in engines:
                kv.close()

    def test_info_aggregates_stripes(self):
        kv = MiniKV(MiniKVConfig(stripes=8))
        try:
            for i in range(64):
                kv.set(f"k{i}", b"v", ttl=100.0 if i % 2 else None)
            info = kv.info()
            assert info["keys"] == 64
            assert info["keys_with_expiry"] == 32
            assert info["stripes"] == 8
            assert info["commands_processed"] >= 64
        finally:
            kv.close()


class TestMultiThreaded:
    def test_no_lost_updates_on_disjoint_keys(self, striped_kv):
        threads = 8
        per_thread = 300

        def writer(tid):
            for i in range(per_thread):
                striped_kv.set(f"t{tid}:k{i}", b"%d" % i)

        pool = [threading.Thread(target=writer, args=(t,)) for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert striped_kv.dbsize() == threads * per_thread
        for tid in range(threads):
            assert striped_kv.get(f"t{tid}:k0") == b"0"

    def test_no_lost_updates_on_shared_sets(self, striped_kv):
        threads = 8
        per_thread = 250

        def writer(tid):
            for i in range(per_thread):
                striped_kv.sadd(f"set{i % 10}", f"{tid}:{i}".encode())

        pool = [threading.Thread(target=writer, args=(t,)) for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = sum(len(striped_kv.smembers(f"set{i}")) for i in range(10))
        assert total == threads * per_thread

    def test_concurrent_hash_field_writes_all_land(self, striped_kv):
        threads = 6

        def writer(tid):
            for i in range(200):
                striped_kv.hset("shared", f"t{tid}f{i}", b"x")

        pool = [threading.Thread(target=writer, args=(t,)) for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len(striped_kv.hgetall("shared")) == threads * 200

    def test_cross_stripe_delete_under_concurrent_writes(self, striped_kv):
        """Multi-key DELETE (ordered multi-lock) never deadlocks against
        per-key writers or other multi-key deleters."""
        for i in range(200):
            striped_kv.set(f"d{i}", b"v")
        stop = threading.Event()

        def churner():
            i = 0
            while not stop.is_set():
                striped_kv.set(f"c{i % 50}", b"v")
                striped_kv.delete(f"c{(i + 25) % 50}")
                i += 1

        churn = [threading.Thread(target=churner) for _ in range(3)]
        for t in churn:
            t.start()
        deleters = [
            threading.Thread(
                target=lambda lo=lo: striped_kv.delete(*[f"d{i}" for i in range(lo, lo + 50)])
            )
            for lo in (0, 50, 100, 150)
        ]
        for t in deleters:
            t.start()
        for t in deleters:
            t.join()
        stop.set()
        for t in churn:
            t.join()
        assert striped_kv.keys("d*") == []

    def test_dbsize_consistent_during_flushall(self, striped_kv):
        """FLUSHALL holds every stripe: dbsize can never observe a
        half-cleared keyspace (it is 0 or the full pre-flush count)."""
        for i in range(400):
            striped_kv.set(f"k{i}", b"v")
        sizes = []

        def reader():
            for _ in range(50):
                sizes.append(striped_kv.dbsize())

        r = threading.Thread(target=reader)
        r.start()
        striped_kv.flushall()
        r.join()
        assert all(size in (0, 400) for size in sizes)


class TestStripedExpiry:
    @pytest.mark.parametrize("algorithm", ["lazy", "strict", "heap"])
    def test_expiry_erases_across_all_stripes(self, algorithm):
        clock = VirtualClock()
        kv = MiniKV(
            MiniKVConfig(stripes=8, ttl_algorithm=algorithm), clock=clock
        )
        try:
            for i in range(200):
                kv.set(f"k{i}", b"v", ttl=10.0)
            for i in range(50):
                kv.set(f"keep{i}", b"v")
            clock.advance(60)
            # lazy sampling may need several ticks; strict/heap need one
            for _ in range(400):
                kv.cron()
                clock.advance(0.2)
                if not kv._expires.all_expired(clock.now()):
                    break
            assert kv.dbsize() == 50
            assert sorted(kv.keys()) == sorted(f"keep{i}" for i in range(50))
        finally:
            kv.close()

    def test_purge_expired_returns_all_stripe_victims(self):
        clock = VirtualClock()
        kv = MiniKV(MiniKVConfig(stripes=8), clock=clock)
        try:
            for i in range(100):
                kv.set(f"k{i}", b"v", ttl=5.0)
            clock.advance(10)
            purged = kv.purge_expired()
            assert sorted(purged) == sorted(f"k{i}" for i in range(100))
            assert kv.dbsize() == 0
        finally:
            kv.close()

    def test_expiry_stats_aggregate(self):
        clock = VirtualClock()
        kv = MiniKV(MiniKVConfig(stripes=4, ttl_algorithm="strict"), clock=clock)
        try:
            for i in range(40):
                kv.set(f"k{i}", b"v", ttl=1.0)
            clock.advance(5)
            erased = kv.cron()
            assert erased == 40
            stats = kv.expiry_stats
            assert stats.deleted == 40
            assert stats.ticks >= 4  # one per stripe
        finally:
            kv.close()

    def test_striped_expires_view_reads_union(self):
        kv = MiniKV(MiniKVConfig(stripes=4))
        try:
            assert isinstance(kv._expires, StripedExpiresView)
            kv.set("a", b"1", ttl=50.0)
            kv.set("b", b"2", ttl=60.0)
            kv.set("c", b"3")
            assert len(kv._expires) == 2
            assert "a" in kv._expires and "c" not in kv._expires
            assert kv._expires.deadline("b") is not None
            assert kv._expires.all_expired(kv.clock.now() + 100) is not None
        finally:
            kv.close()


class TestScanSnapshotCache:
    def test_full_traversal_with_cached_snapshot(self, striped_kv):
        for i in range(95):
            striped_kv.set(f"k{i}", b"v")
        seen = []
        cursor = 0
        while True:
            cursor, batch = striped_kv.scan(cursor, count=10)
            seen.extend(batch)
            if cursor == 0:
                break
        assert sorted(seen) == sorted(f"k{i}" for i in range(95))

    def test_scan_reuses_snapshot_not_rebuilds(self):
        kv = MiniKV(MiniKVConfig(stripes=4))
        try:
            for i in range(50):
                kv.set(f"k{i}", b"v")
            cursor, _ = kv.scan(0, count=10)
            assert len(kv._scan_snapshots) == 1
            generation = cursor >> 32
            snapshot = kv._scan_snapshots[generation]
            cursor, _ = kv.scan(cursor, count=10)
            assert kv._scan_snapshots[generation] is snapshot  # no rebuild
            while cursor:
                cursor, _ = kv.scan(cursor, count=10)
            assert generation not in kv._scan_snapshots  # dropped at end
        finally:
            kv.close()

    def test_keys_deleted_mid_scan_are_skipped(self, striped_kv):
        for i in range(60):
            striped_kv.set(f"k{i}", b"v")
        cursor, first = striped_kv.scan(0, count=10)
        survivors = set(striped_kv.keys()) - set(first)
        doomed = sorted(survivors)[:20]
        striped_kv.delete(*doomed)
        seen = list(first)
        while cursor:
            cursor, batch = striped_kv.scan(cursor, count=10)
            seen.extend(batch)
        assert set(doomed).isdisjoint(seen[len(first):])
        assert set(striped_kv.keys()) <= set(seen)

    def test_concurrent_cursors_do_not_interfere(self, striped_kv):
        for i in range(40):
            striped_kv.set(f"k{i}", b"v")
        cursor_a, batch_a = striped_kv.scan(0, count=5)
        cursor_b, batch_b = striped_kv.scan(0, count=5)
        while cursor_a:
            cursor_a, batch = striped_kv.scan(cursor_a, count=5)
            batch_a.extend(batch)
        while cursor_b:
            cursor_b, batch = striped_kv.scan(cursor_b, count=5)
            batch_b.extend(batch)
        assert sorted(batch_a) == sorted(batch_b) == sorted(striped_kv.keys())

    def test_abandoned_snapshots_are_capped(self, striped_kv):
        from repro.minikv.engine import _SCAN_SNAPSHOT_CAP

        for i in range(40):
            striped_kv.set(f"k{i}", b"v")
        for _ in range(_SCAN_SNAPSHOT_CAP + 30):  # abandon in-flight cursors
            striped_kv.scan(0, count=5)
        assert len(striped_kv._scan_snapshots) <= _SCAN_SNAPSHOT_CAP

    def test_evicted_cursor_restarts_never_misses_keys(self, striped_kv):
        """A cursor whose snapshot was evicted restarts its traversal:
        stable keys may repeat but none are silently skipped."""
        from repro.minikv.engine import _SCAN_SNAPSHOT_CAP

        for i in range(30):
            striped_kv.set(f"k{i}", b"v")
        cursor, first = striped_kv.scan(0, count=5)
        for _ in range(_SCAN_SNAPSHOT_CAP + 5):  # evict the live snapshot
            striped_kv.scan(0, count=1)
        seen = list(first)
        while cursor:
            cursor, batch = striped_kv.scan(cursor, count=5)
            seen.extend(batch)
        assert set(seen) == set(striped_kv.keys())  # complete, maybe dup'd
