"""Tests for the heap expiry cycle (the §7.2 efficient-deletion extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.minikv import (
    ExpiresIndex,
    HeapExpiryCycle,
    MiniKV,
    MiniKVConfig,
    StrictExpiryCycle,
    TICK_SECONDS,
)


def _engine(algorithm: str, clock=None):
    return MiniKV(MiniKVConfig(ttl_algorithm=algorithm), clock=clock or VirtualClock())


class TestHeapCycle:
    def test_single_tick_erases_all_expired(self):
        clock = VirtualClock()
        kv = _engine("heap", clock)
        for i in range(500):
            kv.set(f"k{i}", b"v", ttl=10.0 if i % 5 == 0 else 10000.0)
        clock.advance(11)
        erased = kv.cron()
        assert erased == 100
        assert kv._expires.all_expired(clock.now()) == []
        assert kv.dbsize() == 400
        kv.close()

    def test_deadline_extension_honoured(self):
        """A stale heap entry must not erase a key whose TTL grew."""
        clock = VirtualClock()
        kv = _engine("heap", clock)
        kv.set("k", b"v", ttl=5.0)
        kv.expire("k", 10_000.0)  # extend: old heap entry is now stale
        clock.advance(6)
        kv.cron()
        assert kv.get("k") == b"v"
        clock.advance(10_000)
        kv.cron()
        assert kv.get("k") is None
        kv.close()

    def test_persist_cancels_scheduled_deletion(self):
        clock = VirtualClock()
        kv = _engine("heap", clock)
        kv.set("k", b"v", ttl=5.0)
        kv.persist("k")
        clock.advance(100)
        kv.cron()
        assert kv.get("k") == b"v"
        kv.close()

    def test_foreground_work_is_bounded(self):
        """Heap ticks touch only due entries; strict scans everything."""
        clock_h, clock_s = VirtualClock(), VirtualClock()
        heap_kv = _engine("heap", clock_h)
        strict_kv = _engine("strict", clock_s)
        for kv in (heap_kv, strict_kv):
            for i in range(1000):
                kv.set(f"k{i}", b"v", ttl=10_000.0)
        # Run 50 ticks with nothing expired.
        for _ in range(50):
            clock_h.advance(TICK_SECONDS)
            heap_kv.cron()
            clock_s.advance(TICK_SECONDS)
            strict_kv.cron()
        assert heap_kv.expiry_stats.sampled == 0         # no due entries popped
        assert strict_kv.expiry_stats.sampled >= 30_000  # tens of full scans
        heap_kv.close()
        strict_kv.close()

    def test_replay_reschedules_heap_entries(self, tmp_path):
        clock = VirtualClock()
        path = str(tmp_path / "kv.aof")
        kv = MiniKV(MiniKVConfig(aof_path=path, fsync="always", ttl_algorithm="heap"),
                    clock=clock)
        kv.set("k", b"v", ttl=50.0)
        kv.close()
        kv2 = MiniKV(MiniKVConfig(aof_path=path, fsync="always", ttl_algorithm="heap"),
                     clock=clock)
        clock.advance(60)
        kv2.cron()
        assert kv2.get("k") is None  # active (not just passive) erasure
        assert kv2.expiry_stats.deleted >= 1
        kv2.close()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            MiniKV(MiniKVConfig(ttl_algorithm="quantum"))

    def test_features_report_timely_deletion(self):
        assert MiniKVConfig(ttl_algorithm="heap").gdpr_features["timely_deletion"]
        assert MiniKVConfig(ttl_algorithm="strict").gdpr_features["timely_deletion"]
        assert not MiniKVConfig().gdpr_features["timely_deletion"]


class TestHeapCycleUnit:
    @given(st.lists(st.tuples(st.integers(0, 20), st.floats(1, 100)), max_size=60))
    @settings(max_examples=60)
    def test_heap_matches_strict_semantics(self, entries):
        """After any schedule sequence, one heap tick at time T erases the
        same keys a strict scan would."""
        index_h, index_s = ExpiresIndex(), ExpiresIndex()
        deleted_h, deleted_s = [], []
        heap = HeapExpiryCycle(index_h, lambda k: (deleted_h.append(k), index_h.remove(k)))
        strict = StrictExpiryCycle(index_s, lambda k: (deleted_s.append(k), index_s.remove(k)))
        for key_id, deadline in entries:
            key = f"k{key_id}"
            index_h.set(key, deadline)
            heap.schedule(key, deadline)
            index_s.set(key, deadline)
        now = 50.0
        heap.run(now)
        strict.run(now)
        assert sorted(deleted_h) == sorted(deleted_s)
        assert sorted(index_h.all_expired(now)) == sorted(index_s.all_expired(now)) == []
