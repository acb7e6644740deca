"""TTL behaviour: passive expiry, lazy vs strict active cycles (Figure 3a)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.minikv import (
    MiniKV,
    MiniKVConfig,
    ExpiresIndex,
    LazyExpiryCycle,
    StrictExpiryCycle,
    SAMPLE_SIZE,
    TICK_SECONDS,
)


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def kv(clock):
    engine = MiniKV(clock=clock)
    yield engine
    engine.close()


class TestTTLCommands:
    def test_ttl_semantics(self, kv, clock):
        assert kv.ttl("missing") == -2
        kv.set("k", b"v")
        assert kv.ttl("k") == -1
        kv.expire("k", 10)
        assert kv.ttl("k") == pytest.approx(10, abs=0.01)
        clock.advance(4)
        assert kv.ttl("k") == pytest.approx(6, abs=0.01)

    def test_expire_on_missing_key(self, kv):
        assert kv.expire("missing", 10) is False

    def test_expireat_absolute(self, kv, clock):
        kv.set("k", b"v")
        assert kv.expireat("k", clock.now() + 3)
        clock.advance(4)
        assert kv.get("k") is None

    def test_persist_clears_ttl(self, kv, clock):
        kv.set("k", b"v", ttl=5)
        assert kv.persist("k")
        clock.advance(100)
        assert kv.get("k") == b"v"
        assert kv.persist("k") is False  # no TTL to clear

    def test_set_clears_previous_ttl(self, kv, clock):
        kv.set("k", b"v", ttl=5)
        kv.set("k", b"w")  # plain SET removes the TTL, like Redis
        clock.advance(100)
        assert kv.get("k") == b"w"

    def test_passive_expiry_on_access(self, kv, clock):
        kv.set("k", b"v", ttl=5)
        clock.advance(6)
        assert kv.get("k") is None
        assert kv.dbsize() == 0

    def test_expired_keys_hidden_from_scan_and_keys(self, kv, clock):
        kv.set("dead", b"v", ttl=1)
        kv.set("live", b"v")
        clock.advance(2)
        assert kv.keys() == ["live"]
        _, batch = kv.scan(0, count=10)
        assert batch == ["live"]
        assert kv.dbsize() == 1


class TestExpiresIndex:
    def test_set_remove_contains(self):
        index = ExpiresIndex()
        index.set("a", 5.0)
        assert "a" in index
        assert index.deadline("a") == 5.0
        index.remove("a")
        assert "a" not in index
        index.remove("a")  # idempotent

    def test_swap_pop_keeps_sampling_consistent(self):
        index = ExpiresIndex()
        for i in range(10):
            index.set(f"k{i}", float(i))
        index.remove("k0")
        index.remove("k5")
        rng = random.Random(1)
        sampled = set(index.sample(100, rng))
        assert "k0" not in sampled and "k5" not in sampled
        assert len(index) == 8

    def test_all_expired(self):
        index = ExpiresIndex()
        index.set("a", 1.0)
        index.set("b", 10.0)
        assert index.all_expired(5.0) == ["a"]

    def test_sample_bounds(self):
        index = ExpiresIndex()
        rng = random.Random(2)
        assert index.sample(5, rng) == []
        index.set("a", 1.0)
        assert index.sample(5, rng) == ["a"]

    def test_clear(self):
        index = ExpiresIndex()
        index.set("a", 1.0)
        index.clear()
        assert len(index) == 0

    @given(st.lists(st.tuples(st.text(min_size=1, max_size=4), st.floats(0, 100)),
                    max_size=50))
    @settings(max_examples=50)
    def test_index_matches_dict_model(self, entries):
        """The swap-pop index behaves like a plain dict."""
        index = ExpiresIndex()
        model = {}
        for key, deadline in entries:
            index.set(key, deadline)
            model[key] = deadline
        assert len(index) == len(model)
        for key, deadline in model.items():
            assert index.deadline(key) == deadline
        assert sorted(index.all_expired(50.0)) == sorted(
            k for k, d in model.items() if d <= 50.0
        )


def _populate(kv, total, short_ttl=300.0, long_ttl=432000.0):
    for i in range(total):
        kv.set(f"k{i}", b"v", ttl=short_ttl if i % 5 == 0 else long_ttl)


class TestLazyExpiryCycle:
    def test_leaves_stragglers_after_one_tick(self, clock):
        kv = MiniKV(MiniKVConfig(ttl_algorithm="lazy", expiry_seed=1), clock=clock)
        _populate(kv, 1000)
        clock.advance(301)
        kv.cron()
        # One tick samples at most SAMPLE_SIZE keys per iteration; with 200
        # expired of 1000 it cannot clear everything instantly.
        assert len(kv._expires.all_expired(clock.now())) > 0
        kv.close()

    def test_eventually_erases_everything(self, clock):
        kv = MiniKV(MiniKVConfig(ttl_algorithm="lazy", expiry_seed=1), clock=clock)
        _populate(kv, 500)
        clock.advance(301)
        for _ in range(100000):
            kv.cron()
            if not kv._expires.all_expired(clock.now()):
                break
            clock.advance(TICK_SECONDS)
        assert kv._expires.all_expired(clock.now()) == []
        assert kv.dbsize() == 400
        kv.close()

    def test_erasure_delay_grows_with_db_size(self, clock):
        """The Figure 3a effect in miniature."""

        def delay(total):
            c = VirtualClock()
            kv = MiniKV(MiniKVConfig(ttl_algorithm="lazy", expiry_seed=2), clock=c)
            _populate(kv, total)
            c.advance(301)
            start = c.now()
            while kv._expires.all_expired(c.now()):
                kv.cron()
                c.advance(TICK_SECONDS)
            kv.close()
            return c.now() - start

        assert delay(2000) > 2 * delay(500)

    def test_stats_track_activity(self, clock):
        kv = MiniKV(MiniKVConfig(ttl_algorithm="lazy", expiry_seed=3), clock=clock)
        _populate(kv, 200)
        clock.advance(301)
        kv.cron()
        stats = kv.expiry_stats
        assert stats.ticks >= 1
        assert stats.sampled >= SAMPLE_SIZE


class TestStrictExpiryCycle:
    def test_single_tick_erases_all(self, clock):
        kv = MiniKV(MiniKVConfig(ttl_algorithm="strict"), clock=clock)
        _populate(kv, 2000)
        clock.advance(301)
        erased = kv.cron()
        assert erased == 400
        assert kv._expires.all_expired(clock.now()) == []
        assert kv.dbsize() == 1600
        kv.close()

    def test_strict_cycle_scans_whole_index(self, clock):
        index = ExpiresIndex()
        deleted = []
        cycle = StrictExpiryCycle(index, deleted.append)
        for i in range(100):
            index.set(f"k{i}", 1.0 if i < 30 else 100.0)
        assert cycle.run(now=2.0) == 30
        assert len(deleted) == 30

    def test_due_respects_tick_interval(self, clock):
        index = ExpiresIndex()
        cycle = LazyExpiryCycle(index, lambda k: None)
        assert cycle.due(0.0)
        cycle.run(0.0)
        assert not cycle.due(0.05)
        assert cycle.due(TICK_SECONDS)
