"""Exact-oracle correctness tests: client responses vs the shadow store."""

import random

import pytest

from repro.bench.oracle import ShadowStore
from repro.bench.records import RecordCorpusConfig, generate_corpus
from repro.clients import FeatureSet, make_client
from repro.common.clock import VirtualClock
from repro.gdpr import PersonalRecord, Principal

CTRL = Principal.controller()
PROC = Principal.processor()
REG = Principal.regulator()


class TestShadowStore:
    def test_mirrors_basic_lifecycle(self):
        shadow = ShadowStore()
        record = PersonalRecord(key="k", data="u1:d", purposes=("ads",),
                                ttl_seconds=60.0, user="u1")
        shadow.create(record)
        assert shadow.read_data_by_key("k") == "u1:d"
        assert shadow.read_data_by_usr("u1") == [("k", "u1:d")]
        assert shadow.update_data_by_key("k", "u1:fixed") == 1
        assert shadow.read_data_by_key("k") == "u1:fixed"
        assert shadow.delete_record_by_key("k") == 1
        assert shadow.read_data_by_key("k") is None
        assert shadow.delete_record_by_key("k") == 0

    def test_metadata_updates(self):
        shadow = ShadowStore()
        shadow.create(PersonalRecord(key="k", data="u1:d", purposes=("ads",),
                                     ttl_seconds=60.0, user="u1"))
        assert shadow.update_metadata_by_key("k", "OBJ", ("ads",)) == 1
        assert shadow.read_metadata_by_key("k")["OBJ"] == ("ads",)
        assert shadow.update_metadata_by_pur("ads", "SHR", ("acme",)) == 1
        assert shadow.read_metadata_by_shr("acme") != []

    def test_ttl_deletion_with_virtual_clock(self):
        clock = VirtualClock()
        shadow = ShadowStore(clock=clock)
        shadow.create(PersonalRecord(key="s", data="u:x", purposes=("p",),
                                     ttl_seconds=10.0, user="u"))
        shadow.create(PersonalRecord(key="l", data="u:y", purposes=("p",),
                                     ttl_seconds=1000.0, user="u"))
        clock.advance(50)
        assert shadow.delete_record_by_ttl() == 1
        assert shadow.record_exists("l")
        assert not shadow.record_exists("s")


def _random_calls(corpus_cfg, count, seed):
    """Generate (op_name, shadow-args, client-executor) triples."""
    rng = random.Random(seed)
    purposes = corpus_cfg.purposes
    parties = corpus_cfg.parties
    n = corpus_cfg.record_count
    users = corpus_cfg.user_count
    calls = []
    for i in range(count):
        kind = rng.randrange(10)
        key = f"k{rng.randrange(n):08d}"
        user = f"u{rng.randrange(users):05d}"
        purpose = rng.choice(purposes)
        party = rng.choice(parties)
        if kind == 0:
            calls.append(("read-data-by-key", (key,),
                          lambda c, k=key: c.read_data_by_key(PROC, k)))
        elif kind == 1:
            calls.append(("read-data-by-pur", (purpose,),
                          lambda c, p=purpose: c.read_data_by_pur(PROC, p)))
        elif kind == 2:
            calls.append(("read-data-by-usr", (user,),
                          lambda c, u=user: c.read_data_by_usr(Principal.customer(u), u)))
        elif kind == 3:
            calls.append(("read-metadata-by-usr", (user,),
                          lambda c, u=user: c.read_metadata_by_usr(REG, u)))
        elif kind == 4:
            calls.append(("read-metadata-by-shr", (party,),
                          lambda c, p=party: c.read_metadata_by_shr(REG, p)))
        elif kind == 5:
            victim_key = f"k{rng.randrange(n):08d}"
            data = f"{_owner(victim_key, users)}:rect{i}"
            calls.append((
                "update-data-by-key", (victim_key, data),
                lambda c, k=victim_key, d=data:
                    c.update_data_by_key(Principal.customer(_owner(k, users)), k, d),
            ))
        elif kind == 6:
            calls.append(("update-metadata-by-pur", (purpose, "SHR", (party,)),
                          lambda c, p=purpose, q=party:
                          c.update_metadata_by_pur(CTRL, p, "SHR", (q,))))
        elif kind == 7:
            calls.append(("delete-record-by-key", (key,),
                          lambda c, k=key: c.delete_record_by_key(
                              Principal.customer(_owner(k, users)), k)))
        elif kind == 8:
            calls.append(("delete-record-by-usr", (user,),
                          lambda c, u=user: c.delete_record_by_usr(CTRL, u)))
        else:
            calls.append(("read-data-by-obj", (purpose,),
                          lambda c, p=purpose: c.read_data_by_obj(PROC, p)))
    return calls


def _owner(key: str, users: int) -> str:
    index = int(key[1:])
    return f"u{index % users:05d}"


def _canonical(value):
    """Order-insensitive comparison form for list responses."""
    return sorted(value, key=repr) if isinstance(value, list) else value


def _mismatches(client, shadow, calls) -> list:
    """Run the calls single-threaded on client and shadow; list divergences.

    Every call must succeed on the client; the shadow method of the same
    taxonomy name gives the exact expected response.
    """
    diverged = []
    for op_name, args, execute in calls:
        actual = execute(client)
        expected = getattr(shadow, op_name.replace("-", "_"))(*args)
        if _canonical(expected) != _canonical(actual):
            diverged.append((op_name, expected, actual))
    return diverged


@pytest.mark.parametrize("engine", ["redis", "postgres"])
class TestOracleRun:
    def test_exact_correctness_on_random_mix(self, engine):
        corpus_cfg = RecordCorpusConfig(record_count=120, user_count=12, seed=5)
        records = generate_corpus(corpus_cfg)
        client = make_client(
            engine, FeatureSet.full(metadata_indexing=(engine == "postgres"))
        )
        try:
            client.load_records(records)
            shadow = ShadowStore()
            shadow.load(records)
            calls = _random_calls(corpus_cfg, 200, seed=9)
            mismatches = _mismatches(client, shadow, calls)
            assert mismatches == [], mismatches[:3]
            # shadow and client agree on the final record census
            assert client.record_count() == len(shadow)
        finally:
            client.close()

    def test_oracle_catches_a_wrong_response(self, engine):
        client = make_client(engine, FeatureSet.none())
        try:
            record = PersonalRecord(key="k1", data="u1:real", purposes=("ads",),
                                    ttl_seconds=60.0, user="u1")
            client.load_records([record])
            shadow = ShadowStore()
            # deliberately diverge the shadow
            shadow.create(record.with_metadata(data="u1:DIFFERENT"))
            calls = [("read-data-by-key", ("k1",),
                      lambda c: c.read_data_by_key(PROC, "k1"))]
            assert len(_mismatches(client, shadow, calls)) == 1
        finally:
            client.close()
