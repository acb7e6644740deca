"""Tests for the record corpus generator and operation validators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.operations import (
    Operation,
    data_owned_by,
    is_bool,
    is_nonneg_int,
    is_optional_str,
    is_pair_list,
    metadata_for_key,
    metadata_user_is,
)
from repro.bench.records import (
    RecordCorpusConfig,
    generate_corpus,
    key_for,
    logical_space_factor,
    make_record,
    user_for,
)


class TestCorpus:
    def test_deterministic_given_seed(self):
        a = generate_corpus(RecordCorpusConfig(record_count=50, seed=1))
        b = generate_corpus(RecordCorpusConfig(record_count=50, seed=1))
        assert a == b
        c = generate_corpus(RecordCorpusConfig(record_count=50, seed=2))
        assert a != c

    def test_keys_unique_and_stable(self):
        corpus = generate_corpus(RecordCorpusConfig(record_count=100))
        keys = [r.key for r in corpus]
        assert len(set(keys)) == 100
        assert keys[7] == key_for(7)

    def test_users_round_robin(self):
        config = RecordCorpusConfig(record_count=100, user_count=10)
        corpus = generate_corpus(config)
        assert corpus[23].user == user_for(23, 10) == "u00003"
        per_user = {}
        for record in corpus:
            per_user[record.user] = per_user.get(record.user, 0) + 1
        assert set(per_user.values()) == {10}

    def test_data_owner_prefixed(self):
        for record in generate_corpus(RecordCorpusConfig(record_count=50)):
            assert record.data.startswith(record.user + ":")

    def test_ttl_mix_matches_fraction(self):
        config = RecordCorpusConfig(record_count=2000, short_ttl_fraction=0.2)
        corpus = generate_corpus(config)
        short = sum(1 for r in corpus if r.ttl_seconds == config.short_ttl_seconds)
        assert 0.15 < short / 2000 < 0.25

    def test_every_record_has_purpose_and_ttl(self):
        for record in generate_corpus(RecordCorpusConfig(record_count=100)):
            assert record.purposes          # G 5(1b)
            assert record.ttl_seconds > 0   # G 5(1e)

    def test_objections_never_overlap_purposes(self):
        for record in generate_corpus(RecordCorpusConfig(record_count=500)):
            assert not set(record.objections) & set(record.purposes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecordCorpusConfig(record_count=0)
        with pytest.raises(ValueError):
            RecordCorpusConfig(user_count=0)
        with pytest.raises(ValueError):
            RecordCorpusConfig(short_ttl_fraction=1.5)

    def test_logical_space_factor_in_metadata_explosion_range(self):
        corpus = generate_corpus(RecordCorpusConfig(record_count=500))
        factor = logical_space_factor(corpus)
        # Table 3's phenomenon: metadata overshadows the 10-byte datum.
        assert 3.0 < factor < 6.0

    @given(st.integers(0, 10_000), st.integers(1, 12345))
    @settings(max_examples=50)
    def test_make_record_wire_roundtrips(self, index, seed):
        from repro.gdpr.record import PersonalRecord
        config = RecordCorpusConfig(record_count=1)
        record = make_record(index, config, random.Random(seed))
        assert PersonalRecord.from_wire(record.to_wire()) == record


class TestValidators:
    def test_scalar_validators(self):
        assert is_nonneg_int(0) and is_nonneg_int(5)
        assert not is_nonneg_int(-1) and not is_nonneg_int("5") and not is_nonneg_int(True) is False
        assert is_bool(True) and is_bool(False) and not is_bool(1)
        assert is_optional_str(None) and is_optional_str("x") and not is_optional_str(5)

    def test_data_owned_by(self):
        check = data_owned_by("u1")
        assert check([("k1", "u1:data"), ("k2", "u1:other")])
        assert not check([("k1", "u2:data")])
        assert check([])
        assert not check("not-a-list")

    def test_metadata_user_is(self):
        check = metadata_user_is("u1")
        assert check([("k", {"USR": "u1"})])
        assert not check([("k", {"USR": "u2"})])

    def test_metadata_for_key(self):
        check = metadata_for_key("k")
        assert check(None)
        assert check({"PUR": (), "TTL": 1.0, "USR": "", "OBJ": (), "DEC": (),
                      "SHR": (), "SRC": ""})
        assert not check({"PUR": ()})

    def test_is_pair_list(self):
        assert is_pair_list([("a", "b"), ("c", "d")])
        assert not is_pair_list([("a",)])
        assert not is_pair_list(None)

    def test_operation_run(self):
        op = Operation("probe", execute=lambda c: c + 1, validate=lambda r: r == 2)
        assert op.run(1) == (2, True)
        assert op.run(5) == (6, False)

    def test_operation_default_validator_accepts_all(self):
        op = Operation("noop", execute=lambda c: None)
        assert op.run(object())[1] is True
