"""The un-indexed Redis metadata scan: SCAN -> HGETALL -> read-audit append
-> TLS round trip -> record decode.

Pins the paper's per-record structure (one engine fetch, one audit entry,
one wire round trip per record), the audit side effects of the TTL sweep
and of pipelined key reads, and the equivalence of the record decode with
its reference in ``tests/oracles.py``.
"""

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.records import RecordCorpusConfig, generate_corpus
from repro.clients import FeatureSet, RedisGDPRClient
from repro.common.clock import VirtualClock
from repro.common.errors import AccessDeniedError
from repro.gdpr import PersonalRecord, Principal
from repro.gdpr.record import parse_ttl
from tests import oracles

PROC = Principal.processor()
CTRL = Principal.controller()
REG = Principal.regulator()


def _outcome(fn, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _audited(client):
    """Spy on the client's AOF: returns the list every append lands in."""
    writer = client.engine._aof
    entries = []
    original = writer.append

    def append(args):
        args = list(args)
        entries.append(args)
        return original(args)

    writer.append = append
    return entries


class TestRecordDecode:
    text = st.text(alphabet="ab,;é 1", max_size=6)
    fields = st.dictionaries(
        st.sampled_from(["data", "PUR", "TTL", "USR", "OBJ", "DEC", "SHR", "SRC", "EXP"]),
        text | st.sampled_from(["365days", "5min", "300", "1.5hours", "x", "9parsecs"]),
    ).map(lambda d: {name: value.encode() for name, value in d.items()})

    @given(fields)
    @settings(max_examples=300)
    def test_matches_reference(self, fields):
        assert _outcome(RedisGDPRClient._record_from_fields, "k1", fields) == \
            _outcome(oracles.record_from_fields, "k1", fields)

    @given(st.fixed_dictionaries({
        "key": text, "data": text, "user": text, "source": text,
        "purposes": st.tuples(text) | st.just(()) | st.lists(text).map(tuple),
        "objections": st.lists(text, max_size=2).map(tuple),
        "decisions": st.just(["list", "not", "tuple"]) | st.just(()),
        "shared_with": st.lists(st.integers() | text, max_size=2).map(tuple),
        "ttl_seconds": st.sampled_from([0.0, 5.0, -1.0]),
    }))
    @settings(max_examples=300)
    def test_record_checks_match_reference(self, fields):
        assert _outcome(lambda: PersonalRecord(**fields) and None) == \
            _outcome(oracles.check_record, SimpleNamespace(**fields))

    def test_parse_ttl_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(Exception, match="unknown TTL unit"):
                parse_ttl("9parsecs")
        assert parse_ttl("5min") == parse_ttl("5min") == 300.0


@pytest.fixture
def paper_client():
    """The paper's Redis deployment: every GDPR feature on, no indices."""
    client = RedisGDPRClient(FeatureSet.full(), clock=VirtualClock())
    yield client
    client.close()


def _corpus(n):
    return generate_corpus(RecordCorpusConfig(record_count=n, user_count=10))


class TestScanStructure:
    def test_one_fetch_one_audit_entry_one_round_trip_per_record(self, paper_client):
        n = 300  # more than one SCAN page
        paper_client.load_records(_corpus(n))
        engine, link = paper_client.engine, paper_client._link
        counts = {"hgetall": 0, "scan": 0, "tls": 0}

        def spy(owner, name, counter):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)

            setattr(owner, name, counted)

        spy(engine, "hgetall", "hgetall")
        spy(engine, "scan", "scan")
        spy(link, "to_server", "tls")
        spy(link, "to_client", "tls")
        audited = _audited(paper_client)
        paper_client.read_data_by_pur(PROC, "ads")
        assert counts["hgetall"] == n
        assert counts["scan"] == 2
        assert len(audited) == n + counts["scan"]
        assert counts["tls"] == n + 2


class TestAuditSideEffects:
    def test_ttl_sweep_audits_each_record_once(self):
        clock = VirtualClock()
        client = RedisGDPRClient(FeatureSet.full(), clock=clock, engine_ttl=False)
        try:
            records = _corpus(50)
            client.load_records(records)
            clock.advance(600)  # past the short TTLs, before the long ones
            expired = sum(1 for r in records if r.ttl_seconds <= 600)
            audited = _audited(client)
            assert client.delete_record_by_ttl(CTRL) == expired > 0
            reads = [args for args in audited if args[0] == b"HGETALL"]
            assert len(reads) == len(records)
        finally:
            client.close()

    @pytest.mark.parametrize("op, principal", [
        ("read_data_by_key", REG), ("read_metadata_by_key", PROC),
    ])
    def test_denied_pipelined_key_reads_leave_no_trace(self, paper_client, op, principal):
        paper_client.load_records(_corpus(10))
        key = _corpus(10)[3].key
        engine = paper_client.engine
        before = (engine.info()["commands_processed"], engine.aof_size())
        pipe = paper_client.pipeline()
        for _ in range(3):
            getattr(pipe, op)(principal, key)
        with pytest.raises(AccessDeniedError):
            pipe.execute()
        assert (engine.info()["commands_processed"], engine.aof_size()) == before

    def test_denied_slot_keeps_its_batch_mates(self, paper_client):
        paper_client.load_records(_corpus(10))
        key = _corpus(10)[3].key
        pipe = paper_client.pipeline()
        allowed = pipe.read_data_by_key(PROC, key)
        denied = pipe.read_metadata_by_key(PROC, key)
        with pytest.raises(AccessDeniedError):
            pipe.execute()
        assert allowed.result() == paper_client.read_data_by_key(PROC, key)
        with pytest.raises(AccessDeniedError):
            denied.result()


class TestRecordedBytes:
    """Responses and AOF bytes of a fixed GDPR stream on the paper's Redis
    deployment, recorded at commit f9f63e9.  The stream leaves out
    DELETE-RECORD-BY-TTL, whose audit entries changed on purpose (one
    HGETALL per record, not two)."""

    DIGESTS = {
        False: ("1447b887bea8bbf152657ad5ecf4abcd8275b0e18d0f24a4fc71b80a172a0ae0",
                "37483c636dab6691decb978846406bab1d0f65b9553f096a70525162987f6a1d"),
        True: ("1447b887bea8bbf152657ad5ecf4abcd8275b0e18d0f24a4fc71b80a172a0ae0",
               "30784e45af8429516c44ea82a344c63d626d4e83c893e75d254a2a70103c82c3"),
    }

    @pytest.mark.parametrize("encrypted", [False, True])
    def test_stream_matches_recorded_digests(self, tmp_path, encrypted):
        records = [PersonalRecord(
            key=f"k{i:03d}", data=f"u{i % 6}:data{i:03d}",
            purposes=("ads",) if i % 2 == 0 else ("billing", "2fa"),
            ttl_seconds=float(60 * (i % 4)) or 30.0, user=f"u{i % 6}",
            objections=("analytics",) if i % 3 == 0 else (),
            decisions=("profiling",) if i % 4 == 0 else (),
            shared_with=("acme",) if i % 5 == 0 else (), source="first-party",
        ) for i in range(60)]
        clock = VirtualClock()
        features = (FeatureSet.full() if encrypted
                    else FeatureSet(timely_deletion=True, monitoring=True))
        client = RedisGDPRClient(features, data_dir=str(tmp_path), clock=clock)
        try:
            client.load_records(records)
            out = [
                client.read_data_by_pur(PROC, "ads"),
                client.read_data_by_usr(Principal.customer("u2"), "u2"),
                client.read_data_by_obj(PROC, "analytics"),
                client.read_data_by_dec(PROC, "profiling"),
                client.read_metadata_by_usr(REG, "u3"),
                client.read_metadata_by_key(REG, "k007"),
                client.read_data_by_key(PROC, "k010"),
                client.update_metadata_by_key(CTRL, "k011", "PUR", ("ads",)),
                client.update_metadata_by_pur(CTRL, "billing", "SHR", ("beta",)),
                client.delete_record_by_usr(CTRL, "u5"),
            ]
            pipe = client.pipeline()
            pipe.read_data_by_key(PROC, "k012")
            pipe.read_metadata_by_key(REG, "k013")
            out.append(pipe.execute())
            clock.advance(1.5)
            out.append(client.read_data_by_pur(PROC, "2fa"))
            client.engine.flush_aof()
            with open(tmp_path / "redis.aof", "rb") as handle:
                aof = handle.read()
        finally:
            client.close()
        assert (hashlib.sha256(repr(out).encode()).hexdigest(),
                hashlib.sha256(aof).hexdigest()) == self.DIGESTS[encrypted]
