"""The transaction layer: begin/commit, lock declarations, and the
sweeper's transaction-batched deletes."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError, SQLError
from repro.minisql import (
    Cmp,
    Column,
    Database,
    MiniSQLConfig,
    INTEGER,
    TEXT,
)


def _db(**config) -> Database:
    db = Database(MiniSQLConfig(**config))
    db.create_table(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)],
        primary_key="id",
    )
    return db


class TestTransactionAPI:
    def test_statements_share_one_transaction(self):
        db = _db()
        with db.transaction(write=("t",)) as txn:
            for i in range(5):
                txn.insert("t", {"id": i, "v": f"row{i}"})
            assert txn.count("t") == 5
            assert txn.select("t", Cmp("id", "=", 3))[0]["v"] == "row3"
            assert txn.update("t", {"v": "patched"}, Cmp("id", "=", 3)) == 1
            assert txn.delete("t", Cmp("id", "=", 0)) == 1
        assert db.count("t") == 4
        assert db.select("t", Cmp("id", "=", 3))[0]["v"] == "patched"

    def test_begin_commit_explicit(self):
        db = _db()
        txn = db.begin(write=("t",))
        txn.insert("t", {"id": 1, "v": "a"})
        txn.commit()
        assert db.count("t") == 1
        with pytest.raises(SQLError):
            txn.insert("t", {"id": 2, "v": "b"})  # not active any more

    def test_undeclared_table_locked_on_first_touch(self):
        db = _db()
        db.create_table("u", [Column("id", INTEGER)])
        with db.transaction(write=("t",)) as txn:
            txn.insert("t", {"id": 1, "v": "a"})
            txn.insert("u", {"id": 7})  # lazily write-locked
        assert db.count("u") == 1

    def test_out_of_order_first_touch_is_refused(self):
        """Lazy acquisition must extend ascending-name lock order; an
        out-of-order touch would break global deadlock freedom."""
        db = _db()  # owns table "t"
        db.create_table("a", [Column("id", INTEGER)])
        with db.transaction(write=("t",)) as txn:
            txn.insert("t", {"id": 1, "v": "x"})
            with pytest.raises(SQLError):
                txn.insert("a", {"id": 1})  # "a" sorts before held "t"
        # declaring both up front is the supported shape
        with db.transaction(write=("a", "t")) as txn:
            txn.insert("a", {"id": 1})
            txn.insert("t", {"id": 2, "v": "y"})
        assert db.count("a") == 1

    def test_read_to_write_upgrade_is_refused(self):
        db = _db()
        with db.transaction(read=("t",)) as txn:
            txn.select("t")
            with pytest.raises(SQLError):
                txn.insert("t", {"id": 1, "v": "a"})

    def test_ddl_inside_transaction_is_refused(self):
        db = _db()
        with db.transaction(write=("t",)) as txn:
            with pytest.raises(SQLError):
                txn.create_table("x", [Column("id", INTEGER)])

    def test_select_point_matches_select(self):
        db = _db()
        for i in range(10):
            db.insert("t", {"id": i, "v": f"row{i}"})
        with db.transaction(read=("t",)) as txn:
            assert txn.select_point("t", "id", 4) == db.select("t", Cmp("id", "=", 4))
            assert txn.select_point("t", "id", 99) == []
            assert txn.select_point("t", "v", "row2") == \
                db.select("t", Cmp("v", "=", "row2"))  # unindexed column
            assert txn.select_point("t", "id", None) == []  # NULL matches nothing

    def test_transaction_survives_statement_error(self):
        """A failing statement doesn't wedge the lock state."""
        db = _db()
        with pytest.raises(Exception):
            with db.transaction(write=("t",)) as txn:
                txn.insert("t", {"id": 1, "v": "a"})
                txn.insert("t", {"id": 1, "v": "dup"})  # unique violation
        # locks were released by abort: new statements proceed
        assert db.count("t") == 1


class TestLockingModes:
    @pytest.mark.parametrize("locking", ["table-rw", "global"])
    def test_observable_results_identical(self, locking):
        db = _db(locking=locking)
        for i in range(20):
            db.insert("t", {"id": i, "v": f"row{i}"})
        db.update("t", {"v": "x"}, Cmp("id", "<", 5))
        db.delete("t", Cmp("id", ">=", 15))
        assert db.count("t") == 15
        assert sorted(r["id"] for r in db.select("t", Cmp("v", "=", "x"))) == [0, 1, 2, 3, 4]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Database(MiniSQLConfig(locking="optimistic"))


class TestSweeperBatching:
    def test_sweeper_deletes_in_write_locked_chunks(self):
        clock = VirtualClock()
        db = Database(MiniSQLConfig(), clock=clock)
        db.create_table(
            "p", [Column("id", INTEGER, nullable=False), Column("expiry", INTEGER)],
            primary_key="id",
        )
        sweeper = db.enable_ttl("p", "expiry", interval=1.0)
        sweeper.batch_rows = 10  # force several chunks per sweep
        for i in range(35):
            db.insert("p", {"id": i, "expiry": 5})
        for i in range(5):
            db.insert("p", {"id": 100 + i, "expiry": 50})
        clock.advance(10)
        deleted = sweeper.run(clock.now())
        assert deleted == 35
        assert db.count("p") == 5
        assert sweeper.stats.rows_deleted == 35

    def test_sweeper_runs_from_statement_hook(self):
        clock = VirtualClock()
        db = Database(MiniSQLConfig(), clock=clock)
        db.create_table(
            "p", [Column("id", INTEGER, nullable=False), Column("expiry", INTEGER)],
            primary_key="id",
        )
        db.enable_ttl("p", "expiry", interval=1.0)
        db.insert("p", {"id": 1, "expiry": 2})
        db.insert("p", {"id": 2, "expiry": 1000})
        clock.advance(5)
        # any ordinary statement pokes the due sweeper first
        assert db.count("p") == 1
        assert [r["id"] for r in db.select("p")] == [2]
