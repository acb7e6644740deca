"""Tests for heap storage, predicate expressions, and the planner."""

import pytest

from repro.common.errors import SQLError
from repro.minisql.expr import (
    ALWAYS,
    And,
    Cmp,
    Contains,
    In,
    IsNull,
    Like,
    Not,
    Or,
)
from repro.minisql.heap import HeapTable, RowCodec
from repro.minisql.planner import PlanCache
from repro.minisql.schema import Catalog, Column, IndexInfo, TableSchema
from repro.minisql.types import INTEGER, TEXT, TEXT_LIST, TIMESTAMP


@pytest.fixture
def schema():
    return TableSchema(
        "t",
        [
            Column("id", INTEGER, nullable=False),
            Column("name", TEXT),
            Column("tags", TEXT_LIST),
            Column("expiry", TIMESTAMP),
        ],
    )


class TestHeapTable:
    def test_insert_fetch(self, schema):
        heap = HeapTable(schema)
        rid = heap.insert((1, "a", ("x",), None))
        assert heap.fetch(rid) == (1, "a", ("x",), None)
        assert heap.live_count == 1

    def test_fetch_out_of_range(self, schema):
        heap = HeapTable(schema)
        assert heap.fetch(0) is None
        assert heap.fetch(-1) is None

    def test_delete_leaves_tombstone_bloat(self, schema):
        heap = HeapTable(schema)
        rid = heap.insert((1, "a", (), None))
        size_before = heap.total_bytes()
        heap.delete(rid)
        assert heap.fetch(rid) is None
        assert heap.dead_count == 1
        assert heap.total_bytes() == size_before  # dead bytes still counted
        assert heap.live_bytes == 0

    def test_vacuum_reclaims_and_reuses_slots(self, schema):
        heap = HeapTable(schema)
        rids = [heap.insert((i, "x", (), None)) for i in range(5)]
        for rid in rids[:3]:
            heap.delete(rid)
        assert len(heap.vacuum()) == 3  # reclaimed rid list (WAL-logged)
        assert heap.dead_count == 0
        assert heap.dead_bytes == 0
        new_rid = heap.insert((9, "y", (), None))
        assert new_rid in rids[:3]  # freed slot reused

    def test_update_in_place(self, schema):
        heap = HeapTable(schema)
        rid = heap.insert((1, "a", (), None))
        old = heap.update(rid, (1, "bbbb", (), None))
        assert old == (1, "a", (), None)
        assert heap.fetch(rid)[1] == "bbbb"

    def test_update_delete_missing_rid_raises(self, schema):
        heap = HeapTable(schema)
        with pytest.raises(SQLError):
            heap.update(0, (1, "a", (), None))
        with pytest.raises(SQLError):
            heap.delete(0)

    def test_scan_skips_dead(self, schema):
        heap = HeapTable(schema)
        keep = heap.insert((1, "keep", (), None))
        kill = heap.insert((2, "kill", (), None))
        heap.delete(kill)
        assert [rid for rid, _ in heap.scan()] == [keep]

    def test_codec_roundtrip(self, schema):
        codec = RowCodec(lambda t, b: bytes(reversed(b)), lambda t, b: bytes(reversed(b)), "t")
        heap = HeapTable(schema, codec)
        rid = heap.insert((1, "enc", ("a", "b"), 5.0))
        assert heap.fetch(rid) == (1, "enc", ("a", "b"), 5.0)


class TestExpressions:
    ROW = (5, "alice", ("ads", "2fa"), None)

    def eval(self, expr, schema, row=None):
        return expr.evaluate(row or self.ROW, schema)

    def test_cmp_operators(self, schema):
        assert self.eval(Cmp("id", "=", 5), schema)
        assert self.eval(Cmp("id", "!=", 6), schema)
        assert self.eval(Cmp("id", "<", 6), schema)
        assert self.eval(Cmp("id", "<=", 5), schema)
        assert self.eval(Cmp("id", ">", 4), schema)
        assert self.eval(Cmp("id", ">=", 5), schema)
        assert not self.eval(Cmp("id", "=", 6), schema)

    def test_cmp_unknown_operator_rejected(self):
        with pytest.raises(SQLError):
            Cmp("id", "~", 5)

    def test_null_comparisons_are_false(self, schema):
        assert not self.eval(Cmp("expiry", "=", 5.0), schema)
        assert not self.eval(Cmp("expiry", "<", 5.0), schema)

    def test_contains(self, schema):
        assert self.eval(Contains("tags", "ads"), schema)
        assert not self.eval(Contains("tags", "ghost"), schema)
        assert not self.eval(Contains("tags", "ads"), schema, row=(1, "x", None, None))

    def test_in_like_isnull(self, schema):
        assert self.eval(In("id", (4, 5)), schema)
        assert not self.eval(In("id", (1, 2)), schema)
        assert self.eval(Like("name", "ali*"), schema)
        assert not self.eval(Like("name", "bob*"), schema)
        assert self.eval(IsNull("expiry"), schema)
        assert not self.eval(IsNull("name"), schema)

    def test_boolean_composition(self, schema):
        expr = And(Cmp("id", "=", 5), Or(Like("name", "a*"), Contains("tags", "zz")))
        assert self.eval(expr, schema)
        assert self.eval(Not(Cmp("id", "=", 6)), schema)
        assert self.eval(Cmp("id", "=", 5) & Cmp("name", "=", "alice"), schema)
        assert self.eval(Cmp("id", "=", 9) | Cmp("name", "=", "alice"), schema)
        assert self.eval(~Cmp("id", "=", 9), schema)

    def test_conjunct_flattening(self):
        expr = And(Cmp("a", "=", 1), And(Cmp("b", "=", 2), Cmp("c", "=", 3)))
        assert len(expr.conjuncts()) == 3

    def test_columns_collected(self):
        expr = And(Cmp("a", "=", 1), Or(Contains("b", "x"), IsNull("c")))
        assert expr.columns() == {"a", "b", "c"}

    def test_always_matches(self, schema):
        assert self.eval(ALWAYS, schema)

    def test_empty_and_or_rejected(self):
        with pytest.raises(SQLError):
            And()
        with pytest.raises(SQLError):
            Or()


def plan_scan(catalog, table, predicate):
    # a fresh cache per call: every plan below is a first-time choice
    return PlanCache(catalog).plan(table, predicate)


class TestPlanner:
    @pytest.fixture
    def catalog(self, schema):
        catalog = Catalog()
        catalog.add_table(schema)
        catalog.add_index(IndexInfo("idx_id", "t", "id", "btree"))
        catalog.add_index(IndexInfo("idx_tags", "t", "tags", "inverted"))
        catalog.add_index(IndexInfo("idx_expiry", "t", "expiry", "btree"))
        return catalog

    def test_no_predicate_is_seqscan(self, catalog):
        assert plan_scan(catalog, "t", None).kind == "seqscan"

    def test_unindexed_column_is_seqscan(self, catalog):
        assert plan_scan(catalog, "t", Cmp("name", "=", "x")).kind == "seqscan"

    def test_equality_uses_btree(self, catalog):
        plan = plan_scan(catalog, "t", Cmp("id", "=", 5))
        assert plan.kind == "indexscan"
        assert plan.op == "eq"
        assert plan.index.name == "idx_id"

    def test_contains_uses_inverted(self, catalog):
        plan = plan_scan(catalog, "t", Contains("tags", "ads"))
        assert plan.kind == "indexscan"
        assert plan.op == "contains"
        assert plan.index.name == "idx_tags"

    def test_contains_on_btree_column_not_usable(self, catalog):
        plan = plan_scan(catalog, "t", Contains("id", "5"))
        assert plan.kind == "seqscan"

    def test_range_bounds(self, catalog):
        plan = plan_scan(catalog, "t", Cmp("expiry", "<=", 9.0))
        assert plan.op == "range"
        assert plan.hi == 9.0 and plan.hi_inclusive
        plan = plan_scan(catalog, "t", Cmp("expiry", ">", 1.0))
        assert plan.lo == 1.0 and not plan.lo_inclusive

    def test_equality_preferred_over_range_and_contains(self, catalog):
        where = And(Cmp("expiry", "<=", 9.0), Cmp("id", "=", 1), Contains("tags", "a"))
        plan = plan_scan(catalog, "t", where)
        assert plan.op == "eq"
        assert plan.index.name == "idx_id"

    def test_contains_preferred_over_range(self, catalog):
        where = And(Cmp("expiry", "<=", 9.0), Contains("tags", "a"))
        plan = plan_scan(catalog, "t", where)
        assert plan.op == "contains"

    def test_or_predicates_not_index_driven(self, catalog):
        # Disjuncts cannot drive a single index scan; residual safety demands
        # a sequential scan.
        plan = plan_scan(catalog, "t", Or(Cmp("id", "=", 1), Cmp("id", "=", 2)))
        assert plan.kind == "seqscan"

    def test_describe_renders(self, catalog):
        assert "SeqScan" in plan_scan(catalog, "t", None).describe()
        assert "idx_id" in plan_scan(catalog, "t", Cmp("id", "=", 1)).describe()
