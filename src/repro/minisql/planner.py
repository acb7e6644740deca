"""Access-path selection for minisql: sequential scan vs index scan.

The planner walks the conjuncts of a WHERE clause looking for constraints
an existing index can serve:

* ``Cmp(col, '=', v)`` on a column with a B-tree index → point index scan;
* ``Cmp(col, '<='|'<'|'>='|'>', v)`` on a B-tree column → range index scan
  (this is how the TTL sweeper finds expired rows);
* ``Contains(col, token)`` on a TEXT_LIST column with an inverted index →
  posting-list scan.

Whichever conjunct matched becomes the driving constraint; the *full*
predicate is always re-checked against fetched rows (residual filter), so
a wrong cardinality guess can never return wrong answers.  With several
candidates the planner prefers equality over contains over range —
PostgreSQL's selectivity ordering for this schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ALWAYS, Cmp, Contains, Expr
from .schema import Catalog, IndexInfo

_RANGE_OPS = ("<", "<=", ">", ">=")
_PREFERENCE = {"eq": 0, "contains": 1, "range": 2}


@dataclass
class Plan:
    """The chosen access path for one statement."""

    kind: str                       # 'seqscan' | 'indexscan'
    table: str
    predicate: Expr
    index: IndexInfo | None = None
    op: str | None = None           # 'eq' | 'contains' | 'range'
    value: object = None            # constant for eq/contains
    lo: object = None               # bounds for range
    hi: object = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True
    #: True when the index lookup alone satisfies the whole predicate
    #: (single eq/contains conjunct, non-NULL constant): the executor may
    #: skip the residual re-check.  Only the cached planner sets this.
    exact: bool = False

    def describe(self) -> str:
        if self.kind == "seqscan":
            return f"SeqScan({self.table})"
        assert self.index is not None
        if self.op == "range":
            return (
                f"IndexScan({self.table} via {self.index.name}: "
                f"{self.lo!r}..{self.hi!r})"
            )
        return f"IndexScan({self.table} via {self.index.name}: {self.op} {self.value!r})"


def _candidates(predicate: Expr, indices_by_column: dict[str, IndexInfo]):
    for conjunct in predicate.conjuncts():
        if isinstance(conjunct, Cmp) and conjunct.column in indices_by_column:
            info = indices_by_column[conjunct.column]
            if info.kind != "btree":
                continue
            if conjunct.op == "=":
                yield "eq", conjunct, info
            elif conjunct.op in _RANGE_OPS:
                yield "range", conjunct, info
        elif isinstance(conjunct, Contains) and conjunct.column in indices_by_column:
            info = indices_by_column[conjunct.column]
            if info.kind == "inverted":
                yield "contains", conjunct, info


def _build_plan(table: str, predicate: Expr, op: str, conjunct: Expr, info: IndexInfo) -> Plan:
    if op == "eq":
        return Plan(
            kind="indexscan", table=table, predicate=predicate,
            index=info, op="eq", value=conjunct.value,
        )
    if op == "contains":
        return Plan(
            kind="indexscan", table=table, predicate=predicate,
            index=info, op="contains", value=conjunct.token,
        )
    # range
    assert isinstance(conjunct, Cmp)
    plan = Plan(kind="indexscan", table=table, predicate=predicate, index=info, op="range")
    if conjunct.op in ("<", "<="):
        plan.hi = conjunct.value
        plan.hi_inclusive = conjunct.op == "<="
    else:
        plan.lo = conjunct.value
        plan.lo_inclusive = conjunct.op == ">="
    return plan


def _conjunct_shape(conjunct: Expr) -> tuple:
    """Structural key of a conjunct: what it constrains, not its constant."""
    if isinstance(conjunct, Cmp):
        return ("cmp", conjunct.column, conjunct.op)
    if isinstance(conjunct, Contains):
        return ("contains", conjunct.column)
    return ("opaque", type(conjunct).__name__)


class CatalogVersionedCache(dict):
    """A dict emptied whenever the catalog's DDL version moves.

    Every executor-side cache (plan shapes, projections, prepared point
    lookups) keys its validity off ``catalog.version``; this holds that
    check-and-clear rule in one place.  Call :meth:`sync` before reading.
    """

    def __init__(self, catalog: Catalog) -> None:
        super().__init__()
        self._catalog = catalog
        self._version = catalog.version

    def sync(self) -> None:
        if self._catalog.version != self._version:
            self.clear()
            self._version = self._catalog.version


class PlanCache:
    """Memoised access-path selection, keyed by predicate *shape*.

    Access-path choice depends only on which columns/operators a
    predicate's conjuncts constrain and on the catalog's indices — not on
    the constants.  Hot statement streams (point SELECTs in a pipelined
    batch) re-plan the same shape thousands of times; this cache reduces
    that to a dict lookup plus rebinding the constants.  Any DDL bumps
    ``catalog.version``, which empties the cache, so a cached choice can
    never outlive the indices it was made against.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        #: (table, shape) -> None (seqscan) or (conjunct position, op, IndexInfo)
        self._choices: CatalogVersionedCache = CatalogVersionedCache(catalog)

    def plan(self, table: str, predicate: Expr | None) -> Plan:
        predicate = predicate if predicate is not None else ALWAYS
        self._choices.sync()
        conjuncts = predicate.conjuncts()
        key = (table, tuple(_conjunct_shape(c) for c in conjuncts))
        try:
            choice = self._choices[key]
        except KeyError:
            choice = self._choose(table, conjuncts)
            self._choices[key] = choice
        if choice is None:
            return Plan(kind="seqscan", table=table, predicate=predicate)
        position, op, info = choice
        plan = _build_plan(table, predicate, op, conjuncts[position], info)
        # A lone eq/contains conjunct is answered exactly by its index
        # lookup (NULL constants excepted: SQL's three-valued logic says
        # ``col = NULL`` matches nothing, but a B-tree stores NULL keys).
        if len(conjuncts) == 1 and op in ("eq", "contains") and plan.value is not None:
            plan.exact = True
        return plan

    def _choose(self, table: str, conjuncts: list[Expr]) -> tuple | None:
        indices_by_column = {
            info.column: info for info in self._catalog.indices_for(table)
        }
        positions = {id(c): i for i, c in enumerate(conjuncts)}
        best: tuple[int, int, str, IndexInfo] | None = None
        for conjunct in conjuncts:
            for op, matched, info in _candidates(conjunct, indices_by_column):
                rank = _PREFERENCE[op]
                if best is None or rank < best[0]:
                    best = (rank, positions[id(matched)], op, info)
        if best is None:
            return None
        _, position, op, info = best
        return (position, op, info)
