"""Predicate expression trees for minisql WHERE clauses.

Expressions evaluate against a positional row given the table schema.  The
planner inspects conjunctive trees for index-usable constraints (equality
on scalar columns, CONTAINS on TEXT_LIST columns, range bounds on scalars),
so each node also reports what it constrains.
"""

from __future__ import annotations

import fnmatch
import operator
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import SQLError

from .schema import TableSchema

_CMP_OPS: dict[str, Callable] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expr:
    """Base class for predicate nodes."""

    def evaluate(self, row: tuple, schema: TableSchema) -> bool:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns the predicate touches."""
        raise NotImplementedError

    def conjuncts(self) -> list["Expr"]:
        """Flatten top-level ANDs into a list (self if not an AND)."""
        return [self]

    def __and__(self, other: "Expr") -> "Expr":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)


@dataclass(frozen=True)
class Cmp(Expr):
    """column <op> constant comparison."""

    column: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise SQLError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row, schema):
        actual = row[schema.column_index(self.column)]
        if actual is None:
            return False  # SQL three-valued logic: NULL compares unknown
        return _CMP_OPS[self.op](actual, self.value)

    def columns(self):
        return {self.column}


@dataclass(frozen=True)
class Contains(Expr):
    """TEXT_LIST column contains a token (minisql's ``@>`` / ANY)."""

    column: str
    token: str

    def evaluate(self, row, schema):
        actual = row[schema.column_index(self.column)]
        if actual is None:
            return False
        return self.token in actual

    def columns(self):
        return {self.column}


@dataclass(frozen=True)
class In(Expr):
    """column IN (v1, v2, ...)."""

    column: str
    values: tuple

    def evaluate(self, row, schema):
        actual = row[schema.column_index(self.column)]
        if actual is None:
            return False
        return actual in self.values

    def columns(self):
        return {self.column}


@dataclass(frozen=True)
class Like(Expr):
    """Glob-style pattern match on a TEXT column (``*`` and ``?``)."""

    column: str
    pattern: str

    def evaluate(self, row, schema):
        actual = row[schema.column_index(self.column)]
        if actual is None:
            return False
        return fnmatch.fnmatchcase(actual, self.pattern)

    def columns(self):
        return {self.column}


@dataclass(frozen=True)
class IsNull(Expr):
    column: str

    def evaluate(self, row, schema):
        return row[schema.column_index(self.column)] is None

    def columns(self):
        return {self.column}


class And(Expr):
    def __init__(self, *children: Expr) -> None:
        if not children:
            raise SQLError("AND needs at least one child")
        self.children = children

    def evaluate(self, row, schema):
        return all(c.evaluate(row, schema) for c in self.children)

    def columns(self):
        out: set[str] = set()
        for child in self.children:
            out |= child.columns()
        return out

    def conjuncts(self):
        out: list[Expr] = []
        for child in self.children:
            out.extend(child.conjuncts())
        return out

    def __repr__(self):
        return "And(%s)" % ", ".join(repr(c) for c in self.children)


class Or(Expr):
    def __init__(self, *children: Expr) -> None:
        if not children:
            raise SQLError("OR needs at least one child")
        self.children = children

    def evaluate(self, row, schema):
        return any(c.evaluate(row, schema) for c in self.children)

    def columns(self):
        out: set[str] = set()
        for child in self.children:
            out |= child.columns()
        return out

    def __repr__(self):
        return "Or(%s)" % ", ".join(repr(c) for c in self.children)


class Not(Expr):
    def __init__(self, child: Expr) -> None:
        self.child = child

    def evaluate(self, row, schema):
        return not self.child.evaluate(row, schema)

    def columns(self):
        return self.child.columns()

    def __repr__(self):
        return f"Not({self.child!r})"


class TrueExpr(Expr):
    """Matches every row; the implicit WHERE of an unfiltered statement."""

    def evaluate(self, row, schema):
        return True

    def columns(self):
        return set()

    def __repr__(self):
        return "TrueExpr()"


ALWAYS = TrueExpr()
