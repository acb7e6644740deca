"""A tiny SQL front-end for minisql.

Covers the statement shapes the examples and docs use — it is a
convenience layer over the programmatic API, not a full SQL implementation:

    CREATE TABLE t (name TYPE [NOT NULL], ... [, PRIMARY KEY (col)])
    CREATE [UNIQUE] INDEX idx ON t (col)
    DROP INDEX idx
    DROP TABLE t
    INSERT INTO t (a, b) VALUES (1, 'x')
    SELECT a, b FROM t [WHERE ...] [ORDER BY col [DESC]] [LIMIT n]
    SELECT COUNT(*) FROM t [WHERE ...]
    UPDATE t SET a = 1 [WHERE ...]
    DELETE FROM t [WHERE ...]
    VACUUM [t]
    EXPLAIN SELECT ... FROM t [WHERE ...]

WHERE supports comparisons (=, !=, <, <=, >, >=), CONTAINS(col, 'tok'),
IS NULL / IS NOT NULL, AND/OR/NOT with parentheses, IN (...), and LIKE
(glob-style).  Literals: integers, floats, single-quoted strings, NULL.

:func:`execute` runs one statement against a :class:`Database` **or** a
:class:`~repro.minisql.transaction.Transaction` — both expose the same
statement surface.
"""

from __future__ import annotations

import re

from repro.common.errors import ParseError

from .database import Database
from .expr import (
    And,
    Cmp,
    Contains,
    Expr,
    In,
    IsNull,
    Like,
    Not,
    Or,
)
from .schema import Column
from .types import type_by_name

_TOKEN_RE = re.compile(
    r"""
    \s*(
        '(?:[^']|'')*'            # string literal (with '' escape)
        | [A-Za-z_][A-Za-z_0-9]*  # identifier / keyword
        | -?\d+\.\d+              # float
        | -?\d+                   # int
        | <= | >= | != | <>       # two-char operators
        | [(),=<>*]               # single-char tokens
    )
    """,
    re.VERBOSE,
)

def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"cannot tokenize near {remainder[:20]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of statement")
        self._pos += 1
        return token

    def expect(self, keyword: str) -> None:
        token = self.next()
        if token.lower() != keyword.lower():
            raise ParseError(f"expected {keyword!r}, got {token!r}")

    def accept(self, keyword: str) -> bool:
        token = self.peek()
        if token is not None and token.lower() == keyword.lower():
            self._pos += 1
            return True
        return False

    def done(self) -> bool:
        return self._pos >= len(self._tokens)

    def identifier(self) -> str:
        token = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token):
            raise ParseError(f"expected identifier, got {token!r}")
        return token

    def literal(self):
        token = self.next()
        if token.startswith("'"):
            return token[1:-1].replace("''", "'")
        if token.lower() == "null":
            return None
        try:
            return int(token)
        except ValueError:
            pass
        try:
            return float(token)
        except ValueError:
            raise ParseError(f"expected literal, got {token!r}") from None

    # -- WHERE grammar: or_expr := and_expr (OR and_expr)* ----------------

    def parse_where(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        children = [left]
        while self.accept("or"):
            children.append(self._and_expr())
        return children[0] if len(children) == 1 else Or(*children)

    def _and_expr(self) -> Expr:
        left = self._unary()
        children = [left]
        while self.accept("and"):
            children.append(self._unary())
        return children[0] if len(children) == 1 else And(*children)

    def _unary(self) -> Expr:
        if self.accept("not"):
            return Not(self._unary())
        if self.accept("("):
            inner = self._or_expr()
            self.expect(")")
            return inner
        if self.peek() is not None and self.peek().lower() == "contains":
            self.next()
            self.expect("(")
            column = self.identifier()
            self.expect(",")
            token = self.literal()
            self.expect(")")
            if not isinstance(token, str):
                raise ParseError("CONTAINS token must be a string")
            return Contains(column, token)
        column = self.identifier()
        op = self.next()
        if op.lower() == "is":
            if self.accept("not"):
                self.expect("null")
                return Not(IsNull(column))
            self.expect("null")
            return IsNull(column)
        if op.lower() == "in":
            self.expect("(")
            values = [self.literal()]
            while self.accept(","):
                values.append(self.literal())
            self.expect(")")
            return In(column, tuple(values))
        if op.lower() == "like":
            pattern = self.literal()
            if not isinstance(pattern, str):
                raise ParseError("LIKE pattern must be a string")
            return Like(column, pattern)
        if op == "<>":
            op = "!="
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise ParseError(f"unknown operator {op!r}")
        return Cmp(column, op, self.literal())


def execute(db, statement: str):
    """Parse and run one SQL statement against ``db``.

    ``db`` is a :class:`Database` or an open
    :class:`~repro.minisql.transaction.Transaction` (DDL statements are
    rejected by the latter).  Returns: list-of-dicts for SELECT, int for
    COUNT/UPDATE/DELETE/VACUUM, rid for INSERT, plan string for EXPLAIN,
    None for DDL.
    """
    parser = _Parser(tokenize(statement))
    head = parser.next().lower()

    if head == "create":
        if parser.accept("table"):
            return _create_table(db, parser)
        unique = parser.accept("unique")
        parser.expect("index")
        name = parser.identifier()
        parser.expect("on")
        table = parser.identifier()
        parser.expect("(")
        column = parser.identifier()
        parser.expect(")")
        db.create_index(name, table, column, unique=unique)
        return None

    if head == "drop":
        if parser.accept("table"):
            db.drop_table(parser.identifier())
        else:
            parser.expect("index")
            db.drop_index(parser.identifier())
        return None

    if head == "insert":
        parser.expect("into")
        table = parser.identifier()
        parser.expect("(")
        names = [parser.identifier()]
        while parser.accept(","):
            names.append(parser.identifier())
        parser.expect(")")
        parser.expect("values")
        parser.expect("(")
        values = [parser.literal()]
        while parser.accept(","):
            values.append(parser.literal())
        parser.expect(")")
        if len(names) != len(values):
            raise ParseError("INSERT column/value count mismatch")
        return db.insert(table, dict(zip(names, values)))

    if head == "select":
        return _select(db, parser)

    if head == "explain":
        parser.expect("select")
        saved = _select_parts(parser)
        return db.explain(saved["table"], saved["where"])

    if head == "update":
        table = parser.identifier()
        parser.expect("set")
        assignments = {}
        while True:
            column = parser.identifier()
            parser.expect("=")
            assignments[column] = parser.literal()
            if not parser.accept(","):
                break
        where = parser.parse_where() if parser.accept("where") else None
        return db.update(table, assignments, where)

    if head == "delete":
        parser.expect("from")
        table = parser.identifier()
        where = parser.parse_where() if parser.accept("where") else None
        return db.delete(table, where)

    if head == "vacuum":
        table = parser.identifier() if not parser.done() else None
        return db.vacuum(table)

    raise ParseError(f"unknown statement head {head!r}")


def _create_table(db: Database, parser: _Parser):
    name = parser.identifier()
    parser.expect("(")
    columns: list[Column] = []
    primary_key = None
    while True:
        if parser.accept("primary"):
            parser.expect("key")
            parser.expect("(")
            primary_key = parser.identifier()
            parser.expect(")")
        else:
            cname = parser.identifier()
            tname = parser.identifier()
            nullable = True
            if parser.accept("not"):
                parser.expect("null")
                nullable = False
            columns.append(Column(cname, type_by_name(tname), nullable))
        if not parser.accept(","):
            break
    parser.expect(")")
    db.create_table(name, columns, primary_key=primary_key)
    return None


_AGGREGATE_NAMES = ("count", "sum", "min", "max", "avg")


def _select_parts(parser: _Parser) -> dict:
    """Everything after SELECT, shared by SELECT and EXPLAIN SELECT."""
    columns: list[str] | None = None
    aggregate = None       # (function, column | None)
    head = parser.peek()
    if head is not None and head.lower() in _AGGREGATE_NAMES:
        function = parser.next().lower()
        parser.expect("(")
        if parser.accept("*"):
            if function != "count":
                raise ParseError(f"{function.upper()}(*) is not valid SQL")
            agg_column = None
        else:
            agg_column = parser.identifier()
        parser.expect(")")
        aggregate = (function, agg_column)
    elif parser.accept("*"):
        columns = None
    else:
        columns = [parser.identifier()]
        while parser.accept(","):
            columns.append(parser.identifier())
    parser.expect("from")
    table = parser.identifier()
    where = parser.parse_where() if parser.accept("where") else None
    group_by = None
    if parser.accept("group"):
        parser.expect("by")
        group_by = parser.identifier()
        if aggregate is None:
            raise ParseError("GROUP BY requires an aggregate select")
    order_by = None
    descending = False
    if parser.accept("order"):
        parser.expect("by")
        order_by = parser.identifier()
        if parser.accept("desc"):
            descending = True
        else:
            parser.accept("asc")
    limit = None
    if parser.accept("limit"):
        value = parser.literal()
        if not isinstance(value, int):
            raise ParseError("LIMIT must be an integer")
        limit = value
    return {
        "columns": columns,
        "aggregate": aggregate,
        "group_by": group_by,
        "table": table,
        "where": where,
        "order_by": order_by,
        "descending": descending,
        "limit": limit,
    }


def _select(db: Database, parser: _Parser):
    parts = _select_parts(parser)
    if parts["aggregate"] is not None:
        function, agg_column = parts["aggregate"]
        if function == "count" and agg_column is None and parts["group_by"] is None:
            return db.count(parts["table"], parts["where"])
        return db.aggregate(
            parts["table"], function, column=agg_column,
            where=parts["where"], group_by=parts["group_by"],
        )
    return db.select(
        parts["table"],
        where=parts["where"],
        columns=parts["columns"],
        limit=parts["limit"],
        order_by=parts["order_by"],
        descending=parts["descending"],
    )
