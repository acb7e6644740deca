"""minisql — PostgreSQL-like relational engine (the paper's RDBMS stand-in)."""

from .btree import BTreeIndex, InvertedIndex, ORDER
from .csvlog import CSVLogger
from .database import Database, MiniSQLConfig
from .executor import Executor
from .expr import (
    ALWAYS,
    And,
    Cmp,
    Contains,
    Expr,
    In,
    IsNull,
    Like,
    Not,
    Or,
    TrueExpr,
)
from .heap import HeapTable, RowCodec
from .planner import Plan, PlanCache
from .schema import Catalog, Column, IndexInfo, TableSchema
from .sharded import (
    ShardedDatabase,
    ShardedSQLPipeline,
    SQLShardConnectionError,
    open_database,
    shard_store_path,
)
from .sql import execute, tokenize
from .storage import Storage
from .transaction import LockManager, Transaction
from .ttl_daemon import TTLSweeper
from .types import (
    BYTES,
    FLOAT,
    INTEGER,
    TEXT,
    TEXT_LIST,
    TIMESTAMP,
    SQLType,
    type_by_name,
)
from .wal import WALWriter, load_wal

__all__ = [
    "Database",
    "MiniSQLConfig",
    "ShardedDatabase",
    "ShardedSQLPipeline",
    "SQLShardConnectionError",
    "open_database",
    "shard_store_path",
    "Storage",
    "Executor",
    "Transaction",
    "LockManager",
    "PlanCache",
    "Column",
    "TableSchema",
    "Catalog",
    "IndexInfo",
    "BTreeIndex",
    "InvertedIndex",
    "ORDER",
    "HeapTable",
    "RowCodec",
    "Plan",
    "TTLSweeper",
    "CSVLogger",
    "WALWriter",
    "load_wal",
    "execute",
    "tokenize",
    "SQLType",
    "INTEGER",
    "FLOAT",
    "TEXT",
    "BYTES",
    "TIMESTAMP",
    "TEXT_LIST",
    "type_by_name",
    "Expr",
    "Cmp",
    "Contains",
    "In",
    "IsNull",
    "Like",
    "And",
    "Or",
    "Not",
    "TrueExpr",
    "ALWAYS",
]
