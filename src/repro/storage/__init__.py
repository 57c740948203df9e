"""Embedded relational storage engine.

This package is the substrate under everything else: a small, fully
transactional, indexed, typed row store with a write-ahead log.  The
original B-Fabric deployment sat on a commercial RDBMS; this engine
reproduces the semantics the system relies on — typed columns, primary
key / unique / foreign-key / not-null / check constraints, secondary
indexes, atomic multi-table transactions with rollback, durable commits
via a WAL, crash recovery, and a query interface with index-backed
filtering, ordering, and pagination.

Quick tour::

    from repro.storage import Database, TableSchema, Column, ColumnType

    db = Database()
    db.create_table(TableSchema(
        name="sample",
        columns=[
            Column("id", ColumnType.INT, primary_key=True),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("project_id", ColumnType.INT,
                   foreign_key="project.id"),
        ],
        indexes=["name", "project_id"],
    ))
    with db.transaction() as txn:
        txn.insert("sample", {"name": "wt light 1", "project_id": 1})
"""

from repro.storage.types import ColumnType
from repro.storage.schema import Column, TableSchema, ForeignKey
from repro.storage.durability import Durability
from repro.storage.index import OrderedIndex
from repro.storage.query import Plan, Query, QueryCache, F
from repro.storage.stats import TableStatistics
from repro.storage.snapshot import Snapshot
from repro.storage.database import Database
from repro.storage.transaction import Transaction
from repro.storage.wal import WriteAheadLog

__all__ = [
    "ColumnType",
    "Column",
    "TableSchema",
    "ForeignKey",
    "Durability",
    "Database",
    "Transaction",
    "Query",
    "QueryCache",
    "Plan",
    "OrderedIndex",
    "TableStatistics",
    "Snapshot",
    "F",
    "WriteAheadLog",
]
