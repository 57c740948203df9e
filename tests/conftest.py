"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime as dt
import os

import pytest

from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util.clock import ManualClock

#: ``REPRO_TEST_SHARDS=N`` (N >= 2) reruns a suite with every
#: ``BFabric`` facade that does not pass ``shards`` itself backed by a
#: ``ShardedDatabase`` coordinator with N shards instead of a bare
#: ``Database`` — the drop-in compatibility check (CI runs the
#: facade/ORM/portal suites with N=2; N=1 is a plain ``Database``, so it
#: checks nothing).  Tests that construct ``Database`` directly are
#: storage-internal and unaffected.
_SHARDS = os.environ.get("REPRO_TEST_SHARDS")
if _SHARDS:
    from repro.facade import BFabric as _BFabric

    _original_init = _BFabric.__init__

    def _sharded_init(self, path=None, **kwargs):
        kwargs.setdefault("shards", int(_SHARDS))
        _original_init(self, path, **kwargs)

    _BFabric.__init__ = _sharded_init


@pytest.fixture
def db() -> Database:
    """A fresh in-memory database."""
    return Database()


@pytest.fixture
def clock() -> ManualClock:
    """A deterministic clock starting at 2010-01-15 09:00."""
    return ManualClock(start=dt.datetime(2010, 1, 15, 9, 0, 0))


@pytest.fixture
def people_db() -> Database:
    """A tiny two-table database used across storage tests."""
    database = Database()
    database.create_table(
        TableSchema(
            name="org",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT, nullable=False, unique=True),
            ],
            indexes=["name"],
        )
    )
    database.create_table(
        TableSchema(
            name="person",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT, nullable=False),
                Column("age", ColumnType.INT),
                Column("org_id", ColumnType.INT, foreign_key="org.id"),
            ],
            indexes=["name", "org_id", "age", ("org_id", "age")],
        )
    )
    return database
