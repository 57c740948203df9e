"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util.clock import ManualClock


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
