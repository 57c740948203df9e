"""An ordered index keys a plain-typed column by its own values.

* Every read of an ordered index — ``members``, ``seek``,
  ``estimate_range``, ``min_key``/``max_key`` — and every plan the
  planner can choose answers what a :func:`sort_key`-ordered scan
  answers, over INT, FLOAT, TEXT, BOOL, DATETIME (naive and aware) and
  JSON columns with NULLs, probed with values of every type family.
* On a generated deployment, plain-typed indexes hold bare values: no
  tuple, no wrapper, and NULL as the sentinel at the head.
* Probing a plain-typed index never calls :func:`sort_key`.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage import index as index_module
from repro.storage.index import NULL, OrderedIndex
from repro.storage.types import PLAIN_TYPES, sort_key, sort_rank

UTC = dt.timezone.utc
PLUS_TWO = dt.timezone(dt.timedelta(hours=2))
INSTANT = dt.datetime(2010, 1, 1, 12, tzinfo=UTC)

COLUMNS = {
    "i": ColumnType.INT,
    "f": ColumnType.FLOAT,
    "s": ColumnType.TEXT,
    "b": ColumnType.BOOL,
    "d": ColumnType.DATETIME,
    "j": ColumnType.JSON,
}
COMPOSITES = [("i", "s"), ("b", "d"), ("s", "f")]

VALUES = {
    "i": st.integers(min_value=-2, max_value=3),
    "f": st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.0]),
    "s": st.sampled_from(["", "0", "1", "a", "b"]),
    "b": st.booleans(),
    "d": st.sampled_from(
        [
            dt.datetime(2010, 1, 1, 12),
            dt.datetime(2010, 1, 2),
            INSTANT,
            INSTANT.astimezone(PLUS_TWO),
            dt.datetime(2009, 12, 31, tzinfo=PLUS_TWO),
        ]
    ),
    # Bools and floats inside containers too: [1] == [True] == [1.0].
    "j": st.one_of(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["1", "a"]),
        st.lists(st.sampled_from([0, 1, True, False, 1.0, 0.5]), max_size=2),
        st.dictionaries(
            st.sampled_from("xy"), st.sampled_from([0, 1, True, 1.0]), max_size=1
        ),
    ),
}

#: Probe values and bounds of every type family.
PROBES = [
    None,
    0,
    1,
    True,
    False,
    1.0,
    0.5,
    "1",
    "a",
    dt.datetime(2010, 1, 1, 12),
    INSTANT,
    [1],
    {"x": 1},
]

#: Containers == to a probe above but spelled with a bool or a float.
CONTAINER_TWINS = [[True], {"x": 1.0}]


def make_db() -> Database:
    db = Database(query_cache_size=0)
    db.create_table(
        TableSchema(
            "t",
            [Column("id", ColumnType.INT, primary_key=True)]
            + [Column(name, kind) for name, kind in COLUMNS.items()],
            indexes=list(COLUMNS),
            ordered=COMPOSITES,
        )
    )
    return db


def sk(raw: tuple) -> tuple:
    return tuple(sort_key(value) for value in raw)


def groups(rows, columns) -> "dict[tuple, set]":
    """sort_key of each distinct key -> pks filed under it."""
    out: dict[tuple, set] = {}
    for row in rows:
        out.setdefault(sk(tuple(row[c] for c in columns)), set()).add(row["id"])
    return out


def in_seek(key: tuple, prefix: tuple, low, high, include_low, include_high,
            exclude_null) -> bool:
    """Whether a key (sort_key form) lies in a seek, by sort_key order."""
    if key[: len(prefix)] != sk(prefix):
        return False
    if len(prefix) == len(key):
        return True
    part = key[len(prefix)]
    if low is not None:
        bound = sort_key(low)
        if part < bound or (part == bound and not include_low):
            return False
    elif exclude_null and part == sort_key(None):
        return False
    if high is not None:
        bound = sort_key(high)
        if part > bound or (part == bound and not include_high):
            return False
    return True


rows_strategy = st.lists(
    st.fixed_dictionaries(
        {name: st.one_of(st.none(), values) for name, values in VALUES.items()}
    ),
    max_size=14,
)
probe = st.sampled_from(PROBES + CONTAINER_TWINS)
bound = st.one_of(st.none(), probe)


class TestEveryReadMatchesASortKeyScan:
    @given(data=st.data(), rows=rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_index_reads(self, data, rows):
        db = make_db()
        for row in rows:
            db.insert("t", row)
        # A delete and an update, so removal and refiling run too.
        if len(rows) > 1:
            db.delete("t", 1)
            db.update("t", len(rows), {"s": data.draw(VALUES["s"])})
        live = list(db.rows("t"))
        table = db.table("t")
        assert db.verify_integrity() == []
        for index in table.ordered_indexes():
            cols = index.columns
            filed = groups(live, cols)
            by_pk = {row["id"]: row for row in live}
            # members: one probe per full key, of any type family.
            key = tuple(data.draw(probe, label=f"{index.name} key") for _ in cols)
            assert set(index.members(key)) == filed.get(sk(key), set())
            # seek + estimate_range over a prefix and mixed-type bounds.
            prefix = tuple(
                data.draw(probe) for _ in range(data.draw(st.integers(0, len(cols) - 1)))
            )
            low, high = data.draw(bound), data.draw(bound)
            include_low, include_high, descending, exclude_null = (
                data.draw(st.booleans()) for _ in range(4)
            )
            expected = sorted(
                (key, frozenset(pks))
                for key, pks in filed.items()
                if in_seek(key, prefix, low, high, include_low, include_high,
                           exclude_null)
            )
            if descending:
                expected.reverse()
            entries = [
                (index.raw_key(key), pks)
                for key, pks in index.seek(
                    prefix, low, high,
                    include_low=include_low,
                    include_high=include_high,
                    descending=descending,
                    exclude_null=exclude_null,
                )
            ]
            assert [(sk(raw), frozenset(pks)) for raw, pks in entries] == expected
            # The raw key is what each filed row holds.
            for raw, pks in entries:
                assert all(index.key_for(by_pk[pk]) == raw for pk in pks)
            keys, _rows = index.estimate_range(
                prefix, low, high,
                include_low=include_low,
                include_high=include_high,
                exclude_null=exclude_null,
            )
            assert keys == len(expected)
            # min_key / max_key.
            if filed:
                assert sk(index.min_key()) == min(filed)
                assert sk(index.max_key()) == max(filed)
            else:
                assert index.min_key() is None and index.max_key() is None

    @given(
        rows=rows_strategy,
        column=st.sampled_from(sorted(COLUMNS)),
        conditions=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["=", "<", "<=", ">", ">="]), probe),
                # IN lists, with a tuple no JSON column stores beside
                # the list it dumps like.
                st.tuples(st.just("in"), st.lists(probe | st.just((1,)), max_size=3)),
            ),
            min_size=1,
            max_size=2,
        ),
        descending=st.booleans(),
        limit=st.one_of(st.none(), st.integers(1, 3)),
        prefix_value=st.one_of(st.none(), probe),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_forced_plan(self, rows, column, conditions, descending,
                               limit, prefix_value):
        db = make_db()
        for row in rows:
            db.insert("t", row)
        live = list(db.rows("t"))

        def build(source):
            query = source.query("t")
            if prefix_value is not None and column in ("s", "d", "f"):
                # Equality on a composite's leading column: prefix seeks.
                lead = {"s": "i", "d": "b", "f": "s"}[column]
                query = query.where(lead, "=", prefix_value)
            for op, value in conditions:
                query = query.where(column, op, value)
            query = query.order_by(column, descending=descending).order_by("id")
            return query if limit is None else query.limit(limit)

        scan = build(db).without_indexes()
        expected = [
            row for row in sorted(live, key=lambda r: r["id"])
            if all(cond.matches(row) for cond in scan._conditions)
        ]
        expected.sort(key=lambda r: sort_key(r[column]), reverse=descending)
        expected = expected[:limit]
        assert scan.all() == expected

        query = build(db)
        for plan in query._candidate_plans(for_snapshot=False):
            forced = build(db)
            forced._plan = lambda plan=plan: plan
            assert forced.all() == expected, plan.strategy
        with db.snapshot() as snap:
            for plan in build(snap)._candidate_plans(for_snapshot=True):
                forced = build(snap)
                forced._plan_live = lambda for_snapshot=False, plan=plan: plan
                assert forced.all() == expected, plan.strategy


@pytest.mark.parametrize(
    "value", PROBES + [2.5, "", dt.date(2010, 1, 1), (1,)] + CONTAINER_TWINS
)
def test_sort_rank_is_the_sort_key_tag(value):
    assert sort_rank(value) == sort_key(value)[0]


class TestKeyLayout:
    def test_generated_deployment_holds_bare_values(self):
        from repro.facade import BFabric
        from repro.workload import DeploymentGenerator, FGCZ_JANUARY_2010

        system = BFabric()
        DeploymentGenerator(system, seed=2010).generate(FGCZ_JANUARY_2010.scaled(0.02))
        db = system.db
        checked = with_null = 0
        for name in db.table_names():
            table = db.table(name)
            for index in table.ordered_indexes():
                types = [table.schema.column(c).type for c in index.columns]
                if not all(t in PLAIN_TYPES for t in types):
                    continue
                keys = index._sorted_keys
                for position, key in enumerate(keys):
                    parts = (key,) if len(index.columns) == 1 else key
                    if len(index.columns) > 1:
                        assert type(key) is tuple
                    for part, kind in zip(parts, types):
                        if part is NULL:
                            assert position == 0 or len(index.columns) > 1
                        else:
                            assert type(part) is PLAIN_TYPES[kind], (index.name, key)
                assert set(index._by_key) == set(keys)
                checked += len(keys)
                with_null += bool(keys) and keys[0] is NULL
        assert checked > 1000 and with_null > 0
        assert db.verify_integrity() == []
        system.close()

    def test_probing_a_plain_index_never_calls_sort_key(self, monkeypatch):
        db = make_db()
        for pk in range(1, 30):
            db.insert("t", {"i": pk % 7 or None, "s": f"n{pk % 5}", "d": INSTANT})
        calls = []

        def counting(value):
            calls.append(value)
            return sort_key(value)

        monkeypatch.setattr(index_module, "sort_key", counting)
        table = db.table("t")
        for column, probes in (("i", [3, True, 1.0, "1", None, 2.5, INSTANT]),
                               ("s", ["n1", 1, "zz", None, INSTANT])):
            index = table.ordered_index_for((column,))
            for value in probes:
                index.members((value,))
                index.bucket_size((value,))
                index.lookup((value,))
                index.estimate_range((value,))
                for low, high in ((value, None), (None, value), (value, value)):
                    for descending in (False, True):
                        list(index.seek((), low, high, descending=descending,
                                        exclude_null=True))
                        index.estimate_range((), low, high, include_low=False)
                list(index.range_pks(low=value if value is not None else 0))
            index.min_key()
            index.max_key()
            list(index.entries())
        composite = table.ordered_index_for(("i", "s"))
        list(composite.seek((3,), low="n0", high="n4"))
        composite.members((3, "n3"))
        assert calls == []
        # The patch is live: a DATETIME probe does go through sort_key.
        table.ordered_index_for(("d",)).members((INSTANT,))
        assert calls == [INSTANT]

    def test_equal_values_of_one_family_share_a_key(self):
        index = OrderedIndex(
            "t", ("b",), (ColumnType.BOOL,)
        )
        index.add({"b": True}, 1)
        index.add({"b": None}, 2)
        assert index._sorted_keys == [NULL, True]
        assert set(index.members((1,))) == set(index.members((1.0,))) == {1}
        assert list(index.range_pks(low="1")) == []
        assert list(index.range_pks(high="1", exclude_null=True)) == [1]
        assert list(index.range_pks(high=dt.datetime(2010, 1, 1))) == [2, 1]
