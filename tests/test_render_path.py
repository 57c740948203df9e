"""The cold render path, layer by layer.

* ``esc`` gives ``html.escape(str(v), quote=True)``'s bytes for every
  kind of value, through its fast paths;
* models hydrate from shared rows with one copy, as the old per-field
  loop did, and never alias a row a later query returns;
* a primary-key ``IN`` list is a pk-set plan that returns what a scan
  returns, live and on a pinned snapshot;
* ``repro serve`` freezes the collector's view of its warmed-up heap;
* list tables escape user text (the project page's hand-built rows
  give table()'s bytes), and the search screen's links carry their
  query verbatim.
"""

from __future__ import annotations

import datetime as dt
import gc
import html
import re
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings, strategies as st

from repro.facade import BFabric
from repro.orm import IntField, JsonField, Model, TextField
from repro.orm.repository import ModelQuery, Repository
from repro.portal import PortalApplication
from repro.portal.render import Html, esc, link, table
from repro.portal.testing import PortalClient
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util.clock import ManualClock

# -- esc ------------------------------------------------------------------------

_TEXT = st.text(alphabet=st.sampled_from("ab <>&\"' é\n"), max_size=12)
_VALUES = st.one_of(
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.none(),
    st.datetimes(),
    st.dictionaries(_TEXT, st.one_of(st.integers(), _TEXT), max_size=3),
    _TEXT,
    st.text(max_size=12),
)


@given(_VALUES)
def test_esc_matches_html_escape(value):
    assert esc(value) == html.escape(str(value), quote=True)


@given(_TEXT, _TEXT)
def test_link_and_table_escape_like_html_escape(href, label):
    quote = lambda v: html.escape(str(v), quote=True)  # noqa: E731
    anchor = link(href, label)
    assert isinstance(anchor, Html)
    assert anchor == f'<a href="{quote(href)}">{quote(label)}</a>'
    rows = [(1, anchor, label, None, 2.5)]
    cells = f"<td>1</td><td>{anchor}</td><td>{quote(label)}</td><td>None</td><td>2.5</td>"
    assert table(["a"], rows) == (
        f"<table><tr><th>a</th></tr><tr>{cells}</tr></table>"
    )
    assert table([], [()]) == "<table><tr></tr><tr></tr></table>"


# -- hydration ------------------------------------------------------------------


class Item(Model):
    __table__ = "item"
    id = IntField(primary_key=True)
    name = TextField()
    size = IntField()
    tags = JsonField()
    note = TextField()  # added to the table by a migration below


def _old_from_row(cls, row):
    """The per-field loop hydration replaced."""
    instance = cls.__new__(cls)
    for name in cls.__fields__:
        if name in row:
            instance.__dict__[name] = row[name]
    return instance


_COLUMNS = ["id", "name", "size", "tags", "note", "extra"]
_ROWS = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            column: st.one_of(st.integers(), _TEXT, st.none())
            for column in _COLUMNS
        },
    ),
    max_size=6,
)


@given(_ROWS)
def test_from_rows_equals_the_per_field_loop(rows):
    columns = sorted({key for row in rows for key in row})
    models = Item.from_rows(rows, columns)
    assert [vars(m) for m in models] == [vars(_old_from_row(Item, r)) for r in rows]
    assert [vars(Item.from_row(r)) for r in rows] == [vars(m) for m in models]
    for model, row in zip(models, rows):
        assert type(model) is Item
        assert vars(model) is not row


def _item_db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "item",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT),
                Column("size", ColumnType.INT),
                Column("tags", ColumnType.JSON),
            ],
            indexes=["size"],
        )
    )
    return db


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), _TEXT, st.lists(st.integers(), max_size=2)),
        min_size=1,
        max_size=8,
    )
)
def test_hydration_equals_the_per_field_loop_live_and_pinned(items):
    db = _item_db()
    for size, name, tags in items:
        db.insert("item", {"name": name, "size": size, "tags": tags})
    before = db.snapshot()  # rows lack the declared `note`
    db.add_column("item", Column("note", ColumnType.TEXT, default="n"))
    middle = db.snapshot()  # rows match the model exactly
    db.add_column("item", Column("extra", ColumnType.INT, default=7))  # undeclared
    repo = Repository(db, Item)
    for snap in (None, before, middle):
        for shape in (
            lambda q: q,
            lambda q: q.where("size", "=", 1),
            lambda q: q.order_by("name").limit(3),
        ):
            rows = shape(db.query("item", snapshot=snap)).all()
            models = ModelQuery(Item, shape(db.query("item", snapshot=snap))).all()
            assert [vars(m) for m in models] == [
                vars(_old_from_row(Item, r)) for r in rows
            ]
    for pk in range(len(items) + 2):
        row = db.get_or_none("item", pk)
        model = repo.get_or_none(pk)
        if row is None:
            assert model is None
        else:
            assert vars(model) == vars(_old_from_row(Item, row))
            assert "extra" not in vars(model)
    before.close()
    middle.close()


def test_model_behaviour_unchanged():
    item = Item.from_rows([{"id": 1, "name": "a", "tags": [1]}], _COLUMNS)[0]
    assert item.name == "a"
    with pytest.raises(AttributeError, match=r"Item\.size is unset"):
        item.size
    assert item.to_row() == {"id": 1, "name": "a", "tags": [1]}
    assert item.to_row(include_unset=True) == {
        "id": 1, "name": "a", "size": None, "tags": [1], "note": None,
    }
    assert item == Item.from_row({"id": 1, "name": "a", "tags": [1]})
    assert item != Item.from_row({"id": 1, "name": "b", "tags": [1]})
    assert repr(item) == "Item(id=1, name='a', tags=[1])"
    item.size = 4
    assert item.size == 4 and vars(item)["size"] == 4
    assert isinstance(Item.__dict__["size"], IntField)


def test_mutating_results_never_changes_later_queries():
    db = _item_db()
    for i in range(4):
        db.insert("item", {"name": f"n{i}", "size": i % 2, "tags": []})
    repo = Repository(db, Item)

    def shapes():
        return [
            db.query("item").where("size", "=", 1),
            db.query("item").order_by("name"),
            db.query("item").where("id", "in", [1, 2]),
            db.query("item").where("size", "=", 1).without_indexes(),
        ]

    expected = [q.all() for q in shapes()]
    for query in shapes():
        for model in ModelQuery(Item, query).all():
            model.name = "changed"
            del model.__dict__["size"]
    model = repo.get(1)
    model.name = "changed"
    for query in shapes():
        for row in query.all():
            row["name"] = "changed"
            row.pop("size")
    assert [q.all() for q in shapes()] == expected
    assert repo.get(1).name == "n0"
    assert [vars(m) for m in ModelQuery(Item, shapes()[0]).all()] == expected[0]


# -- pk IN ------------------------------------------------------------------------


def _people() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "person",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT),
                Column("age", ColumnType.INT),
            ],
            indexes=["age"],
        )
    )
    for i in range(1, 11):
        db.insert("person", {"name": f"p{i % 4}", "age": 20 + i % 3})
    return db


_IN_LISTS = [
    [],
    [3, 3, 5],
    [None, 2],
    [99, 4, -1],
    [1, 1.0, True],
    (7, 2),
    {9, 8},
    frozenset({6}),
    [10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
]


def _shapes(values):
    return [
        lambda q: q.where("id", "in", values),
        lambda q: q.where("id", "in", values).where("age", ">", 20),
        lambda q: q.where("id", "in", values).limit(2),
        lambda q: q.where("id", "in", values).order_by("name").limit(3),
        lambda q: q.where("id", "in", values).where("id", "=", 2),
    ]


@pytest.mark.parametrize("values", _IN_LISTS, ids=repr)
def test_pk_in_equals_a_forced_scan_live_and_pinned(values):
    db = _people()
    with db.snapshot() as snap:
        for shape in _shapes(values):
            for pinned in (None, snap):
                query = shape(db.query("person", snapshot=pinned))
                scan = shape(db.query("person", snapshot=pinned)).without_indexes()
                assert query.explain()["strategy"] == "pk"
                assert query.all() == scan.all()
                assert query.count() == scan.count()
                assert query.pks() == scan.pks()
        db.delete("person", 4)
        db.insert("person", {"name": "late", "age": 21})
        for shape in _shapes(values):
            pinned = shape(db.query("person", snapshot=snap))
            scan = shape(db.query("person", snapshot=snap)).without_indexes()
            assert pinned.all() == scan.all()


def test_pk_in_yields_pk_order_and_names_its_plan():
    db = _people()
    query = db.query("person").where("id", "in", [9, 2, 5, 2])
    explained = query.explain()
    assert explained["strategy"] == "pk"
    assert explained["candidates"] == 3
    assert query.pks() == [2, 5, 9]


def test_pk_in_with_an_unhashable_member_falls_back():
    db = _people()
    values = [1, [2], 3]
    query = db.query("person").where("id", "in", values)
    assert query.explain()["strategy"] != "pk"
    assert query.all() == db.query("person").where("id", "in", values).without_indexes().all()
    assert query.pks() == [1, 3]


# -- repro serve ------------------------------------------------------------------


def test_serve_freezes_the_heap_after_the_warm_up_reindex(tmp_path, monkeypatch):
    from repro import cli
    from repro.portal import server as portal_server
    from repro.util import heap

    events: list[str] = []

    class Server:
        port = 0

        def __init__(self, app, host, port, **options):
            pass

        def start(self):
            events.append("start")

        def serve_forever(self):
            pass

        def shutdown(self):
            pass

    real_freeze = heap.freeze_survivors

    def freeze():
        events.append("freeze")
        real_freeze()

    real_reindex = BFabric.reindex_all
    monkeypatch.setattr(portal_server, "PortalServer", Server)
    monkeypatch.setattr(heap, "freeze_survivors", freeze)
    monkeypatch.setattr(
        BFabric, "reindex_all",
        lambda self: (events.append("reindex"), real_reindex(self))[1],
    )
    try:
        assert cli.main(["--data", str(tmp_path), "serve", "--port", "0"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert events == ["reindex", "freeze", "start"]


def test_generate_runs_with_the_collector_paused(tmp_path, monkeypatch):
    from repro.workload import FGCZ_JANUARY_2010, DeploymentGenerator

    system = BFabric(tmp_path)
    seen = []
    statistics = system.deployment_statistics
    monkeypatch.setattr(
        system, "deployment_statistics",
        lambda: (seen.append(gc.isenabled()), statistics())[1],
    )
    assert gc.isenabled()
    DeploymentGenerator(system, seed=1).generate(FGCZ_JANUARY_2010.scaled(0.001))
    assert seen == [False]
    assert gc.isenabled()
    system.close()


# -- portal ------------------------------------------------------------------------

_EVIL = '<script>alert("x&y")</script>'


@pytest.fixture
def portal(tmp_path):
    system = BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
    admin = system.bootstrap(password="adminpw")
    system.add_user(admin, login="sci", full_name="Scientist", password="sciencepw")
    client = PortalClient(PortalApplication(system))
    client.login("sci", "sciencepw")
    yield system, client
    system.close()


def test_user_text_is_escaped_in_every_list_table(portal):
    system, client = portal
    client.post("/projects", {"name": "P", "description": _EVIL})
    client.post("/projects/1/samples", {
        "name": "s", "species": _EVIL, "description": "",
    })
    client.post("/samples/1/extracts", {"name": _EVIL, "procedure": _EVIL})
    principal = system.directory.principal_for(system.directory.user_by_login("sci"))
    workunit = system.workunits.create(principal, 1, "wu")
    system.workunits.add_resource(principal, workunit.id, _EVIL, "store://" + _EVIL)
    escaped = html.escape(_EVIL, quote=True)
    for url, count in (
        ("/projects", 1),
        ("/projects/1", 2),  # the description list and the species cell
        ("/samples/1", 2),  # extract name and procedure
        (f"/workunits/{workunit.id}", 2),  # resource name and uri
    ):
        text = client.get(url).text
        assert "<script>" not in text, url
        assert text.count(escaped) >= count, url


def test_project_lists_are_what_table_and_link_give(portal):
    """The project page builds its sample and workunit rows as one
    f-string each: the bytes ``table()`` over ``link()`` cells gives."""
    system, client = portal
    client.post("/projects", {"name": "P", "description": ""})
    for name, species in ((_EVIL, _EVIL), ("plain", ""), ("a&b", "x")):
        client.post("/projects/1/samples", {
            "name": name, "species": species, "description": "",
        })
    principal = system.directory.principal_for(system.directory.user_by_login("sci"))
    for name in (_EVIL, "wu"):
        system.workunits.create(principal, 1, name)
    samples = system.samples.samples_of_project(principal, 1)
    workunits = system.workunits.of_project(principal, 1)
    assert len(samples) == 3 and len(workunits) == 2
    text = client.get("/projects/1").text
    assert table(["id", "sample", "species"], [
        (s.id, link(f"/samples/{s.id}", s.name), s.species) for s in samples
    ]) in text
    assert table(["id", "workunit", "status"], [
        (w.id, link(f"/workunits/{w.id}", w.name), w.status) for w in workunits
    ]) in text


def test_search_links_carry_the_query_verbatim(portal, monkeypatch):
    system, client = portal
    query = 'name:"a & b" +c #d'
    seen: list[str] = []
    search = system.search.search

    def spy(principal, text, **options):
        seen.append(text)
        return search(principal, text, **options)

    monkeypatch.setattr(system.search, "search", spy)

    def attributes(text, name):
        return [html.unescape(v) for v in re.findall(f'{name}="([^"]*)"', text)]

    screen = client.get("/search?" + urlencode({"q": query}))
    assert screen.status == 200 and seen == [query]
    targets = [
        href for href in attributes(screen.text, "href")
        if href.startswith(("/search?", "/search/export?"))
    ]
    assert any(t.startswith("/search/export?") for t in targets)
    assert any(t.startswith("/search?") for t in targets)  # history
    for target in targets:
        seen.clear()
        assert client.get(target).status == 200
        assert seen == [query], target
    (action,) = [a for a in attributes(screen.text, "action") if a.startswith("/search/save")]
    seen.clear()
    saved = client.post(action, {"name": "mine"})  # redirects back to the screen
    assert saved.status == 200 and seen == [query]
    assert [s.query for s in system.saved_queries.list_for(
        system.directory.principal_for(system.directory.user_by_login("sci"))
    )] == [query]
    saved_links = [
        href for href in attributes(saved.text, "href") if href.startswith("/search?")
    ]
    for target in saved_links:
        seen.clear()
        client.get(target)
        assert seen == [query], target
