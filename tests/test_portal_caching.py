"""Conditional GETs derived from MVCC table versions: exactness, the
learned covering sets, read-your-writes routing, and the snapshot
lifecycle under failing views."""

import datetime as dt
from types import SimpleNamespace

import pytest

from repro.facade import BFabric
from repro.portal import PortalApplication
from repro.portal.caching import (
    CachePolicy,
    RouteCoverage,
    compute_etag,
    parse_if_none_match,
)
from repro.portal.http import Request, Response
from repro.portal.testing import PortalClient
from repro.util.clock import ManualClock


@pytest.fixture
def system(tmp_path):
    system = BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
    admin = system.bootstrap(password="adminpw")
    system.directory.set_password(admin, admin.user_id, "adminpw")
    system.add_user(
        admin, login="sci", full_name="Scientist", password="sciencepw"
    )
    return system


@pytest.fixture
def admin(system):
    return system.auth.login("admin", "adminpw").principal


@pytest.fixture
def app(system):
    return PortalApplication(system)


@pytest.fixture
def client(app):
    client = PortalClient(app)
    client.login("admin", "adminpw")
    return client


def _etag(response) -> str:
    return dict(response.headers).get("ETag", "")


class TestConditionalGet:
    def test_etag_then_exact_304(self, client):
        first = client.get("/projects")
        etag = _etag(first)
        assert etag.startswith('"') and etag.endswith('"')
        again = client.get("/projects", headers={"If-None-Match": etag})
        assert again.status == 304
        assert again.body == b""
        assert _etag(again) == etag

    def test_covering_commit_invalidates(self, client, system, admin):
        etag = _etag(client.get("/projects"))
        system.projects.create(admin, "fresh", description="d")
        response = client.get("/projects", headers={"If-None-Match": etag})
        assert response.status == 200  # never a false 304
        assert _etag(response) != etag
        assert b"fresh" in response.body

    def test_no_false_304_across_many_commits(self, client, system, admin):
        """Every covering commit must invalidate — exactness, not heuristics."""
        etag = _etag(client.get("/projects"))
        for index in range(5):
            system.projects.create(admin, f"p{index}")
            response = client.get("/projects", headers={"If-None-Match": etag})
            assert response.status == 200
            fresh = _etag(response)
            assert fresh != etag
            etag = fresh
            assert client.get(
                "/projects", headers={"If-None-Match": etag}
            ).status == 304

    def test_unrelated_commit_preserves_304(self, client, system, admin):
        """The vector is per-table: foreign commits don't churn validators."""
        etag = _etag(client.get("/projects"))
        system.add_user(
            admin, login="bob", full_name="Bob", password="bobpw"
        )  # commits to user/directory tables, not to project
        response = client.get("/projects", headers={"If-None-Match": etag})
        assert response.status == 304

    def test_etag_is_per_principal(self, app, client):
        other = PortalClient(app)
        other.login("sci", "sciencepw")
        admin_etag = _etag(client.get("/projects"))
        assert _etag(other.get("/projects")) != admin_etag
        # A foreign validator can never 304 someone else's page.
        assert other.get(
            "/projects", headers={"If-None-Match": admin_etag}
        ).status == 200

    def test_etag_covers_query_string(self, client):
        plain = _etag(client.get("/projects"))
        filtered = _etag(client.get("/projects?page=2"))
        assert plain and filtered and plain != filtered

    def test_uncacheable_routes_carry_no_etag(self, client):
        assert _etag(client.get("/search?q=test")) == ""
        assert _etag(client.get("/admin/metrics")) == ""

    def test_coverage_is_learned_per_route(self, client, system, admin):
        project = system.projects.create(admin, "covered")
        assert _etag(client.get("/projects"))
        assert _etag(client.get(f"/projects/{project.id}"))
        coverage = client.app.cache.coverage.snapshot()
        assert coverage["/projects"] == frozenset({"project"})
        # the detail page also renders the project's samples + workunits
        assert coverage["/projects/<int:project_id>"] >= frozenset(
            {"project", "sample", "workunit"}
        )

    def test_coverage_union_is_monotone(self):
        coverage = RouteCoverage()
        coverage.widen("/r", frozenset({"a"}))
        coverage.widen("/r", frozenset({"b"}))
        assert coverage.get("/r") == frozenset({"a", "b"})

    def test_if_none_match_parsing(self):
        tags = parse_if_none_match('W/"abc", "def" , *')
        assert tags == frozenset({'"abc"', '"def"', "*"})

    def test_etag_hashes_table_set_not_just_versions(self):
        narrow = compute_etag(
            {"project": 4}, user_id=1, path="/p", query={}, history_id="h"
        )
        wide = compute_etag(
            {"project": 4, "sample": 4}, user_id=1, path="/p", query={},
            history_id="h",
        )
        assert narrow != wide


class TestMidRenderCommits:
    """The validator is the request snapshot's: a render reads one
    committed state, and its ETag names that state's versions however
    the live tables move while it runs."""

    def _context(self, system, path="/projects"):
        policy = CachePolicy(system.db)
        request = Request(method="GET", path=path)
        request.session = SimpleNamespace(
            principal=SimpleNamespace(user_id=42)
        )
        context = policy.begin(path, request)
        assert context is not None
        request.snapshot = system.db.snapshot()
        return policy, context

    @staticmethod
    def _finish(context) -> str:
        context.sink.add("project")
        response = Response("body")
        context.finish(response)
        context.request.snapshot.close()
        return dict(response.headers).get("ETag", "")

    @staticmethod
    def _etag_over(policy, vector) -> str:
        return compute_etag(
            vector, user_id=42, path="/projects", query={},
            history_id=policy.history_id,
        )

    def test_quiescent_render_is_certified(self, system):
        policy, context = self._context(system)
        etag = self._finish(context)
        assert etag == self._etag_over(policy, system.db.version_vector(["project"]))
        assert policy.coverage.get("/projects") == frozenset({"project"})

    def test_mid_render_commit_yields_the_snapshot_etag(self, system, admin):
        """A commit between the snapshot's open and finish moves the
        live vector, not the snapshot's: the ETag names the state the
        body was rendered from, never the post-commit one.  (A table
        that committed past the snapshot is named at the snapshot's
        seq, which no later vector names.)"""
        policy, context = self._context(system)
        snapshot = context.request.snapshot
        system.projects.create(admin, "raced")
        after = self._etag_over(policy, system.db.version_vector(["project"]))
        pinned = self._etag_over(policy, snapshot.version_vector(["project"]))
        etag = self._finish(context)
        assert etag == pinned != after
        # The 304 path reads the current vector: the pre-commit
        # validator no longer matches it.
        policy.coverage.widen("/projects", frozenset({"project"}))
        request = Request(
            method="GET", path="/projects", headers={"if-none-match": etag}
        )
        request.session = context.request.session
        assert policy.begin("/projects", request).not_modified() is None

    def test_rollback_mid_render_keeps_the_snapshot_etag(self, system, admin):
        """A transaction that wrote and rolled back while the view ran
        was never visible to its snapshot: the validator is the one a
        quiescent render gets."""
        project = system.projects.create(admin, "steady")
        policy, context = self._context(system)
        clean = self._etag_over(policy, system.db.version_vector(["project"]))
        txn = system.db.transaction()
        txn.update("project", project.id, {"name": "ghost"})
        txn.rollback()
        assert self._finish(context) == clean
        assert policy.coverage.get("/projects") == frozenset({"project"})


class TestUncommittedRows:
    """An open transaction has already written into the live tables in
    place; a GET reads its snapshot, which cannot see those rows."""

    def test_open_transaction_renders_committed_rows(self, client, system, admin):
        project = system.projects.create(admin, "steady name")
        system.samples.register_sample(admin, project.id, "s1", species="E. coli")
        target = f"/projects/{project.id}"
        client.get(target)  # learns the route's coverage
        clean = client.get(target)
        assert _etag(clean) and b"ghost sample" not in clean.body

        txn = system.db.transaction()
        sample = next(iter(system.db.rows("sample")))
        txn.update("sample", sample["id"], {"name": "ghost sample"})
        dirty = client.get(target, headers={"If-None-Match": _etag(clean)})
        # The committed versions still match the client's validator, so
        # the 304 (for the committed body it holds) stands ...
        assert dirty.status == 304
        # ... and a render shows the committed rows under that validator.
        dirty = client.get(target)
        assert dirty.status == 200 and b"ghost sample" not in dirty.body
        assert dirty.body == clean.body
        assert _etag(dirty) == _etag(clean)
        txn.rollback()

        after = client.get(target)
        assert b"ghost sample" not in after.body
        assert _etag(after) == _etag(clean)
        assert after.body == clean.body
        assert client.get(
            target, headers={"If-None-Match": _etag(after)}
        ).status == 304


class TestApiSurface:
    def test_api_requires_auth_with_json_401(self, app):
        anonymous = PortalClient(app)
        response = anonymous.get("/api/projects")
        assert response.status == 401
        assert b"authentication required" in response.body

    def test_health_is_public_and_live(self, app, system):
        anonymous = PortalClient(app)
        response = anonymous.get("/api/health")
        assert response.status == 200
        assert b'"status": "ok"' in response.body
        assert _etag(response) == ""  # live serving state, never cached

    def test_api_detail_and_304(self, client, system, admin):
        project = system.projects.create(admin, "api-project")
        system.samples.register_sample(
            admin, project.id, "s1", species="E. coli"
        )
        response = client.get(f"/api/projects/{project.id}")
        assert response.status == 200
        assert b"api-project" in response.body and b"s1" in response.body
        etag = _etag(response)
        assert etag
        assert client.get(
            f"/api/projects/{project.id}", headers={"If-None-Match": etag}
        ).status == 304

    def test_api_create_project_json(self, client, system):
        response = client.request(
            "POST", "/api/projects",
            data=None,
            headers={"Content-Type": "application/json"},
            body=b'{"name": "from-json", "description": "d"}',
        )
        assert response.status == 200
        assert b"from-json" in response.body

    def test_api_errors_are_json(self, client):
        response = client.get("/api/projects/99999")
        assert response.status == 404
        assert response.body.startswith(b"{")


class _StubReplicas:
    """Records the min_seq each routed read asked for."""

    def __init__(self, db):
        self.db = db
        self.min_seqs = []

    def read_snapshot(self, min_seq=None):
        self.min_seqs.append(min_seq)
        return self.db.snapshot()


class TestReadYourWrites:
    def test_post_sets_seen_seq_and_gets_wait_for_it(self, system):
        app = PortalApplication(system, replicas=_StubReplicas(system.db))
        client = PortalClient(app)
        client.login("admin", "adminpw")
        client.post("/projects", {"name": "mine", "description": ""})
        seen = client.cookies.get("bfabric_seen_seq")
        assert seen is not None
        assert int(seen) == system.db.committed_seq
        client.get("/projects")
        assert app.replicas.min_seqs[-1] == system.db.committed_seq

    def test_garbage_cookie_is_ignored(self, system):
        app = PortalApplication(system, replicas=_StubReplicas(system.db))
        client = PortalClient(app)
        client.login("admin", "adminpw")
        client.cookies["bfabric_seen_seq"] = "not-a-seq"
        response = client.get("/projects")
        assert response.status == 200
        assert app.replicas.min_seqs[-1] is None


class TestSnapshotLifecycle:
    def test_failing_view_closes_snapshot_and_returns_500(
        self, app, client, system
    ):
        @app.router.get("/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        response = client.get("/boom")
        assert response.status == 500
        assert system.db.open_snapshots() == 0

    def test_api_failing_view_is_json_500(self, app, client, system):
        @app.router.get("/api/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        response = client.get("/api/boom")
        assert response.status == 500
        assert response.body.startswith(b"{")
        assert system.db.open_snapshots() == 0
