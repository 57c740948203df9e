"""A portal GET reads its request snapshot and nothing else.

An open transaction has already written its rows into the live tables
in place.  Every view, every service and every ACL check a GET runs
resolves through the request's snapshot instead, so no page shows a
row that may still roll back, a grant that has not committed yet
answers 403, and validators name the committed state the body was
rendered from.  The same holds for GETs routed to a lagging replica.
"""

import datetime as dt
import threading

import pytest

from repro.facade import BFabric
from repro.portal import PortalApplication
from repro.portal.caching import CACHEABLE_ROUTES
from repro.portal.testing import PortalClient
from repro.replication import Replica, ReplicaSet, ReplicationPublisher
from repro.storage.query import Query
from repro.util.clock import ManualClock

GHOSTS = (b"GHOST", b"ghost")


@pytest.fixture
def world(tmp_path):
    system = BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
    admin = system.bootstrap(password="adminpw")
    system.directory.set_password(admin, admin.user_id, "adminpw")
    member = system.add_user(
        admin, login="sci", full_name="Scientist", password="sciencepw"
    )
    system.add_user(
        admin, login="exp", full_name="Expert", role="employee",
        password="expertpw",
    )
    grantee = system.add_user(
        admin, login="out", full_name="Outsider", password="outsiderpw"
    )
    project = system.projects.create(member, "steady project", description="d")
    kept = system.samples.register_sample(
        member, project.id, "kept sample", species="E. coli"
    )
    doomed = system.samples.register_sample(
        member, project.id, "doomed sample", species="E. coli"
    )
    renamed = system.samples.register_sample(
        member, project.id, "plain sample", species="E. coli"
    )
    system.samples.register_extract(member, kept.id, "kept extract")
    workunit = system.workunits.create(member, project.id, "steady workunit")
    app = PortalApplication(system)
    clients = {}
    for login, password in (
        ("sci", "sciencepw"), ("exp", "expertpw"), ("out", "outsiderpw")
    ):
        clients[login] = PortalClient(app)
        clients[login].login(login, password)
    ids = {
        "project_id": project.id, "sample_id": kept.id,
        "workunit_id": workunit.id, "renamed": renamed.id,
        "doomed": doomed.id, "member": member.user_id,
        "grantee": grantee.user_id,
    }
    yield system, clients, ids
    system.close()


def _paths(ids) -> list[str]:
    paths = [
        route.replace("<int:project_id>", str(ids["project_id"]))
        .replace("<int:sample_id>", str(ids["sample_id"]))
        .replace("<int:workunit_id>", str(ids["workunit_id"]))
        for route in sorted(CACHEABLE_ROUTES)
    ]
    return paths + [
        f"/samples/{ids['renamed']}",
        f"/samples/{ids['doomed']}",
        f"/browse/project/{ids['project_id']}",
        f"/browse/sample/{ids['doomed']}",
        "/search?q=sample",
        "/search?q=inserted",
    ]


def _render(clients, paths) -> dict:
    return {
        (login, path): clients[login].get(path)
        for login in clients
        for path in paths
    }


def _etag(response) -> str:
    return dict(response.headers).get("ETag", "")


def _open_transaction(system, ids):
    """An uncommitted insert, update, delete and grant, held open."""
    txn = system.db.transaction()
    ghost = txn.insert("sample", {
        "name": "GHOST inserted", "project_id": ids["project_id"],
        "species": "E. coli", "created_by": ids["member"],
    })
    txn.update("sample", ids["renamed"], {"name": "GHOST renamed"})
    txn.update("workunit", ids["workunit_id"], {"name": "ghost workunit"})
    txn.update("project", ids["project_id"], {"description": "ghost d"})
    txn.delete("sample", ids["doomed"])
    system.acl.grant(ids["project_id"], ids["grantee"], "member", txn=txn)
    return txn, ghost["id"]


class TestOpenTransaction:
    def test_no_page_shows_uncommitted_state(self, world):
        system, clients, ids = world
        paths = _paths(ids)
        _render(clients, paths)  # search history settles, coverage learned
        before = _render(clients, paths)
        again = _render(clients, paths)
        assert all(again[key].body == before[key].body for key in before)
        for (login, path), response in before.items():
            assert not any(g in response.body for g in GHOSTS), (login, path)
        assert before["sci", f"/samples/{ids['doomed']}"].status == 200
        assert before["out", f"/projects/{ids['project_id']}"].status == 403

        txn, ghost_id = _open_transaction(system, ids)
        try:
            during = _render(clients, paths)
            for key, response in during.items():
                assert not any(g in response.body for g in GHOSTS), key
                assert response.status == before[key].status, key
                assert response.body == before[key].body, key
                assert _etag(response) == _etag(before[key]), key
            # The grant is not committed: the grantee is still refused.
            for path in paths:
                if str(ids["project_id"]) in path and "search" not in path:
                    assert during["out", path].status == 403, path
            for login in clients:
                for path in (f"/samples/{ghost_id}", f"/api/samples/{ghost_id}"):
                    assert clients[login].get(path).status == 404, (login, path)
        finally:
            txn.rollback()

        after = _render(clients, paths)
        for key, response in after.items():
            assert response.status == before[key].status, key
            assert response.body == before[key].body, key
            assert _etag(response) == _etag(before[key]), key
        assert system.db.open_snapshots() == 0

    def test_conditional_gets_over_an_open_transaction_answer_304(self, world):
        system, clients, ids = world
        client = clients["sci"]
        target = f"/projects/{ids['project_id']}"
        clean = client.get(target)
        txn, _ghost = _open_transaction(system, ids)
        try:
            revalidated = client.get(target, headers={"If-None-Match": _etag(clean)})
            assert revalidated.status == 304
        finally:
            txn.rollback()

    def test_commit_then_shows_the_rows_under_a_new_validator(self, world):
        system, clients, ids = world
        client = clients["sci"]
        target = f"/projects/{ids['project_id']}"
        clean = client.get(target)
        txn, _ghost = _open_transaction(system, ids)
        txn.commit()
        fresh = client.get(target, headers={"If-None-Match": _etag(clean)})
        assert fresh.status == 200
        assert b"GHOST inserted" in fresh.body and b"doomed sample" not in fresh.body
        assert _etag(fresh) not in ("", _etag(clean))
        assert clients["out"].get(target).status == 200


class TestAclReadsOncePerRequest:
    def test_membership_is_read_once_per_request_view(self, world, monkeypatch):
        system, clients, ids = world
        reads = []
        real_shared_rows = Query.shared_rows

        def counting(query):
            if query._table.name == "project_membership":
                reads.append(query.fingerprint())
            return real_shared_rows(query)

        monkeypatch.setattr(Query, "shared_rows", counting)
        # The project page checks READ on the project, then once more
        # per listed sample and workunit.
        response = clients["sci"].get(f"/projects/{ids['project_id']}")
        assert response.status == 200
        assert len(reads) == 1
        reads.clear()
        clients["sci"].get(f"/browse/project/{ids['project_id']}")
        assert len(reads) == 1

    def test_memo_dies_with_the_view(self, world):
        system, clients, ids = world
        sci = system.auth.login("sci", "sciencepw").principal
        assert system.acl.membership_role(sci, ids["project_id"]) == "leader"
        target = f"/projects/{ids['project_id']}"
        assert clients["out"].get(target).status == 403
        system.acl.grant(ids["project_id"], ids["grantee"], "member")
        assert clients["out"].get(target).status == 200


class TestReplicaRoutedViews:
    def test_views_render_the_replicas_snapshot(self, tmp_path, monkeypatch):
        primary = BFabric(
            tmp_path / "p", clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0))
        )
        admin = primary.bootstrap(password="adminpw")
        primary.directory.set_password(admin, admin.user_id, "adminpw")
        project = primary.projects.create(admin, "replicated project")
        primary.samples.register_sample(admin, project.id, "first sample")
        publisher = ReplicationPublisher(primary.db, obs=primary.obs).start()
        follower_system = BFabric(tmp_path / "r")
        follower = Replica(
            follower_system, ("127.0.0.1", publisher.port), name="r0"
        ).start()
        rs = ReplicaSet(primary, [follower], publisher=publisher)
        gate = threading.Event()
        gate.set()
        apply = follower.db.apply_replicated_commit

        def gated_apply(*args, **kwargs):
            gate.wait(15.0)
            return apply(*args, **kwargs)

        monkeypatch.setattr(follower.db, "apply_replicated_commit", gated_apply)
        try:
            rs.wait_all(primary.db.committed_seq, timeout=15.0)
            client = PortalClient(PortalApplication(primary, replicas=rs))
            client.login("admin", "adminpw")
            target = f"/projects/{project.id}"
            reads = primary.obs.metrics.get("replication_reads_total")

            def routed() -> dict:
                return {labels["target"]: child.value
                        for labels, child in reads.samples()}

            first = client.get(target)
            assert first.status == 200 and b"first sample" in first.body
            assert routed().get("r0", 0) >= 1
            etag = _etag(first)
            assert etag
            assert follower.db.open_snapshots() == 0
            assert client.get(target, headers={"If-None-Match": etag}).status == 304

            # The replica stops applying; the primary commits a sample.
            gate.clear()
            primary.samples.register_sample(admin, project.id, "second sample")
            lagging = client.get(target)
            assert follower.db.open_snapshots() == 0
            assert lagging.status == 200
            assert b"first sample" in lagging.body
            assert b"second sample" not in lagging.body
            # Its validator names the replica's versions, which the
            # primary has moved past: no 304 from the primary.
            assert _etag(lagging) == etag
            stale = client.get(target, headers={"If-None-Match": etag})
            assert stale.status == 200 and b"second sample" not in stale.body
            assert follower.db.open_snapshots() == 0

            gate.set()
            rs.wait_all(primary.db.committed_seq, timeout=15.0)
            caught_up = client.get(target, headers={"If-None-Match": etag})
            assert caught_up.status == 200
            assert b"second sample" in caught_up.body
            fresh = _etag(caught_up)
            assert fresh and fresh != etag
            # Versions agree again: the primary answers the replica's
            # validator with 304.
            assert client.get(target, headers={"If-None-Match": fresh}).status == 304
            assert follower.db.open_snapshots() == 0
            assert primary.db.open_snapshots() == 0
        finally:
            gate.set()
            rs.close()
            follower_system.close()
            primary.close()
