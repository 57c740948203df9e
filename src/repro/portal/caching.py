"""Exact conditional-GET caching derived from MVCC table versions.

The storage engine already maintains everything an HTTP cache needs:
every table carries the commit sequence of the last transaction that
touched it (:attr:`Table.version`), and the database can report those as
a *version vector* in O(tables).  This module turns that bookkeeping
into **strong, exact ETags**:

* A GET renders from one MVCC snapshot: every read of the view resolves
  through it (:func:`repro.storage.table.track_reads`), so the body is
  the committed state at the snapshot's sequence number — never a row
  of a transaction that is still open, and never a mix of two states.

* A response's ETag is a hash over the snapshot's version vector
  (:meth:`Snapshot.version_vector`), projected on the tables the render
  actually read — its *covering set* — plus the request identity (path,
  query, principal) and the database's history id.  The vector moves
  iff a covering table committed, so the ETag changes iff the page
  could have changed.

* The covering set is *learned*, not declared: the same per-thread
  read view records every table the view touches while rendering.
  Coverage per route only ever widens (monotone union across
  requests), so a validator computed over a narrower set than the
  route's current coverage simply hashes differently and misses — a
  spurious render, never a false 304.

The happy path is what makes this worth it: when a route's coverage is
already known and the client's ``If-None-Match`` matches the ETag of the
*current* vector, the request is answered ``304 Not Modified`` without
rendering, without opening a snapshot, and without touching a table —
a handful of dict reads and one small hash.

The 304 check reads the primary's vector.  A replica-routed GET renders
from the replica's snapshot, whose sequence numbers and table versions
are the primary's, so its validator is exact on the primary too: it
matches there only once the primary's covering versions equal the ones
the replica rendered.
"""

from __future__ import annotations

import hashlib
import threading

from repro.portal.http import Request, Response

#: Bumped whenever the hash recipe changes, so stale validators from an
#: older build can never collide into a false 304 after an upgrade.
_FORMAT = "repro-etag-v1"

#: Route patterns whose GETs may carry validators.  Deliberately an
#: allowlist: search pages render from per-session in-memory history and
#: admin pages from live metrics — neither is a function of table
#: versions, so caching them would be wrong, not just ineffective.
CACHEABLE_ROUTES = frozenset({
    "/",
    "/projects",
    "/projects/<int:project_id>",
    "/samples/<int:sample_id>",
    "/workunits/<int:workunit_id>",
    "/api/projects",
    "/api/projects/<int:project_id>",
    "/api/samples/<int:sample_id>",
    "/api/workunits/<int:workunit_id>",
})


def parse_if_none_match(header: str) -> frozenset[str]:
    """The validators a client presented, as a set of quoted tags.

    Weak prefixes are stripped (a strong ETag compares equal to its weak
    form for GET revalidation); ``*`` is kept verbatim and matches any
    current validator per RFC 9110.
    """
    tags = set()
    for part in header.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("W/"):
            part = part[2:]
        tags.add(part)
    return frozenset(tags)


class RouteCoverage:
    """Learned covering table sets per route pattern (monotone union)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._covers: dict[str, frozenset[str]] = {}

    def get(self, route: str) -> "frozenset[str] | None":
        return self._covers.get(route)

    def widen(self, route: str, tables: "frozenset[str]") -> None:
        with self._lock:
            known = self._covers.get(route)
            if known is not None:
                tables = tables | known
            self._covers[route] = tables

    def snapshot(self) -> dict[str, frozenset[str]]:
        """For introspection/tests."""
        with self._lock:
            return dict(self._covers)


def compute_etag(
    vector: dict[str, int],
    *,
    user_id: int,
    path: str,
    query: dict[str, str],
    history_id: str,
) -> str:
    """A strong validator for one (state, request identity) pair.

    The hash covers the *set* of tables, not just their versions: a
    validator minted over ``{projects}`` can never match one computed
    over ``{projects, annotations}``, which is what keeps coverage
    widening safe.
    """
    digest = hashlib.sha256()
    digest.update(_FORMAT.encode())
    digest.update(b"\x00" + history_id.encode())
    digest.update(b"\x00" + str(user_id).encode())
    digest.update(b"\x00" + path.encode())
    for key, value in sorted(query.items()):
        digest.update(b"\x01" + key.encode() + b"\x02" + value.encode())
    for key, version in sorted(vector.items()):
        digest.update(b"\x03" + key.encode() + b"\x02" + str(version).encode())
    return '"' + digest.hexdigest()[:32] + '"'


class _CacheContext:
    """Per-request cache state threaded through dispatch."""

    __slots__ = ("policy", "route", "request", "user_id", "sink")

    def __init__(self, policy: "CachePolicy", route: str, request: Request,
                 user_id: int):
        self.policy = policy
        self.route = route
        self.request = request
        self.user_id = user_id
        #: Filled by the read view during render.
        self.sink: set[str] = set()

    def not_modified(self) -> "Response | None":
        """The 304 fast path: no render, no snapshot, no table reads.

        Only possible once the route's coverage is known.  The current
        coverage is always a superset of the set any outstanding
        validator was minted over, so a hash match implies set equality
        *and* version equality — exactness for free.
        """
        presented = parse_if_none_match(
            self.request.headers.get("if-none-match", "")
        )
        if not presented:
            return None
        cover = self.policy.coverage.get(self.route)
        if cover is None:
            return None
        etag = compute_etag(
            self.policy.db.version_vector(cover),
            user_id=self.user_id,
            path=self.request.path,
            query=self.request.query,
            history_id=self.policy.history_id,
        )
        if etag not in presented and "*" not in presented:
            return None
        response = Response(b"", status=304, content_type="")
        response.headers = [
            ("ETag", etag),
            ("Cache-Control", "private, no-cache"),
        ]
        return response

    def finish(self, response: Response) -> None:
        """Stamp a freshly rendered 200 with its validator: the
        request snapshot's versions of the tables the render read."""
        if response.status != 200 or not self.sink:
            return
        touched = frozenset(self.sink)
        self.policy.coverage.widen(self.route, touched)
        response.headers.append(("ETag", compute_etag(
            self.request.snapshot.version_vector(touched),
            user_id=self.user_id,
            path=self.request.path,
            query=self.request.query,
            history_id=self.policy.history_id,
        )))
        response.headers.append(("Cache-Control", "private, no-cache"))


class CachePolicy:
    """The application's conditional-GET machinery (one per portal app)."""

    def __init__(self, db, *, routes: "frozenset[str]" = CACHEABLE_ROUTES):
        self.db = db
        self.routes = routes
        self.coverage = RouteCoverage()
        #: Pins validators to one database lineage: a restore/failover
        #: to a different history invalidates every outstanding ETag.
        self.history_id = str(getattr(db, "history_id", ""))

    def begin(self, route: "str | None", request: Request) -> "_CacheContext | None":
        """A cache context for this GET, or ``None`` when not cacheable."""
        if route is None or route not in self.routes:
            return None
        session = request.session
        principal = getattr(session, "principal", None)
        if principal is None:
            return None
        return _CacheContext(self, route, request, principal.user_id)
