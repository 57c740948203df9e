"""Seeded request streams of the socket workloads.

A stream is a pure function of (catalog, sessions, seed): a list of
blocks, each block a list of :class:`Step` — who asks, for what, and
what a correct page must contain.  Nothing here touches a socket, so
the same seed serialises to the same bytes (``serialize``), which the
self-test checks.

A block holds the workload's mix in exact proportion (only the order
inside a block and the targets are drawn), so a measured window always
covers whole copies of the mix.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from urllib.parse import quote

from corpus import Catalog, Session
from loadgen import READ, Op, build_request

#: Blocks prepared per connection — several times what a window can use.
BLOCKS_PER_CONNECTION = 400


@dataclass(frozen=True)
class Step:
    session: int       # index into the run's sessions
    target: str        # path and query
    label: str         # route label
    needle: str        # what a correct 200 body contains


def serialize(streams: list[list[list[Step]]]) -> bytes:
    """Canonical bytes of a run's streams (cookies excluded: session
    tokens are minted by the server, not drawn from the seed)."""
    lines = []
    for connection, blocks in enumerate(streams):
        for number, block in enumerate(blocks):
            for step in block:
                lines.append(
                    f"{connection} {number} {step.session} GET {step.target} "
                    f"[{step.label}] {step.needle}"
                )
    return "\n".join(lines).encode("utf-8")


def to_ops(block: list[Step], sessions: list[Session]) -> list[Op]:
    return [
        Op(
            build_request("GET", step.target, cookie=sessions[step.session].cookie),
            READ, step.label, (200,), step.needle.encode("utf-8"),
        )
        for step in block
    ]


_GOLDEN = 0.6180339887498949


class _Draws:
    """Who asks and for which rank, for one route of one connection.

    Sessions take turns in a seed-shuffled order, and rank quantiles
    follow an additive recurrence (step 1/φ from a seeded origin), whose
    every run of consecutive values covers [0, 1) evenly.  So a window
    of any length sees the same mix of light and heavy pages whatever
    the seed; only *which* pages they are is left to it.
    """

    _cumulative: dict[int, list[float]] = {}

    def __init__(self, rng: random.Random, who: list[int]):
        self._order = list(who)
        rng.shuffle(self._order)
        self._turn = 0
        self._x = rng.random()

    def session(self) -> int:
        who = self._order[self._turn % len(self._order)]
        self._turn += 1
        return who

    def zipf(self, pool: list):
        """Item *i* of *pool* with weight 1/(i+1), at the next quantile."""
        weights = self._cumulative.get(len(pool))
        if weights is None:
            weights = list(itertools.accumulate(1.0 / (i + 1) for i in range(len(pool))))
            self._cumulative[len(pool)] = weights
        self._x = (self._x + _GOLDEN) % 1.0
        return pool[bisect.bisect_left(weights, self._x * weights[-1])]


@dataclass
class _Pools:
    """What one session may open, largest projects first."""

    projects: list[tuple[int, str]]
    samples: list[tuple[int, str]]
    workunits: list[tuple[int, str]]


def _pools(catalog: Catalog, session: Session) -> _Pools:
    rank = {pid: i for i, (pid, _n, _o) in enumerate(catalog.projects)}
    ordered = sorted(session.project_ids, key=rank.__getitem__)
    return _Pools(
        [(pid, catalog.project_names[pid]) for pid in ordered],
        [item for pid in ordered for item in catalog.samples.get(pid, ())],
        [item for pid in ordered for item in catalog.workunits.get(pid, ())],
    )


# -- page_read ---------------------------------------------------------------

#: Requests per block by route: 10 / 25 / 25 / 35 / 5 per cent.
PAGE_READ_MIX = (
    ("/projects", 2),
    ("/projects/<id>", 5),
    ("/samples/<id>", 5),
    ("/workunits/<id>", 7),
    ("/", 1),
)


def page_read_streams(
    catalog: Catalog, sessions: list[Session], seed: int, connections: int,
    blocks: int = BLOCKS_PER_CONNECTION,
) -> list[list[list[Step]]]:
    """Cold page renders, no validators, only URLs the ACL allows."""
    pools = [_pools(catalog, session) for session in sessions]
    everyone = list(range(len(sessions)))
    eligible = {
        "/samples/<id>": [i for i, p in enumerate(pools) if p.samples],
        "/workunits/<id>": [i for i, p in enumerate(pools) if p.workunits],
    }
    streams = []
    for connection in range(connections):
        rng = random.Random(f"page_read/{seed}/{connection}")
        draws = {
            route: _Draws(rng, eligible.get(route, everyone))
            for route, _count in PAGE_READ_MIX
        }
        stream = []
        for _ in range(blocks):
            block = []
            for route, count in PAGE_READ_MIX:
                draw = draws[route]
                for _ in range(count):
                    who = draw.session()
                    pool = pools[who]
                    if route == "/projects":
                        step = Step(who, "/projects", route, pool.projects[0][1])
                    elif route == "/projects/<id>":
                        pid, name = draw.zipf(pool.projects)
                        step = Step(who, f"/projects/{pid}", route, name)
                    elif route == "/samples/<id>":
                        sid, name = draw.zipf(pool.samples)
                        step = Step(who, f"/samples/{sid}", route, name)
                    elif route == "/workunits/<id>":
                        wid, name = draw.zipf(pool.workunits)
                        step = Step(who, f"/workunits/{wid}", route, name)
                    else:
                        step = Step(who, "/", route, "Open tasks")
                    block.append(step)
            rng.shuffle(block)
            stream.append(block)
        streams.append(stream)
    return streams


# -- search_browse -------------------------------------------------------------

#: Query classes of one searcher block (20 searches + 1 export), all
#: around a millisecond.  The sixth class, identifier-like names
#: (``resource_000NN``: 40 000 candidates, 20–50 ms for a leader, 180 ms
#: for an employee), follows the window with the browses
#: (``slow_steps``): at three per block it was seven eighths of the
#: window's time, and its latency halves and doubles from one server
#: process to the next with the state of the host's memory.
SEARCH_CYCLE = (
    ("term", 8), ("multi", 3), ("typed", 4), ("field", 3), ("or", 2), ("export", 1),
)

_SPECIES_TERMS = ("arabidopsis", "sapiens", "musculus", "cerevisiae",
                  "melanogaster", "coli", "norvegicus", "rerio")
_TISSUES = ("leaf", "root", "liver", "brain", "muscle", "whole", "culture")
_TREATMENTS = ("light", "dark", "heat", "cold", "drought", "control", "salt")
_PREFIXES = ("import", "analysis", "search", "measurement", "report")
_TYPES = ("sample", "project", "workunit", "extract")


def _query(kind: str, rng: random.Random, catalog: Catalog) -> str:
    if kind == "term":
        return rng.choice(_SPECIES_TERMS + _TISSUES + _PREFIXES)
    if kind == "multi":
        return f"{rng.choice(_SPECIES_TERMS)} {rng.choice(_TISSUES + _TREATMENTS)}"
    if kind == "typed":
        kind_of = rng.choice(_TYPES)
        word = {
            "sample": rng.choice(_TISSUES),
            "project": rng.choice(_TREATMENTS),
            "workunit": rng.choice(_PREFIXES),
            "extract": rng.choice(("trizol", "phenol", "column", "digest", "facs")),
        }[kind_of]
        return f"type:{kind_of} {word}"
    if kind == "field":
        return f"name:{rng.choice(_TISSUES + _PREFIXES)}"
    if kind == "or":
        first, second = rng.sample(_TREATMENTS, 2)
        return f"{first} OR {second}"
    if kind == "identifier":
        _rid, name = rng.choice(catalog.resources)
        return name.rsplit(".", 1)[0]
    if kind == "export":
        return rng.choice(_TISSUES)
    raise ValueError(kind)


def search_browse_streams(
    catalog: Catalog, sessions: list[Session], seed: int,
    blocks: int = BLOCKS_PER_CONNECTION,
) -> list[list[list[Step]]]:
    """Searches and exports, on one connection: the phase that follows
    holds the GIL for seconds at a time, and one connection keeps both
    phases the same shape."""
    everyone = list(range(len(sessions)))
    rng = random.Random(f"search_browse/{seed}")
    searchers = _Draws(rng, everyone)
    stream: list[list[Step]] = []
    for _ in range(blocks):
        kinds = [kind for kind, count in SEARCH_CYCLE for _ in range(count)]
        rng.shuffle(kinds)
        block = []
        for kind in kinds:
            who = searchers.session()
            text = quote(_query(kind, rng, catalog))
            if kind == "export":
                block.append(Step(who, f"/search/export?q={text}", "/search/export",
                                  "entity_type,entity_id,score"))
            else:
                block.append(Step(who, f"/search?q={text}", f"/search[{kind}]",
                                  "result(s)"))
        stream.append(block)
    return [stream]


def slow_steps(
    catalog: Catalog, sessions: list[Session], seed: int, identifiers: int, browses: int
) -> list[Step]:
    """What follows ``search_browse``'s window: identifier-like searches,
    then link-graph pages of objects the asking session may see."""
    pools = [_pools(catalog, session) for session in sessions]
    rng = random.Random(f"search_browse/slow/{seed}")
    draws = _Draws(rng, list(range(len(sessions))))
    steps = []
    for _ in range(identifiers):
        text = quote(_query("identifier", rng, catalog))
        steps.append(Step(
            draws.session(), f"/search?q={text}", "/search[identifier]", "result(s)"))
    for _ in range(browses):
        who = draws.session()
        pool = pools[who]
        kind_of = rng.choice(
            ["project"] + (["sample"] if pool.samples else [])
            + (["workunit"] if pool.workunits else [])
        )
        entity_id, _name = draws.zipf(getattr(pool, kind_of + "s"))
        steps.append(Step(
            who, f"/browse/{kind_of}/{entity_id}", "/browse/<type>/<id>",
            f"Browse — {kind_of}:{entity_id}",
        ))
    return steps
