"""The generation-keyed ranked-answer cache in the search engine."""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.search.engine import SEARCH_CACHE_SIZE, SearchEngine
from repro.search.query import parse_query
from repro.security.principals import SYSTEM, Principal, Role


def make_engine() -> SearchEngine:
    engine = SearchEngine()
    engine.index_document(
        "sample", 1, {"name": "arabidopsis leaf extract"}, label="s1"
    )
    engine.index_document(
        "sample", 2, {"name": "yeast culture"}, label="s2"
    )
    engine.index_document(
        "project", 3, {"name": "arabidopsis light response"}, label="p3"
    )
    return engine


def cache_counts(engine: SearchEngine) -> tuple[float, float]:
    family = engine.obs.metrics.get("search_cache_total")
    return (
        family.labels(result="hit").value,
        family.labels(result="miss").value,
    )


class TestGeneration:
    def test_generation_bumps_on_mutation(self):
        engine = make_engine()
        g0 = engine.index.generation
        engine.index_document("sample", 9, {"name": "mouse liver"})
        assert engine.index.generation > g0
        g1 = engine.index.generation
        engine.remove_document("sample", 9)
        assert engine.index.generation > g1
        g2 = engine.index.generation
        engine.index.clear()
        assert engine.index.generation > g2

    def test_reindex_of_same_document_bumps(self):
        engine = make_engine()
        g0 = engine.index.generation
        engine.index_document("sample", 1, {"name": "renamed"}, label="s1")
        assert engine.index.generation > g0


class TestCandidateCache:
    def test_repeat_query_is_a_hit(self):
        engine = make_engine()
        first = engine.search(SYSTEM, "arabidopsis")
        second = engine.search(SYSTEM, "arabidopsis")
        assert [r.entity_id for r in first] == [r.entity_id for r in second]
        hits, misses = cache_counts(engine)
        assert hits == 1 and misses == 1

    def test_mutation_invalidates(self):
        engine = make_engine()
        assert len(engine.search(SYSTEM, "arabidopsis")) == 2
        engine.index_document(
            "sample", 4, {"name": "arabidopsis root"}, label="s4"
        )
        results = engine.search(SYSTEM, "arabidopsis")
        assert {r.entity_id for r in results} == {1, 3, 4}

    def test_removal_invalidates(self):
        engine = make_engine()
        engine.search(SYSTEM, "arabidopsis")
        engine.remove_document("sample", 1)
        results = engine.search(SYSTEM, "arabidopsis")
        assert {r.entity_id for r in results} == {3}

    def test_type_filter_is_part_of_the_key(self):
        engine = make_engine()
        all_types = engine.search(SYSTEM, "arabidopsis")
        only_projects = engine.search(SYSTEM, "arabidopsis", types=["project"])
        assert {r.entity_type for r in only_projects} == {"project"}
        assert len(all_types) > len(only_projects)

    def test_statistics_expose_cache(self):
        engine = make_engine()
        engine.search(SYSTEM, "arabidopsis")
        stats = engine.statistics()
        assert stats["candidate_cache_entries"] == 1
        assert stats["generation"] == engine.index.generation


class _NoProjectsAcl:
    """An ACL under which non-experts see no projects at all."""

    def visible_project_ids(self, principal):
        return []


class TestAclStaysUncached:
    def test_principals_share_candidates_not_visibility(self):
        engine = SearchEngine(acl=_NoProjectsAcl())
        engine.index_document(
            "sample", 1, {"name": "arabidopsis secret"}, project_id=7,
        )
        outsider = Principal(user_id=5, login="outsider", role=Role.SCIENTIST)
        # The expert sees the document and primes the candidate cache;
        # the outsider's query hits the same cached candidate set but
        # the per-principal ACL pass still filters everything out.
        assert len(engine.search(SYSTEM, "arabidopsis")) == 1
        assert engine.search(outsider, "arabidopsis") == []
        hits, misses = cache_counts(engine)
        assert hits == 1 and misses == 1


# -- the ranked answer equals a brute-force search ---------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "omega")
_FIELDS = ("name", "description")
_TYPES = ("sample", "project", "workunit")
_PROJECTS = (None, 1, 2, 3)


class _Memberships:
    """An ACL stand-in whose memberships a test can change at will."""

    def __init__(self, memberships: dict[int, set[int]]):
        self.memberships = memberships

    def visible_project_ids(self, principal, *, snapshot=None):
        return sorted(self.memberships.get(principal.user_id, ()))


_documents = st.lists(
    st.tuples(
        st.sampled_from(_TYPES),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(_PROJECTS),
        st.fixed_dictionaries({
            name: st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join)
            for name in _FIELDS
        }),
    ),
    min_size=1,
    max_size=30,
)
_memberships = st.dictionaries(
    st.integers(min_value=10, max_value=12),
    st.sets(st.sampled_from(_PROJECTS[1:])),
)


def _term(draw) -> str:
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2))
    scope = draw(st.sampled_from(("",) + tuple(f"{f}:" for f in _FIELDS)))
    return scope + "_".join(words)


@st.composite
def _queries(draw) -> str:
    clauses = [_term(draw)]  # at least one positive clause
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("term", "or", "not", "type")))
        if kind == "term":
            clauses.append(_term(draw))
        elif kind == "or":
            clauses.append(f"{_term(draw)} OR {_term(draw)}")
        elif kind == "not":
            clauses.append("-" + _term(draw))
        else:
            clauses.append("type:" + draw(st.sampled_from(_TYPES)))
    return " ".join(draw(st.permutations(clauses)))


def _reference(engine, acl, principal, text, limit):
    """Filter visible, score with ``index.score``, sort, slice."""
    query = parse_query(text)
    index = engine.index

    def has(clause, key):
        return key in index.candidates(clause.term, clause.field)

    visible = None if principal.is_expert else set(
        acl.visible_project_ids(principal)
    )
    keys = [
        document.key
        for document in index.documents()
        if (visible is None or document.metadata["project_id"] is None
            or document.metadata["project_id"] in visible)
        and (not query.types or document.entity_type in query.types)
        and all(has(clause, document.key) for clause in query.required)
        and all(any(has(c, document.key) for c in group) for group in query.any_of)
        and not any(has(clause, document.key) for clause in query.negated)
    ]
    scored = sorted(
        (-index.score(key, query.positive_terms), key) for key in keys
    )
    return [(key, round(-score, 6)) for score, key in scored[:limit]]


def _answer(engine, principal, text, limit):
    return [
        ((r.entity_type, r.entity_id), r.score)
        for r in engine.search(principal, text, limit=limit)
    ]


class TestRankedAnswerEquivalence:
    @given(
        documents=_documents,
        memberships=_memberships,
        changed=_memberships,
        queries=st.lists(_queries(), min_size=1, max_size=4),
        limit=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_search_equals_brute_force(
        self, documents, memberships, changed, queries, limit
    ):
        acl = _Memberships(memberships)
        engine = SearchEngine(acl=acl)
        for entity_type, entity_id, project_id, fields in documents:
            engine.index_document(
                entity_type, entity_id, fields, project_id=project_id
            )
        principals = [SYSTEM] + [
            Principal(user_id=uid, login=f"u{uid}", role=Role.SCIENTIST)
            for uid in (10, 11, 12)
        ]
        for text in queries:
            for principal in principals:  # the first search of a shape is cold
                expected = _reference(engine, acl, principal, text, limit)
                assert _answer(engine, principal, text, limit) == expected
                assert _answer(engine, principal, text, limit) == expected
        # A membership change with no index change takes effect at once.
        generation = engine.index.generation
        hits_before, misses_before = cache_counts(engine)
        acl.memberships = changed
        for text in queries:
            for principal in principals:
                expected = _reference(engine, acl, principal, text, limit)
                assert _answer(engine, principal, text, limit) == expected
        assert engine.index.generation == generation
        hits, misses = cache_counts(engine)
        assert misses == misses_before and hits > hits_before


class TestCacheUnderConcurrency:
    def test_threads_past_the_cache_bound(self):
        engine = SearchEngine()
        shapes = SEARCH_CACHE_SIZE + 72
        for i in range(shapes):
            engine.index_document(
                "sample", i, {"name": f"term{i} shared", "description": f"term{i}"}
            )
        texts = [f"term{i}" for i in range(shapes)]
        expected = {text: _answer(engine, SYSTEM, text, 25) for text in texts}
        errors: list[BaseException] = []
        mismatches: list[str] = []

        def worker(offset: int) -> None:
            try:
                for _ in range(3):
                    for text in texts[offset:] + texts[:offset]:
                        if _answer(engine, SYSTEM, text, 25) != expected[text]:
                            mismatches.append(text)
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k * 31,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
        assert engine.statistics()["candidate_cache_entries"] <= SEARCH_CACHE_SIZE
