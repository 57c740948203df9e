"""Full-text search: tokenizer, index, query language, engine, history."""

import datetime as dt
import os
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuerySyntaxError, ValidationError
from repro.facade import BFabric
from repro.search import (
    Document,
    InvertedIndex,
    SearchHistory,
    export_csv,
    export_tsv,
    parse_query,
    tokenize,
)
from repro.search.engine import SearchEngine
from repro.security.principals import SYSTEM
from repro.util.clock import ManualClock


class TestTokenizer:
    def test_basic(self):
        assert tokenize("Arabidopsis Thaliana") == ["arabidopsis", "thaliana"]

    def test_filename_separators(self):
        assert tokenize("wt_light_1.cel") == ["wt", "light", "1", "cel"]

    def test_stopwords_removed(self):
        assert tokenize("the effect of light on a plant") == [
            "effect", "light", "plant",
        ]

    def test_keep_stopwords(self):
        assert "the" in tokenize("the plant", keep_stopwords=True)

    def test_accents_folded(self):
        assert tokenize("Zürich") == ["zurich"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!!") == []

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=127))))
    def test_ascii_fast_path_matches_nfkd_fold(self, text):
        # The reference fold: NFKD, drop combining marks, lowercase.
        folded = "".join(
            ch for ch in unicodedata.normalize("NFKD", text)
            if not unicodedata.combining(ch)
        ).lower()
        expected = re.findall(r"[a-z0-9]+", folded)
        assert tokenize(text, keep_stopwords=True) == expected


def doc(entity_id, name, description="", entity_type="sample", **metadata):
    return Document(
        entity_type=entity_type,
        entity_id=entity_id,
        fields={"name": name, "description": description},
        metadata=metadata,
    )


class TestInvertedIndex:
    def test_add_and_candidates(self):
        index = InvertedIndex()
        index.add(doc(1, "arabidopsis light"))
        index.add(doc(2, "yeast culture"))
        assert index.candidates("arabidopsis") == {("sample", 1)}
        assert index.candidates("missing") == set()

    def test_reindex_replaces(self):
        index = InvertedIndex()
        index.add(doc(1, "old name"))
        index.add(doc(1, "new name"))
        assert index.candidates("old") == set()
        assert index.candidates("new") == {("sample", 1)}
        assert len(index) == 1

    def test_remove(self):
        index = InvertedIndex()
        index.add(doc(1, "something"))
        assert index.remove("sample", 1)
        assert not index.remove("sample", 1)
        assert index.candidates("something") == set()
        assert index.term_count() == 0

    def test_field_scoped_candidates(self):
        index = InvertedIndex()
        index.add(doc(1, "alpha", description="beta"))
        assert index.candidates("beta", "description") == {("sample", 1)}
        assert index.candidates("beta", "name") == set()

    def test_idf_ranks_rare_terms_higher(self):
        index = InvertedIndex()
        # "light" everywhere, "mutant" only in doc 3.
        index.add(doc(1, "light run one"))
        index.add(doc(2, "light run two"))
        index.add(doc(3, "light mutant"))
        terms = [("light", None), ("mutant", None)]
        scores = {key: index.score(key, terms) for key in index.candidates("light")}
        assert scores[("sample", 3)] > scores[("sample", 1)]

    def test_name_field_boost(self):
        index = InvertedIndex()
        index.add(doc(1, "keyword", description="filler words here"))
        index.add(doc(2, "other", description="keyword filler words"))
        score_name = index.score(("sample", 1), [("keyword", None)])
        score_description = index.score(("sample", 2), [("keyword", None)])
        assert score_name > score_description

    def test_document_frequency(self):
        index = InvertedIndex()
        index.add(doc(1, "x"))
        index.add(doc(2, "x y"))
        assert index.document_frequency("x") == 2
        assert index.document_frequency("y") == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.text(alphabet="abc ", max_size=12),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_add_remove_round_trip_property(self, entries):
        index = InvertedIndex()
        current: dict[int, str] = {}
        for entity_id, text in entries:
            index.add(doc(entity_id, text))
            current[entity_id] = text
        for entity_id in list(current):
            index.remove("sample", entity_id)
        assert len(index) == 0
        assert index.term_count() == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.text(alphabet="abc ", max_size=12),
            ),
            max_size=20,
        ),
        st.lists(st.integers(min_value=1, max_value=8), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_remove_leaves_what_a_fresh_build_holds(self, entries, removals):
        index = InvertedIndex()
        current: dict[int, str] = {}
        for entity_id, text in entries:
            index.add(doc(entity_id, text))
            current[entity_id] = text
        for entity_id in removals:
            assert index.remove("sample", entity_id) == (entity_id in current)
            current.pop(entity_id, None)
        fresh = InvertedIndex()
        for entity_id, text in current.items():
            fresh.add(doc(entity_id, text))
        assert index._postings == fresh._postings
        assert {d.key: d.length for d in index.documents()} == {
            d.key: d.length for d in fresh.documents()
        }


class TestQueryParser:
    def test_plain_terms(self):
        query = parse_query("arabidopsis light")
        assert [c.term for c in query.required] == ["arabidopsis", "light"]

    def test_field_scoped(self):
        query = parse_query("name:arabidopsis")
        assert query.required[0].field == "name"

    def test_negation(self):
        query = parse_query("light -heat")
        assert [c.term for c in query.negated] == ["heat"]

    def test_type_filter(self):
        query = parse_query("type:sample light")
        assert query.types == ["sample"]

    def test_or_group(self):
        query = parse_query("light OR dark")
        assert len(query.any_of) == 1
        assert {c.term for c in query.any_of[0]} == {"light", "dark"}

    def test_or_chain_of_three(self):
        query = parse_query("light OR dark OR heat")
        assert {c.term for c in query.any_of[0]} == {"light", "dark", "heat"}

    def test_mixed(self):
        query = parse_query("type:sample name:wt light OR dark -heat")
        assert query.types == ["sample"]
        assert [c.term for c in query.required] == ["wt"]
        assert len(query.any_of) == 1
        assert [c.term for c in query.negated] == ["heat"]

    def test_pure_negation_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("-light")

    def test_empty_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("   ")

    def test_case_insensitive_or(self):
        query = parse_query("light or dark")
        assert len(query.any_of) == 1

    def test_identifier_requires_every_word(self):
        query = parse_query("resource_00012")
        assert [(c.term, c.field) for c in query.required] == [
            ("resource", None), ("00012", None),
        ]

    def test_identifier_words_share_the_field(self):
        query = parse_query("name:wt_light.cel")
        assert [(c.term, c.field) for c in query.required] == [
            ("wt", "name"), ("light", "name"), ("cel", "name"),
        ]

    def test_identifier_drops_inner_stopwords(self):
        query = parse_query("effect_of_light")
        assert [c.term for c in query.required] == ["effect", "light"]

    def test_negated_and_or_identifiers_keep_their_first_word(self):
        query = parse_query("plant -wt_light wt_dark OR heat_shock")
        assert [c.term for c in query.required] == ["plant"]
        assert [c.term for c in query.negated] == ["wt"]
        assert [[c.term for c in group] for group in query.any_of] == [
            ["wt", "heat"]
        ]


@pytest.fixture
def loaded_system():
    system = BFabric(clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))
    admin = system.bootstrap()
    scientist = system.add_user(admin, login="sci", full_name="Sci")
    outsider = system.add_user(admin, login="out", full_name="Out")
    project = system.projects.create(scientist, "Arabidopsis light response")
    system.samples.register_sample(
        scientist, project.id, "wt light 1", species="Arabidopsis Thaliana"
    )
    system.samples.register_sample(
        scientist, project.id, "wt dark 1", species="Arabidopsis Thaliana"
    )
    return system, admin, scientist, outsider, project


class TestSearchEngine:
    def test_quick_search_finds_by_any_field(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.quick_search(scientist, "thaliana")
        assert {r.entity_type for r in results} == {"sample"}
        assert len(results) == 2

    def test_type_filter(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.search(scientist, "type:project arabidopsis")
        assert [r.entity_type for r in results] == ["project"]

    def test_negation(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.search(scientist, "wt -dark")
        assert [r.label for r in results] == ["wt light 1"]

    def test_or_query(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.search(scientist, "light OR dark type:sample")
        assert len(results) == 2

    def test_access_control_hides_foreign_projects(self, loaded_system):
        system, admin, scientist, outsider, _ = loaded_system
        assert system.search.quick_search(outsider, "thaliana") == []
        # Experts see everything.
        assert len(system.search.quick_search(admin, "thaliana")) == 2

    def test_snippet_contains_match(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.quick_search(scientist, "thaliana")
        assert "Thaliana" in results[0].snippet

    def test_limit(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.search(scientist, "wt", limit=1)
        assert len(results) == 1

    def test_empty_quick_search(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        assert system.search.quick_search(scientist, "   ") == []

    def test_removed_document_not_found(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        system.search.remove_document("sample", 1)
        labels = [r.label for r in system.search.quick_search(admin, "wt")]
        assert "wt light 1" not in labels

    def test_statistics(self, loaded_system):
        system, *_ = loaded_system
        stats = system.search.statistics()
        assert stats["documents"] >= 3
        assert stats["terms"] > 0

    def test_reindex_all_matches_event_indexing(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        before = system.search.statistics()
        system.reindex_all()
        after = system.search.statistics()
        assert after["documents"] == before["documents"]


class TestIdentifierSearch:
    def test_identifier_ranks_that_resource_first(self):
        # Named the way the deployment generator names them: every
        # resource shares the word "resource", and workunits share the
        # number.
        engine = SearchEngine()
        for i in range(60):
            name = f"resource_{i:05d}.cel"
            engine.index_document(
                "data_resource", i + 1,
                {"name": name, "uri": f"store://generated/{name}"},
            )
            engine.index_document(
                "workunit", i + 1, {"name": f"report workunit {i:05d}"}
            )
        results = engine.search(SYSTEM, "resource_00012")
        assert results[0].label == "resource_00012.cel"
        assert [(r.entity_type, r.entity_id) for r in results] == [
            ("data_resource", 13)
        ]


_SNIPPET_SCRIPT = """
from repro.search.engine import SearchEngine
from repro.security.principals import SYSTEM

words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
engine = SearchEngine()
engine.index_document(
    "sample", 1, {"name": " filler ".join(w + " padding" * 8 for w in words)}
)
for first, second in zip(words, reversed(words)):
    print([r.snippet for r in engine.search(SYSTEM, f"{first} {second}")])
"""


class TestSnippetDeterminism:
    def test_snippet_does_not_depend_on_the_hash_seed(self):
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            done = subprocess.run(
                [sys.executable, "-c", _SNIPPET_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        # Anchored on the first query term: "alpha" opens the text.
        assert outputs[0].splitlines()[0].startswith("['alpha padding")


class TestHistory:
    def test_most_recent_first(self):
        history = SearchHistory()
        history.record("a")
        history.record("b")
        assert history.entries() == ["b", "a"]

    def test_rerun_moves_to_front(self):
        history = SearchHistory()
        history.record("a")
        history.record("b")
        history.record("a")
        assert history.entries() == ["a", "b"]

    def test_bounded(self):
        history = SearchHistory(limit=3)
        for i in range(5):
            history.record(f"q{i}")
        assert len(history) == 3
        assert history.entries()[0] == "q4"

    def test_blank_ignored(self):
        history = SearchHistory()
        history.record("   ")
        assert len(history) == 0

    def test_clear(self):
        history = SearchHistory()
        history.record("a")
        history.clear()
        assert history.entries() == []


class TestSavedQueries:
    def test_save_and_rerun_live(self, loaded_system):
        system, admin, scientist, _, project = loaded_system
        system.saved_queries.save(scientist, "my samples", "type:sample wt")
        saved = system.saved_queries.get(scientist, "my samples")
        results = system.search.search(scientist, saved.query)
        assert len(results) == 2
        # New matching object appears on re-run ("at run-time").
        system.samples.register_sample(scientist, project.id, "wt heat 1")
        results = system.search.search(scientist, saved.query)
        assert len(results) == 3

    def test_save_overwrites_same_name(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        system.saved_queries.save(scientist, "q", "light")
        system.saved_queries.save(scientist, "q", "dark")
        assert system.saved_queries.get(scientist, "q").query == "dark"
        assert len(system.saved_queries.list_for(scientist)) == 1

    def test_per_user(self, loaded_system):
        system, admin, scientist, outsider, _ = loaded_system
        system.saved_queries.save(scientist, "q", "light")
        assert system.saved_queries.list_for(outsider) == []

    def test_delete(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        system.saved_queries.save(scientist, "q", "light")
        system.saved_queries.delete(scientist, "q")
        assert system.saved_queries.list_for(scientist) == []

    def test_validation(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        with pytest.raises(ValidationError):
            system.saved_queries.save(scientist, "", "x")
        with pytest.raises(ValidationError):
            system.saved_queries.save(scientist, "x", "  ")


class TestExport:
    def test_csv_round_trip(self, loaded_system, tmp_path):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.quick_search(scientist, "thaliana")
        path = tmp_path / "out.csv"
        text = export_csv(results, path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "entity_type,entity_id,score,label,snippet"
        assert len(lines) == 1 + len(results)

    def test_tsv(self, loaded_system):
        system, admin, scientist, _, _ = loaded_system
        results = system.search.quick_search(scientist, "thaliana")
        text = export_tsv(results)
        assert "\t" in text.splitlines()[0]
