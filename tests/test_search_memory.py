"""The search index stores each fact once.

Postings with the same ``{field -> tf}`` value share one dict, and a
:class:`Document` is slotted with ``project_id``, ``label`` and its
length as attributes.  These tests pin the sharing, and that sharing
never lets one document's change leak into another's postings.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.facade import BFabric
from repro.search import Document, InvertedIndex
from repro.search.engine import SearchEngine
from repro.security.principals import SYSTEM
from repro.workload import DeploymentGenerator, FGCZ_JANUARY_2010


def doc(entity_id, name, description="", **metadata):
    return Document(
        "sample", entity_id, {"name": name, "description": description}, metadata
    )


def posting_values(index):
    return [
        per_field for docs in index._postings.values() for per_field in docs.values()
    ]


def view_of(index, key, terms):
    """What *index* says about *key*: its postings, candidacy and score."""
    return (
        {term: dict(index.posting(term)[key]) for term in terms},
        {term: key in index.candidates(term) for term in terms},
        index.score(key, [(term, None) for term in terms]),
    )


class TestSharedPostings:
    @pytest.fixture(scope="class")
    def system(self):
        system = BFabric()
        DeploymentGenerator(system, seed=2010).generate(FGCZ_JANUARY_2010.scaled(0.02))
        system.reindex_all()
        return system

    def test_one_object_per_posting_shape(self, system):
        index = system.search.index
        values = posting_values(index)
        shapes = {tuple(per_field.items()) for per_field in values}
        assert len(values) > len(shapes) > 1
        assert len({id(per_field) for per_field in values}) == len(shapes)
        statistics = system.search.statistics()
        assert statistics["posting_shapes"] == len(shapes)
        assert statistics["postings"] == len(values)

    def test_no_document_has_a_dict(self, system):
        documents = system.search.index.documents()
        assert documents
        assert not any(hasattr(d, "__dict__") for d in documents)

    def test_same_shape_documents_share_postings(self):
        index = InvertedIndex()
        index.add(doc(1, "alpha beta"))
        index.add(doc(2, "alpha gamma"))
        docs = index.posting("alpha")
        assert docs[("sample", 1)] is docs[("sample", 2)]
        assert index.shape_count() == 1
        assert index.posting_count() == 4

    def test_removal_leaves_the_twin_as_a_fresh_build(self):
        index = InvertedIndex()
        index.add(doc(1, "alpha beta"))
        index.add(doc(2, "alpha beta"))
        index.add(doc(3, "alpha"))
        shared = index.posting("alpha")[("sample", 1)]
        assert index.remove("sample", 1)
        fresh = InvertedIndex()
        fresh.add(doc(2, "alpha beta"))
        fresh.add(doc(3, "alpha"))
        terms = ["alpha", "beta"]
        key = ("sample", 2)
        assert view_of(index, key, terms) == view_of(fresh, key, terms)
        assert shared == {"name": 1}

    @pytest.mark.parametrize("new_name", ["alpha alpha beta", "beta beta beta alpha"])
    def test_reindexing_one_twin_leaves_the_other_alone(self, new_name):
        index = InvertedIndex()
        index.add(doc(1, "alpha beta"))
        index.add(doc(2, "alpha beta"))
        terms = ["alpha", "beta"]
        before = view_of(index, ("sample", 2), terms)
        shared = index.posting("alpha")[("sample", 2)]
        index.add(doc(1, new_name))  # same terms, other counts
        assert view_of(index, ("sample", 2), terms) == before
        assert index.posting("alpha")[("sample", 2)] is shared
        assert shared == {"name": 1}
        index.remove("sample", 1)
        index.add(doc(1, "alpha beta"))  # re-added as it was
        assert view_of(index, ("sample", 2), terms) == before

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.text(alphabet="ab ", max_size=10),
                st.text(alphabet="ab ", max_size=6),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_postings_match_a_fresh_build(self, steps):
        index = InvertedIndex()
        current: dict[int, tuple[str, str]] = {}
        for entity_id, name, description, remove in steps:
            if remove:
                index.remove("sample", entity_id)
                current.pop(entity_id, None)
            else:
                index.add(doc(entity_id, name, description))
                current[entity_id] = (name, description)
        fresh = InvertedIndex()
        for entity_id, (name, description) in current.items():
            fresh.add(doc(entity_id, name, description))
        assert index._postings == fresh._postings
        by_shape: dict[tuple, int] = {}
        for per_field in posting_values(index):
            first = by_shape.setdefault(tuple(per_field.items()), id(per_field))
            assert first == id(per_field)
        for key in (document.key for document in fresh.documents()):
            for term in fresh._postings:
                terms = [(term, None)]
                assert index.score(key, terms) == fresh.score(key, terms)


class TestSlottedDocument:
    def test_metadata_keeps_project_label_and_extras(self):
        engine = SearchEngine()
        engine.index_document(
            "sample", 1, {"name": "leaf"}, project_id=7, label="Leaf 1", source="lims"
        )
        document = engine.index.document("sample", 1)
        assert not hasattr(document, "__dict__")
        assert (document.project_id, document.label) == (7, "Leaf 1")
        assert document.metadata == {
            "source": "lims", "project_id": 7, "label": "Leaf 1",
        }
        [result] = engine.search(SYSTEM, "leaf")
        assert result.label == "Leaf 1"
        assert result.metadata == document.metadata

    def test_no_extras_means_no_extra_dict(self):
        engine = SearchEngine()
        engine.index_document("sample", 1, {"name": "leaf"})
        document = engine.index.document("sample", 1)
        assert document._extra is None
        assert document.metadata == {"project_id": None, "label": "leaf"}

    def test_metadata_is_read_only(self):
        document = doc(1, "leaf", project_id=3, label="L")
        with pytest.raises(AttributeError):
            document.metadata = {}
        document.metadata["project_id"] = 4  # a copy: the document is untouched
        assert document.project_id == 3

    def test_one_document_in_two_indexes_keeps_each_length(self):
        boosted, flat = InvertedIndex(), InvertedIndex(field_boosts={})
        shared = doc(1, "alpha", "beta beta")
        boosted.add(shared)
        flat.add(shared)
        lengths = [index.document("sample", 1).length for index in (boosted, flat)]
        assert lengths[0] != lengths[1]
        fresh = InvertedIndex()
        fresh.add(doc(1, "alpha", "beta beta"))
        assert lengths[0] == fresh.document("sample", 1).length
