"""The inverted index with TF-IDF ranking.

Documents are field-structured (``{"name": ..., "description": ...}``)
so queries can scope to a field (``name:arabidopsis``).  Postings map
``term -> {doc_key -> {field -> tf}}``; scoring is classic TF-IDF with
cosine-style length normalization and a configurable per-field boost
(names weigh more than free text).

Each distinct ``{field -> tf}`` value is stored once: postings of the
same shape (``{"name": 1}``, ``{"name": 1, "uri": 1}``, ...) point at
one shared dict, which is never mutated.  A corpus has a handful of
shapes and hundreds of thousands of postings.
"""

from __future__ import annotations

import math
from typing import Any

from repro.search.tokenizer import tokenize

#: Default boost per field; unlisted fields weigh 1.0.
DEFAULT_FIELD_BOOSTS = {"name": 3.0, "value": 2.0}

DocKey = tuple[str, int]  # (entity_type, entity_id)


class Document:
    """One indexed object.

    The index holds one per searchable row, so it is slotted.
    ``project_id`` (access control) and ``label`` (display) are
    attributes; other metadata, rare, stays in a dict that is ``None``
    when empty.  ``length`` is the TF-IDF norm, set by the index that
    holds the document (``None`` until then).
    """

    __slots__ = (
        "entity_type", "entity_id", "fields", "project_id", "label",
        "_extra", "length",
    )

    def __init__(
        self,
        entity_type: str,
        entity_id: int,
        fields: dict[str, str],
        metadata: dict[str, Any] | None = None,
    ):
        self.entity_type = entity_type
        self.entity_id = entity_id
        self.fields = fields
        extra = dict(metadata or ())
        self.project_id: int | None = extra.pop("project_id", None)
        self.label: str = extra.pop("label", "")
        self._extra = extra or None
        self.length: float | None = None

    @property
    def metadata(self) -> dict[str, Any]:
        """Carried through to results, not searched: a fresh dict of the
        extras plus ``project_id`` and ``label``."""
        return {
            **(self._extra or {}),
            "project_id": self.project_id,
            "label": self.label,
        }

    @property
    def key(self) -> DocKey:
        return (self.entity_type, self.entity_id)

    def text(self) -> str:
        return " ".join(str(v) for v in self.fields.values())


class InvertedIndex:
    """Incremental term index over :class:`Document` objects."""

    def __init__(self, *, field_boosts: dict[str, float] | None = None):
        self._postings: dict[str, dict[DocKey, dict[str, int]]] = {}
        self._documents: dict[DocKey, Document] = {}
        #: Intern table of posting values, keyed by their items.  Grows
        #: only with distinct (field, tf) combinations; ``remove`` leaves
        #: it alone.
        self._shapes: dict[tuple, dict[str, int]] = {}
        self._boosts = dict(DEFAULT_FIELD_BOOSTS if field_boosts is None else field_boosts)
        # Monotonic generation, bumped on every index mutation.  The
        # search engine keys cached ranked answers on it — the same
        # trick the storage layer plays with table versions — so a
        # stale answer can never be served.
        self._generation = 0

    @property
    def generation(self) -> int:
        """Version of the index contents; changes on add/remove/clear."""
        return self._generation

    # -- maintenance -----------------------------------------------------------------

    def add(self, document: Document) -> None:
        """Index *document*, replacing any previous version."""
        key = document.key
        if key in self._documents:
            self.remove(*key)
        if document.length is not None:  # held by another index: its own copy
            document = Document(
                document.entity_type, document.entity_id, document.fields,
                document.metadata,
            )
        term_fields: dict[str, dict[str, int]] = {}
        for field_name, value in document.fields.items():
            for token in tokenize(str(value)):
                per_field = term_fields.get(token)
                if per_field is None:
                    term_fields[token] = {field_name: 1}
                else:
                    per_field[field_name] = per_field.get(field_name, 0) + 1
        postings = self._postings
        shapes = self._shapes
        for term, per_field in term_fields.items():
            shape = tuple(per_field.items())
            shared = shapes.get(shape)
            if shared is None:
                shapes[shape] = per_field
            else:
                per_field = shared
            docs = postings.get(term)
            if docs is None:
                postings[term] = {key: per_field}
            else:
                docs[key] = per_field
        document.length = self._length_of(term_fields)
        self._documents[key] = document
        self._generation += 1

    def _length_of(self, term_fields: dict[str, dict[str, int]]) -> float:
        total = 0.0
        for per_field in term_fields.values():
            weighted = sum(
                tf * self._boosts.get(field_name, 1.0)
                for field_name, tf in per_field.items()
            )
            total += weighted * weighted
        return math.sqrt(total) or 1.0

    def remove(self, entity_type: str, entity_id: int) -> bool:
        """Drop a document; returns whether it was indexed.

        Only the document's own posting lists are visited: its terms are
        re-derived from the stored fields, exactly as :meth:`add` did.
        """
        key = (entity_type, entity_id)
        document = self._documents.get(key)
        if document is None:
            return False
        terms = {
            token
            for value in document.fields.values()
            for token in tokenize(str(value))
        }
        for term in terms:
            docs = self._postings[term]
            del docs[key]
            if not docs:
                del self._postings[term]
        del self._documents[key]
        self._generation += 1
        return True

    def clear(self) -> None:
        self._postings.clear()
        self._documents.clear()
        self._shapes.clear()
        self._generation += 1

    # -- introspection -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, key: DocKey) -> bool:
        return key in self._documents

    def document(self, entity_type: str, entity_id: int) -> Document | None:
        return self._documents.get((entity_type, entity_id))

    def term_count(self) -> int:
        return len(self._postings)

    def posting_count(self) -> int:
        """(term, document) entries across all posting lists."""
        return sum(map(len, self._postings.values()))

    def shape_count(self) -> int:
        """Distinct posting values interned since the last :meth:`clear`."""
        return len(self._shapes)

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    # -- retrieval ------------------------------------------------------------------------

    def _idf(self, term: str) -> float:
        df = self.document_frequency(term)
        if df == 0:
            return 0.0
        return math.log(1.0 + len(self._documents) / df)

    def _weight(self, per_field: dict[str, int], scoped_field: str | None) -> float:
        """Boosted term frequency of one posting entry; 0 if the term is
        not in *scoped_field*."""
        boosts = self._boosts
        if scoped_field is not None:
            return per_field.get(scoped_field, 0) * boosts.get(scoped_field, 1.0)
        weighted = 0.0
        for field_name, tf in per_field.items():
            weighted += tf * boosts.get(field_name, 1.0)
        return weighted

    def _term_score(
        self, term: str, key: DocKey, scoped_field: str | None
    ) -> float:
        per_field = self._postings.get(term, {}).get(key)
        if per_field is None:
            return 0.0
        weighted = self._weight(per_field, scoped_field)
        if not weighted:
            return 0.0
        return (1.0 + math.log(weighted)) * self._idf(term)

    def posting(self, term: str) -> dict[DocKey, dict[str, int]]:
        """``doc_key -> {field -> tf}`` for *term*; the caller must not
        mutate it."""
        return self._postings.get(term) or {}

    def candidates(self, term: str, scoped_field: str | None = None) -> set[DocKey]:
        """Documents containing *term* (optionally only in one field)."""
        docs = self._postings.get(term)
        if docs is None:
            return set()
        if scoped_field is None:
            return set(docs)
        return {key for key, per_field in docs.items() if scoped_field in per_field}

    def score(
        self,
        key: DocKey,
        terms: list[tuple[str, str | None]],
    ) -> float:
        """TF-IDF score of a document against ``(term, field)`` pairs."""
        raw = 0.0
        for term, scoped in terms:
            raw += self._term_score(term, key, scoped)
        if raw == 0.0:
            return 0.0
        return raw / self._documents[key].length

    def rank(
        self,
        keys: list[DocKey],
        terms: list[tuple[str, str | None]],
    ) -> list[DocKey]:
        """The distinct *keys* ordered by ``(-score(key, terms), key)``.

        One pass per term, with its idf computed once.  A key's terms are
        added left to right from ``0.0`` here and in :meth:`score` alike
        (not with ``sum``, whose float algorithm differs across Python
        versions), so the floats, and thus the order and its ties, are
        exactly :meth:`score`'s.  Nothing is allocated per key but its
        float, so ranking a large answer feeds the collector nothing.
        Keys given close to key order (as postings hold them) sort in
        near-linear time.
        """
        raw = dict.fromkeys(keys, 0.0)
        weight = self._weight
        for term, scoped in terms:
            docs = self._postings.get(term)
            if not docs:
                continue
            idf = self._idf(term)
            for key in raw:
                per_field = docs.get(key)
                if per_field is not None:
                    weighted = weight(per_field, scoped)
                    if weighted:
                        raw[key] += (1.0 + math.log(weighted)) * idf
        documents = self._documents
        for key, value in raw.items():
            if value != 0.0:
                raw[key] = value / documents[key].length
        ranked = sorted(raw)
        ranked.sort(key=raw.__getitem__, reverse=True)  # stable: ties keep key order
        return ranked

    def documents(self) -> list[Document]:
        return list(self._documents.values())
