"""The search service: evaluation, access control, snippets."""

from __future__ import annotations

import heapq
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, NamedTuple

from repro.obs import Observability
from repro.search.index import DocKey, Document, InvertedIndex
from repro.search.query import SearchQuery, parse_query
from repro.search.tokenizer import tokenize
from repro.security.acl import AccessControl
from repro.security.principals import Principal


@dataclass(frozen=True)
class SearchResult:
    """One hit, ready for display or export."""

    entity_type: str
    entity_id: int
    score: float
    label: str
    snippet: str
    metadata: dict[str, Any]


#: Bound on cached ranked answers (distinct query shapes per index
#: generation).  An entry is key pointers plus per-project position
#: arrays: the 210 shapes of the T1 search vocabulary take 3.8 MB on
#: half the T1 corpus.  At 128 that working set thrashed the LRU.
SEARCH_CACHE_SIZE = 256


class _Ranked(NamedTuple):
    """Every match of one query shape, best first, for all principals."""

    #: Doc keys sorted by ``(-score, key)``.
    keys: list[DocKey]
    #: ``project_id`` (``None``: public) -> ascending positions in ``keys``.
    by_project: dict[int | None, array]


def _snippet(document: Document, terms: list[str], *, width: int = 90) -> str:
    """A short excerpt around the first query term (in query order) found."""
    text = document.text()
    lowered = text.lower()
    position = -1
    for term in terms:
        position = lowered.find(term)
        if position >= 0:
            break
    if position < 0:
        return text[:width]
    start = max(0, position - width // 3)
    excerpt = text[start : start + width]
    prefix = "…" if start > 0 else ""
    suffix = "…" if start + width < len(text) else ""
    return f"{prefix}{excerpt}{suffix}"


def _has(docs: dict, scoped_field: str | None, key: DocKey) -> bool:
    per_field = docs.get(key)
    return per_field is not None and (scoped_field is None or scoped_field in per_field)


class SearchEngine:
    """Quick and advanced search over the indexed corpus."""

    def __init__(
        self,
        *,
        acl: AccessControl | None = None,
        obs: Observability | None = None,
    ):
        self._index = InvertedIndex()
        #: Called before every public read or write of the index; a
        #: :class:`~repro.search.indexer.SearchIndexer` sets it to build
        #: the index on first use.
        self.before_use: Callable[[], None] = lambda: None
        self._acl = acl
        self.obs = obs if obs is not None else Observability()
        self._m_query_seconds = self.obs.metrics.histogram(
            "search_query_seconds", "Full query evaluation latency"
        )
        self._m_queries = self.obs.metrics.counter(
            "search_queries_total", "Queries evaluated"
        )
        self._m_results = self.obs.metrics.histogram(
            "search_result_count",
            "Results returned per query",
            buckets=(0, 1, 2, 5, 10, 25, 50, 100, 250),
        )
        self._m_index_ops = self.obs.metrics.counter(
            "search_index_ops_total",
            "Documents (re)indexed or removed",
            labels=("action",),
        )
        cache_total = self.obs.metrics.counter(
            "search_cache_total",
            "Ranked-answer cache lookups by result",
            labels=("result",),
        )
        self._m_cache_hit = cache_total.labels(result="hit")
        self._m_cache_miss = cache_total.labels(result="miss")
        # Ranked answers, keyed by the index generation plus the
        # canonical query shape.  An entry is derived purely from index
        # contents and serves every principal: the per-principal ACL
        # step picks project buckets out of it on the way out and is
        # never cached.  Portal workers share it, hence the lock.
        self._ranked_cache: "OrderedDict[tuple, _Ranked]" = OrderedDict()
        self._cache_lock = threading.Lock()

    # -- indexing -----------------------------------------------------------------

    @property
    def index(self) -> InvertedIndex:
        """The inverted index (built first, if it is built on first use)."""
        self.before_use()
        return self._index

    @index.setter
    def index(self, index: InvertedIndex) -> None:
        self._index = index

    def index_document(
        self,
        entity_type: str,
        entity_id: int,
        fields: dict[str, str],
        *,
        project_id: int | None = None,
        label: str = "",
        **metadata: Any,
    ) -> None:
        """(Re-)index one object.

        ``project_id`` drives access-control filtering at query time;
        objects without one (e.g. vocabulary values) are public.
        """
        self.before_use()
        self._put(entity_type, entity_id, fields, project_id, label, metadata)

    def remove_document(self, entity_type: str, entity_id: int) -> bool:
        self.before_use()
        return self._drop(entity_type, entity_id)

    # The indexer writes through these two: they skip ``before_use``,
    # which is what builds the index in the first place.

    def _put(
        self,
        entity_type: str,
        entity_id: int,
        fields: dict[str, str],
        project_id: int | None = None,
        label: str = "",
        metadata: "dict[str, Any] | None" = None,
    ) -> None:
        document = Document(
            entity_type, entity_id, {k: str(v) for k, v in fields.items()},
            metadata,
        )
        document.project_id = project_id
        document.label = label or fields.get("name", f"{entity_type} {entity_id}")
        self._index.add(document)
        self._m_index_ops.labels(action="index").inc()

    def _drop(self, entity_type: str, entity_id: int) -> bool:
        removed = self._index.remove(entity_type, entity_id)
        if removed:
            self._m_index_ops.labels(action="remove").inc()
        return removed

    # -- searching -------------------------------------------------------------------

    def search(
        self,
        principal: Principal,
        query: "str | SearchQuery",
        *,
        types: list[str] | None = None,
        limit: int = 25,
    ) -> list[SearchResult]:
        """Evaluate *query* for *principal*, best matches first.

        The per-principal ACL filter reads project membership through
        the database, so inside a bound read view (a portal GET) it
        sees access rights at the request's snapshot, consistent with
        every other read of that request.
        """
        self.before_use()
        with self.obs.tracer.span("search.query", user=principal.login) as span:
            timer = self.obs.timer()
            results = self._evaluate(principal, query, types=types, limit=limit)
            self._m_queries.inc()
            self._m_query_seconds.observe(timer.elapsed())
            self._m_results.observe(len(results))
            span.set(results=len(results))
            return results

    def _evaluate(
        self,
        principal: Principal,
        query: "str | SearchQuery",
        *,
        types: list[str] | None,
        limit: int,
    ) -> list[SearchResult]:
        if isinstance(query, str):
            query = parse_query(query)
        effective_types = set(query.types or [])
        if types:
            effective_types |= set(types)

        ranked = self._ranked(query, effective_types)
        if ranked is None:
            return []
        if self._acl is None or principal.is_expert:
            chosen = ranked.keys[:limit]
        else:
            visible = set(self._acl.visible_project_ids(principal))
            buckets = [
                positions
                for project_id, positions in ranked.by_project.items()
                if project_id is None or project_id in visible
            ]
            chosen = [
                ranked.keys[position]
                for position in islice(heapq.merge(*buckets), limit)
            ]

        positive = query.positive_terms
        terms = [term for term, _ in positive]
        results = []
        for key in chosen:
            document = self._index.document(*key)
            if document is None:
                continue
            results.append(
                SearchResult(
                    entity_type=key[0],
                    entity_id=key[1],
                    score=round(self._index.score(key, positive), 6),
                    label=document.label,
                    snippet=_snippet(document, terms),
                    metadata=document.metadata,
                )
            )
        return results

    def _ranked(
        self, query: SearchQuery, effective_types: set[str]
    ) -> _Ranked | None:
        """The ranked answer for *query*, cached per index generation.

        Returns ``None`` for a query with no positive clause.  The cache
        key includes the index generation, so any add/remove/clear makes
        every previous entry unreachable (entries age out of the bounded
        LRU rather than being swept eagerly).
        """
        if not query.required and not query.any_of:
            return None
        shape = (
            self._index.generation,
            tuple((c.term, c.field) for c in query.required),
            tuple(
                tuple((c.term, c.field) for c in group)
                for group in query.any_of
            ),
            tuple((c.term, c.field) for c in query.negated),
            tuple(sorted(effective_types)),
        )
        with self._cache_lock:
            cached = self._ranked_cache.get(shape)
            if cached is not None:
                self._ranked_cache.move_to_end(shape)
        if cached is not None:
            self._m_cache_hit.inc()
            return cached
        self._m_cache_miss.inc()

        keys = []
        by_project: dict[int | None, array] = {}
        for key in self._index.rank(
            self._matches(query, effective_types), query.positive_terms
        ):
            document = self._index.document(*key)
            if document is None:
                continue
            project_id = document.project_id
            bucket = by_project.get(project_id)
            if bucket is None:
                bucket = by_project[project_id] = array("I")
            bucket.append(len(keys))
            keys.append(key)
        result = _Ranked(keys, by_project)
        with self._cache_lock:
            self._ranked_cache[shape] = result
            while len(self._ranked_cache) > SEARCH_CACHE_SIZE:
                self._ranked_cache.popitem(last=False)
        return result

    def _matches(
        self, query: SearchQuery, effective_types: set[str]
    ) -> list[DocKey]:
        """Keys satisfying *query*'s boolean structure and type filter.

        Each required clause, and each OR group (the union of its
        alternatives), is one requirement.  The rarest seeds the
        candidates; every other requirement and every negation is a
        membership test against its posting dict, so a common term's
        posting list is never copied.
        """
        posting = self._index.posting
        requirements = [[(posting(c.term), c.field)] for c in query.required]
        requirements += [
            [(posting(c.term), c.field) for c in group] for group in query.any_of
        ]
        requirements.sort(key=lambda alts: sum(len(docs) for docs, _ in alts))
        first, *others = requirements
        # Kept in posting order, which is close to key order, so the
        # ranking sort runs in near-linear time.
        if len(first) == 1 and first[0][1] is None:
            matched = list(first[0][0])
        else:
            matched = list(dict.fromkeys(
                key for docs, scoped in first for key in list(docs)
                if _has(docs, scoped, key)
            ))
        for alts in others:
            matched = [
                key for key in matched
                if any(_has(docs, scoped, key) for docs, scoped in alts)
            ]
        for clause in query.negated:
            docs = posting(clause.term)
            matched = [key for key in matched if not _has(docs, clause.field, key)]
        if effective_types:
            matched = [key for key in matched if key[0] in effective_types]
        return matched

    def quick_search(
        self, principal: Principal, text: str, *, limit: int = 10
    ) -> list[SearchResult]:
        """The main-screen quick box: plain words, all object types."""
        terms = tokenize(text)
        if not terms:
            return []
        return self.search(principal, " ".join(terms), limit=limit)

    # -- stats -----------------------------------------------------------------------

    def statistics(self) -> dict[str, int]:
        self.before_use()
        return {
            "documents": len(self._index),
            "terms": self._index.term_count(),
            "postings": self._index.posting_count(),
            "posting_shapes": self._index.shape_count(),
            "generation": self._index.generation,
            "candidate_cache_entries": len(self._ranked_cache),
        }
