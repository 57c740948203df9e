"""Full-text search (paper §2, Full-text Search).

"A search may vary from certain attributes of certain objects to the
content of readable attachments and data resources."  The engine:

* an incremental inverted index with TF-IDF ranking, kept by
  :class:`SearchIndexer` as a fold of the database's commit feed;
* quick search (one box, all object types) and advanced search (a small
  query language with field scoping, type filters, negation, OR);
* per-session search history and persistent saved queries, re-executed
  against live data;
* result export to CSV/TSV.
"""

from repro.search.tokenizer import tokenize
from repro.search.index import InvertedIndex, Document
from repro.search.query import SearchQuery, parse_query
from repro.search.engine import SearchEngine, SearchResult
from repro.search.indexer import SearchIndexer
from repro.search.history import SearchHistory, SavedQueryStore, SavedQuery
from repro.search.export import export_csv, export_tsv

__all__ = [
    "tokenize",
    "InvertedIndex",
    "Document",
    "SearchQuery",
    "parse_query",
    "SearchEngine",
    "SearchResult",
    "SearchIndexer",
    "SearchHistory",
    "SavedQueryStore",
    "SavedQuery",
    "export_csv",
    "export_tsv",
]
