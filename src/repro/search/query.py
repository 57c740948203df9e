"""The advanced-search query language.

Grammar (whitespace-separated clauses, AND is implicit)::

    query      := clause+
    clause     := ["-"] [field ":"] word     # "-" negates
                | "type" ":" object_type     # restrict object types
                | word "OR" word ...         # any-of group

Examples::

    arabidopsis light                  # both terms, any field
    name:arabidopsis -heat             # term in name field, NOT heat
    type:sample hopeless               # only samples
    light OR dark                      # either term

A clause whose text tokenizes into several words (an identifier such
as ``resource_00012``, or ``name:wt_light``) requires every word, each
scoped to the clause's field.  Negated clauses and clauses inside an
OR group keep only their first word: ``-wt_light`` excludes ``wt``, and
``wt_light OR dark`` means ``wt OR dark``.

The parser is intentionally forgiving: empty clauses are dropped, an
unknown trailing ``OR`` is treated as a word.  It raises
:class:`~repro.errors.QuerySyntaxError` only for queries with no
positive content (pure negation cannot be evaluated sensibly against an
inverted index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QuerySyntaxError
from repro.search.tokenizer import STOPWORDS, tokenize


@dataclass(frozen=True)
class TermClause:
    """One (possibly field-scoped, possibly negated) term."""

    term: str
    field: str | None = None
    negated: bool = False


@dataclass
class SearchQuery:
    """The parsed form the engine evaluates."""

    required: list[TermClause] = field(default_factory=list)
    negated: list[TermClause] = field(default_factory=list)
    #: Groups of alternatives: a document must match ≥1 term per group.
    any_of: list[list[TermClause]] = field(default_factory=list)
    types: list[str] = field(default_factory=list)
    raw: str = ""

    @property
    def positive_terms(self) -> list[tuple[str, str | None]]:
        terms = [(c.term, c.field) for c in self.required]
        for group in self.any_of:
            terms.extend((c.term, c.field) for c in group)
        return terms

    def is_empty(self) -> bool:
        return not (self.required or self.any_of)


def _clauses_from(token: str) -> list[TermClause]:
    """The clause's words, each scoped to its field; ``[]`` if none.

    The first word is kept even if it is a stopword (a lone ``the``
    finds nothing rather than failing to parse); later words that the
    index never holds are dropped, so requiring them cannot empty the
    result.
    """
    negated = token.startswith("-")
    if negated:
        token = token[1:]
    field_name: str | None = None
    if ":" in token:
        field_name, token = token.split(":", 1)
        field_name = field_name.strip().lower() or None
    words = tokenize(token, keep_stopwords=True)
    words[1:] = [word for word in words[1:] if word not in STOPWORDS]
    return [
        TermClause(term=word, field=field_name, negated=negated) for word in words
    ]


def parse_query(raw: str) -> SearchQuery:
    """Parse *raw* into a :class:`SearchQuery`.

    Raises :class:`QuerySyntaxError` when nothing positive remains.
    """
    query = SearchQuery(raw=raw)
    tokens = raw.split()
    index = 0
    pending_or: list[TermClause] = []
    while index < len(tokens):
        token = tokens[index]
        if token.upper() == "OR":
            index += 1
            continue
        lowered = token.lower()
        if lowered.startswith("type:"):
            type_name = lowered[len("type:"):].strip()
            if type_name:
                query.types.append(type_name)
            index += 1
            continue
        clauses = _clauses_from(token)
        index += 1
        if not clauses:
            continue
        clause = clauses[0]
        # Look ahead: is this token part of an OR chain?
        in_or_chain = (
            index < len(tokens) and tokens[index].upper() == "OR"
        ) or bool(pending_or)
        if clause.negated:
            query.negated.append(clause)
            continue
        if in_or_chain:
            pending_or.append(clause)
            chain_continues = (
                index < len(tokens) and tokens[index].upper() == "OR"
            )
            if not chain_continues:
                query.any_of.append(pending_or)
                pending_or = []
        else:
            query.required.extend(clauses)
    if pending_or:
        query.any_of.append(pending_or)
    if query.is_empty():
        raise QuerySyntaxError(
            f"query {raw!r} contains no searchable positive term"
        )
    return query
