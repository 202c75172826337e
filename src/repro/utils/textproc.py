"""Low-level text processing helpers shared across the library.

These are intentionally simple, deterministic string operations — the heavy
lifting (tokenisation, n-gram language modelling) lives in
:mod:`repro.text`.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterable, Iterator

__all__ = [
    "normalize",
    "words",
    "words_normalized",
    "wordstream",
    "char_ngrams",
    "word_ngrams",
    "sentences",
    "truncate_words",
    "jaccard",
]

_WORD_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")
_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def normalize(text: str) -> str:
    """Lowercase, strip accents, and collapse whitespace.

    The text is NFKD-decomposed and folded to ASCII first, so the only
    whitespace left is ASCII: tab through carriage return, ``\\x1c`` to
    ``\\x1f`` and the space.  ``str.split()`` splits on exactly those, as
    a ``\\s+`` regex does, so runs of them become one space and the ends
    are trimmed; the result has no whitespace but single inner spaces.

    >>> normalize("  Héllo   World! ")
    'hello world!'
    """
    decomposed = unicodedata.normalize("NFKD", text)
    ascii_only = decomposed.encode("ascii", "ignore").decode("ascii")
    return " ".join(ascii_only.split()).lower()


def words(text: str) -> list[str]:
    """Split normalised text into lowercase word tokens.

    >>> words("Don't panic, 42!")
    ["don't", 'panic', '42']
    """
    return words_normalized(normalize(text))


def words_normalized(normalized_text: str) -> list[str]:
    """Tokenise text that has already been through :func:`normalize`.

    Lets batch callers normalise once and reuse the result across the
    char-gram and word-gram passes; ``words(t)`` is exactly
    ``words_normalized(normalize(t))``.

    >>> words_normalized("don't panic, 42!")
    ["don't", 'panic', '42']
    """
    return _WORD_RE.findall(normalized_text)


def wordstream(text: str) -> str:
    """Word tokens re-joined with single spaces — the canonical form for
    phrase matching (immune to punctuation and hyphenation differences).

    >>> wordstream("Re-read the question!")
    're read the question'
    """
    return " ".join(words(text))


def char_ngrams(text: str, n: int) -> Iterator[str]:
    """Yield character n-grams of the normalised text (padded with spaces)."""
    padded = f" {normalize(text)} "
    for i in range(max(0, len(padded) - n + 1)):
        yield padded[i : i + n]


def word_ngrams(tokens: Iterable[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield word n-grams from a token sequence."""
    toks = list(tokens)
    for i in range(max(0, len(toks) - n + 1)):
        yield tuple(toks[i : i + n])


def sentences(text: str) -> list[str]:
    """Split text into sentences on ``.!?`` boundaries; never returns empties."""
    parts = _SENT_SPLIT_RE.split(text.strip())
    return [p.strip() for p in parts if p.strip()]


def truncate_words(text: str, limit: int) -> str:
    """Keep at most ``limit`` whitespace-delimited words."""
    if limit <= 0:
        return ""
    pieces = text.split()
    if len(pieces) <= limit:
        return text.strip()
    return " ".join(pieces[:limit])


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two token collections (1.0 when both empty)."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = sa | sb
    return len(sa & sb) / len(union)
