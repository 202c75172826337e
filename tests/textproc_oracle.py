"""The regex ``normalize``, kept here as the reference.

:func:`~repro.utils.textproc.normalize` collapses whitespace with
``" ".join(ascii_only.split())``.  :func:`reference_normalize` is the form
it replaced: one ``\\s+`` substitution and a ``strip``.  After the ASCII
fold both split on the same characters, so the two must return equal
strings for every text.
"""

from __future__ import annotations

import re
import unicodedata

_WS_RE = re.compile(r"\s+")


def reference_normalize(text: str) -> str:
    """Lowercase, strip accents, and collapse whitespace with a regex."""
    decomposed = unicodedata.normalize("NFKD", text)
    ascii_only = decomposed.encode("ascii", "ignore").decode("ascii")
    return _WS_RE.sub(" ", ascii_only).strip().lower()
