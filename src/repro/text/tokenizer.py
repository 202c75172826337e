"""A small deterministic word tokenizer with sentence-boundary markers.

The simulated-LLM substrate works at the word level; this tokenizer provides
the shared notion of a "token" across the n-gram LM, the SFT trainer, and the
usage accounting in :mod:`repro.llm.api`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Tokenizer"]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?|[.,;:!?()]")


@dataclass(frozen=True)
class Tokenizer:
    """Word-level tokenizer producing lowercase tokens plus punctuation.

    Parameters
    ----------
    bos:
        Beginning-of-sequence marker prepended by :meth:`encode` when
        ``add_markers`` is requested.
    eos:
        End-of-sequence marker appended likewise.

    >>> Tokenizer().tokenize("Hello, world!")
    ['hello', ',', 'world', '!']
    """

    bos: str = "<s>"
    eos: str = "</s>"
    unk: str = "<unk>"

    def tokenize(self, text: str) -> list[str]:
        """Split text into lowercase word/punctuation tokens."""
        return _TOKEN_RE.findall(text.lower())

    def encode(self, text: str, add_markers: bool = False) -> list[str]:
        """Tokenize; optionally wrap with BOS/EOS markers."""
        toks = self.tokenize(text)
        if add_markers:
            return [self.bos, *toks, self.eos]
        return toks

    def detokenize(self, tokens: list[str]) -> str:
        """Inverse of :meth:`tokenize` up to whitespace around punctuation."""
        out: list[str] = []
        for tok in tokens:
            if tok in (self.bos, self.eos):
                continue
            if out and tok in ".,;:!?)":
                out[-1] = out[-1] + tok
            elif out and out[-1].endswith("("):
                out[-1] = out[-1] + tok
            else:
                out.append(tok)
        return " ".join(out)

    def count(self, text: str) -> int:
        """Token count used for usage accounting and length metrics."""
        return len(self.tokenize(text))
