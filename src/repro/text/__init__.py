"""Tokenisation and n-gram language modelling substrate."""

from repro.text.tokenizer import Tokenizer
from repro.text.ngram import NgramLanguageModel

__all__ = ["Tokenizer", "NgramLanguageModel"]
