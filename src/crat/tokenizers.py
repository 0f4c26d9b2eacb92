"""Tokenizers shared by the retrieval index and the BLEU metric.

Two modes only, both dependency-free and deterministic:

* ``simple`` -- lowercase, split on anything that is not a word character.
  Suitable for space-delimited languages.
* ``char`` -- one token per non-whitespace character. Used for Chinese,
  where whitespace carries no segmentation information.
"""

from __future__ import annotations

import re

SIMPLE = "simple"
CHAR = "char"
TOKENIZER_IDS = (SIMPLE, CHAR)

# The language codes crat knows, with the names prompts give them.
LANG_NAMES = {
    "ar": "Arabic", "de": "German", "en": "English", "es": "Spanish",
    "fr": "French", "hi": "Hindi", "it": "Italian", "ja": "Japanese",
    "ko": "Korean", "nl": "Dutch", "pl": "Polish", "pt": "Portuguese",
    "ru": "Russian", "sv": "Swedish", "th": "Thai", "tr": "Turkish",
    "vi": "Vietnamese", "zh": "Chinese",
}

# Languages tokenized per character; every other one is space-delimited.
CHAR_LANGS = frozenset({"zh"})

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# For ASCII text: A-Z to a-z, the other \w characters ([a-z0-9_]) kept, and
# every other code point to a space, so ``split`` yields the \w+ runs.
_ASCII_WORDS = str.maketrans({chr(code): chr(code).lower() if _WORD_RE.match(chr(code)) else " "
                              for code in range(128)})


def tokenize(text: str, tokenizer_id: str = SIMPLE) -> list[str]:
    """Split ``text`` into tokens according to ``tokenizer_id``."""
    if tokenizer_id == SIMPLE:
        if text.isascii():
            return text.translate(_ASCII_WORDS).split()
        # Lowered after matching: "İ".lower() adds U+0307, which is not \w.
        return [word.lower() for word in _WORD_RE.findall(text)]
    if tokenizer_id == CHAR:
        return [ch for ch in text if not ch.isspace()]
    raise ValueError(f"unknown tokenizer: {tokenizer_id!r}")


def word_spans(text: str) -> list[tuple[int, int]]:
    """Character offsets of the ``simple`` tokens, in order."""
    return [(m.start(), m.end()) for m in _WORD_RE.finditer(text)]


def tokenizer_for_lang(lang: str) -> str:
    """Pick the tokenizer for a target language code."""
    return CHAR if lang in CHAR_LANGS else SIMPLE
