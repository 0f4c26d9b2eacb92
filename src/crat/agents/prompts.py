"""Prompt template loading and rendering.

Templates are versioned text assets shipped with the package; rendering is a
pure function of the placeholder values, so identical inputs always produce
byte-identical prompts (pinned by golden-file tests).
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from string import Template

from .. import tokenizers


def lang_name(code: str) -> str:
    """The display name prompts use for a code of ``tokenizers.LANG_NAMES``."""
    if code not in tokenizers.LANG_NAMES:
        raise ValueError(f"unknown language code {code!r}")
    return tokenizers.LANG_NAMES[code]


@lru_cache(maxsize=None)
def _template(name: str) -> Template:
    text = resources.files("crat.agents").joinpath("templates", f"{name}.txt").read_text("utf-8")
    return Template(text)


def render(name: str, lang_pair: tuple[str, str] | None = None, **values: str) -> str:
    """Fill in template ``name``. A ``lang_pair`` of language codes supplies
    the ``source_lang`` and ``target_lang`` display names."""
    if lang_pair is not None:
        values["source_lang"], values["target_lang"] = map(lang_name, lang_pair)
    return _template(name).substitute(values)
