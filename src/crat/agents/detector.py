"""Unknown-term detection: prompt the model for risky terms, then anchor
every reported surface in the source text."""

from __future__ import annotations

import logging

from ..gateway import Gateway
from ..transcript import warn
from ..transkg import TERM_CATEGORIES, TermCandidate
from . import prompts
from .schema import chat_structured, optional_str, require_objects, require_str

log = logging.getLogger(__name__)


def _normalize_category(raw: str) -> str:
    category = raw.strip().lower().replace(" ", "_").replace("-", "_")
    if category not in TERM_CATEGORIES:
        raise ValueError(f"unknown term category: {raw!r}")
    return category


def _validate(payload: dict) -> list[tuple[str, str, str]]:
    return [(require_str(item, "surface"), _normalize_category(require_str(item, "category")),
             optional_str(item, "rationale"))
            for item in require_objects(payload, "terms")]


def detect_unknown_terms(source_text: str, lang_pair: tuple[str, str], backend_id: str,
                         gateway: Gateway, transcript=None) -> list[TermCandidate]:
    """Detect translation-risky terms in ``source_text``.

    Reported surfaces are anchored at their first occurrence in the text;
    surfaces that cannot be located are dropped with a transcript warning.
    Overlapping spans are merged keeping the longer span, and the result is
    sorted by span start.
    """
    if not source_text:
        raise ValueError("source text must be non-empty")
    prompt = prompts.render("detector", lang_pair, source_text=source_text)
    reported = chat_structured(gateway, backend_id, prompt, "detector", _validate, transcript)

    candidates = []
    seen_surfaces = set()
    for surface, category, rationale in reported:
        if surface in seen_surfaces:
            continue
        seen_surfaces.add(surface)
        start = source_text.find(surface)
        if start < 0:
            warn(transcript, log,
                 f"detector: surface not found in source text, dropped: {surface!r}")
            continue
        candidates.append(TermCandidate(surface, start, start + len(surface),
                                        category, rationale))

    # Merge overlaps keeping the longer span; equal lengths keep the earlier.
    kept: list[TermCandidate] = []
    for candidate in sorted(candidates, key=lambda c: (c.start - c.end, c.start, c.surface)):
        if any(c.start < candidate.end and candidate.start < c.end for c in kept):
            continue
        kept.append(candidate)
    return sorted(kept, key=lambda c: c.start)
