"""Internal knowledge extraction: relationships the source text itself
states about the flagged terms."""

from __future__ import annotations

import logging
from typing import Sequence

from ..gateway import Gateway
from ..transcript import warn
from ..transkg import INTERNAL, KnowledgeTriple, Provenance, TermCandidate
from . import prompts
from .schema import chat_structured, require_list, require_objects, require_str

log = logging.getLogger(__name__)


def _validate(payload: dict) -> list[tuple[str, str, str, list[str]]]:
    triples = []
    for item in require_objects(payload, "triples"):
        subject = require_str(item, "subject")
        relation = require_str(item, "relation")
        obj = require_str(item, "object")
        keys = require_list(item, "terms")
        if not all(isinstance(k, str) for k in keys):
            raise ValueError("field 'terms' must contain strings")
        triples.append((subject, relation, obj, keys))
    return triples


def extract_internal_knowledge(source_text: str, terms: Sequence[TermCandidate],
                               backend_id: str, gateway: Gateway,
                               transcript=None, on_sent=None) -> list[KnowledgeTriple]:
    """Extract source-context triples for the flagged terms.

    With no terms there is nothing to extract and no model call is made.
    Triples referencing surfaces outside ``terms`` are dropped with a warning,
    as are triples with no term reference at all. ``on_sent`` runs while the
    first request is in flight (see ``Gateway.complete``).
    """
    if not terms:
        return []
    known = {t.surface for t in terms}
    prompt = prompts.render(
        "extractor",
        term_list=", ".join(t.surface for t in terms),
        source_text=source_text,
    )
    reported = chat_structured(gateway, backend_id, prompt, "extractor", _validate, transcript,
                               on_sent)

    triples = []
    for subject, relation, obj, keys in reported:
        unknown = sorted(set(keys) - known)
        if unknown:
            warn(transcript, log,
                 f"extractor: dropped triple ({subject}, {relation}, {obj}) "
                 f"referencing unknown term(s): {', '.join(unknown)}")
            continue
        if not keys:
            warn(transcript, log,
                 f"extractor: dropped triple ({subject}, {relation}, {obj}) "
                 f"with no term reference")
            continue
        triples.append(KnowledgeTriple(subject, relation, obj,
                                       Provenance(INTERNAL), frozenset(keys)))
    return triples
