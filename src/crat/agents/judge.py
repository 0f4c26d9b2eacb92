"""Evidence judging via back-translation.

For one (term, document) pair the judge proposes a target-language rendering
of the term assuming the document is true, back-translates that rendering in
context, and rules CORRECT only when the back-translation preserves the
source meaning. Unusable replies and failed calls fail closed to INCORRECT so
that neither can admit evidence into the graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from ..gateway import Gateway, GatewayError
from ..retrieval import RetrievedDocument
from ..transcript import warn
from ..transkg import INCORRECT, VERDICTS, KnowledgeTriple, TermCandidate
from . import prompts
from .schema import AgentParseError, chat_structured, require_str

log = logging.getLogger(__name__)

# Document text is truncated in the prompt to keep the judge's context bounded.
JUDGE_DOC_CHARS = 2000


@dataclass(frozen=True)
class JudgeVerdict:
    """Ruling for one judged document, with the back-translation evidence.
    ``fail_closed`` marks an INCORRECT ruled because the judge's reply was
    unusable or its call failed."""

    doc_id: str
    verdict: str
    proposed_rendering: str
    back_translation: str
    alignment_rationale: str
    facts: tuple[tuple[str, str, str], ...] = ()
    fail_closed: bool = False

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")


def _validate(payload: dict) -> dict:
    verdict = require_str(payload, "verdict").strip().upper()
    if verdict not in VERDICTS:
        raise ValueError(f"verdict must be CORRECT or INCORRECT, got {verdict!r}")
    facts = payload.get("facts", [])
    if not isinstance(facts, list):
        raise ValueError("field 'facts' must be an array")
    parsed_facts = []
    for fact in facts:
        if (not isinstance(fact, list) or len(fact) != 3
                or not all(isinstance(part, str) for part in fact)):
            raise ValueError("each fact must be a [subject, relation, object] string triple")
        parsed_facts.append(tuple(fact))
    out = {"verdict": verdict, "facts": tuple(parsed_facts)}
    for key in ("proposed_rendering", "back_translation", "rationale"):
        value = payload.get(key, "")
        if not isinstance(value, str):
            raise ValueError(f"field {key!r} must be a string")
        out[key] = value
    return out


def _facts_lines(internal_knowledge: Sequence[KnowledgeTriple]) -> str:
    if not internal_knowledge:
        return "(none)"
    return "\n".join(f"- ({t.subject}, {t.relation}, {t.object})"
                     for t in internal_knowledge)


def render_judge_prompt(internal_knowledge: Sequence[KnowledgeTriple],
                        doc: RetrievedDocument, source_text: str,
                        term: TermCandidate, lang_pair: tuple[str, str]) -> str:
    doc_text = doc.text if len(doc.text) <= JUDGE_DOC_CHARS else doc.text[:JUDGE_DOC_CHARS] + "..."
    return prompts.render(
        "judge", lang_pair,
        term_surface=term.surface,
        term_category=term.category,
        source_text=source_text,
        internal_facts=_facts_lines(internal_knowledge),
        doc_id=doc.id,
        doc_title=doc.title or "(untitled)",
        doc_text=doc_text,
    )


def judge_document(internal_knowledge: Sequence[KnowledgeTriple], doc: RetrievedDocument,
                   source_text: str, term: TermCandidate, lang_pair: tuple[str, str],
                   backend_id: str, gateway: Gateway, transcript=None) -> JudgeVerdict:
    """Judge one (term, document) pair; fails closed to INCORRECT."""
    prompt = render_judge_prompt(internal_knowledge, doc, source_text, term, lang_pair)
    try:
        parsed = chat_structured(gateway, backend_id, prompt, "judge", _validate, transcript)
    except AgentParseError as err:
        warn(transcript, log,
             f"judge: unparsable reply for document {doc.id!r}, ruling INCORRECT", err)
        return JudgeVerdict(doc.id, INCORRECT, "", "", "unparsable", fail_closed=True)
    except GatewayError as err:
        warn(transcript, log, f"judge: call failed for document {doc.id!r} "
                              f"({type(err).__name__}), ruling INCORRECT", err)
        return JudgeVerdict(doc.id, INCORRECT, "", "", "call failed", fail_closed=True)
    return JudgeVerdict(
        doc_id=doc.id,
        verdict=parsed["verdict"],
        proposed_rendering=parsed["proposed_rendering"],
        back_translation=parsed["back_translation"],
        alignment_rationale=parsed["rationale"],
        facts=parsed["facts"],
    )
