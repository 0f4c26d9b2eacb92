"""Knowledge-conditioned translation.

The translator prompt serializes the graph's verified knowledge (source
facts first, then admitted external facts, then document excerpts) ahead of
the source text, under a fixed budget so retrieval can never flood the
prompt. An empty graph degenerates to a plain translation prompt with no
knowledge section at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..gateway import Gateway
from ..retrieval import RetrievedDocument
from ..transkg import INTERNAL, TransKG
from . import prompts
from .schema import chat_structured, require_str

# The knowledge budget: facts, quoted documents, and characters per quote.
_MAX_TRIPLES = 20
_MAX_DOC_EXCERPTS = 3
_EXCERPT_CHARS = 500


@dataclass(frozen=True)
class TranslatorOutput:
    text: str
    term_renderings: dict[str, list[str]]


def _validate(payload: dict) -> TranslatorOutput:
    text = require_str(payload, "translation")
    renderings_raw = payload.get("term_renderings", {})
    if not isinstance(renderings_raw, dict):
        raise ValueError("field 'term_renderings' must be an object")
    renderings: dict[str, list[str]] = {}
    for surface, value in renderings_raw.items():
        if isinstance(value, str):
            value = [value]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"renderings for {surface!r} must be a string or string array")
        renderings[surface] = list(value)
    return TranslatorOutput(text.strip(), renderings)


def _one_line(text: str, limit: int) -> str:
    flat = " ".join(text.split())
    if len(flat) <= limit:
        return flat
    return flat[:max(1, limit - 3)] + "..."


def knowledge_section(graph: TransKG,
                      documents: Mapping[str, RetrievedDocument] | None = None) -> str:
    """The prompt's knowledge block; empty string for an empty graph."""
    if graph.is_empty():
        return ""
    lines = ["Verified term knowledge (use these meanings and renderings):"]
    if graph.nodes:
        lines.append("Flagged terms: " + ", ".join(graph.nodes))
    triples = graph.triples[:_MAX_TRIPLES]
    if triples:
        lines.append("Facts:")
        for triple in triples:
            origin = ("the source text" if triple.provenance.kind == INTERNAL
                      else f"document {triple.provenance.doc_id}")
            lines.append(f"- ({triple.subject}, {triple.relation}, {triple.object}) [from {origin}]")
    if documents:
        excerpts = [doc_id for doc_id in graph.accepted_docs if doc_id in documents]
        excerpts = excerpts[:_MAX_DOC_EXCERPTS]
        if excerpts:
            lines.append("Reference excerpts:")
            for doc_id in excerpts:
                lines.append(f"- [{doc_id}] {_one_line(documents[doc_id].text, _EXCERPT_CHARS)}")
    return "\n".join(lines) + "\n\n"


def render_translator_prompt(source_text: str, graph: TransKG, lang_pair: tuple[str, str],
                             documents: Mapping[str, RetrievedDocument] | None = None) -> str:
    return prompts.render(
        "translator", lang_pair,
        knowledge_section=knowledge_section(graph, documents),
        source_text=source_text,
    )


def translate_with_knowledge(source_text: str, graph: TransKG, lang_pair: tuple[str, str],
                             backend_id: str, gateway: Gateway, transcript=None,
                             documents: Mapping[str, RetrievedDocument] | None = None,
                             ) -> TranslatorOutput:
    """Translate ``source_text`` conditioned on the graph's verified knowledge.

    ``documents`` maps accepted document ids to the retrieved documents so
    excerpts can be quoted; ids without a document are skipped. An empty
    translation after the repair budget raises ``AgentParseError``.
    """
    prompt = render_translator_prompt(source_text, graph, lang_pair, documents)
    return chat_structured(gateway, backend_id, prompt, "translator", _validate, transcript)
