"""The pipeline's agents: term detector, internal-knowledge extractor,
back-translation evidence judge, knowledge-conditioned translator, and the
CONSIS quality grader. All are stateless prompt templates over the gateway
with strict structured-output parsing and bounded repair."""

from .consis import ConsisFinding, ConsisResult, consis_evaluate
from .detector import detect_unknown_terms
from .extractor import extract_internal_knowledge
from .judge import JudgeVerdict, judge_document, render_judge_prompt
from .schema import (
    AgentError,
    AgentParseError,
    chat_structured,
    extract_payload,
)
from .translator import (
    TranslatorOutput,
    knowledge_section,
    render_translator_prompt,
    translate_with_knowledge,
)

__all__ = [
    "AgentError",
    "AgentParseError",
    "ConsisFinding",
    "ConsisResult",
    "JudgeVerdict",
    "TranslatorOutput",
    "chat_structured",
    "consis_evaluate",
    "detect_unknown_terms",
    "extract_internal_knowledge",
    "extract_payload",
    "judge_document",
    "knowledge_section",
    "render_judge_prompt",
    "render_translator_prompt",
    "translate_with_knowledge",
]
