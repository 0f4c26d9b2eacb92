"""LLM-judged translation quality score (CONSIS): holistic 0-100 grading
with emphasis on how accurately and consistently the flagged terms are
rendered."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from ..gateway import Gateway
from ..transcript import warn
from . import prompts
from .schema import chat_structured, optional_str, require_objects, require_str

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConsisFinding:
    surface: str
    judged_consistent: bool
    note: str = ""


@dataclass(frozen=True)
class ConsisResult:
    score: float
    term_findings: tuple[ConsisFinding, ...] = ()


def _validate(payload: dict) -> tuple[float, tuple[ConsisFinding, ...]]:
    score = payload.get("score")
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise ValueError("field 'score' must be a number")
    findings = []
    for item in require_objects(payload, "term_findings", []):
        surface = require_str(item, "surface")
        consistent = item.get("consistent")
        if not isinstance(consistent, bool):
            raise ValueError("field 'consistent' must be a boolean")
        findings.append(ConsisFinding(surface, consistent, optional_str(item, "note")))
    return float(score), tuple(findings)


def consis_evaluate(source_text: str, candidate_translation: str, surfaces: Sequence[str],
                    lang_pair: tuple[str, str], backend_id: str, gateway: Gateway,
                    transcript=None) -> ConsisResult:
    """Grade a translation of the flagged term ``surfaces``; the score is
    clamped to [0, 100].

    Unusable replies raise ``AgentParseError`` -- there is no silent default
    score.
    """
    prompt = prompts.render(
        "consis", lang_pair,
        term_list=", ".join(surfaces) if surfaces else "(none)",
        source_text=source_text,
        candidate_translation=candidate_translation,
    )
    score, findings = chat_structured(gateway, backend_id, prompt, "consis",
                                      _validate, transcript)
    if not 0.0 <= score <= 100.0:
        clamped = min(100.0, max(0.0, score))
        warn(transcript, log, f"consis: score {score} outside [0, 100], clamped to {clamped}")
        score = clamped
    return ConsisResult(score, findings)
