"""Ordered audit log of one pipeline run: stage markers, gateway exchanges,
and warnings. Stages follow the fixed pipeline order and every exchange is
recorded inside the stage that produced it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .gateway import ChatExchange

STAGES = ("detect", "extract", "retrieve", "judge", "translate")


class TranscriptError(ValueError):
    pass


@dataclass
class TranscriptEvent:
    kind: str  # "stage" | "exchange" | "warning"
    stage: str | None = None
    exchange: ChatExchange | None = None
    message: str | None = None


class AgentTranscript:
    def __init__(self):
        self.events: list[TranscriptEvent] = []
        self._stage_index = -1

    @property
    def current_stage(self) -> str | None:
        return STAGES[self._stage_index] if self._stage_index >= 0 else None

    def begin_stage(self, name: str) -> None:
        if name not in STAGES:
            raise TranscriptError(f"unknown stage: {name!r}")
        index = STAGES.index(name)
        if index <= self._stage_index:
            raise TranscriptError(
                f"stage {name!r} cannot follow {STAGES[self._stage_index]!r}")
        self._stage_index = index
        self.events.append(TranscriptEvent(kind="stage", stage=name))

    def add_exchange(self, exchange: ChatExchange) -> None:
        if self._stage_index < 0:
            raise TranscriptError("exchange recorded outside any stage")
        self.events.append(TranscriptEvent(
            kind="exchange", stage=self.current_stage, exchange=exchange))

    def warn(self, message: str) -> None:
        self.events.append(TranscriptEvent(
            kind="warning", stage=self.current_stage, message=message))

    def branch(self) -> AgentTranscript:
        """An empty transcript at this one's stage, for one call that runs
        beside others; ``join`` appends what it recorded."""
        branch = AgentTranscript()
        branch._stage_index = self._stage_index
        return branch

    def join(self, branch: AgentTranscript) -> None:
        self.events += branch.events

    def stages(self) -> list[str]:
        return [e.stage for e in self.events if e.kind == "stage"]

    def exchanges(self) -> list[ChatExchange]:
        return [e.exchange for e in self.events if e.kind == "exchange"]

    def warnings(self) -> list[str]:
        return [e.message for e in self.events if e.kind == "warning"]

    def to_dict(self) -> list[dict]:
        """Event list in canonical form, without latency, cache flags or
        attempt counts, so reruns serialize identically."""
        out = []
        for event in self.events:
            if event.kind == "stage":
                out.append({"kind": "stage", "stage": event.stage})
            elif event.kind == "exchange":
                entry = {"kind": "exchange", "stage": event.stage}
                entry.update(event.exchange.to_dict())
                out.append(entry)
            else:
                out.append({"kind": "warning", "stage": event.stage,
                            "message": event.message})
        return out


def warn(transcript: AgentTranscript | None, log: logging.Logger, message: str,
         cause: Exception | None = None) -> None:
    """Record ``message`` in ``transcript``, if any, and log it with ``cause``."""
    if transcript is not None:
        transcript.warn(message)
    log.warning("%s", message if cause is None else f"{message} ({cause})")
