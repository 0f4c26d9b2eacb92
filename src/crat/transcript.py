"""Ordered audit log of one pipeline run: stage markers, gateway exchanges,
and warnings. Stages follow the fixed pipeline order and every exchange is
recorded inside the stage that produced it.

``AgentTranscript.to_dict`` writes each message of a conversation once: a
repair turn is written with ``"continues": true`` and only what it adds to
the previous exchange's messages and reply, and a failed call with
``error_type`` in place of ``response_text``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .gateway import PARAMS, ChatExchange, ChatMessage

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
        attempt counts, so reruns serialize identically. An exchange holds
        its ``backend_id``, ``params``, ``fingerprint`` and ``messages``, and
        its ``response_text`` or, for a failed call, its ``error_type``. One
        whose request starts with the previous exchange's messages and then
        that exchange's reply, as ``assistant`` (a repair turn), has
        ``"continues": true`` and holds only the messages that follow."""
        out = []
        previous = None  # the last exchange's messages and its reply
        for event in self.events:
            if event.kind == "stage":
                out.append({"kind": "stage", "stage": event.stage})
            elif event.kind == "exchange":
                exchange = event.exchange
                messages = exchange.request.messages
                entry = {"kind": "exchange", "stage": event.stage,
                         "backend_id": exchange.request.backend_id, "params": dict(PARAMS),
                         "fingerprint": exchange.fingerprint}
                if previous is not None and messages[:len(previous)] == previous:
                    entry["continues"] = True
                    messages = messages[len(previous):]
                entry["messages"] = [{"role": m.role, "content": m.content} for m in messages]
                if exchange.error_type is None:
                    entry["response_text"] = exchange.response_text
                    previous = exchange.request.messages + (
                        ChatMessage("assistant", exchange.response_text),)
                else:
                    entry["error_type"] = exchange.error_type
                    previous = None
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
