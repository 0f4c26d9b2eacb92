"""Structured-output parsing shared by all agents.

Every agent reply must carry exactly one machine-readable JSON payload,
either as a fenced code block or as a bare JSON object; prose around the
block is ignored. Parsing failures trigger a bounded repair conversation:
one re-prompt quoting the error, then one "emit only the block" retry.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Iterator

from ..gateway import ChatExchange, ChatMessage, ChatRequest, Gateway, GatewayError

MAX_REPAIR_ATTEMPTS = 2

_FENCE_RE = re.compile(r"```[A-Za-z0-9_-]*[ \t]*\n(.*?)\n?```", re.DOTALL)

_REPAIR_PROMPT = (
    "The previous reply could not be used: {error}. Reply again with exactly "
    "one fenced ```json code block matching the required shape."
)
_STRICT_REPAIR_PROMPT = (
    "Emit only the fenced ```json code block with the required fields. "
    "No prose, no additional blocks."
)


class AgentError(Exception):
    """Base class for agent failures."""


class AgentParseError(AgentError):
    """No usable payload after the repair budget was spent."""

    def __init__(self, agent: str, attempts: int, last_error: str, raw_text: str):
        super().__init__(
            f"{agent} reply unparsable after {attempts} repair attempt(s): {last_error}")
        self.agent = agent
        self.attempts = attempts
        self.last_error = last_error
        self.raw_text = raw_text


def extract_payload(text: str) -> dict:
    """The single JSON object payload of a reply.

    Raises ``ValueError`` when the reply carries zero or more than one
    well-formed payload block.
    """
    candidates = []
    for block in _FENCE_RE.findall(text):
        try:
            parsed = json.loads(block)
        except json.JSONDecodeError:
            continue
        if isinstance(parsed, dict):
            candidates.append(parsed)
    if len(candidates) > 1:
        raise ValueError(f"reply contains {len(candidates)} payload blocks, expected one")
    if candidates:
        return candidates[0]
    # No usable fenced block: accept a reply that is itself the JSON object.
    try:
        parsed = json.loads(text.strip())
    except json.JSONDecodeError:
        raise ValueError("reply contains no well-formed JSON payload block") from None
    if not isinstance(parsed, dict):
        raise ValueError("payload must be a JSON object")
    return parsed


def chat_structured(gateway: Gateway, backend_id: str, prompt: str, agent: str,
                    validate: Callable[[dict], Any], transcript=None,
                    on_sent: Callable[[], object] | None = None) -> Any:
    """Run one agent call with bounded repair; returns what ``validate``
    returns for the first usable reply.

    ``validate`` turns the raw payload dict into the agent-specific value and
    raises ``ValueError`` on schema violations; a violation counts as a parse
    failure and consumes a repair attempt. ``on_sent`` goes to the first
    request's ``Gateway.complete``. A call that raises a ``GatewayError`` is
    recorded in ``transcript`` as a failed exchange before the error goes on.
    """
    messages = [ChatMessage("user", prompt)]
    raw_text = ""
    last_error = "no attempt made"
    for attempt in range(MAX_REPAIR_ATTEMPTS + 1):
        request = ChatRequest(backend_id, tuple(messages))
        try:
            exchange = gateway.complete(request, None if attempt else on_sent)
        except GatewayError as err:
            if transcript is not None:
                transcript.add_exchange(ChatExchange(
                    request, None, 0, cache_hit=False, fingerprint=err.fingerprint,
                    attempts=0, error_type=type(err).__name__))
            raise
        if transcript is not None:
            transcript.add_exchange(exchange)
        raw_text = exchange.response_text
        try:
            return validate(extract_payload(raw_text))
        except ValueError as err:
            last_error = str(err)
            if attempt < MAX_REPAIR_ATTEMPTS:
                messages.append(ChatMessage("assistant", raw_text))
                repair = (_REPAIR_PROMPT.format(error=last_error)
                          if attempt == 0 else _STRICT_REPAIR_PROMPT)
                messages.append(ChatMessage("user", repair))
    raise AgentParseError(agent, MAX_REPAIR_ATTEMPTS, last_error, raw_text)


def optional_str(payload: dict, key: str, default: str | None = "") -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string")
    return value


def require_str(payload: dict, key: str) -> str:
    value = optional_str(payload, key, None)
    if not value.strip():
        raise ValueError(f"field {key!r} must be non-empty")
    return value


def require_list(payload: dict, key: str, default=None) -> list:
    value = payload.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be an array")
    return value


def require_objects(payload: dict, key: str, default=None) -> Iterator[dict]:
    """Each entry of the array ``key``, checked to be an object as the loop
    reaches it, so an earlier entry's faults are reported first."""
    for item in require_list(payload, key, default):
        if not isinstance(item, dict):
            raise ValueError(f"each {key} entry must be an object")
        yield item
