"""Uniform access to chat-completion backends.

Two backend kinds sit behind one ``Gateway.complete`` call: deterministic
scripted mocks for tests and demos, and a generic HTTP client speaking the
common chat wire shape (``model``/``messages``/``temperature``/``max_tokens``
in, first choice's message content out). Every call decodes greedily, with
at most ``MAX_NEW_TOKENS`` new tokens and no stop sequences, and is
identified by a stable fingerprint of (backend, messages, ``PARAMS``), plus
the backend's ``model`` (an HTTP backend's model and endpoint, a file-scripted
mock's script digest), which also keys the optional on-disk response cache.
At most ``MAX_INFLIGHT_PER_BACKEND`` calls wait on one backend at a time.

HTTP goes through the standard library (``urllib.request``, with its
process-wide opener), one connection per call. ``http_proxy`` and
``https_proxy`` are read once per process, at the first call, and ``no_proxy``
on each call that a proxy would carry. TLS is verified against the system
store (``SSL_CERT_FILE`` overrides it). ``REQUESTS_CA_BUNDLE`` and
``~/.netrc`` are not read.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence
from urllib.error import HTTPError
from urllib.parse import urlparse

from . import __version__, canonical

log = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")

MAX_NEW_TOKENS = 2048

# The decoding of every call, as fingerprints, cache entries and transcripts
# record it; temperature stays the float 0.0 so that it encodes as ``0.0``.
PARAMS = {"temperature": 0.0, "max_new_tokens": MAX_NEW_TOKENS, "stop": None}

# Calls one backend may have in flight at once, over every thread of a process
# that shares the gateway: batch width times the judge fan-out stays under it.
MAX_INFLIGHT_PER_BACKEND = 16


class GatewayError(Exception):
    """Base class for gateway failures."""


class UnknownBackendError(GatewayError):
    pass


class DuplicateBackendError(GatewayError):
    pass


class BackendConfigError(GatewayError):
    pass


class ScriptedMissError(GatewayError):
    """A mock backend had no rule (and no fallback) for the request."""


class TransportError(GatewayError):
    """Timeout or connection failure; retried with backoff."""


class RateLimitError(GatewayError):
    """Provider signalled rate limiting; retried with backoff."""


class HttpStatusError(GatewayError):
    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"provider returned HTTP {status}: {body_excerpt!r}")
        self.status = status
        self.body_excerpt = body_excerpt


class ProtocolError(GatewayError):
    """Provider payload did not match the expected wire shape."""


class EmptyResponseError(GatewayError):
    """The backend produced an empty completion."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown message role: {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    backend_id: str
    messages: tuple[ChatMessage, ...]

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("request must carry at least one message")
        if self.messages[0].role == "assistant":
            raise ValueError("first message must be a system or user message")

    def last_user_content(self) -> str:
        for message in reversed(self.messages):
            if message.role == "user":
                return message.content
        return ""


def _canonical_payload(request: ChatRequest, model: dict | None = None) -> dict:
    payload = {
        "backend": request.backend_id,
        "messages": [[m.role, m.content] for m in request.messages],
        "params": PARAMS,
    }
    if model is not None:
        payload["model"] = model
    return payload


def request_fingerprint(request: ChatRequest, model: dict | None = None) -> str:
    """Stable content hash of (backend, messages, ``PARAMS``), and of ``model``,
    the identity of the model that answers, when the backend has one."""
    return canonical.digest(_canonical_payload(request, model))


@dataclass
class ChatExchange:
    """One completed gateway call. ``to_dict``, what transcripts record, leaves
    out the latency, cache flag and attempt count, which vary between reruns."""

    request: ChatRequest
    response_text: str
    latency_ms: int
    cache_hit: bool
    fingerprint: str
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "backend_id": self.request.backend_id,
            "messages": [{"role": m.role, "content": m.content} for m in self.request.messages],
            "params": dict(PARAMS),
            "response_text": self.response_text,
            "fingerprint": self.fingerprint,
        }


def http_exchange(url: str, body: bytes | None, headers: Mapping[str, str],
                  timeout_s: float) -> tuple[int, bytes]:
    """One HTTP request, a POST when ``body`` is given and a GET otherwise:
    the reply's status and whole body, whatever the status. A failure to
    connect, a timeout or a reply cut off before its end raises
    ``TransportError``."""
    request = urllib.request.Request(
        url, data=body, headers={**headers, "User-Agent": f"crat/{__version__}"})
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout_s) as reply:
                return reply.status, reply.read()
        except HTTPError as err:
            with err:
                return err.code, err.read()
    except (OSError, http.client.HTTPException) as err:
        raise TransportError(f"transport failure calling {url}: {err!r}") from err


def body_excerpt(body: bytes) -> str:
    """The start of a reply body, as error messages quote it."""
    return body.decode("utf-8", "replace")[:200]


# --- matchers and mock backends ---------------------------------------------

Matcher = Callable[[ChatRequest], bool]
Responder = Callable[[ChatRequest], str]


def request_text(request: ChatRequest) -> str:
    """All message contents joined; what substring matchers scan."""
    return "\n".join(m.content for m in request.messages)


def match_substring(needle: str) -> Matcher:
    return lambda request: needle in request_text(request)


def match_all_substrings(needles: Sequence[str]) -> Matcher:
    needles = tuple(needles)
    return lambda request: all(n in request_text(request) for n in needles)


def match_fingerprint(fingerprint: str) -> Matcher:
    return lambda request: request_fingerprint(request) == fingerprint


def echo_last_user(request: ChatRequest) -> str:
    return request.last_user_content()


class MockBackend:
    """Deterministic scripted backend.

    ``script`` is an ordered sequence of (matcher, response) rules; the first
    matching rule wins. A matcher may be a callable or a plain string, which
    matches as a substring of the joined message contents. A response may be
    a string or a callable taking the request. Immutable after construction.
    ``model`` names what answers, as ``HttpBackend.model`` does: a mock read
    from a script file names the file's digest, an in-code mock None.
    """

    def __init__(self, backend_id: str, script: Sequence[tuple[Matcher | str, str | Responder]],
                 fallback: str | Responder | None = None, model: dict | None = None):
        self.backend_id = backend_id
        self.model = model
        self._rules = tuple(
            (match_substring(m) if isinstance(m, str) else m, r) for m, r in script
        )
        self._fallback = fallback

    def generate(self, request: ChatRequest) -> str:
        for matcher, response in self._rules:
            if matcher(request):
                return response(request) if callable(response) else response
        if self._fallback is not None:
            return self._fallback(request) if callable(self._fallback) else self._fallback
        head = request.last_user_content()[:160]
        raise ScriptedMissError(
            f"backend {self.backend_id!r} has no scripted response for request "
            f"{request_fingerprint(request)[:12]} (last user message: {head!r})")


class HttpBackend:
    """Generic chat-completion HTTP client for one provider endpoint."""

    def __init__(self, backend_id: str, endpoint_url: str, model_name: str,
                 auth_token: str | None, timeout_s: float):
        self.backend_id = backend_id
        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.auth_token = auth_token
        self.timeout_s = timeout_s

    @property
    def model(self) -> dict:
        """What answers this backend's calls; part of every call's fingerprint,
        so a cached answer cannot cross models or endpoints."""
        return {"name": self.model_name, "endpoint": self.endpoint_url}

    def generate(self, request: ChatRequest) -> str:
        payload: dict = {
            "model": self.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": PARAMS["temperature"],
            "max_tokens": MAX_NEW_TOKENS,
        }
        headers = {"Content-Type": "application/json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        status, body = http_exchange(self.endpoint_url,
                                     json.dumps(payload, allow_nan=False).encode("utf-8"),
                                     headers, self.timeout_s)
        if status == 429:
            raise RateLimitError(f"rate limited by {self.endpoint_url}")
        if not 200 <= status < 300:
            raise HttpStatusError(status, body_excerpt(body))
        try:
            data = json.loads(body)
        except ValueError as err:
            raise ProtocolError(f"provider returned non-JSON payload: {body_excerpt(body)!r}") from err
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise ProtocolError(f"provider payload missing choices[0].message.content: {err}") from err
        if not isinstance(text, str):
            raise ProtocolError("provider message content is not a string")
        return text


class Gateway:
    """Backend registry, retry policy, and content-addressed response cache.

    Cache entries live at ``<cache_dir>/<fp[:2]>/<fp>.json`` and are written
    atomically (temp file + rename), so concurrent runs may share a cache
    directory. Each backend admits ``MAX_INFLIGHT_PER_BACKEND`` calls at
    once; cache reads and retry sleeps do not hold a slot.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 max_attempts: int = 3, retry_base_delay_s: float = 0.5):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_attempts = max_attempts
        self.retry_base_delay_s = retry_base_delay_s
        self._backends: dict[str, MockBackend | HttpBackend] = {}
        self._inflight: dict[str, threading.BoundedSemaphore] = {}

    # -- registration --------------------------------------------------

    def _add(self, backend: MockBackend | HttpBackend) -> str:
        if backend.backend_id in self._backends:
            raise DuplicateBackendError(f"backend id already registered: {backend.backend_id!r}")
        self._backends[backend.backend_id] = backend
        self._inflight[backend.backend_id] = threading.BoundedSemaphore(
            MAX_INFLIGHT_PER_BACKEND)
        return backend.backend_id

    def register_mock(self, backend_id: str,
                      script: Sequence[tuple[Matcher | str, str | Responder]],
                      fallback: str | Responder | None = None,
                      model: dict | None = None) -> str:
        return self._add(MockBackend(backend_id, script, fallback, model))

    def register_http(self, backend_id: str, endpoint_url: str, model_name: str,
                      auth_token_env_var: str | None = None,
                      timeout_s: float = 30.0) -> str:
        parsed = urlparse(endpoint_url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise BackendConfigError(f"malformed endpoint URL: {endpoint_url!r}")
        token = None
        if auth_token_env_var:
            token = os.environ.get(auth_token_env_var)
            if not token:
                raise BackendConfigError(
                    f"auth env var {auth_token_env_var!r} is not set for backend {backend_id!r}")
        return self._add(HttpBackend(backend_id, endpoint_url, model_name, token, timeout_s))

    def has_backend(self, backend_id: str) -> bool:
        return backend_id in self._backends

    def identity(self, settings: dict, backend_ids: Sequence[str]) -> str:
        """The hash that names a run or a report: its ``settings`` and the
        ``model`` behind each of ``backend_ids`` (None for an in-code mock or
        an unregistered id)."""
        models = {b: getattr(self._backends.get(b), "model", None) for b in backend_ids}
        return canonical.digest({"settings": settings, "models": models})

    # -- completion ------------------------------------------------------

    def complete(self, request: ChatRequest) -> ChatExchange:
        backend = self._backends.get(request.backend_id)
        if backend is None:
            raise UnknownBackendError(f"unknown backend: {request.backend_id!r}")
        fingerprint = request_fingerprint(request, backend.model)
        started = time.perf_counter()

        if self.cache_dir is not None:
            cached = self._cache_read(fingerprint)
            if cached is not None:
                return ChatExchange(request, cached, _elapsed_ms(started),
                                    cache_hit=True, fingerprint=fingerprint, attempts=0)

        text = ""
        attempts = 0
        for attempt in range(1, self.max_attempts + 1):
            attempts = attempt
            try:
                with self._inflight[request.backend_id]:
                    text = backend.generate(request)
                break
            except (TransportError, RateLimitError) as err:
                if attempt >= self.max_attempts:
                    raise
                delay = self.retry_base_delay_s * (2 ** (attempt - 1))
                log.warning("retrying %s after %s (attempt %d/%d, sleeping %.2fs)",
                            request.backend_id, err, attempt, self.max_attempts, delay)
                time.sleep(delay)
        if not text.strip():
            raise EmptyResponseError(
                f"backend {request.backend_id!r} returned an empty completion")

        if self.cache_dir is not None:
            self._cache_write(fingerprint, _canonical_payload(request, backend.model), text)
        return ChatExchange(request, text, _elapsed_ms(started),
                            cache_hit=False, fingerprint=fingerprint, attempts=attempts)

    # -- cache ----------------------------------------------------------

    def _cache_path(self, fingerprint: str) -> Path:
        return self.cache_dir / fingerprint[:2] / f"{fingerprint}.json"

    def _cache_read(self, fingerprint: str) -> str | None:
        path = self._cache_path(fingerprint)
        try:
            entry = json.loads(path.read_text("utf-8"))
            text = entry["response_text"]
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError):
            log.warning("ignoring corrupt cache entry %s", path)
            return None
        return text if isinstance(text, str) else None

    def _cache_write(self, fingerprint: str, payload: dict, text: str) -> None:
        path = self._cache_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "fingerprint": fingerprint,
            "request": payload,
            "response_text": text,
            "timestamp": time.time(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical.compact(entry))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _elapsed_ms(started: float) -> int:
    return max(0, int(round((time.perf_counter() - started) * 1000)))
