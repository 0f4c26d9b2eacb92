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

The cache is written behind the call: a new reply waits in memory, where an
identical request already finds it, while one background writer puts it on
disk (temp file + rename). ``Gateway.flush`` returns once every reply is on
disk; ``run_batch`` flushes before it returns, and ``with Gateway(...)``
flushes and stops the gateway's threads on exit. The gateway also owns the
worker threads that the judge fan-out runs on. Both start on first use.

HTTP goes through the standard library. Each call takes an idle connection
to its (scheme, host, port) from a process-wide pool of ``http.client``
connections, or opens one, and puts it back once the whole reply is read,
unless the reply closes it or the exchange failed. A reused connection that
the server has closed fails before any byte of the reply arrives; the
request then goes once more on a new connection, within the same call.
Once the reply headers are in, the client acknowledges them at once
(``TCP_QUICKACK``), so that a server that sends the body as a second small
write, with Nagle's algorithm on, does not wait out the delayed ACK. Where
the platform has no ``TCP_QUICKACK`` every connection is closed after its
call. A request that a proxy carries goes through ``urllib.request``, one
connection per call: ``http_proxy`` and ``https_proxy`` are read once per
process, at the first call, and ``no_proxy`` on each call. TLS is verified
against the system store (``SSL_CERT_FILE`` overrides it).
``REQUESTS_CA_BUNDLE`` and ``~/.netrc`` are not read.
"""

from __future__ import annotations

import functools
import http.client
import json
import logging
import os
import random
import socket
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from datetime import datetime, timezone
from email.message import Message
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar
from urllib.error import HTTPError
from urllib.parse import urlparse, urlsplit, urlunsplit

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

# Replies that ask to be retried: rate limiting, and a provider or a proxy in
# front of it briefly unavailable.
RETRY_STATUSES = (429, 502, 503, 504)

# The longest sleep between two attempts, whether backoff or the provider's
# ``Retry-After`` asks for more.
RETRY_CAP_S = 30.0


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


class HttpStatusError(GatewayError):
    def __init__(self, status: int, body_excerpt: str, retry_after_s: float | None = None):
        super().__init__(f"provider returned HTTP {status}: {body_excerpt!r}")
        self.status = status
        self.body_excerpt = body_excerpt
        self.retry_after_s = retry_after_s


class RetryLaterError(HttpStatusError):
    """A status in ``RETRY_STATUSES``; retried with backoff, or after the
    reply's ``Retry-After`` (``retry_after_s``) when it gives one."""


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


_CONNECTION_CLASSES = {"http": http.client.HTTPConnection,
                       "https": http.client.HTTPSConnection}

# Connections are kept only where the reply headers can be acknowledged at
# once; elsewhere a kept-alive call could wait out the delayed ACK.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class _ConnectionPool:
    """Idle kept-alive connections by (scheme, host, port), shared by every
    thread of the process; the most recently used one is taken first."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}

    def take(self, key: tuple) -> http.client.HTTPConnection | None:
        with self._lock:
            idle = self._idle.get(key)
            return idle.pop() if idle else None

    def put(self, key: tuple, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            self._idle.setdefault(key, []).append(connection)


_POOL = _ConnectionPool()


@functools.cache
def _urllib() -> tuple[urllib.request.OpenerDirector, dict[str, str]]:
    """The environment's proxy table, read at the first call, and a default
    urllib opener that proxies by it."""
    proxies = urllib.request.getproxies()
    return urllib.request.build_opener(urllib.request.ProxyHandler(proxies)), proxies


def http_exchange(url: str, body: bytes | None, headers: Mapping[str, str],
                  timeout_s: float) -> tuple[int, bytes, Message]:
    """One HTTP request, a POST when ``body`` is given and a GET otherwise:
    the reply's status, whole body and headers, whatever the status. A
    failure to connect, a timeout or a reply cut off before its end raises
    ``TransportError``."""
    headers = {**headers, "User-Agent": f"crat/{__version__}"}
    parts = urlsplit(url)
    connection_class = _CONNECTION_CLASSES.get(parts.scheme)
    opener, proxies = _urllib()
    if connection_class is None or (
            parts.scheme in proxies and not urllib.request.proxy_bypass(parts.netloc)):
        return _urllib_exchange(opener, url, body, headers, timeout_s)
    method = "GET" if body is None else "POST"
    target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
    connection = None
    try:
        host, port = parts.hostname, parts.port or connection_class.default_port
        key = (parts.scheme, host, port)
        connection = _POOL.take(key)
        if connection is not None:
            try:
                reply = _send(connection, method, target, body, headers, timeout_s)
            except (ConnectionResetError, BrokenPipeError):
                # Closed by the server while idle: no byte of a reply came
                # (``RemoteDisconnected`` is a ``ConnectionResetError``).
                connection.close()
                connection = None
        if connection is None:
            connection = connection_class(host, port, timeout=timeout_s)
            reply = _send(connection, method, target, body, headers, timeout_s)
        keep = _QUICKACK is not None and not reply.will_close
        if keep:
            connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        data = reply.read()
    except (OSError, http.client.HTTPException, ValueError) as err:  # ValueError: a bad port
        if connection is not None:
            connection.close()
        raise TransportError(f"transport failure calling {url}: {err!r}") from err
    if keep:
        _POOL.put(key, connection)
    else:
        connection.close()
    return reply.status, data, reply.headers


def _send(connection: http.client.HTTPConnection, method: str, target: str,
          body: bytes | None, headers: Mapping[str, str],
          timeout_s: float) -> http.client.HTTPResponse:
    """Send one request on ``connection`` under ``timeout_s``; the reply with
    its status line and headers read."""
    connection.timeout = timeout_s
    if connection.sock is not None:
        connection.sock.settimeout(timeout_s)
    connection.request(method, target, body, headers)
    return connection.getresponse()


def _urllib_exchange(opener: urllib.request.OpenerDirector, url: str, body: bytes | None,
                     headers: Mapping[str, str], timeout_s: float) -> tuple[int, bytes, Message]:
    """``http_exchange`` through urllib, one connection per call: for a
    request that a proxy carries, or whose scheme is not http or https."""
    request = urllib.request.Request(url, data=body, headers=dict(headers))
    try:
        try:
            with opener.open(request, timeout=timeout_s) as reply:
                return reply.status, reply.read(), reply.headers
        except HTTPError as err:
            with err:
                return err.code, err.read(), err.headers
    except (OSError, http.client.HTTPException) as err:
        raise TransportError(f"transport failure calling {url}: {err!r}") from err


def body_excerpt(body: bytes) -> str:
    """The start of a reply body, as error messages quote it."""
    return body.decode("utf-8", "replace")[:200]


def retry_after_s(value: str | None) -> float | None:
    """A ``Retry-After`` header's delay in seconds, given as seconds or as an
    HTTP date (a date already past gives 0); None when the header is
    absent, negative or malformed."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # "-0000": a UTC time from an unknown zone
            when = when.replace(tzinfo=timezone.utc)
        return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())
    return seconds if seconds >= 0 else None


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
        status, body, reply_headers = http_exchange(
            self.endpoint_url, json.dumps(payload, allow_nan=False).encode("utf-8"),
            headers, self.timeout_s)
        if status in RETRY_STATUSES:
            raise RetryLaterError(status, body_excerpt(body),
                                  retry_after_s(reply_headers.get("Retry-After")))
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


T = TypeVar("T")
R = TypeVar("R")


class Gateway:
    """Backend registry, retry policy, content-addressed response cache, and
    the threads that calls fan out on.

    Cache entries live at ``<cache_dir>/<fp[:2]>/<fp>.json`` and are written
    atomically (temp file + rename) behind the call, so concurrent runs may
    share a cache directory. A cache file that cannot be read is a miss, and
    one that cannot be written is logged. Each backend admits
    ``MAX_INFLIGHT_PER_BACKEND`` calls at once; cache reads and retry sleeps
    do not hold a slot.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 max_attempts: int = 3, retry_base_delay_s: float = 0.5):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_attempts = max_attempts
        self.retry_base_delay_s = retry_base_delay_s
        self._backends: dict[str, MockBackend | HttpBackend] = {}
        self._inflight: dict[str, threading.BoundedSemaphore] = {}
        self._lock = threading.Lock()
        self._pending: dict[str, str] = {}  # fingerprint -> reply not yet on disk
        self._pools: dict[str, ThreadPoolExecutor] = {}  # started on first use

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Flush the cache and stop the gateway's threads. A later call
        starts them again."""
        self.flush()
        with self._lock:
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            pool.shutdown()

    def flush(self) -> None:
        """Return once every reply pending so far is in the cache directory,
        or has failed to get there and been logged."""
        with self._lock:
            writer = self._pools.get("cache-writer")
        if writer is not None:
            writer.submit(lambda: None).result()  # one thread: runs after every earlier write

    def _pool(self, name: str, workers: int) -> ThreadPoolExecutor:
        with self._lock:
            pool = self._pools.get(name)
            if pool is None:
                pool = self._pools[name] = ThreadPoolExecutor(
                    workers, thread_name_prefix=f"crat-{name}")
            return pool

    def fan_out(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``fn`` of each item, run on the gateway's ``MAX_INFLIGHT_PER_BACKEND``
        worker threads; the results in item order, or the first item's
        exception once every item is done. ``fn`` must not fan out itself."""
        pool = self._pool("fan-out", MAX_INFLIGHT_PER_BACKEND)
        futures = [pool.submit(fn, item) for item in items]
        wait(futures)
        return [future.result() for future in futures]

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
            except (TransportError, RetryLaterError) as err:
                if attempt >= self.max_attempts:
                    raise
                delay = self._retry_delay_s(attempt, getattr(err, "retry_after_s", None))
                log.warning("retrying %s after %s (attempt %d/%d, sleeping %.2fs)",
                            request.backend_id, err, attempt, self.max_attempts, delay)
                time.sleep(delay)
        if not text.strip():
            raise EmptyResponseError(
                f"backend {request.backend_id!r} returned an empty completion")

        if self.cache_dir is not None:
            payload = _canonical_payload(request, backend.model)
            with self._lock:
                self._pending[fingerprint] = text
            self._pool("cache-writer", 1).submit(self._write_behind, fingerprint, payload, text)
        return ChatExchange(request, text, _elapsed_ms(started),
                            cache_hit=False, fingerprint=fingerprint, attempts=attempts)

    def _retry_delay_s(self, attempt: int, retry_after: float | None) -> float:
        """The provider's ``Retry-After`` when it gave one, else full-jitter
        exponential backoff (uniform up to base * 2^(attempt-1)); at most
        ``RETRY_CAP_S`` either way."""
        if retry_after is None:
            retry_after = random.uniform(0, self.retry_base_delay_s * 2 ** (attempt - 1))
        return min(retry_after, RETRY_CAP_S)

    # -- cache ----------------------------------------------------------

    def _cache_path(self, fingerprint: str) -> Path:
        return self.cache_dir / fingerprint[:2] / f"{fingerprint}.json"

    def _cache_read(self, fingerprint: str) -> str | None:
        pending = self._pending.get(fingerprint)
        if pending is not None:
            return pending
        path = self._cache_path(fingerprint)
        try:
            entry = json.loads(path.read_text("utf-8"))
            text = entry["response_text"]
        except OSError:
            return None
        except (ValueError, KeyError, TypeError):
            log.warning("ignoring corrupt cache entry %s", path)
            return None
        return text if isinstance(text, str) else None

    def _write_behind(self, fingerprint: str, payload: dict, text: str) -> None:
        """The writer thread's task: put one reply on disk, then drop it from
        the pending replies."""
        try:
            self._cache_write(fingerprint, payload, text)
        except OSError as err:
            log.warning("could not write cache entry %s: %s", self._cache_path(fingerprint), err)
        finally:
            with self._lock:
                self._pending.pop(fingerprint, None)

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
