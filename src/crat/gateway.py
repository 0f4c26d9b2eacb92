"""Uniform access to chat-completion backends.

Deterministic scripted mocks and a generic HTTP chat client sit behind one
``Gateway.complete`` call, which fingerprints the request, reads and writes
the optional response cache, bounds the calls in flight on each backend and
retries what may pass. ``http_exchange`` is the one HTTP transport, for chat
backends and remote search sources alike: a small HTTP/1.1 client on
kept-alive sockets from one process-wide pool, direct or through the
environment's proxy, which gets the proxy URL's user and password as
``Proxy-Authorization``. Each request goes out in one write; a reply's body
is framed as RFC 9112 section 6.3 says (chunked, else ``Content-Length``,
else read until the server closes), interim 1xx replies are skipped, and a
line over 65 536 bytes or more than 100 header fields is a
``TransportError``. It follows no redirect. ``check_endpoint`` admits only
http and https endpoints with a host. The README's introduction and its
Configuration section describe the cache, the retry policy and the transport.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import mmap
import os
import random
import socket
import ssl
import threading
import time
import urllib.request
from base64 import b64encode
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping, Sequence, TypeVar
from urllib.parse import unquote, urlsplit, urlunsplit

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

# Attempts per call for what may pass on a retry (``TransportError`` and
# ``RetryLaterError``); attempt n without a ``Retry-After`` sleeps a uniform
# draw up to ``RETRY_BASE_DELAY_S * 2^(n-1)``, and no sleep exceeds
# ``RETRY_CAP_S``, whatever the provider's ``Retry-After`` asks for.
MAX_ATTEMPTS = 3
RETRY_BASE_DELAY_S = 0.5
RETRY_CAP_S = 30.0


class GatewayError(Exception):
    """Base class for gateway failures. ``fingerprint`` names the request when
    ``Gateway.complete`` had fingerprinted it before the failure."""

    fingerprint: str | None = None


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


def _canonical_request(request: ChatRequest, model: dict | None = None) -> tuple[str, str]:
    """``request_fingerprint`` and the canonical JSON that it hashes."""
    payload = {
        "backend": request.backend_id,
        "messages": [[m.role, m.content] for m in request.messages],
        "params": PARAMS,
    }
    if model is not None:
        payload["model"] = model
    text = canonical.compact(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), text


def request_fingerprint(request: ChatRequest, model: dict | None = None) -> str:
    """Stable content hash of (backend, messages, ``PARAMS``), and of ``model``,
    the identity of the model that answers, when the backend has one."""
    return _canonical_request(request, model)[0]


@dataclass
class ChatExchange:
    """One gateway call: a completed one, with its reply, or a failed one, with
    ``error_type``, the class name of the ``GatewayError`` it raised, in place
    of a reply (its latency, cache flag and attempt count are then unknown)."""

    request: ChatRequest
    response_text: str | None
    latency_ms: int
    cache_hit: bool
    fingerprint: str | None
    attempts: int = 1
    error_type: str | None = None


_PORTS = {"http": 80, "https": 443}

# Connections are kept only where the reply headers can be acknowledged at
# once; elsewhere a kept-alive call could wait out the delayed ACK.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

# A reply head's limits, as ``http.client`` sets them: bytes per line, fields.
_MAX_LINE, _MAX_HEADERS = 65536, 100

# Idle kept-alive connections, each a socket and its buffered reader, by
# (scheme, host, port, proxy), shared by every thread of the process; the
# most recently used one is taken first.
_IDLE: dict[tuple, list[tuple[socket.socket, BinaryIO]]] = {}
_IDLE_LOCK = threading.Lock()


@functools.cache
def _proxies() -> dict[str, tuple]:
    """Each scheme's proxy in the environment, read at the first call: its host,
    its port, and the ``Proxy-Authorization`` header of its URL's user and
    password, percent-decoded, as a tuple of (name, value) items."""
    proxies = {}
    environment = urllib.request.getproxies()  # no_proxy is left to proxy_bypass
    for scheme in _PORTS.keys() & environment.keys():
        url = environment[scheme]
        proxy = urlsplit(url if "//" in url else f"//{url}")
        authorization = ()
        if proxy.username and proxy.password:  # both, as urllib's ProxyHandler asks
            credentials = f"{unquote(proxy.username)}:{unquote(proxy.password)}".encode()
            authorization = (("Proxy-Authorization", f"Basic {b64encode(credentials).decode()}"),)
        proxies[scheme] = (proxy.hostname, proxy.port, authorization)
    return proxies


_tls = functools.cache(ssl.create_default_context)  # made at the first https connection


def check_endpoint(url: str) -> str:
    """``url``, unless it is not an http or https URL with a host and, if it
    names one, a port from 1 to 65535."""
    parts = urlsplit(url)
    try:
        port_ok = parts.port is None or parts.port > 0
    except ValueError:  # not a number, or out of range
        port_ok = False
    if parts.scheme not in _PORTS or not parts.hostname or not port_ok:
        raise BackendConfigError(f"malformed endpoint URL: {url!r}")
    return url


def http_exchange(url: str, body: bytes | None, headers: Mapping[str, str],
                  timeout_s: float, on_sent: Callable[[], object] | None = None,
                  ) -> tuple[int, bytes, dict[str, str]]:
    """One HTTP/1.1 request, a POST when ``body`` is given and a GET otherwise,
    on a kept-alive connection, direct or to the environment's proxy: the
    reply's status, whole body and headers (names lower-cased), whatever the
    status. A failure to connect, a timeout or a malformed or cut-off reply
    raises ``TransportError``. ``on_sent`` runs after each write of the
    request (again when a dropped idle connection makes it resend), before
    the reply is read; what it raises closes the connection and propagates
    as it is."""
    parts = urlsplit(url)
    target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
    connection, raised = None, []

    def sent() -> None:  # tells what on_sent raises from the transport's own errors
        try:
            if on_sent is not None:
                on_sent()
        except BaseException as err:
            raised.append(err)
            raise

    try:
        host, port = parts.hostname, parts.port or _PORTS[parts.scheme]
        authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        # The Host field names the port only when it is not the scheme's default.
        fields = {"Host": authority.removesuffix(f":{_PORTS[parts.scheme]}"),
                  "Accept-Encoding": "identity",
                  **({} if body is None else {"Content-Length": str(len(body))}),
                  **headers, "User-Agent": f"crat/{__version__}"}
        proxy = _proxies().get(parts.scheme)
        if proxy and urllib.request.proxy_bypass(parts.netloc):
            proxy = None
        elif proxy and parts.scheme == "http":
            target = f"http://{parts.netloc}{target}"  # the absolute form, RFC 9112 3.2.2
            fields.update(proxy[2], Host=parts.netloc)
        request = _head(f"{'GET' if body is None else 'POST'} {target}", fields) + (body or b"")
        key = (parts.scheme, host, port, proxy)
        with _IDLE_LOCK:
            idle = _IDLE.get(key)
            connection = idle.pop() if idle else None
        if connection is not None:
            try:
                status, reply_headers, http11 = _send(connection, request, timeout_s, sent)
            except (ConnectionResetError, BrokenPipeError) as err:
                if err in raised:
                    raise
                # Closed by the server while idle: no byte of a reply came.
                _close(connection)
                connection = None
        if connection is None:
            # A proxy URL without a port names the request's default port.
            address = (proxy[0], proxy[1] or _PORTS[parts.scheme]) if proxy else (host, port)
            sock = socket.create_connection(address, timeout_s)
            connection = sock, sock.makefile("rb")
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if proxy and parts.scheme == "https":  # a CONNECT tunnel, RFC 9110 9.3.6
                connect = _head(f"CONNECT {authority}", {"Host": authority, **dict(proxy[2])})
                tunnel_status = _send(connection, connect, timeout_s)[0]
                if tunnel_status != 200:
                    raise OSError(f"Tunnel connection failed: {tunnel_status}")
            if parts.scheme == "https":
                connection[1].close()  # the socket itself goes on inside the TLS one
                sock = _tls().wrap_socket(sock, server_hostname=host)
                connection = sock, sock.makefile("rb")
            status, reply_headers, http11 = _send(connection, request, timeout_s, sent)
        keep = (_QUICKACK is not None and http11
                and "close" not in reply_headers.get("connection", "").lower())
        if keep:
            connection[0].setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        data, keep = _read_body(connection[1], status, reply_headers, keep)
    except BaseException as err:
        if connection is not None:
            _close(connection)
        if err in raised or not isinstance(err, (OSError, ValueError)):
            raise
        # ValueError: a bad port or a malformed reply
        raise TransportError(f"transport failure calling {url}: {err!r}") from err
    if keep:
        with _IDLE_LOCK:
            _IDLE.setdefault(key, []).append(connection)
    else:
        _close(connection)
    return status, data, reply_headers


def _head(start: str, fields: Mapping[str, str]) -> bytes:
    """An HTTP/1.1 request line and header fields, as they go on the wire."""
    lines = [f"{start} HTTP/1.1", *(f"{name}: {value}" for name, value in fields.items())]
    if any("\r" in line or "\n" in line for line in lines):  # a token read with its newline
        raise ValueError(f"CR or LF in a request line or header field: {lines[0]!r}")
    return "\r\n".join([*lines, "", ""]).encode("latin-1")


def _close(connection: tuple[socket.socket, BinaryIO]) -> None:
    connection[1].close()
    connection[0].close()


def _send(connection: tuple[socket.socket, BinaryIO], request: bytes, timeout_s: float,
          on_sent: Callable[[], object] | None = None) -> tuple[int, dict[str, str], bool]:
    """Send ``request`` in one write under ``timeout_s`` and run ``on_sent``.
    The reply's status past any interim 1xx reply, its header fields by
    lower-cased name (a repeated one joined by commas) and whether it speaks
    HTTP/1.1."""
    connection[0].settimeout(timeout_s)
    connection[0].sendall(request)
    if on_sent is not None:
        on_sent()
    status = 100
    while 100 <= status < 200:
        line = _read_line(connection[1])
        if not (line[:5] == b"HTTP/" and line[8:9] == b" " and line[9:12].isdigit()):
            # No byte at all: the server closed the connection, maybe while idle.
            raise (ValueError if line else ConnectionResetError)(f"status line {line[:80]!r}")
        status, fields = int(line[9:12]), {}
        while (field := _read_line(connection[1])) not in (b"\r\n", b"\n"):
            name, colon, value = field.decode("latin-1").partition(":")
            if not colon or len(fields) == _MAX_HEADERS:
                raise ValueError(f"malformed header line or over {_MAX_HEADERS} fields")
            name, value = name.strip().lower(), value.strip()
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
    return status, fields, line[:8] == b"HTTP/1.1"


def _read_body(reader: BinaryIO, status: int, fields: Mapping[str, str],
               keep: bool) -> tuple[bytes, bool]:
    """A reply's body framed by RFC 9112 6.3, and whether to ``keep`` its
    connection: chunked if that is the last transfer coding (not kept with a
    ``Content-Length`` too), else ``Content-Length`` bytes, else all until EOF."""
    coding = fields.get("transfer-encoding", "").rpartition(",")[2].strip().lower()
    if status in (204, 304):
        return b"", keep
    if coding == "chunked":
        chunks = []
        while size := int(_read_line(reader).partition(b";")[0], 16):
            chunks.append(_read_exactly(reader, size))
            _read_exactly(reader, 2)  # the CRLF after the chunk
        while _read_line(reader).strip():  # the trailer fields
            pass
        return b"".join(chunks), keep and "content-length" not in fields
    if "content-length" in fields and not coding:
        return _read_exactly(reader, int(fields["content-length"])), keep
    return reader.read(), False


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    data = reader.read(size) if size >= 0 else b""
    if len(data) != size:
        raise ValueError(f"reply cut off after {len(data)} of {size} bytes")
    return data


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


def echo_last_user(request: ChatRequest) -> str:
    return request.last_user_content()


class MockBackend:
    """Deterministic scripted backend.

    ``script`` is an ordered sequence of (matcher, response) rules; the first
    matching rule wins. A matcher may be a callable or a plain string, which
    matches as a substring of the joined message contents. A response may be
    a string or a callable taking the request. Immutable after construction.
    ``model`` names what answers, as ``HttpBackend.model`` does: a mock read
    from a script file names ``canonical.digest`` of the parsed script
    document (``config.build_gateway``), so re-indenting the file keeps the
    run hash and the cache hits and changing a rule changes both; an in-code
    mock names None.
    """

    def __init__(self, backend_id: str, script: Sequence[tuple[Matcher | str, str | Responder]],
                 fallback: str | Responder | None = None, model: dict | None = None):
        self.backend_id = backend_id
        self.model = model
        self._rules = tuple(
            (match_substring(m) if isinstance(m, str) else m, r) for m, r in script
        )
        self._fallback = fallback

    def generate(self, request: ChatRequest, on_sent: Callable[[], object] | None = None) -> str:
        """The first matching rule's response, else the fallback's; ``on_sent``
        runs once the response is made, as if it had been sent."""
        response = next((r for matcher, r in self._rules if matcher(request)), self._fallback)
        if response is None:
            head = request.last_user_content()[:160]
            raise ScriptedMissError(
                f"backend {self.backend_id!r} has no scripted response for request "
                f"{request_fingerprint(request, self.model)[:12]} (last user message: {head!r})")
        text = response(request) if callable(response) else response
        if on_sent is not None:
            on_sent()
        return text


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

    def generate(self, request: ChatRequest, on_sent: Callable[[], object] | None = None) -> str:
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
            headers, self.timeout_s, on_sent)
        if status in RETRY_STATUSES:
            raise RetryLaterError(status, body_excerpt(body),
                                  retry_after_s(reply_headers.get("retry-after")))
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

    Each gateway appends cache entries to a segment of its own,
    ``<cache_dir>/<pid>-<16 hex>.jsonl``, one line each; the key directory
    maps every fingerprint in the directory's segments to its line. An entry
    that cannot be read is a miss, and one that cannot be written is logged.
    Each backend admits ``MAX_INFLIGHT_PER_BACKEND`` calls at once; cache
    reads and retry sleeps do not hold a slot.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._closed = False
        self._backends: dict[str, MockBackend | HttpBackend] = {}
        self._inflight: dict[str, threading.BoundedSemaphore] = {}
        self._lock = threading.Lock()
        # This gateway's segment, open for appending, and its (inode, device).
        self._segment, self._opened = None, None
        # Segment paths by number, this gateway's first, and the key directory
        # (fingerprint -> segment number, offset), built at the first read.
        self._segments: list[Path] = [] if cache_dir is None else [
            self.cache_dir / f"{os.getpid()}-{os.urandom(8).hex()}.jsonl"]
        self._keys: dict[str, tuple[int, int]] | None = None
        # Starts its threads on first submit.
        self._fan_out = ThreadPoolExecutor(MAX_INFLIGHT_PER_BACKEND,
                                           thread_name_prefix="crat-fan-out")

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop the gateway's threads and close its cache segment. A closed
        gateway takes no more work: ``complete`` and ``fan_out`` raise
        ``RuntimeError``."""
        self._closed = True
        self._fan_out.shutdown()
        with self._lock:
            if self._segment is not None:
                self._segment.close()

    def fan_out(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``fn`` of each item, run on the gateway's ``MAX_INFLIGHT_PER_BACKEND``
        worker threads; the results in item order, or the first item's
        exception once every item is done. ``fn`` must not fan out itself."""
        futures = [self._fan_out.submit(fn, item) for item in items]
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
        check_endpoint(endpoint_url)
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

    def complete(self, request: ChatRequest,
                 on_sent: Callable[[], object] | None = None) -> ChatExchange:
        """One call through the cache, the in-flight bound and the retry
        policy. ``on_sent`` runs once: after the request is written, for an
        HTTP backend, or before ``complete`` returns, for a cache hit or a
        mock."""
        if self._closed:
            raise RuntimeError("cannot complete a request on a closed gateway")
        backend = self._backends.get(request.backend_id)
        if backend is None:
            raise UnknownBackendError(f"unknown backend: {request.backend_id!r}")
        fingerprint, encoded = _canonical_request(request, backend.model)
        started = time.perf_counter()
        if on_sent is not None:
            on_sent = functools.cache(on_sent)  # once: a retry's write does not run it

        if self.cache_dir is not None:
            cached = self._cache_read(fingerprint)
            if cached is not None:
                if on_sent is not None:
                    on_sent()
                return ChatExchange(request, cached, _elapsed_ms(started),
                                    cache_hit=True, fingerprint=fingerprint, attempts=0)

        text = ""
        attempts = 0
        try:
            for attempt in range(1, MAX_ATTEMPTS + 1):
                attempts = attempt
                try:
                    with self._inflight[request.backend_id]:
                        text = backend.generate(request, on_sent)
                    break
                except (TransportError, RetryLaterError) as err:
                    if attempt >= MAX_ATTEMPTS:
                        raise
                    delay = self._retry_delay_s(attempt, getattr(err, "retry_after_s", None))
                    log.warning("retrying %s after %s (attempt %d/%d, sleeping %.2fs)",
                                request.backend_id, err, attempt, MAX_ATTEMPTS, delay)
                    time.sleep(delay)
            if not text.strip():
                raise EmptyResponseError(
                    f"backend {request.backend_id!r} returned an empty completion")
        except GatewayError as err:
            err.fingerprint = fingerprint
            raise

        if self.cache_dir is not None:
            self._cache_append(fingerprint, encoded, text)
        return ChatExchange(request, text, _elapsed_ms(started),
                            cache_hit=False, fingerprint=fingerprint, attempts=attempts)

    def _retry_delay_s(self, attempt: int, retry_after: float | None) -> float:
        """The provider's ``Retry-After`` when it gave one, else full-jitter
        exponential backoff; at most ``RETRY_CAP_S`` either way."""
        if retry_after is None:
            retry_after = random.uniform(0, RETRY_BASE_DELAY_S * 2 ** (attempt - 1))
        return min(retry_after, RETRY_CAP_S)

    # -- cache ----------------------------------------------------------

    def _cache_read(self, fingerprint: str) -> str | None:
        with self._lock:
            if self._keys is None:
                self._keys = self._scan_segments()
            place = self._keys.get(fingerprint)
        if place is None:
            return None
        path, offset = self._segments[place[0]], place[1]
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                entry = json.loads(handle.readline())
            if entry["fingerprint"] == fingerprint and isinstance(entry["response_text"], str):
                return entry["response_text"]
        except FileNotFoundError:  # its segment was moved or deleted
            return None
        except (OSError, ValueError, LookupError, TypeError):
            pass
        log.warning("ignoring corrupt cache entry %s at offset %d", path, offset)
        return None

    def _scan_segments(self) -> dict[str, tuple[int, int]]:
        """The key directory over every segment in the cache directory; lines
        torn by a killed process or headed by no fingerprint are skipped."""
        keys = {}
        for path in sorted(self.cache_dir.glob("*.jsonl")):
            number, offset, skipped = len(self._segments), 0, False
            self._segments.append(path)
            try:
                with (open(path, "rb") as handle,
                      mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as view):
                    while offset < len(view):
                        end = view.find(b"\n", offset)  # -1: a line torn by a killed process
                        # Sorted keys put the 64-digit fingerprint first.
                        fingerprint = view[offset + 16:offset + 80]
                        if (end > offset + 81 and view[offset:offset + 16] == b'{"fingerprint":"'
                                and view[offset + 80:offset + 82] == b'",' and fingerprint.isalnum()):
                            keys[fingerprint.decode()] = (number, offset)
                        else:
                            skipped = True
                        offset = end + 1 if end >= 0 else len(view)
            except ValueError:  # an empty segment, which cannot be mapped
                pass
            except OSError:
                skipped = True
            if skipped:
                log.warning("skipped unreadable lines in cache segment %s", path)
        return keys

    def _cache_append(self, fingerprint: str, encoded: str, text: str) -> None:
        """Append the ``canonical.compact`` line of one entry, with the request
        as ``encoded``, to this gateway's segment and flush it. A segment
        moved or deleted is replaced by a new one and an empty key directory."""
        data = (f'{{"fingerprint":"{fingerprint}","request":{encoded},"response_text":'
                f'{canonical.compact(text)},"timestamp":{canonical.compact(time.time())}}}\n'
                ).encode("utf-8")
        path = self._segments[0]
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot write to the cache of a closed gateway")
            try:
                try:
                    moved = self._segment is not None and os.stat(path)[1:3] != self._opened
                except FileNotFoundError:  # moved or deleted
                    moved = True
                if moved:
                    self._segment.close()
                    self._segment, self._keys = None, {}
                if self._segment is None:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    self._segment = open(path, "ab")
                    self._opened = os.fstat(self._segment.fileno())[1:3]
                self._segment.write(data)
                self._segment.flush()  # appended where the file ended, whatever wrote last
                self._keys[fingerprint] = (0, self._segment.tell() - len(data))
            except OSError as err:
                log.warning("could not write cache entry %s: %s", path, err)


def _elapsed_ms(started: float) -> int:
    return max(0, int(round((time.perf_counter() - started) * 1000)))
