"""Shared test fixtures: scripted gateways for the bank/Scotia demo and a
scriptable local HTTP stub server."""

from __future__ import annotations

import json
import socket
import threading
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import pytest

from crat import fixtures
from crat.config import mock_script_from_dict
from crat.gateway import ChatMessage, ChatRequest, Gateway, MockBackend
from crat.pipeline import PipelineConfig, write_transcript
from crat.retrieval import LocalIndexSource, build_index


DEMO_SCRIPTS = {
    "det": fixtures.detector_script,
    "ext": fixtures.extractor_script,
    "jdg": fixtures.judge_script,
    "trn": fixtures.translator_script,
    "con": fixtures.consis_script,
}


def simple_request(backend_id: str, prompt: str) -> ChatRequest:
    """A request of one user message."""
    return ChatRequest(backend_id, (ChatMessage("user", prompt),))


def demo_backend(backend_id: str) -> MockBackend:
    """A stand-alone copy of one of the demo's scripted mock backends."""
    rules, fallback = mock_script_from_dict(DEMO_SCRIPTS[backend_id]())
    return MockBackend(backend_id, rules, fallback)


def register_demo_backends(gateway: Gateway, **responders) -> dict[str, str]:
    """Register the demo's scripted mock backends, except that a backend id
    given in ``responders`` answers every request through that callable;
    returns the role map."""
    for backend_id, script in DEMO_SCRIPTS.items():
        if backend_id in responders:
            gateway.register_mock(backend_id, [], fallback=responders[backend_id])
        else:
            rules, fallback = mock_script_from_dict(script())
            gateway.register_mock(backend_id, rules, fallback)
    return {"detector": "det", "extractor": "ext", "judge": "jdg",
            "translator": "trn", "consis": "con"}


def demo_pipeline_config(**overrides) -> PipelineConfig:
    defaults = dict(
        detector_backend="det",
        extractor_backend="ext",
        judge_backend="jdg",
        translator_backend="trn",
        sources=[LocalIndexSource(build_index(fixtures.DEMO_CORPUS))],
        k_per_source=3,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def artifact_bytes(results, directory) -> list[bytes]:
    """The bytes of every file ``write_transcript`` writes for ``results``
    under ``directory``, in order."""
    return [path.read_bytes() for result in results
            for path in write_transcript(result, directory)]


@pytest.fixture
def demo_gateway() -> Gateway:
    gateway = Gateway()
    register_demo_backends(gateway)
    return gateway


# Scripted replies that break the exchange instead of answering: CUT_OFF
# declares a longer Content-Length than it sends and hangs up; STALL sends
# the headers and half the body, then waits until the server closes.
# HANG_UP answers in full, without saying that the connection closes, and
# then closes it, as a server does with a connection that stays idle.
CUT_OFF = "cut off"
STALL = "stall"
HANG_UP = "hang up"


class StubRequest(NamedTuple):
    method: str
    path: str
    headers: Message
    body: bytes


class StubHandler(BaseHTTPRequestHandler):
    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections.add(self.connection)
            self.server.connection_count += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.connections.discard(self.connection)

    def _respond(self):
        server = self.server
        received = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        with server.lock:
            response = server.responses.pop(0) if server.responses else server.default_response
            server.requests.append(StubRequest(self.command, self.path, self.headers, received))
        if isinstance(response, str):  # a fault; the connection ends with it
            reply = (200, server.default_response[1])
            self.close_connection = True
        else:
            reply = response
        status, body, *headers = reply
        payload = body if isinstance(body, (bytes, str)) else json.dumps(body)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload) + (64 if response == CUT_OFF else 0)))
        self.end_headers()
        if response == STALL:
            self.wfile.write(payload[:len(payload) // 2])
            server.closing.wait(10)
            return
        self.wfile.write(payload)

    do_GET = _respond
    do_POST = _respond

    def log_message(self, *args):  # keep test output quiet
        pass


class KeepAliveHandler(StubHandler):
    protocol_version = "HTTP/1.1"


class StubServer:
    """Local HTTP server that replays a scripted sequence of (status, body)
    or (status, body, {header: value}) replies, ``CUT_OFF``, ``STALL`` or
    ``HANG_UP``, and records every request and counts the TCP connections.
    It answers HTTP/1.0, closing every connection after one reply, or with
    ``keep_alive`` HTTP/1.1, keeping them open. Either way it sends the
    headers and the body in two writes with Nagle's algorithm on."""

    def __init__(self, keep_alive: bool = False):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0),
                                         KeepAliveHandler if keep_alive else StubHandler)
        self.httpd.lock = threading.Lock()
        self.httpd.connections = set()
        self.httpd.connection_count = 0
        self.httpd.closing = threading.Event()
        self.httpd.responses = []
        self.httpd.requests = []
        self.httpd.default_response = (200, {"choices": [{"message": {"content": "ok"}}]})
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def script(self, *responses: tuple | str) -> None:
        with self.httpd.lock:
            self.httpd.responses = list(responses)

    def set_default(self, status: int, body: object) -> None:
        self.httpd.default_response = (status, body)

    @property
    def requests(self) -> list[StubRequest]:
        with self.httpd.lock:
            return list(self.httpd.requests)

    @property
    def connection_count(self) -> int:
        """TCP connections accepted so far."""
        with self.httpd.lock:
            return self.httpd.connection_count

    def close(self) -> None:
        self.httpd.closing.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        with self.httpd.lock:
            open_connections = list(self.httpd.connections)
        for connection in open_connections:  # ends the threads waiting on kept-alive ones
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture
def keep_alive_server():
    server = StubServer(keep_alive=True)
    yield server
    server.close()
