"""Shared test fixtures: the committed demo workspace under ``demo/``, read
by the readers ``crat`` itself uses, scripted gateways for it, and a
scriptable local HTTP stub server."""

from __future__ import annotations

import json
import random
import shutil
import socket
import ssl
import threading
import time
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import NamedTuple

import pytest

from crat import canonical
from crat.cli import main as cli_main
from crat.config import load_mock_script, load_run_config, mock_script_from_dict
from crat.gateway import ChatMessage, ChatRequest, Gateway, MockBackend, request_fingerprint
from crat.pipeline import PipelineConfig, write_transcript
from crat.retrieval import LocalIndexSource, build_index

# --- the demo ------------------------------------------------------------------
#
# The files the README's Quick demo runs. Each value below is read from them,
# so the tests and the demo cannot disagree.

DEMO_DIR = Path(__file__).resolve().parents[1] / "demo"


def _demo_records(name: str) -> dict[str, dict]:
    """The records of the demo's JSON Lines file ``name``, by id, in file order."""
    path = DEMO_DIR / name
    return {record["id"]: record for _, record in canonical.jsonl_records(
        canonical.read_text(path, name, ValueError).splitlines(), str(path), ValueError)}


_demo_config = load_run_config(DEMO_DIR / "config.yaml")
DEMO_CONFIG = _demo_config.data
# Each mock backend's parsed script document, by backend id.
DEMO_SCRIPTS = {reg["id"]: load_mock_script(_demo_config.resolve(reg["script_path"]))
                for reg in DEMO_CONFIG["backends"]["registrations"]}
DEMO_CORPUS = list(_demo_records("corpus.jsonl").values())
GEOGRAPHIC_SOURCE = _demo_records("inputs.jsonl")["geo-1"]["text"]
FINANCIAL_SOURCE = _demo_records("inputs.jsonl")["fin-1"]["text"]
GEO_CRAT_TRANSLATION = _demo_records("parallel.jsonl")["geo-1"]["reference_text"]

RIVERBANK = "河岸"   # riverbank rendering of "bank"
FINANCIAL_BANK = "银行"  # financial rendering of "bank"

# Sentences the demo's scripts answer that are not among its inputs: the
# repeated-term typhoon sentence (consistency failures) and the Vietnamese
# coffee-filter sentence (glossary retrieval, live smoke).
GAEMI_SOURCE = (
    "Typhoon Gaemi was a powerful storm that hit East China in 2024. "
    "Gaemi also drenched western Luzon in the Philippines."
)
PHIN_SOURCE = (
    "Even sweeter concoctions await inside Lacaph, a classy new coffeehouse "
    "in District 1, just off Rach Ben Nghe, the slim urban canal that snakes "
    "through the city. Decorated with dark wood paneling and track lighting, "
    "the cafe serves lemonade (80,000 dong) combined with coffee-blossom "
    "honey and a dose of coffee brewed in a traditional Vietnamese phin."
)


def fenced_payload(payload: dict) -> str:
    """A reply string carrying one fenced JSON payload block."""
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


def copy_demo(root: Path) -> Path:
    """A copy of the demo workspace at ``root``, its index built by
    ``crat build-index`` as the README's first step builds it."""
    shutil.copytree(DEMO_DIR, root)
    assert cli_main(["build-index", "--corpus", str(root / "corpus.jsonl"),
                     "--output", str(root / "index.json")]) == 0
    return root


def simple_request(backend_id: str, prompt: str) -> ChatRequest:
    """A request of one user message."""
    return ChatRequest(backend_id, (ChatMessage("user", prompt),))


def wait_for(condition, timeout_s: float = 5.0) -> None:
    """Return once ``condition()`` is true, or after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)


# Alphabets random texts draw from: Latin, Cyrillic, CJK, characters outside
# the Basic Multilingual Plane, and the characters JSON escapes, with U+2028.
SCRIPTS = ("abcXYZ éüßÇ", "абвгдЖЗИЙ", "银行河岸海峡", "😀𠀋𝄞", " \t\n\"\\/\u2028")


def random_text(rng: random.Random, at_least: int = 0, at_most: int = 12) -> str:
    """``at_least`` to ``at_most`` characters from one or more of ``SCRIPTS``."""
    alphabet = "".join(rng.sample(SCRIPTS, rng.randint(1, len(SCRIPTS))))
    return "".join(rng.choices(alphabet, k=rng.randint(at_least, at_most)))


def demo_backend(backend_id: str) -> MockBackend:
    """A stand-alone copy of one of the demo's scripted mock backends."""
    rules, fallback = mock_script_from_dict(DEMO_SCRIPTS[backend_id])
    return MockBackend(backend_id, rules, fallback)


def register_demo_backends(gateway: Gateway, **responders) -> dict[str, str]:
    """Register the demo's scripted mock backends, except that a backend id
    given in ``responders`` answers every request through that callable;
    returns the role map."""
    for backend_id, script in DEMO_SCRIPTS.items():
        if backend_id in responders:
            gateway.register_mock(backend_id, [], fallback=responders[backend_id])
        else:
            rules, fallback = mock_script_from_dict(script)
            gateway.register_mock(backend_id, rules, fallback)
    return {"detector": "det", "extractor": "ext", "judge": "jdg",
            "translator": "trn", "consis": "con"}


def demo_pipeline_config(**overrides) -> PipelineConfig:
    defaults = dict(
        detector_backend="det",
        extractor_backend="ext",
        judge_backend="jdg",
        translator_backend="trn",
        sources=[LocalIndexSource(build_index(DEMO_CORPUS))],
        k_per_source=3,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def artifact_bytes(results, directory) -> list[bytes]:
    """The bytes of every file ``write_transcript`` writes for ``results``
    under ``directory``, in order."""
    return [path.read_bytes() for result in results
            for path in write_transcript(result, directory)]


def rebuilt_requests(written: list[dict]) -> list[list[dict]]:
    """Each exchange's full message list, rebuilt from a written
    ``transcript.json``: a ``continues`` exchange's is the previous exchange's
    rebuilt list, then that exchange's ``response_text`` as ``assistant``,
    then the messages it records."""
    rebuilt, previous = [], None
    for entry in written:
        if entry["kind"] == "exchange":
            messages = entry["messages"]
            if entry.get("continues"):
                messages = previous[0] + [
                    {"role": "assistant", "content": previous[1]}] + messages
            rebuilt.append(messages)
            previous = messages, entry.get("response_text")
    return rebuilt


def check_rebuilt_requests(transcript, written: list[dict]) -> list[dict]:
    """Check that each request rebuilt from ``written``, the transcript file
    of ``transcript``, is the one sent, with the fingerprint recorded (the
    backends have no model), and that a continuing exchange does not record
    the previous exchange's prompt again; the continuing exchanges."""
    entries = [entry for entry in written if entry["kind"] == "exchange"]
    exchanges = transcript.exchanges()
    assert len(entries) == len(exchanges)
    continuing, previous = [], None
    for entry, messages, exchange in zip(entries, rebuilt_requests(written), exchanges):
        assert messages == [{"role": m.role, "content": m.content}
                            for m in exchange.request.messages]
        request = ChatRequest(entry["backend_id"], [ChatMessage(**m) for m in messages])
        assert request_fingerprint(request) == entry["fingerprint"]
        if entry.get("continues"):
            assert previous[0]["content"] not in [m["content"] for m in entry["messages"]]
            continuing.append(entry)
        previous = messages
    return continuing


@pytest.fixture(autouse=True)
def close_gateways(monkeypatch):
    """Close every gateway the test opened, so that no cache segment is left
    open when it ends."""
    opened = []
    init = Gateway.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(Gateway, "__init__", tracked)
    yield
    for gateway in opened:
        gateway.close()


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


class Raw(NamedTuple):
    """A scripted reply sent as it stands, ``data`` byte for byte. With
    ``close`` the server then stops writing on the connection but goes on
    reading it, so that a request the client sends on it after all is still
    recorded."""
    data: bytes
    close: bool = False


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
        if isinstance(response, Raw):
            self.wfile.write(response.data)
            if response.close:
                self.connection.shutdown(socket.SHUT_WR)
            return
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

    def do_CONNECT(self):
        # Recorded and refused: the stub opens no tunnel.
        with self.server.lock:
            self.server.requests.append(StubRequest(self.command, self.path, self.headers, b""))
        self.send_response(403)
        self.send_header("Content-Length", "0")
        self.end_headers()
        self.close_connection = True

    def log_message(self, *args):  # keep test output quiet
        pass


class KeepAliveHandler(StubHandler):
    protocol_version = "HTTP/1.1"


class StubServer:
    """Local HTTP server that replays a scripted sequence of (status, body)
    or (status, body, {header: value}) replies, ``CUT_OFF``, ``STALL``,
    ``HANG_UP`` or ``Raw`` replies, and records every request and counts the
    TCP connections. It answers HTTP/1.0, closing every connection after one
    reply, or with ``keep_alive`` HTTP/1.1, keeping them open. Either way it
    sends the headers and the body of a reply it builds in two writes with
    Nagle's algorithm on. Given a server-side ``tls`` context, it speaks
    HTTPS."""

    def __init__(self, keep_alive: bool = False, tls: ssl.SSLContext | None = None):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0),
                                         KeepAliveHandler if keep_alive else StubHandler)
        if tls is not None:
            self.httpd.socket = tls.wrap_socket(self.httpd.socket, server_side=True)
        self.httpd.lock = threading.Lock()
        self.httpd.connections = set()
        self.httpd.connection_count = 0
        self.httpd.closing = threading.Event()
        self.httpd.responses = []
        self.httpd.requests = []
        self.httpd.default_response = (200, {"choices": [{"message": {"content": "ok"}}]})
        # A short poll, so that close() does not wait out serve_forever's 0.5 s.
        self.thread = threading.Thread(target=self.httpd.serve_forever, args=(0.01,),
                                       daemon=True)
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
