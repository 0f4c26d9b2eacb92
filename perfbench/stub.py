"""Scripted chat-completion provider on 127.0.0.1, standing in for a remote model.

    python3 perfbench/stub.py SCRIPT.json

``SCRIPT.json`` holds ``{"latency_ms": float, "vocabulary": {term: category}}``.
The stub binds an ephemeral port, prints it as its first line of output,
and serves until it is terminated or its parent process exits.

* ``POST /v1/chat/completions`` answers in the OpenAI chat shape from the
  rules in ``world.reply``. Every request takes ``latency_ms`` of service
  time, measured from its arrival.
* ``GET /stats`` returns the counters since the last reset: chat requests,
  TCP connections that carried at least one of them, prompt characters
  (all message contents, repair turns included) and, per request, its agent,
  source key, service start and end times (seconds, one monotonic clock)
  and, for the judge, the id of the judged document.
* ``POST /reset`` zeroes the counters.

Connections are HTTP/1.1 keep-alive, so a client that reuses connections
shows it in the connection count.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import world  # noqa: E402


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.prompt_chars = 0
        self.calls: list[list] = []

    def snapshot(self) -> dict:
        return {"requests": self.requests, "connections": self.connections,
                "prompt_chars": self.prompt_chars, "calls": list(self.calls)}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.counted = False

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        counters = self.server.counters
        with counters.lock:
            snapshot = counters.snapshot()
        self._send(200, snapshot)

    def do_POST(self):
        started = time.monotonic()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        counters = self.server.counters
        if self.path == "/reset":
            with counters.lock:
                counters.reset()
            self._send(200, {})
            return
        try:
            messages = json.loads(body)["messages"]
            agent, key, doc_id, text = world.reply(messages, self.server.vocabulary)
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            self._send(400, {"error": f"unscripted request: {err}"})
            return
        delay = started + self.server.latency_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        # Counted before the reply goes out, so a client that has its reply
        # always finds the request in /stats.
        with counters.lock:
            counters.requests += 1
            counters.prompt_chars += sum(len(m["content"]) for m in messages)
            if not self.counted:
                counters.connections += 1
                self.counted = True
            counters.calls.append([agent, key, started, time.monotonic(), doc_id])
        self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

    def log_message(self, *args):
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main(argv: list[str]) -> int:
    script = json.loads(Path(argv[0]).read_text("utf-8"))
    server = StubServer(("127.0.0.1", 0), Handler)
    server.counters = Counters()
    server.latency_s = float(script["latency_ms"]) / 1000.0
    server.vocabulary = script["vocabulary"]
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
