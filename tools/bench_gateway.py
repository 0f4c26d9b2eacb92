"""Gateway benchmark: time per chat call and per judge fan-out, cache on and off.

A loopback chat server (this script with ``--serve``, in its own process)
answers every request after a fixed service time, 0 ms or 30 ms. It speaks
HTTP/1.1 and keeps connections alive unless the client asks to close them,
and it sends the headers and the body in two writes with Nagle's algorithm
on, as ``perfbench/stub.py`` does. It counts the TCP connections that carried
a chat request. For each source tree given it times:

- ``Gateway.complete`` over ``CALLS`` distinct prompts, with the response
  cache off and on (a new cache directory each time, so every call misses and
  writes an entry): the median wall time and calling-thread CPU time of one
  call, and the process CPU per call over the whole loop, which includes the
  cache writes on any thread.
- the same ``CALLS`` prompts once more against the 0 ms server, answered
  from the cache that the first pass filled: the read path of a batch that
  repeats its documents.
- the first call of a new gateway on a cache of ``LOG_ENTRIES`` entries (a
  ``LOG_REQUEST_CHARS`` request and a ``LOG_REPLY_CHARS`` reply each, written
  by that tree's own gateway from an in-process mock), a hit: the time to
  open the cache, ``first_read_ms``, and the median of the ``CALLS`` hits
  after it.
- the judge stage of ``run_pipeline`` on documents with 3 terms x 4
  retrieved documents, 12 judge calls each, against the 30 ms server with
  the cache on: the median stage time over ``FANOUTS`` documents. The
  detector, extractor and translator are in-process mocks.
- ``Gateway.complete`` as above, cache off, to ``PROXIED_URL``, a name that
  is never resolved, with ``http_proxy`` naming the 30 ms server, which
  answers as the proxy. This case runs in a process of its own, as the
  proxy table is read once per process.

Each case also reports ``connections_per_call``: the TCP connections the
server saw it open, warm-up included, over the chat calls it made.

Each tree is measured in its own processes, ``REPEATS`` times with the trees
alternating (``benchkit.alternate``), and each figure is the median over the
repeats. Standard library only.

    python3 tools/bench_gateway.py --side parent=../parent/src --side change=src \\
        --out BENCH_gateway.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import benchkit

LATENCIES_MS = (0, 30)
CALLS = 200
FANOUTS = 30
TERMS = 3
DOCS_PER_TERM = 4
REPEATS = 3
LOG_ENTRIES = 20_000
LOG_REQUEST_CHARS = 3000
LOG_REPLY_CHARS = 480
# Never resolved: the proxy carries every request to it.
PROXIED_URL = "http://chat.bench.invalid/v1/chat"
TERM_RE = re.compile(r"term\d+x\d+")


def fenced(payload: dict) -> str:
    """A reply carrying one fenced JSON payload block, as the agents read it."""
    return "```json\n" + json.dumps(payload) + "\n```"


JUDGE_REPLY = fenced({"proposed_rendering": "", "back_translation": "bt",
                      "verdict": "INCORRECT", "rationale": "", "facts": []})


# --- the loopback server ----------------------------------------------------------


def serve(latency_ms: int) -> None:
    """Answer every POST with one judge reply after ``latency_ms``, and
    ``GET /connections`` with the number of connections that carried a POST;
    print the port, then serve until killed."""
    reply = json.dumps({"choices": [{"message": {"content": JUDGE_REPLY}}]}).encode()
    lock = threading.Lock()
    connections = [0]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        counted = False

        def _send(self, body: bytes) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            with lock:
                count = connections[0]
            self._send(json.dumps({"connections": count}).encode())

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            time.sleep(latency_ms / 1000)
            if not self.counted:
                self.counted = True
                with lock:
                    connections[0] += 1
            self._send(reply)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


# --- measurement, in a process importing one tree's crat ---------------------------


def server_connections(url: str) -> int:
    """The connections that have carried a chat request to the server at ``url``."""
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(url.rsplit("/v1/", 1)[0] + "/connections", timeout=10) as reply:
        return json.loads(reply.read())["connections"]


def time_calls(url: str, cache_dir: str | None, server: str | None = None,
               hits: bool = False) -> dict:
    """Time calls to ``url``, counting the connections of the loopback server
    at ``server`` (by default ``url`` itself); with ``hits``, fill the cache
    with the same calls first, untimed."""
    from crat.gateway import ChatMessage, ChatRequest, Gateway

    server = server or url
    connections = server_connections(server)
    gateway = Gateway(cache_dir=cache_dir)
    gateway.register_http("bench", url, "bench-model")
    gateway.complete(ChatRequest("bench", (ChatMessage("user", "warm-up"),)))
    for n in range(CALLS if hits else 0):
        gateway.complete(ChatRequest("bench", (ChatMessage("user", f"call {n}"),)))
    walls, thread_cpus = [], []
    wall_started, cpu_started = time.perf_counter(), time.process_time()
    for n in range(CALLS):
        request = ChatRequest("bench", (ChatMessage("user", f"call {n}"),))
        started, thread_started = time.perf_counter(), time.thread_time()
        gateway.complete(request)
        thread_cpus.append(time.thread_time() - thread_started)
        walls.append(time.perf_counter() - started)
    return {
        "wall_ms_p50": statistics.median(walls) * 1000,
        "thread_cpu_ms_p50": statistics.median(thread_cpus) * 1000,
        "process_cpu_ms_per_call": (time.process_time() - cpu_started) * 1000 / CALLS,
        "loop_wall_ms_per_call": (time.perf_counter() - wall_started) * 1000 / CALLS,
        "connections_per_call": (server_connections(server) - connections) / (CALLS + 1),
    }


def time_first_read(cache_dir: str) -> dict:
    """Fill a cache of ``LOG_ENTRIES`` entries from a mock, then time the hits
    of a new gateway on it: the first, and the median of ``CALLS`` after it."""
    from crat.gateway import ChatMessage, ChatRequest, Gateway

    def request(n: int) -> ChatRequest:
        text = f"entry {n} " + "x" * LOG_REQUEST_CHARS
        return ChatRequest("bench", (ChatMessage("user", text[:LOG_REQUEST_CHARS]),))

    writer = Gateway(cache_dir=cache_dir)
    writer.register_mock("bench", [], fallback="y" * LOG_REPLY_CHARS)
    for n in range(LOG_ENTRIES):
        writer.complete(request(n))
    writer.close()
    gateway = Gateway(cache_dir=cache_dir)
    gateway.register_mock("bench", [])  # a miss would raise
    started = time.perf_counter()
    gateway.complete(request(0))
    first = time.perf_counter() - started
    walls = []
    for n in range(1, CALLS + 1):
        started = time.perf_counter()
        gateway.complete(request(n * (LOG_ENTRIES // (CALLS + 1))))
        walls.append(time.perf_counter() - started)
    return {"first_read_ms": first * 1000, "hit_wall_ms_p50": statistics.median(walls) * 1000}


class FanOutSource:
    """``DOCS_PER_TERM`` documents for any term (queries start with it)."""

    label = "bench"

    def search(self, query: str, k: int):
        from crat.retrieval import RetrievedDocument

        surface = query.split(" ", 1)[0]
        return [RetrievedDocument(f"{surface}-d{j}", surface, f"{surface} evidence {j}",
                                  "remote", 1.0) for j in range(DOCS_PER_TERM)][:k]


def time_fanout(url: str, cache_dir: str) -> dict:
    from crat.gateway import Gateway
    from crat.pipeline import PipelineConfig, run_pipeline

    gateway = Gateway(cache_dir=cache_dir)
    gateway.register_http("judge", url, "bench-model")
    gateway.register_mock("trn", [], fallback=fenced(
        {"translation": "translated", "term_renderings": {}}))
    gateway.register_mock("ext", [], fallback=fenced({"triples": []}))
    gateway.register_mock("det", [], fallback=lambda request: fenced({"terms": [
        {"surface": surface, "category": "new_term", "rationale": ""}
        for surface in dict.fromkeys(TERM_RE.findall(request.last_user_content()))]}))
    config = PipelineConfig(detector_backend="det", extractor_backend="ext",
                            judge_backend="judge", translator_backend="trn",
                            sources=[FanOutSource()], k_per_source=DOCS_PER_TERM,
                            n2=DOCS_PER_TERM)
    judge_ms = []
    connections = server_connections(url)
    for n in range(FANOUTS + 1):  # the first document warms the threads up
        surfaces = " ".join(f"term{n}x{t}" for t in range(TERMS))
        result = run_pipeline(f"{surfaces} are new terms.", ("en", "zh"), config, gateway)
        if result.judged_count != TERMS * DOCS_PER_TERM:
            raise SystemExit(f"judged {result.judged_count} pairs, not {TERMS * DOCS_PER_TERM}")
        if n:
            judge_ms.append(result.timings_ms["judge"])
    return {"judge_ms_p50": statistics.median(judge_ms),
            "connections_per_call": (server_connections(url) - connections)
            / ((FANOUTS + 1) * TERMS * DOCS_PER_TERM)}


def measure(urls: dict[str, str]) -> dict:
    """Time the ``crat`` found on ``sys.path``."""
    results: dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        for latency, url in urls.items():
            for cache in ("off", "on"):
                cache_dir = os.path.join(scratch, f"calls-{latency}") if cache == "on" else None
                results[f"complete_{latency}ms_cache_{cache}"] = time_calls(url, cache_dir)
        results["complete_0ms_cache_hit"] = time_calls(
            urls["0"], os.path.join(scratch, "hits"), hits=True)
        results["first_read_20k_entries"] = time_first_read(os.path.join(scratch, "log"))
        results["judge_fanout_30ms_cache_on"] = time_fanout(
            urls["30"], os.path.join(scratch, "fanout"))
    return results


def measure_proxied(server: str) -> dict:
    """Time calls to ``PROXIED_URL`` through the proxy that ``http_proxy``
    names, the loopback server at ``server``."""
    proxy = urllib.request.getproxies().get("http")
    if proxy is None or urllib.request.proxy_bypass(urlsplit(PROXIED_URL).netloc):
        raise SystemExit(f"http_proxy must carry {PROXIED_URL}")  # else it would be resolved
    return {"complete_30ms_proxied": time_calls(PROXIED_URL, None, server)}


def run_side(src: Path, urls: dict[str, str]) -> dict:
    proxied_env = {name: value for name, value in os.environ.items() if name.lower() != "no_proxy"}
    proxied_env["http_proxy"] = urls["30"].rsplit("/v1/", 1)[0]
    return {**benchkit.measure_in(__file__, src, ["--measure", json.dumps(urls)]),
            **benchkit.measure_in(__file__, src, ["--measure-proxied", urls["30"]], proxied_env)}


def median_of(runs: list[dict]) -> dict:
    return {case: {name: round(statistics.median(run[case][name] for run in runs), 4)
                   for name in runs[0][case]} for case in runs[0]}


def main(argv: list[str] | None = None) -> int:
    parser = benchkit.parser(__doc__)
    parser.add_argument("--serve", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--measure-proxied", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve is not None:
        serve(args.serve)
        return 0
    if args.measure:
        print(json.dumps(measure(json.loads(args.measure))))
        return 0
    if args.measure_proxied:
        print(json.dumps(measure_proxied(args.measure_proxied)))
        return 0
    servers = [subprocess.Popen([sys.executable, __file__, "--serve", str(latency)],
                                stdout=subprocess.PIPE, text=True) for latency in LATENCIES_MS]
    try:
        urls = {str(latency): f"http://127.0.0.1:{server.stdout.readline().strip()}/v1/chat"
                for latency, server in zip(LATENCIES_MS, servers)}
        runs = benchkit.alternate(benchkit.sides(args), REPEATS, lambda src: run_side(src, urls))
    finally:
        for server in servers:
            server.kill()
            server.wait()
    return benchkit.write_report(args, "gateway calls and judge fan-out", {
        "calls": CALLS, "fanouts": FANOUTS, "pairs_per_fanout": TERMS * DOCS_PER_TERM,
        "log_entries": LOG_ENTRIES, "log_request_chars": LOG_REQUEST_CHARS,
        "log_reply_chars": LOG_REPLY_CHARS,
        "latencies_ms": list(LATENCIES_MS), "repeats": REPEATS,
    }, {name: median_of(side_runs) for name, side_runs in runs.items()})


if __name__ == "__main__":
    sys.exit(main())
