"""A single-fault sweep over the demo in crat mode.

The demo's two documents make 18 calls: detect, extract, six judge calls and
translate, each. Every run below injects one fault at the n-th call, by
wrapping ``MockBackend.generate``, and checks what the pipeline promises
whatever the fault:

- a judge that cannot rule rules INCORRECT (fails closed), and its document
  succeeds;
- a detector that fails falls back to direct translation;
- an extractor or translator failure fails only its own document, named by
  stage, and the other document's files are byte-identical to the clean
  run's;
- a backend that raises something other than a ``GatewayError`` (a bare
  ``ValueError``, a bug rather than a verdict) fails only its own document
  at any stage, named by stage: the detector does not fall back and the
  judge does not rule INCORRECT;
- a retried call (a 503, a dropped connection) or a repaired reply leaves
  the clean run's ``result.json`` and ``graph.json``;
- no external triple cites a document outside ``accepted_docs``;
- a failed call caches nothing, while a non-JSON reply is cached, as what
  the provider said, and a rerun replays it with its repair turn.

Every (fault, position) pair runs at width 1, and a seeded sample of them at
width 4. Runs with repair turns (a non-JSON reply at each position, and a
judge that answers only the strict repair prompt), at widths 1 and 4, check
that each request sent is rebuilt from the ``transcript.json`` written.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
from pathlib import Path

import pytest

from conftest import (
    FINANCIAL_SOURCE,
    GEOGRAPHIC_SOURCE,
    check_rebuilt_requests,
    demo_backend,
    demo_pipeline_config,
    register_demo_backends,
)
from crat import gateway as gateway_module
from crat.gateway import (
    ChatRequest,
    Gateway,
    HttpStatusError,
    MockBackend,
    ProtocolError,
    RetryLaterError,
    TransportError,
    request_text,
)
from crat.pipeline import run_batch, write_transcript
from crat.transkg import deserialize_graph

EN_ZH = ("en", "zh")
CORPUS = [{"id": "geo-1", "text": GEOGRAPHIC_SOURCE},
          {"id": "fin-1", "text": FINANCIAL_SOURCE}]
CALLS = 18
FILES = ("result.json", "graph.json", "transcript.json")
GENERATE = MockBackend.generate


def _raise(error: Exception):
    raise error


# Each fault answers the call it lands on; how the run should take it.
FAULTS = {
    "http 500": (lambda: _raise(HttpStatusError(500, "boom")), "failed"),
    "retried 503": (lambda: _raise(RetryLaterError(503, "busy", None)), "retried"),
    "transport error": (lambda: _raise(TransportError("connection reset")), "retried"),
    "protocol error": (lambda: _raise(ProtocolError("no choices")), "failed"),
    "blank reply": (lambda: "  ", "failed"),
    "non-JSON reply": (lambda: "Sorry, I cannot answer in JSON.", "repaired"),
    "bug": (lambda: _raise(ValueError("surprise")), "bug"),
}
PAIRS = list(itertools.product(FAULTS, range(1, CALLS + 1)))
WIDE_PAIRS = random.Random(15).sample(PAIRS[:-CALLS], 12) + [("bug", 9), ("bug", 12)]
# What failed, as a failed document's manifest record names it.
STAGE_WORK = {"det": "unknown-term detection", "ext": "knowledge extraction",
              "jdg": "judging", "trn": "translation"}


@pytest.fixture(autouse=True)
def no_retry_delay(monkeypatch):
    monkeypatch.setattr(gateway_module, "RETRY_BASE_DELAY_S", 0.0)


def document_of(request) -> str:
    text = request_text(request)
    (doc_id,) = [record["id"] for record in CORPUS if record["text"] in text]
    return doc_id


def cached(cache_dir: Path) -> dict[str, str]:
    """The cache's replies by fingerprint."""
    entries = (json.loads(line) for path in sorted(cache_dir.glob("*.jsonl"))
               for line in path.read_text("utf-8").splitlines())
    return {entry["fingerprint"]: entry["response_text"] for entry in entries}


def run(directory: Path, width: int, cache_dir: Path) -> tuple[dict, dict]:
    """The demo batch into ``directory``: each document's manifest record,
    and the bytes of the files it wrote."""
    gateway = Gateway(cache_dir=cache_dir)
    register_demo_backends(gateway)
    with gateway:
        results, manifest = run_batch(CORPUS, EN_ZH, demo_pipeline_config(width=width), gateway)
    for result in results:
        write_transcript(result, directory)
    records = {record["doc_id"]: record for record in manifest.records}
    files = {result.source_doc_id: {name: (directory / result.source_doc_id / name).read_bytes()
                                    for name in FILES} for result in results}
    return records, files


def inject(monkeypatch, fault, position: int) -> list:
    """Make the ``position``-th mock call of the run answer with ``fault``;
    the request it landed on and its cache key, the fingerprint with the
    backend's model, go into the returned list. As from a provider, the
    fault comes after the request was sent."""
    counter, lock, hit = itertools.count(1), threading.Lock(), []

    def faulty(self, request, on_sent=None):
        with lock:
            n = next(counter)
        if n != position:
            return GENERATE(self, request, on_sent)
        hit.append((request, gateway_module.request_fingerprint(request, self.model)))
        if on_sent is not None:
            on_sent()
        return fault()

    monkeypatch.setattr(MockBackend, "generate", faulty)
    return hit


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    records, files = run(root / "out", 1, root / "cache")
    assert all(record["status"] == "ok" for record in records.values())
    return files, cached(root / "cache")


def check_single_fault(clean, tmp_path, monkeypatch, fault_name, position, width):
    clean_files, clean_cache = clean
    fault, kind = FAULTS[fault_name]
    hit = inject(monkeypatch, fault, position)
    records, files = run(tmp_path / "out", width, tmp_path / "cache")
    ((request, fingerprint),) = hit
    doc_id, backend_id = document_of(request), request.backend_id
    other = next(record["id"] for record in CORPUS if record["id"] != doc_id)
    cache = cached(tmp_path / "cache")

    # Per-document isolation: the other document ran as if nothing happened.
    assert records[other]["status"] == "ok"
    assert files[other] == clean_files[other]
    # Whatever was written, no external triple cites an unadmitted document.
    for written in files.values():
        graph = deserialize_graph(written["graph.json"])
        assert {t.provenance.doc_id for t in graph.external_triples} <= set(graph.accepted_docs)

    record = records[doc_id]
    if kind == "retried":
        assert files[doc_id] == clean_files[doc_id]
        assert cache == clean_cache
        return
    if kind == "repaired":
        for name in ("result.json", "graph.json"):
            assert files[doc_id][name] == clean_files[doc_id][name]
        assert files[doc_id]["transcript.json"] != clean_files[doc_id]["transcript.json"]
        assert cache[fingerprint] == fault()
        # The cache keeps what the provider said, so a rerun without the
        # fault replays the repair turn and calls no provider.
        calls = []
        monkeypatch.setattr(MockBackend, "generate",
                            lambda self, *args: calls.append(args) or GENERATE(self, *args))
        _, replayed = run(tmp_path / "replay", width, tmp_path / "cache")
        assert replayed == files
        assert calls == []
        return

    assert fingerprint not in cache  # a failed call caches nothing
    if kind == "bug":
        assert record["status"] == "error"
        assert record["error"] == f"{STAGE_WORK[backend_id]} failed: surprise"
        assert doc_id not in files
    elif backend_id == "det":
        assert record["status"] == "ok" and record["detector_fallback"]
        result = json.loads(files[doc_id]["result.json"])
        assert result["term_count"] == 0 and result["detector_fallback"]
        assert deserialize_graph(files[doc_id]["graph.json"]).is_empty()
    elif backend_id == "jdg":
        assert record["status"] == "ok"
        assert record["judge_fail_closed"] == 1
        graph = deserialize_graph(files[doc_id]["graph.json"])
        clean_graph = deserialize_graph(clean_files[doc_id]["graph.json"])
        assert set(graph.external_triples) <= set(clean_graph.external_triples)
        assert set(graph.accepted_docs) <= set(clean_graph.accepted_docs)
        transcript = json.loads(files[doc_id]["transcript.json"])
        assert any(event["kind"] == "warning" and "ruling INCORRECT" in event["message"]
                   for event in transcript)
    else:
        assert backend_id in ("ext", "trn")
        assert record["status"] == "error"
        assert record["error"].startswith(f"{STAGE_WORK[backend_id]} failed: ")
        assert doc_id not in files


@pytest.mark.parametrize("fault_name, position", PAIRS)
def test_single_fault_at_width_1(clean, tmp_path, monkeypatch, fault_name, position):
    check_single_fault(clean, tmp_path, monkeypatch, fault_name, position, 1)


@pytest.mark.parametrize("fault_name, position", WIDE_PAIRS)
def test_single_fault_at_width_4(clean, tmp_path, monkeypatch, fault_name, position):
    check_single_fault(clean, tmp_path, monkeypatch, fault_name, position, 4)


def continuing_exchanges(gateway: Gateway, width: int, directory: Path) -> list[dict]:
    """Run the demo batch through ``gateway``, write its files into
    ``directory`` and check every request rebuilt from a transcript file
    (``check_rebuilt_requests``); the exchanges that continue another."""
    with gateway:
        results, _ = run_batch(CORPUS, EN_ZH, demo_pipeline_config(width=width), gateway)
    continuing = []
    for result in results:
        write_transcript(result, directory)
        path = directory / result.source_doc_id / "transcript.json"
        continuing += check_rebuilt_requests(result.transcript, json.loads(path.read_text("utf-8")))
    return continuing


@pytest.mark.parametrize("width", (1, 4))
@pytest.mark.parametrize("position", range(1, CALLS + 1))
def test_repair_turn_rebuilds_from_transcript(tmp_path, monkeypatch, position, width):
    # One non-JSON reply takes one repair turn, which records only its prompt.
    inject(monkeypatch, FAULTS["non-JSON reply"][0], position)
    gateway = Gateway()
    register_demo_backends(gateway)
    (repair,) = continuing_exchanges(gateway, width, tmp_path)
    assert [m["role"] for m in repair["messages"]] == ["user"]


@pytest.mark.parametrize("width", (1, 4))
def test_strict_repair_rebuilds_from_transcript(tmp_path, width):
    # The judge answers only the strict repair prompt, the fifth message of
    # its conversation, so each of the 12 judge calls takes three attempts.
    judge = demo_backend("jdg")

    def respond(request):
        if len(request.messages) < 5:
            return "Let me think about this document in prose."
        return judge.generate(ChatRequest(request.backend_id, request.messages[:1]))

    gateway = Gateway()
    register_demo_backends(gateway, jdg=respond)
    continuing = continuing_exchanges(gateway, width, tmp_path)
    assert len(continuing) == 2 * 12
    assert all(entry["messages"][-1]["content"].startswith("Emit only")
               for entry in continuing[1::2])
