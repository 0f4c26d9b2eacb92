"""Pipeline orchestration: stage flow, the verdict gate end to end, fallback
policy, batching, and transcript files."""

from __future__ import annotations

import json
import logging
import random
import re
import threading
import time

import pytest

from conftest import (
    artifact_bytes,
    demo_backend,
    demo_pipeline_config,
    register_demo_backends,
)
from crat import fixtures
from crat.config import build_gateway, build_pipeline_config, build_sources, load_run_config
from crat.fixtures import fenced_payload
from crat.gateway import MAX_INFLIGHT_PER_BACKEND, Gateway, HttpStatusError
from crat.pipeline import (
    PipelineConfig,
    PipelineError,
    load_results,
    run_batch,
    run_pipeline,
    serialize_result,
    write_transcript,
)
from crat.retrieval import RetrievedDocument
from crat.transcript import STAGES
from crat.transkg import CORRECT, INCORRECT

EN_ZH = ("en", "zh")


class ScriptedSource:
    """Returns a fixed document list per term surface (queries start with
    the surface, per the term_query contract)."""

    kind = "remote"
    label = "scripted"

    def __init__(self, by_surface):
        self.by_surface = by_surface

    def search(self, query, k):
        surface = query.split(" ", 1)[0]
        return list(self.by_surface.get(surface, []))[:k]


def doc(doc_id: str, text: str = "some evidence text") -> RetrievedDocument:
    return RetrievedDocument(doc_id, doc_id, text, "remote", 1.0)


def judge_reply(verdict: str, rendering: str = "", facts=None) -> str:
    return fenced_payload({
        "proposed_rendering": rendering, "back_translation": "bt",
        "verdict": verdict, "rationale": "scripted", "facts": facts or [],
    })


def controlled_gateway(verdict_by_doc: dict[str, str],
                       term_surfaces: list[str], judge=None) -> Gateway:
    """Mock backends for a controlled run over invented term surfaces; a
    ``judge`` callable, if given, answers every judge request."""
    gateway = Gateway()
    gateway.register_mock("det", [], fallback=fenced_payload(
        {"terms": [{"surface": s, "category": "new_term", "rationale": ""}
                   for s in term_surfaces]}))
    gateway.register_mock("ext", [], fallback=fenced_payload({"triples": []}))
    judge_rules = [(f"Document {doc_id}:", judge_reply(verdict))
                   for doc_id, verdict in verdict_by_doc.items()]
    gateway.register_mock("jdg", [] if judge else judge_rules,
                          fallback=judge or judge_reply(INCORRECT))
    gateway.register_mock("trn", [], fallback=fenced_payload(
        {"translation": "translated", "term_renderings": {}}))
    return gateway


def controlled_config(by_surface, **overrides) -> PipelineConfig:
    defaults = dict(detector_backend="det", extractor_backend="ext",
                    judge_backend="jdg", translator_backend="trn",
                    sources=[ScriptedSource(by_surface)])
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# --- degenerate and controlled runs -----------------------------------------------


def test_zero_term_run_skips_knowledge_stages(demo_gateway):
    config = demo_pipeline_config()
    result = run_pipeline("Nothing unusual here.", EN_ZH, config, demo_gateway,
                          source_doc_id="plain")
    assert result.term_count == 0
    assert result.judged_count == 0
    assert result.accepted_count == 0
    assert result.graph.triples == ()
    assert result.transcript.stages() == ["detect", "translate"]
    translate_prompt = result.transcript.exchanges()[-1].request.messages[0].content
    assert "Verified term knowledge" not in translate_prompt


def test_controlled_verdict_sequence():
    # Two terms; alpha retrieves dx1, dx2 and beta retrieves dx3; verdicts
    # CORRECT/INCORRECT/CORRECT admit exactly dx1 and dx3 in judge order.
    by_surface = {"alpha": [doc("dx1"), doc("dx2")], "beta": [doc("dx3")]}
    gateway = controlled_gateway({"dx1": CORRECT, "dx2": INCORRECT, "dx3": CORRECT},
                                 ["alpha", "beta"])
    result = run_pipeline("alpha beta gamma", EN_ZH,
                          controlled_config(by_surface), gateway)
    assert result.term_count == 2
    assert result.judged_count == 3
    assert result.accepted_count == 2
    assert result.graph.accepted_docs == ("dx1", "dx3")
    assert result.transcript.stages() == STAGES_FULL


STAGES_FULL = ["detect", "extract", "retrieve", "judge", "translate"]


def test_geo_fixture_run(demo_gateway):
    config = demo_pipeline_config()
    result = run_pipeline(fixtures.GEOGRAPHIC_SOURCE, EN_ZH, config, demo_gateway,
                          source_doc_id="geo-1")
    assert result.term_count == 2
    assert result.graph.accepted_docs == ("d-scotiasea",)
    assert result.accepted_count == 1
    assert result.accepted_count <= result.judged_count
    assert fixtures.RIVERBANK in result.target_text
    assert result.term_renderings["bank"] == [fixtures.RIVERBANK, fixtures.RIVERBANK]


def test_fin_fixture_graph_contains_integration_triple(demo_gateway):
    config = demo_pipeline_config()
    result = run_pipeline(fixtures.FINANCIAL_SOURCE, EN_ZH, config, demo_gateway,
                          source_doc_id="fin-1")
    assert result.graph.accepted_docs == ("d-scotiabank",)
    spo = [(t.subject, t.relation, t.object) for t in result.graph.external_triples]
    assert ("Scotia", "is a", "bank") in spo
    assert fixtures.FINANCIAL_BANK in result.target_text


def test_determinism_across_cache_modes(tmp_path, demo_gateway):
    config = demo_pipeline_config()
    plain = run_pipeline(fixtures.GEOGRAPHIC_SOURCE, EN_ZH, config, demo_gateway,
                         source_doc_id="geo-1")
    cached_gateway = Gateway(cache_dir=tmp_path / "cache")
    register_demo_backends(cached_gateway)
    cold = run_pipeline(fixtures.GEOGRAPHIC_SOURCE, EN_ZH, config, cached_gateway,
                        source_doc_id="geo-1")
    warm = run_pipeline(fixtures.GEOGRAPHIC_SOURCE, EN_ZH, config, cached_gateway,
                        source_doc_id="geo-1")
    blobs = [artifact_bytes([r], tmp_path / name)
             for name, r in (("plain", plain), ("cold", cold), ("warm", warm))]
    assert blobs[0] == blobs[1] == blobs[2]
    assert warm.transcript.exchanges()[0].cache_hit is True


# --- failure policy ---------------------------------------------------------------


def http_500(request):
    raise HttpStatusError(500, "internal error")


# An unparsable reply and a provider error must take the same failure policy.
DETECTOR_FAULTS = ("never structured output", http_500)


def broken_detector_gateway(fault) -> Gateway:
    gateway = Gateway()
    gateway.register_mock("det", [], fallback=fault)
    gateway.register_mock("ext", [], fallback=fenced_payload({"triples": []}))
    gateway.register_mock("jdg", [], fallback=judge_reply(INCORRECT))
    gateway.register_mock("trn", [], fallback=fenced_payload(
        {"translation": "direct translation", "term_renderings": {}}))
    return gateway


def test_detector_failure_falls_back_to_direct():
    config = controlled_config({}, on_detector_error="translate_direct")
    for fault in DETECTOR_FAULTS:
        result = run_pipeline("some text", EN_ZH, config, broken_detector_gateway(fault))
        assert result.detector_fallback is True
        assert result.target_text == "direct translation"
        assert result.term_count == 0
        assert result.transcript.stages() == ["detect", "translate"]
        assert any("falling back" in w for w in result.transcript.warnings())


def test_detector_failure_fails_when_configured():
    config = controlled_config({}, on_detector_error="fail")
    for fault in DETECTOR_FAULTS:
        with pytest.raises(PipelineError, match="detection failed"):
            run_pipeline("some text", EN_ZH, config, broken_detector_gateway(fault))


def test_judge_gateway_error_rules_incorrect(demo_gateway):
    # The fault is keyed on the judged document, not on call order, which
    # the judge fan-out leaves open.
    demo_judge = demo_backend("jdg")
    failed_doc = "d-scotiabank"

    def flaky_judge(request):
        if f"Document {failed_doc}:" in request.last_user_content():
            raise HttpStatusError(503, "service unavailable")
        return demo_judge.generate(request)

    gateway = Gateway()
    register_demo_backends(gateway, jdg=flaky_judge)
    corpus = [{"id": "geo-1", "text": fixtures.GEOGRAPHIC_SOURCE}]
    results, manifest = run_batch(corpus, EN_ZH, demo_pipeline_config(), gateway)
    assert [r["status"] for r in manifest.records] == ["ok"]
    (result,) = results
    assert failed_doc not in result.graph.accepted_docs
    assert result.graph.accepted_docs == ("d-scotiasea",)
    assert (f"judge: call failed for document {failed_doc!r} (HttpStatusError), "
            "ruling INCORRECT" in result.transcript.warnings())
    # The manifest counts the verdicts that failed closed (the document is
    # judged for two terms); a clean run's manifest names none, and
    # result.json names them in neither run.
    assert manifest.records[0]["judge_fail_closed"] == 2
    assert manifest.aggregate["judge_fail_closed"] == 2
    assert b"fail_closed" not in serialize_result(result)
    _, clean = run_batch(corpus, EN_ZH, demo_pipeline_config(), demo_gateway)
    assert "fail_closed" not in clean.to_jsonl()


def test_translator_failure_is_fatal():
    gateway = Gateway()
    gateway.register_mock("det", [], fallback=fenced_payload({"terms": []}))
    gateway.register_mock("ext", [], fallback=fenced_payload({"triples": []}))
    gateway.register_mock("jdg", [], fallback=judge_reply(INCORRECT))
    gateway.register_mock("trn", [], fallback="no payload at all")
    with pytest.raises(PipelineError, match="translation failed"):
        run_pipeline("text", EN_ZH, controlled_config({}), gateway)


def http_503(request):
    raise HttpStatusError(503, "service unavailable")


def test_gateway_error_names_the_failed_stage():
    # A mock's HttpStatusError is not retried (an HTTP backend's 503 is a
    # RetryLaterError), so the first call to the faulty backend fails its
    # stage, and the manifest's error says which stage that was.
    corpus = [{"id": "geo-1", "text": fixtures.GEOGRAPHIC_SOURCE}]
    for backend_id, stage in (("ext", "knowledge extraction"), ("trn", "translation")):
        gateway = Gateway()
        register_demo_backends(gateway, **{backend_id: http_503})
        _, manifest = run_batch(corpus, EN_ZH, demo_pipeline_config(), gateway)
        assert manifest.records == [{
            "doc_id": "geo-1", "status": "error",
            "error": f"{stage} failed: provider returned HTTP 503: 'service unavailable'"}]


def test_pipeline_warnings_reach_the_log(caplog):
    caplog.set_level(logging.WARNING, logger="crat.pipeline")
    config = controlled_config({}, on_detector_error="translate_direct")
    fallback = run_pipeline("some text", EN_ZH, config, broken_detector_gateway(http_500))
    facts = [["alpha", "is", "fact"], ["alpha", " ", "blank"]]
    gateway = controlled_gateway({}, ["alpha"], judge=judge_reply(CORRECT, "a", facts))
    blank = run_pipeline("alpha text", EN_ZH, controlled_config({"alpha": [doc("dx1")]}), gateway)
    warnings = fallback.transcript.warnings() + blank.transcript.warnings()
    assert warnings == [
        "detector failed (provider returned HTTP 500: 'internal error'); "
        "falling back to direct translation",
        "judge: skipped blank fact from document 'dx1'",
    ]
    assert [r.getMessage() for r in caplog.records if r.name == "crat.pipeline"] == warnings


def test_empty_source_text_rejected(demo_gateway):
    with pytest.raises(PipelineError, match="empty"):
        run_pipeline("   ", EN_ZH, demo_pipeline_config(), demo_gateway)


def test_missing_backend_reported(demo_gateway):
    config = demo_pipeline_config(judge_backend="ghost")
    with pytest.raises(PipelineError, match="ghost"):
        run_pipeline("text", EN_ZH, config, demo_gateway)


# --- mode flags -----------------------------------------------------------------


def test_direct_mode_translates_only(demo_gateway):
    config = demo_pipeline_config(use_knowledge=False)
    result = run_pipeline(fixtures.GEOGRAPHIC_SOURCE, EN_ZH, config, demo_gateway)
    assert result.transcript.stages() == ["translate"]
    assert result.term_count == 0
    assert result.graph.is_empty()
    assert fixtures.FINANCIAL_BANK in result.target_text  # wrong default sense
    assert fixtures.RIVERBANK not in result.target_text


def test_unjudged_mode_admits_everything():
    by_surface = {"alpha": [doc("dx1"), doc("dx2")]}
    gateway = controlled_gateway({"dx1": INCORRECT, "dx2": INCORRECT}, ["alpha"])
    config = controlled_config(by_surface, use_judge=False)
    result = run_pipeline("alpha text", EN_ZH, config, gateway)
    assert result.graph.accepted_docs == ("dx1", "dx2")
    assert result.judged_count == 0
    assert result.transcript.stages() == ["detect", "extract", "retrieve", "translate"]


def test_ablation_stage_sets_nest():
    by_surface = {"alpha": [doc("dx1")]}
    configs = {
        "vanilla": controlled_config(by_surface, use_knowledge=False),
        "kg": controlled_config(by_surface, use_judge=False),
        "full": controlled_config(by_surface),
    }
    stage_sets = {}
    for name, config in configs.items():
        gateway = controlled_gateway({"dx1": CORRECT}, ["alpha"])
        result = run_pipeline("alpha text", EN_ZH, config, gateway)
        stage_sets[name] = set(result.transcript.stages())
    assert stage_sets["vanilla"] < stage_sets["kg"] < stage_sets["full"]


# --- stage conformance property ------------------------------------------------------


def test_stage_order_conforms_for_random_scripts():
    rng = random.Random(99)
    for _ in range(30):
        n_terms = rng.randint(0, 4)
        surfaces = [f"term{i}" for i in range(n_terms)]
        by_surface = {}
        verdicts = {}
        doc_counter = 0
        for s in surfaces:
            docs = []
            for _ in range(rng.randint(0, 3)):
                doc_id = f"dx{doc_counter}"
                doc_counter += 1
                docs.append(doc(doc_id))
                verdicts[doc_id] = rng.choice([CORRECT, INCORRECT])
            by_surface[s] = docs
        gateway = controlled_gateway(verdicts, surfaces)
        source = " ".join(surfaces) if surfaces else "no terms at all"
        result = run_pipeline(source, EN_ZH, controlled_config(by_surface), gateway)
        stages = result.transcript.stages()
        order = [STAGES.index(s) for s in stages]
        assert order == sorted(order)
        assert len(set(stages)) == len(stages)
        assert stages[-1] == "translate"
        expected_accepted = tuple(
            doc_id for s in surfaces for d in by_surface[s]
            for doc_id in [d.id] if verdicts[doc_id] == CORRECT)
        assert result.graph.accepted_docs == expected_accepted


# --- judge fan-out ---------------------------------------------------------------


FANOUT_SURFACES = {"alpha": ["dx0", "dx1", "dx2"], "beta": ["dx3", "dx4", "dx5"]}
FANOUT_PAIRS = [d for docs in FANOUT_SURFACES.values() for d in docs]
_DOC_RE = re.compile(r"Document (\S+):")


def fanout_judge(delay_ms):
    """A judge whose reply for the i-th pair waits ``delay_ms(i)``: dx0 and
    dx2 (after one repair turn) are CORRECT, dx1 INCORRECT, dx3 never
    parses, dx4 is CORRECT with one blank fact, and dx5's call fails."""
    def respond(request):
        doc_id = _DOC_RE.search(request.messages[0].content).group(1)
        time.sleep(delay_ms(FANOUT_PAIRS.index(doc_id)) / 1000)
        if doc_id == "dx5":
            raise HttpStatusError(503, "service unavailable")
        if doc_id == "dx3" or (doc_id == "dx2" and len(request.messages) == 1):
            return "Let me think about this document in prose."
        if doc_id == "dx4":
            return judge_reply(CORRECT, "x4", [["dx4", "is", "fact"], [" ", "is", "blank"]])
        return judge_reply(CORRECT if doc_id in ("dx0", "dx2") else INCORRECT, doc_id)
    return respond


def fanout_run(delay_ms):
    gateway = controlled_gateway({}, list(FANOUT_SURFACES), judge=fanout_judge(delay_ms))
    by_surface = {s: [doc(d) for d in docs] for s, docs in FANOUT_SURFACES.items()}
    return run_pipeline("alpha beta", EN_ZH, controlled_config(by_surface), gateway)


def test_judge_fanout_keeps_the_serial_order(tmp_path):
    n = len(FANOUT_PAIRS)
    # Earlier pairs wait longer, so the calls complete in reverse pair order.
    reverse = fanout_run(lambda i: (n - i) * 5)
    events = [("exchange", _DOC_RE.search(e.exchange.request.messages[0].content).group(1))
              if e.kind == "exchange" else ("warning", e.message)
              for e in reverse.transcript.events if e.stage == "judge" and e.kind != "stage"]
    assert events == [
        ("exchange", "dx0"), ("exchange", "dx1"),
        ("exchange", "dx2"), ("exchange", "dx2"),
        ("exchange", "dx3"), ("exchange", "dx3"), ("exchange", "dx3"),
        ("warning", "judge: unparsable reply for document 'dx3', ruling INCORRECT"),
        ("exchange", "dx4"),
        ("warning", "judge: skipped blank fact from document 'dx4'"),
        ("warning", "judge: call failed for document 'dx5' (HttpStatusError), "
                    "ruling INCORRECT"),
    ]
    assert reverse.judged_count == n
    assert reverse.graph.accepted_docs == ("dx0", "dx2", "dx4")
    forward = fanout_run(lambda i: i * 5)
    assert (artifact_bytes([reverse], tmp_path / "reverse")
            == artifact_bytes([forward], tmp_path / "forward"))


def test_judge_calls_in_flight_stay_under_the_backend_limit():
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def counting_judge(request):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        try:
            time.sleep(0.02)
            return judge_reply(INCORRECT)
        finally:
            with lock:
                state["now"] -= 1

    # Four terms with five documents each: 20 pairs per document, above the
    # limit, and four documents at once.
    surfaces = [f"t{i}" for i in range(4)]
    by_surface = {s: [doc(f"{s}-d{j}") for j in range(5)] for s in surfaces}
    gateway = controlled_gateway({}, surfaces, judge=counting_judge)
    corpus = [{"id": f"doc-{i}", "text": " ".join(surfaces)} for i in range(4)]
    results, manifest = run_batch(corpus, EN_ZH, controlled_config(by_surface, width=4),
                                  gateway)
    assert [r["status"] for r in manifest.records] == ["ok"] * 4
    assert all(r.judged_count == 20 for r in results)
    assert 1 < state["peak"] <= MAX_INFLIGHT_PER_BACKEND


# --- batch ---------------------------------------------------------------------


def test_batch_empty_corpus(demo_gateway):
    results, manifest = run_batch([], EN_ZH, demo_pipeline_config(), demo_gateway)
    assert results == []
    assert manifest.aggregate["documents"] == 0
    assert manifest.config_hash


def file_config_hash(directory, answer: str, endpoint: str) -> str:
    """The direct-mode run identity of a config file whose translator is a
    mock scripted to give ``answer``, with one remote source at ``endpoint``."""
    directory.mkdir()
    (directory / "script.json").write_text(json.dumps(
        {"rules": [], "fallback": {"kind": "text", "text": answer}}))
    (directory / "config.yaml").write_text(json.dumps({
        "backends": {"registrations": [
            {"id": "trn", "kind": "mock", "script_path": "script.json"}],
            "roles": {"translator": "trn"}},
        "retrieval": {"sources": [{"kind": "remote", "endpoint": endpoint}]}}))
    config = load_run_config(directory / "config.yaml")
    pipeline_config = build_pipeline_config(config, build_sources(config), mode="direct")
    return pipeline_config.config_hash(build_gateway(config))


def test_config_hash_names_each_roles_model(stub_server, tmp_path):
    """The manifest's run identity changes when a role's backend points at
    another model or endpoint, when a mock role's script file changes, and
    when a remote source points at another endpoint, and not between two
    runs of one config."""
    stub_server.set_default(200, {"choices": [{"message": {"content": fenced_payload(
        {"translation": "translated", "term_renderings": {}})}}]})
    corpus = [{"id": "d1", "text": "hello"}]
    config = PipelineConfig(translator_backend="live", use_knowledge=False)

    def manifest_hash(endpoint: str, model: str) -> str:
        gateway = Gateway()
        gateway.register_http("live", endpoint, model)
        results, manifest = run_batch(corpus, EN_ZH, config, gateway)
        assert [r["status"] for r in manifest.records] == ["ok"]
        return manifest.config_hash

    endpoint = f"{stub_server.url}/v1/chat/completions"
    first = manifest_hash(endpoint, "model-a")
    assert manifest_hash(endpoint, "model-a") == first
    assert len(first) == 64
    assert manifest_hash(endpoint, "model-b") != first
    assert manifest_hash(f"{stub_server.url}/other/chat", "model-a") != first

    base = file_config_hash(tmp_path / "base", "answer A", "http://127.0.0.1:1/a")
    assert file_config_hash(tmp_path / "same", "answer A", "http://127.0.0.1:1/a") == base
    assert file_config_hash(tmp_path / "script", "answer B", "http://127.0.0.1:1/a") != base
    assert file_config_hash(tmp_path / "endpoint", "answer A", "http://127.0.0.1:2/b") != base


def test_batch_width_does_not_change_results(tmp_path, demo_gateway):
    corpus = [{"id": f"doc{i}", "text": fixtures.GEOGRAPHIC_SOURCE if i % 2
               else fixtures.FINANCIAL_SOURCE} for i in range(10)]
    serial_results, _ = run_batch(corpus, EN_ZH, demo_pipeline_config(width=1),
                                  demo_gateway)
    wide_results, _ = run_batch(corpus, EN_ZH, demo_pipeline_config(width=4),
                                demo_gateway)
    assert [r.source_doc_id for r in serial_results] == [d["id"] for d in corpus]
    serial_blobs = artifact_bytes(serial_results, tmp_path / "serial")
    wide_blobs = artifact_bytes(wide_results, tmp_path / "wide")
    assert serial_blobs == wide_blobs


def test_batch_concurrent_runs_share_cache(tmp_path):
    gateway = Gateway(cache_dir=tmp_path / "cache")
    register_demo_backends(gateway)
    corpus = [{"id": f"doc{i}", "text": fixtures.GEOGRAPHIC_SOURCE} for i in range(8)]
    first, manifest = run_batch(corpus, EN_ZH, demo_pipeline_config(width=4), gateway)
    assert manifest.aggregate["failed"] == 0
    second, _ = run_batch(corpus, EN_ZH, demo_pipeline_config(width=4), gateway)
    assert (artifact_bytes(first, tmp_path / "first")
            == artifact_bytes(second, tmp_path / "second"))
    assert all(e.cache_hit for r in second for e in r.transcript.exchanges())


def test_batch_starts_a_bounded_number_of_threads(tmp_path, monkeypatch):
    # The judge fan-out runs on the gateway's workers, not on a pool per
    # document: the batch's own pool, those workers and the cache writer.
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    gateway = Gateway(cache_dir=tmp_path / "cache")
    register_demo_backends(gateway)
    corpus = [{"id": f"doc{i}", "text": fixtures.GEOGRAPHIC_SOURCE if i % 2
               else fixtures.FINANCIAL_SOURCE + f" Note {i}."} for i in range(20)]
    results, manifest = run_batch(corpus, EN_ZH, demo_pipeline_config(width=2), gateway)
    assert manifest.aggregate["failed"] == 0
    assert sum(r.judged_count for r in results) >= 20
    assert len(started) <= MAX_INFLIGHT_PER_BACKEND + 2 + 1, started


def test_batch_returns_with_every_reply_on_disk(tmp_path, monkeypatch):
    # Writes lag behind the calls; run_batch still returns only once each
    # reply it made is in the cache directory.
    gateway = Gateway(cache_dir=tmp_path / "cache")
    register_demo_backends(gateway)
    write = gateway._cache_write

    def slow_write(*args):
        time.sleep(0.01)
        write(*args)

    monkeypatch.setattr(gateway, "_cache_write", slow_write)
    corpus = [{"id": f"doc{i}", "text": fixtures.GEOGRAPHIC_SOURCE + f" Note {i}."}
              for i in range(3)]
    results, _ = run_batch(corpus, EN_ZH, demo_pipeline_config(width=2), gateway)
    fingerprints = {e.fingerprint for r in results for e in r.transcript.exchanges()}
    assert len(fingerprints) > 10
    assert {p.stem for p in (tmp_path / "cache").glob("*/*.json")} == fingerprints


def test_batch_survives_an_unusable_cache_dir(tmp_path, caplog):
    # The cache directory sits under a regular file: reads miss, writes are
    # logged with the entry's path, and the document still succeeds.
    (tmp_path / "file").write_text("not a directory")
    gateway = Gateway(cache_dir=tmp_path / "file" / "cache")
    register_demo_backends(gateway)
    corpus = [{"id": "geo-1", "text": fixtures.GEOGRAPHIC_SOURCE}]
    results, manifest = run_batch(corpus, EN_ZH, demo_pipeline_config(), gateway)
    assert [r["status"] for r in manifest.records] == ["ok"]
    assert fixtures.RIVERBANK in results[0].target_text
    warnings = [r.getMessage() for r in caplog.records if r.name == "crat.gateway"]
    assert len(warnings) == len(results[0].transcript.exchanges())
    assert all(w.startswith(f"could not write cache entry {tmp_path / 'file' / 'cache'}/")
               for w in warnings)


def test_batch_isolates_failures(demo_gateway):
    corpus = [{"id": f"doc{i}", "text": "fine text"} for i in range(5)]
    corpus[2]["text"] = "   "  # fails validation inside the run
    results, manifest = run_batch(corpus, EN_ZH, demo_pipeline_config(), demo_gateway)
    assert len(results) == 4
    statuses = {r["doc_id"]: r["status"] for r in manifest.records}
    assert statuses["doc2"] == "error"
    assert manifest.aggregate == {
        "documents": 5, "ok": 4, "failed": 1,
        "total_ms": manifest.aggregate["total_ms"]}
    lines = manifest.to_jsonl().strip().splitlines()
    assert json.loads(lines[0])["record"] == "run"
    assert len(lines) == 6


# --- transcript files ----------------------------------------------------------------


def test_write_transcript_files(tmp_path, demo_gateway):
    result = run_pipeline(fixtures.FINANCIAL_SOURCE, EN_ZH, demo_pipeline_config(),
                          demo_gateway, source_doc_id="fin-1")
    paths = write_transcript(result, tmp_path)
    assert [p.name for p in paths] == ["result.json", "graph.json", "transcript.json"]
    graph_data = json.loads(paths[1].read_text("utf-8"))
    spo = [(t["subject"], t["relation"], t["object"]) for t in graph_data["triples"]]
    assert ("Scotia", "is a", "bank") in spo
    before = [p.read_bytes() for p in paths]
    write_transcript(result, tmp_path)
    assert [p.read_bytes() for p in paths] == before


def test_write_transcript_zero_terms(tmp_path, demo_gateway):
    result = run_pipeline("Nothing unusual here.", EN_ZH, demo_pipeline_config(),
                          demo_gateway, source_doc_id="plain")
    paths = write_transcript(result, tmp_path)
    graph_data = json.loads(paths[1].read_text("utf-8"))
    assert graph_data["triples"] == []


def test_write_transcript_sanitizes_doc_id(tmp_path, demo_gateway):
    result = run_pipeline("Nothing unusual here.", EN_ZH, demo_pipeline_config(),
                          demo_gateway, source_doc_id="nyt/2024:article 7")
    paths = write_transcript(result, tmp_path)
    assert paths[0].parent.name == "nyt_2024_article_7"
    assert paths[0].is_file()


def test_write_transcript_unwritable_target(tmp_path, demo_gateway):
    result = run_pipeline("Nothing unusual here.", EN_ZH, demo_pipeline_config(),
                          demo_gateway, source_doc_id="plain")
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError):
        write_transcript(result, blocker)


def test_result_round_trip_and_loading(tmp_path, demo_gateway):
    result = run_pipeline(fixtures.GEOGRAPHIC_SOURCE, EN_ZH, demo_pipeline_config(),
                          demo_gateway, source_doc_id="geo-1")
    write_transcript(result, tmp_path)
    (loaded,) = load_results(tmp_path)
    assert loaded.source_doc_id == "geo-1"
    assert loaded.graph == result.graph
    assert loaded.target_text == result.target_text
    assert loaded.term_renderings == result.term_renderings
    with pytest.raises(PipelineError):
        load_results(tmp_path / "missing")
