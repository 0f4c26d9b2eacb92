"""End-to-end orchestration for one source document and over batches.

Stage order is fixed: detect -> extract -> retrieve -> judge (one call per
term/document pair) -> integrate -> translate. External evidence enters the
graph only through the judge's verdict gate; with zero detected terms the
knowledge stages are skipped entirely and the translator runs on an empty
graph.

Every judge call reads only the internal knowledge fixed before the judge
stage, so all (term, document) pairs are judged at once, on the gateway's
``MAX_INFLIGHT_PER_BACKEND`` worker threads (``Gateway.fan_out``), which
every document of the process shares; the gateway also bounds the calls in
flight per backend. Each call records into its own buffer.
Verdicts are integrated and buffers replayed into the transcript in the fixed
(term, document) order, so the graph, the transcript and the result are the
same bytes as if the pairs had been judged one after another.
"""

from __future__ import annotations

import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from . import canonical
from .agents import (
    AgentError,
    JudgeVerdict,
    detect_unknown_terms,
    extract_internal_knowledge,
    judge_document,
    translate_with_knowledge,
)
from .gateway import Gateway, GatewayError
from .retrieval import DEFAULT_N2, RetrievedDocument, retrieve_for_term
from .transcript import AgentTranscript, CallBuffer, warn
from .transkg import (
    CORRECT,
    KnowledgeTriple,
    TransKG,
    admit_external,
    deserialize_graph,
    external_provenance,
    integrate_external,
    new_graph,
    add_internal,
    serialize_graph,
)

log = logging.getLogger(__name__)

# Format 1 also embedded the graph and the transcript; format 2 leaves them to
# graph.json and transcript.json. Both hold every field that loading reads.
RESULT_FORMAT_VERSION = 2

ON_DETECTOR_ERROR = ("fail", "translate_direct")


class PipelineError(Exception):
    pass


@dataclass
class PipelineConfig:
    """Backends, retrieval setup, and failure policy for a run."""

    detector_backend: str = "main"
    extractor_backend: str = "main"
    judge_backend: str = "main"
    translator_backend: str = "main"
    sources: Sequence = ()
    n2: int = DEFAULT_N2
    k_per_source: int = DEFAULT_N2
    on_detector_error: str = "translate_direct"
    width: int = 1
    use_knowledge: bool = True   # False: direct mode, translator only
    use_judge: bool = True       # False: retrieved evidence is admitted unjudged

    def __post_init__(self):
        if self.n2 < 1:
            raise ValueError("n2 must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.on_detector_error not in ON_DETECTOR_ERROR:
            raise ValueError(f"on_detector_error must be one of {ON_DETECTOR_ERROR}")

    def required_backends(self) -> list[str]:
        roles = [self.translator_backend]
        if self.use_knowledge:
            roles = [self.detector_backend, self.extractor_backend] + roles
            if self.use_judge:
                roles.insert(2, self.judge_backend)
        return roles

    def validate_backends(self, gateway: Gateway) -> None:
        missing = sorted({b for b in self.required_backends() if not gateway.has_backend(b)})
        if missing:
            raise PipelineError(f"backends not registered: {', '.join(missing)}")

    def config_hash(self, gateway: Gateway) -> str:
        """The run's identity: every setting, with sources by label, and the
        model behind each backend the run needs."""
        settings = {f.name: getattr(self, f.name) for f in fields(self)}
        settings["sources"] = [getattr(s, "label", str(s)) for s in self.sources]
        return gateway.identity(settings, self.required_backends())


@dataclass
class TranslationResult:
    """Final target text plus the graph and audit log that produced it."""

    source_doc_id: str
    source_text: str
    target_text: str
    graph: TransKG
    transcript: AgentTranscript
    timings_ms: dict[str, float] = field(default_factory=dict)
    term_count: int = 0
    judged_count: int = 0
    accepted_count: int = 0
    term_renderings: dict[str, list[str]] = field(default_factory=dict)
    detector_fallback: bool = False
    fail_closed_count: int = 0  # judge verdicts failed closed; the manifest's, not result.json's


def result_to_dict(result: TranslationResult) -> dict:
    """Texts and counts; the graph, transcript and timings have their own files."""
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "source_doc_id": result.source_doc_id,
        "source_text": result.source_text,
        "target_text": result.target_text,
        "term_count": result.term_count,
        "judged_count": result.judged_count,
        "accepted_count": result.accepted_count,
        "term_renderings": result.term_renderings,
        "detector_fallback": result.detector_fallback,
    }


def serialize_result(result: TranslationResult) -> bytes:
    """Canonical ``result.json`` bytes; deterministic reruns compare byte-equal."""
    return canonical.pretty(result_to_dict(result)).encode("utf-8")


@contextmanager
def _timed(timings: dict, stage: str):
    started = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = round((time.perf_counter() - started) * 1000.0, 3)


def _verdict_triples(verdict: JudgeVerdict, doc: RetrievedDocument, term,
                     transcript: AgentTranscript) -> list[KnowledgeTriple]:
    """External triples to link for a CORRECT verdict: the judge's distilled
    document facts plus the proposed rendering of the term."""
    if verdict.verdict != CORRECT:
        return []
    triples = []
    for subject, relation, obj in verdict.facts:
        if not (subject.strip() and relation.strip() and obj.strip()):
            warn(transcript, log, f"judge: skipped blank fact from document {doc.id!r}")
            continue
        triples.append(KnowledgeTriple(subject, relation, obj,
                                       external_provenance(doc.id),
                                       frozenset({term.surface})))
    rendering = verdict.proposed_rendering.strip()
    if rendering:
        triples.append(KnowledgeTriple(term.surface, "renders as", rendering,
                                       external_provenance(doc.id),
                                       frozenset({term.surface})))
    return triples


def run_pipeline(source_text: str, lang_pair: tuple[str, str], config: PipelineConfig,
                 gateway: Gateway, source_doc_id: str = "doc-0") -> TranslationResult:
    """Translate one document through the full stage sequence."""
    if not source_text or not source_text.strip():
        raise PipelineError(f"{source_doc_id}: source text is empty")
    config.validate_backends(gateway)

    transcript = AgentTranscript()
    timings: dict[str, float] = {}
    terms = []
    detector_fallback = False

    if config.use_knowledge:
        with _timed(timings, "detect"):
            transcript.begin_stage("detect")
            try:
                terms = detect_unknown_terms(source_text, lang_pair,
                                             config.detector_backend, gateway, transcript)
            except (AgentError, GatewayError) as err:
                if config.on_detector_error == "translate_direct":
                    detector_fallback = True
                    warn(transcript, log,
                         f"detector failed ({err}); falling back to direct translation")
                else:
                    raise PipelineError(f"unknown-term detection failed: {err}") from err

    graph = new_graph(source_doc_id, terms)
    documents: dict[str, RetrievedDocument] = {}
    judged_count = fail_closed_count = 0

    if terms:
        with _timed(timings, "extract"):
            transcript.begin_stage("extract")
            try:
                internal = extract_internal_knowledge(
                    source_text, terms, config.extractor_backend, gateway, transcript)
            except (AgentError, GatewayError) as err:
                raise PipelineError(f"knowledge extraction failed: {err}") from err
            graph = add_internal(graph, internal)

        with _timed(timings, "retrieve"):
            transcript.begin_stage("retrieve")
            per_term_docs = []
            for term in terms:
                docs = retrieve_for_term(term, source_text, config.sources,
                                         config.k_per_source, config.n2, transcript)
                per_term_docs.append((term, docs))

        if any(docs for _, docs in per_term_docs):
            if config.use_judge:
                with _timed(timings, "judge"):
                    transcript.begin_stage("judge")
                    internal = list(graph.internal_triples)
                    pairs = [(term, doc) for term, docs in per_term_docs for doc in docs]

                    def judge(pair) -> tuple[JudgeVerdict, CallBuffer]:
                        term, doc = pair
                        buffer = CallBuffer()
                        verdict = judge_document(internal, doc, source_text, term, lang_pair,
                                                 config.judge_backend, gateway, buffer)
                        return verdict, buffer

                    rulings = gateway.fan_out(judge, pairs)
                    for (term, doc), (verdict, buffer) in zip(pairs, rulings):
                        buffer.replay(transcript)
                        judged_count += 1
                        fail_closed_count += verdict.fail_closed
                        triples = _verdict_triples(verdict, doc, term, transcript)
                        graph = integrate_external(graph, doc, verdict, triples)
                        if verdict.verdict == CORRECT:
                            documents[doc.id] = doc
            else:
                # Unrefined mode: admit every retrieved document without judging.
                for _, docs in per_term_docs:
                    for doc in docs:
                        graph = admit_external(graph, doc.id)
                        documents[doc.id] = doc

    with _timed(timings, "translate"):
        transcript.begin_stage("translate")
        try:
            output = translate_with_knowledge(
                source_text, graph, lang_pair, config.translator_backend, gateway,
                transcript, documents=documents)
        except (AgentError, GatewayError) as err:
            raise PipelineError(f"translation failed: {err}") from err

    return TranslationResult(
        source_doc_id=source_doc_id,
        source_text=source_text,
        target_text=output.text,
        graph=graph,
        transcript=transcript,
        timings_ms=timings,
        term_count=len(terms),
        judged_count=judged_count,
        accepted_count=len(graph.accepted_docs),
        term_renderings=output.term_renderings,
        detector_fallback=detector_fallback,
        fail_closed_count=fail_closed_count,
    )


@dataclass
class BatchManifest:
    """Per-document status plus run-level aggregates for one batch."""

    config_hash: str
    records: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        header = {"record": "run", "config_hash": self.config_hash, **self.aggregate}
        lines = [canonical.compact(header)]
        lines += [canonical.compact({"record": "doc", **r}) for r in self.records]
        return "\n".join(lines) + "\n"


def _doc_fields(record: Mapping, position: int) -> tuple[str, str]:
    doc_id = str(record.get("id") or f"doc-{position:04d}")
    text = record.get("text", record.get("source_text", ""))
    return doc_id, text


def run_batch(corpus: Sequence[Mapping], lang_pair: tuple[str, str],
              config: PipelineConfig, gateway: Gateway,
              ) -> tuple[list[TranslationResult], BatchManifest]:
    """Run the pipeline over ``corpus`` records ({id, text}).

    Results come back in input order regardless of the concurrency width;
    per-document failures are recorded in the manifest and the batch
    continues. Every reply the batch cached is on disk when it returns.
    """
    started = time.perf_counter()
    docs = [_doc_fields(record, i) for i, record in enumerate(corpus)]

    def run_one(entry: tuple[str, str]) -> TranslationResult:
        doc_id, text = entry
        return run_pipeline(text, lang_pair, config, gateway, source_doc_id=doc_id)

    outcomes: list[TranslationResult | Exception] = [None] * len(docs)  # type: ignore[list-item]
    try:
        with ThreadPoolExecutor(max_workers=config.width) as pool:
            futures = [pool.submit(run_one, entry) for entry in docs]
            for i, future in enumerate(futures):
                try:
                    outcomes[i] = future.result()
                except Exception as err:  # per-doc isolation
                    outcomes[i] = err
    finally:
        gateway.flush()

    results = []
    records = []
    for (doc_id, _), outcome in zip(docs, outcomes):
        if isinstance(outcome, Exception):
            log.warning("document %s failed: %s", doc_id, outcome)
            records.append({"doc_id": doc_id, "status": "error", "error": str(outcome)})
            continue
        results.append(outcome)
        records.append({
            "doc_id": doc_id,
            "status": "ok",
            "term_count": outcome.term_count,
            "judged_count": outcome.judged_count,
            "accepted_count": outcome.accepted_count,
            "detector_fallback": outcome.detector_fallback,
            "timings_ms": outcome.timings_ms,
        })
        if outcome.fail_closed_count:
            records[-1]["judge_fail_closed"] = outcome.fail_closed_count
    aggregate = {
        "documents": len(docs),
        "ok": len(results),
        "failed": len(docs) - len(results),
        "total_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    fail_closed = sum(result.fail_closed_count for result in results)
    if fail_closed:
        aggregate["judge_fail_closed"] = fail_closed
    return results, BatchManifest(config.config_hash(gateway), records, aggregate)


# --- transcript directories ---------------------------------------------------

_SAFE_NAME_RE = re.compile(r"[^\w.-]")


def _safe_name(doc_id: str) -> str:
    return _SAFE_NAME_RE.sub("_", doc_id) or "doc"


def write_transcript(result: TranslationResult, directory: str | Path) -> list[Path]:
    """Write one result's ``result.json``, ``graph.json`` and
    ``transcript.json``; each is the only copy of what it holds.

    All three files are canonical (sorted keys, no volatile fields), so
    re-running an identical configuration overwrites them byte-identically.
    """
    doc_dir = Path(directory) / _safe_name(result.source_doc_id)
    doc_dir.mkdir(parents=True, exist_ok=True)
    result_path = doc_dir / "result.json"
    graph_path = doc_dir / "graph.json"
    transcript_path = doc_dir / "transcript.json"
    result_path.write_bytes(serialize_result(result))
    graph_path.write_bytes(serialize_graph(result.graph))
    transcript_path.write_text(canonical.pretty(result.transcript.to_dict()), encoding="utf-8")
    return [result_path, graph_path, transcript_path]


def result_from_dict(data: Mapping, graph: TransKG) -> TranslationResult:
    """Rebuild a result from its ``result.json`` fields and its graph (transcript
    events are not reconstructed; evaluation only needs texts, graph, counts)."""
    if data.get("format_version") not in (1, RESULT_FORMAT_VERSION):
        raise PipelineError(f"unsupported result format version: {data.get('format_version')!r}")
    return TranslationResult(
        source_doc_id=data["source_doc_id"],
        source_text=data["source_text"],
        target_text=data["target_text"],
        graph=graph,
        transcript=AgentTranscript(),
        term_count=data.get("term_count", 0),
        judged_count=data.get("judged_count", 0),
        accepted_count=data.get("accepted_count", 0),
        term_renderings={k: list(v) for k, v in data.get("term_renderings", {}).items()},
        detector_fallback=data.get("detector_fallback", False),
    )


def load_results(directory: str | Path) -> list[TranslationResult]:
    """Load every ``result.json`` under a transcript directory tree, each
    with the graph from the ``graph.json`` beside it."""
    root = Path(directory)
    if not root.is_dir():
        raise PipelineError(f"not a results directory: {root}")
    results = []
    for path in sorted(root.glob("*/result.json")):
        try:
            data = json.loads(path.read_text("utf-8"))
            graph = deserialize_graph((path.parent / "graph.json").read_bytes())
            results.append(result_from_dict(data, graph))
        except (OSError, ValueError, KeyError) as err:
            raise PipelineError(f"unreadable result file {path}: {err}") from err
    return results
