"""End-to-end orchestration for one source document and over batches.

Stage order is fixed: detect -> extract -> retrieve -> judge (one call per
term/document pair) -> integrate -> translate. External evidence enters the
graph only through the verdict gate, ``transkg.integrate_external``, and the
translator quotes only accepted documents. With zero detected terms the
knowledge stages are skipped and the translator runs on an empty graph.

Retrieval does not wait for extraction: it runs on the calling thread while
the first extract request is in flight (``Gateway.complete``'s ``on_sent``),
so a remote source may be queried for a document whose extraction then
fails. Its warnings are recorded apart and joined as the retrieve stage
after the extract stage's events; ``timings_ms["retrieve"]`` is its own
wall time, which overlaps ``extract``. A retrieved document id names one
document for the run: the first source whose document under it is kept, in
term and then source order, owns it, and another source's document with
that id is dropped.

Each judge call is handed the internal facts about its own term
(``transkg.triples_for_term``); the translator is handed them all. Those
facts are fixed before the judge stage, so all (term, document) pairs are
judged at once, on the gateway's ``MAX_INFLIGHT_PER_BACKEND`` worker
threads (``Gateway.fan_out``), which every document of the process shares;
the gateway also bounds the calls in flight per backend. Each call records
into its own ``transcript.branch()``. Verdicts are integrated and branches
joined into the transcript in the fixed (term, document) order, so the
graph, the transcript and the result are the same bytes as if the pairs had
been judged one after another.
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
from .canonical import OPTIONAL, REQUIRED
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
from .transcript import AgentTranscript, warn
from .transkg import (
    TransKG,
    admit_external,
    deserialize_graph,
    integrate_external,
    new_graph,
    add_internal,
    serialize_graph,
    triples_for_term,
)

log = logging.getLogger(__name__)

# Format 2 holds every field that loading reads and leaves the graph and the
# transcript to graph.json and transcript.json.
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

    def required_roles(self) -> list[str]:
        """The roles a run calls, in stage order."""
        if not self.use_knowledge:
            return ["translator"]
        return ["detector", "extractor"] + (["judge"] if self.use_judge else []) + ["translator"]

    def required_backends(self) -> list[str]:
        return [getattr(self, f"{role}_backend") for role in self.required_roles()]

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


# What result.json holds: its format version, then texts and counts, as the
# graph, transcript and timings have their own files. The three texts are
# required; a missing count or flag loads as its default.
RESULT_SHAPE = {
    "format_version": (int, REQUIRED),
    **dict.fromkeys(("source_doc_id", "source_text", "target_text"), (str, REQUIRED)),
    **dict.fromkeys(("term_count", "judged_count", "accepted_count"), (int, OPTIONAL)),
    "term_renderings": ({str: [str]}, OPTIONAL), "detector_fallback": (bool, OPTIONAL),
}


def result_to_dict(result: TranslationResult) -> dict:
    values = {name: getattr(result, name) for name in RESULT_SHAPE if name != "format_version"}
    return {"format_version": RESULT_FORMAT_VERSION, **values}


def serialize_result(result: TranslationResult) -> bytes:
    """Canonical ``result.json`` bytes; deterministic reruns compare byte-equal."""
    return canonical.pretty(result_to_dict(result)).encode("utf-8")


# What failed, as a stage's ``PipelineError`` names it.
_STAGE_WORK = {"detect": "unknown-term detection", "extract": "knowledge extraction",
               "retrieve": "retrieval", "judge": "judging", "translate": "translation"}


@contextmanager
def _stage(name: str, transcript: AgentTranscript, timings: dict):
    """Open stage ``name`` in ``transcript`` and time it into ``timings``; any
    exception raised inside but a ``PipelineError`` (retrieval's, in the
    extract wait) becomes the stage's ``PipelineError``."""
    started = time.perf_counter()
    transcript.begin_stage(name)
    try:
        yield
    except PipelineError:
        raise
    except Exception as err:
        raise PipelineError(f"{_STAGE_WORK[name]} failed: {err}") from err
    finally:
        timings[name] = round((time.perf_counter() - started) * 1000.0, 3)


def run_pipeline(source_text: str, lang_pair: tuple[str, str], config: PipelineConfig,
                 gateway: Gateway, source_doc_id: str = "doc-0") -> TranslationResult:
    """Translate one document through the full stage sequence."""
    if not isinstance(source_text, str):
        raise PipelineError(f"{source_doc_id}: source text is not a string")
    if not source_text.strip():
        raise PipelineError(f"{source_doc_id}: source text is empty")
    config.validate_backends(gateway)

    transcript = AgentTranscript()
    timings: dict[str, float] = {}
    terms = []
    detector_fallback = False

    if config.use_knowledge:
        with _stage("detect", transcript, timings):
            try:
                terms = detect_unknown_terms(source_text, lang_pair,
                                             config.detector_backend, gateway, transcript)
            except (AgentError, GatewayError) as err:
                if config.on_detector_error != "translate_direct":
                    raise
                detector_fallback = True
                warn(transcript, log,
                     f"detector failed ({err}); falling back to direct translation")

    graph = new_graph(source_doc_id, terms)
    documents: dict[str, RetrievedDocument] = {}  # every retrieved document, by id
    judged_count = fail_closed_count = 0

    if terms:
        # Retrieval runs while the first extract request is in flight; its
        # warnings and its own wall time join the retrieve stage afterwards.
        per_term_docs = []
        retrieved, retrieve_timing = AgentTranscript(), {}

        def retrieve() -> None:
            owners: dict[str, str] = {}  # each document id's source label, for this run
            with _stage("retrieve", retrieved, retrieve_timing):
                per_term_docs.extend(
                    (term, retrieve_for_term(term, source_text, config.sources,
                                             config.k_per_source, config.n2, retrieved, owners))
                    for term in terms)

        with _stage("extract", transcript, timings):
            internal = extract_internal_knowledge(
                source_text, terms, config.extractor_backend, gateway, transcript, retrieve)
            graph = add_internal(graph, internal)
        transcript.join(retrieved)
        timings.update(retrieve_timing)
        documents = {doc.id: doc for _, docs in per_term_docs for doc in docs}

        if documents:
            if config.use_judge:
                with _stage("judge", transcript, timings):
                    facts = {term: triples_for_term(graph, term.surface) for term in terms}
                    pairs = [(term, doc) for term, docs in per_term_docs for doc in docs]

                    def judge(pair) -> tuple[JudgeVerdict, AgentTranscript]:
                        term, doc = pair
                        branch = transcript.branch()
                        return judge_document(facts[term], doc, source_text, term, lang_pair,
                                              config.judge_backend, gateway, branch), branch

                    rulings = gateway.fan_out(judge, pairs)
                    for (term, _), (verdict, branch) in zip(pairs, rulings):
                        transcript.join(branch)
                        graph = integrate_external(graph, verdict, term)
                    judged_count = len(pairs)
                    fail_closed_count = sum(verdict.fail_closed for verdict, _ in rulings)
            else:
                # Unrefined mode: admit every retrieved document without judging.
                for doc_id in documents:
                    graph = admit_external(graph, doc_id)

    with _stage("translate", transcript, timings):
        output = translate_with_knowledge(
            source_text, graph, lang_pair, config.translator_backend, gateway,
            transcript, documents=documents)

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
    doc_id = record.get("id")
    return (f"doc-{position:04d}" if doc_id in (None, "") else str(doc_id),
            record.get("text", record.get("source_text", "")))


def run_batch(corpus: Sequence[Mapping], lang_pair: tuple[str, str],
              config: PipelineConfig, gateway: Gateway,
              ) -> tuple[list[TranslationResult], BatchManifest]:
    """Run the pipeline over ``corpus`` records ({id, text}).

    Results come back in input order regardless of the concurrency width;
    per-document failures are recorded in the manifest and the batch
    continues. Every reply the batch cached is on disk when it returns. A
    corpus in which two documents' ids name one directory is refused before
    any call.
    """
    started = time.perf_counter()
    docs = [_doc_fields(record, i) for i, record in enumerate(corpus)]
    claimed: dict[str, str] = {}
    for doc_id, _ in docs:
        name = _safe_name(doc_id)
        if name in claimed:
            raise PipelineError(f"documents {claimed[name]!r} and {doc_id!r} would share "
                                f"the output directory {name!r}")
        claimed[name] = doc_id

    results = []
    records = []
    with ThreadPoolExecutor(max_workers=config.width) as pool:
        futures = [pool.submit(run_pipeline, text, lang_pair, config, gateway, doc_id)
                   for doc_id, text in docs]
        for (doc_id, _), future in zip(docs, futures):
            try:
                result = future.result()
            except Exception as err:  # per-doc isolation
                log.warning("document %s failed: %s", doc_id, err)
                records.append({"doc_id": doc_id, "status": "error", "error": str(err)})
                continue
            results.append(result)
            records.append({
                "doc_id": doc_id,
                "status": "ok",
                "term_count": result.term_count,
                "judged_count": result.judged_count,
                "accepted_count": result.accepted_count,
                "detector_fallback": result.detector_fallback,
                "timings_ms": result.timings_ms,
            })
            if result.fail_closed_count:
                records[-1]["judge_fail_closed"] = result.fail_closed_count
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
    """The directory name of a document id; one made only of dots (``.``,
    ``..``) becomes as many underscores, so it stays under the output."""
    name = _SAFE_NAME_RE.sub("_", doc_id) or "doc"
    return name if name.strip(".") else "_" * len(name)


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
    version = data.get("format_version") if isinstance(data, Mapping) else RESULT_FORMAT_VERSION
    if version != RESULT_FORMAT_VERSION:
        raise PipelineError(f"unsupported result format version: {version!r}")
    canonical.check(data, RESULT_SHAPE, "result")
    values = {name: data[name] for name in RESULT_SHAPE if name in data}
    del values["format_version"]
    return TranslationResult(graph=graph, transcript=AgentTranscript(), **values)


def load_results(directory: str | Path) -> list[TranslationResult]:
    """Load every ``result.json`` under a transcript directory tree, each
    with the graph from the ``graph.json`` beside it; a fault names its file."""
    root = Path(directory)
    if not root.is_dir():
        raise PipelineError(f"not a results directory: {root}")
    results = []
    for path in sorted(root.glob("*/result.json")):
        graph_path = path.parent / "graph.json"
        try:
            graph = deserialize_graph(graph_path.read_bytes())
        except (OSError, ValueError) as err:
            raise PipelineError(f"unreadable graph file {graph_path}: {err}") from err
        try:
            results.append(result_from_dict(json.loads(path.read_text("utf-8")), graph))
        except (OSError, ValueError, PipelineError) as err:
            raise PipelineError(f"unreadable result file {path}: {err}") from err
    return results
