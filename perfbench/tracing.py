"""The traced run's spans and the per-layer metrics computed from them.

``Tracer.install`` wraps public functions of crat's modules from outside
the program. Each call becomes a span: name, start, end, parent span (the
innermost open span of the calling thread) and document. The document comes
from the call's arguments, never from the thread, so the attribution holds
if a later version fans calls out to worker threads. Spans stay in memory
and are written out when the run ends.

A target that no longer exists is skipped; the metrics that need it are
left out of the report rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from pathlib import Path

import world

# (module, attribute, span name, ("text" | "id" | None, positional args -> document))
_TEXT0 = ("text", lambda a: a[0])
_NONE = (None, None)
TARGETS = (
    ("crat.pipeline", "run_pipeline", "pipeline.run_pipeline", _TEXT0),
    ("crat.pipeline", "detect_unknown_terms", "stage.detect", _TEXT0),
    ("crat.pipeline", "extract_internal_knowledge", "stage.extract", _TEXT0),
    ("crat.pipeline", "retrieve_for_term", "stage.retrieve", ("text", lambda a: a[1])),
    ("crat.pipeline", "judge_document", "stage.judge", ("text", lambda a: a[2])),
    ("crat.pipeline", "translate_with_knowledge", "stage.translate", _TEXT0),
    ("crat.pipeline", "write_transcript", "pipeline.write_transcript",
     ("text", lambda a: a[0].source_text)),
    ("crat.pipeline", "integrate_external", "transkg.integrate_external",
     ("id", lambda a: a[0].source_doc_id)),
    ("crat.pipeline", "serialize_graph", "transkg.serialize_graph",
     ("id", lambda a: a[0].source_doc_id)),
    ("crat.gateway", "Gateway.complete", "gateway.complete",
     ("text", lambda a: world.source_of(a[1].messages[0].content))),
    ("crat.agents.schema", "extract_payload", "agents.extract_payload", _NONE),
    ("crat.retrieval", "GlossarySource.search", "retrieval.glossary_search", _NONE),
    ("crat.retrieval", "LocalIndexSource.search", "retrieval.bm25_search", _NONE),
    ("crat.retrieval", "build_index", "retrieval.build_index", _NONE),
    ("crat.retrieval", "save_index", "retrieval.save_index", _NONE),
    ("crat.retrieval", "load_index", "retrieval.load_index", _NONE),
    ("crat.retrieval", "load_glossary", "retrieval.load_glossary", _NONE),
    ("crat.config", "load_run_config", "config.load_run_config", _NONE),
    ("crat.config", "build_gateway", "config.build_gateway", _NONE),
    ("crat.config", "build_pipeline_config", "config.build_pipeline_config", _NONE),
)
STAGES = ("detect", "extract", "retrieve", "judge", "translate")


class Span:
    __slots__ = ("name", "start", "end", "parent", "doc", "cache_hit", "agent", "repair")

    def __init__(self, name, parent, doc):
        self.name = name
        self.parent = parent
        self.doc = doc
        self.start = self.end = 0.0
        self.cache_hit = self.agent = self.repair = None

    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self, id_to_text: dict[str, str]):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._id_to_text = id_to_text
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _doc(self, how, args):
        kind, get = how
        if kind is None:
            return None
        try:
            value = get(args)
        except (IndexError, AttributeError, TypeError):
            return None
        return world.source_key(value if kind == "text" else self._id_to_text.get(value, ""))

    def _wrap(self, original, name, how):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None, tracer._doc(how, args))
            tracer.spans.append(span)
            if name == "gateway.complete":
                messages = args[1].messages
                span.agent = world.agent_of(messages[0].content)
                span.repair = len(messages) > 1
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if name == "gateway.complete":
                    span.cache_hit = bool(getattr(result, "cache_hit", False))
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, name, how in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            setattr(owner, leaf, self._wrap(original, name, how))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                entry = span.to_dict()
                entry["parent"] = None if span.parent is None else id(span.parent)
                entry["id"] = id(span)
                handle.write(json.dumps(entry) + "\n")


# --- per-layer metrics --------------------------------------------------------

# name -> (unit, better, span names it needs)
PER_LAYER = {
    "gateway.calls_per_doc": ("calls", "lower", ("gateway.complete",)),
    "gateway.cache_hit_ratio": ("ratio", "higher", ("gateway.complete",)),
    "gateway.overhead_ms_per_call": ("ms", "lower", ("gateway.complete",)),
    "gateway.connections_per_call": ("conn/call", "lower", ()),
    "agents.judge_calls_per_doc": ("calls", "lower", ("gateway.complete",)),
    "agents.repair_calls_per_doc": ("calls", "lower", ("gateway.complete",)),
    "agents.parse_ms_per_reply": ("ms", "lower", ("agents.extract_payload",)),
    "pipeline.seq_call_depth": ("calls", "lower", ()),
    **{f"pipeline.stage_ms.{s}": ("ms", "lower", (f"stage.{s}", "pipeline.run_pipeline"))
       for s in STAGES},
    "pipeline.write_ms_per_doc": ("ms", "lower", ("pipeline.write_transcript",)),
    "pipeline.result_kb_per_doc": ("KB", "lower", ()),
    "pipeline.graph_kb_per_doc": ("KB", "lower", ()),
    "pipeline.transcript_kb_per_doc": ("KB", "lower", ()),
    "retrieval.glossary_ms_per_query": ("ms", "lower", ("retrieval.glossary_search",)),
    "retrieval.bm25_ms_per_query": ("ms", "lower", ("retrieval.bm25_search",)),
    "retrieval.build_index_s": ("s", "lower", ("retrieval.build_index",)),
    "retrieval.save_index_s": ("s", "lower", ("retrieval.save_index",)),
    "retrieval.load_index_s": ("s", "lower", ("retrieval.load_index",)),
    "retrieval.index_mb": ("MB", "lower", ()),
    "retrieval.load_glossary_ms": ("ms", "lower", ("retrieval.load_glossary",)),
    "transkg.integrate_ms_per_verdict": ("ms", "lower", ("transkg.integrate_external",)),
    "transkg.serialize_graph_ms_per_doc": ("ms", "lower", ("transkg.serialize_graph",)),
    "config.load_ms": ("ms", "lower", ("config.load_run_config", "config.build_gateway",
                                       "config.build_pipeline_config")),
    "process.cpu_ms_per_doc": ("ms", "lower", ()),
}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _total_ms(spans: list[Span], name: str) -> float:
    return sum(s.ms() for s in spans if s.name == name)


def seq_call_depth(calls: list[list]) -> list[int]:
    """Per source document, the most of its stub calls that follow one
    another without overlapping in time (greedy by end time)."""
    by_doc: dict[str, list[tuple[float, float]]] = {}
    for _agent, key, start, end, _doc_id in calls:
        by_doc.setdefault(key, []).append((start, end))
    depths = []
    for intervals in by_doc.values():
        depth, last_end = 0, float("-inf")
        for start, end in sorted(intervals, key=lambda iv: iv[1]):
            if start >= last_end:
                depth, last_end = depth + 1, end
        depths.append(depth)
    return depths


def _stage_ms(spans: list[Span], stage: str, docs: int) -> float:
    """Wall time per document inside one stage's functions: per document run,
    from the first call's start to the last call's end."""
    extent: dict[tuple, list[float]] = {}
    for span in spans:
        if span.name != f"stage.{stage}":
            continue
        run = span.parent
        while run is not None and run.name != "pipeline.run_pipeline":
            run = run.parent
        group = extent.setdefault((span.doc, id(run)), [span.start, span.end])
        group[0] = min(group[0], span.start)
        group[1] = max(group[1], span.end)
    return sum(end - start for start, end in extent.values()) * 1000.0 / docs


def setup_metrics(per_setup: list[list[Span]], index_bytes: int) -> dict[str, float]:
    """Set-up layer metrics: the median over the run's set-ups."""
    def median_ms(*names: str) -> float:
        return statistics.median(sum(_total_ms(spans, n) for n in names) for spans in per_setup)

    return {
        "retrieval.build_index_s": median_ms("retrieval.build_index") / 1000,
        "retrieval.save_index_s": median_ms("retrieval.save_index") / 1000,
        "retrieval.load_index_s": median_ms("retrieval.load_index") / 1000,
        "retrieval.index_mb": index_bytes / 1e6,
        "retrieval.load_glossary_ms": median_ms("retrieval.load_glossary"),
        "config.load_ms": median_ms("config.load_run_config", "config.build_gateway",
                                    "config.build_pipeline_config"),
    }


def round_metrics(spans: list[Span], docs: int, stub: dict,
                  file_bytes: dict[str, int]) -> dict[str, float]:
    """Batch layer metrics over the traced rounds.

    ``stub`` sums the stub's counters over those rounds (its ``calls`` keep
    one list per round, since source keys repeat across rounds);
    ``file_bytes`` sums the per-document file sizes by file name.
    """
    calls = [s for s in spans if s.name == "gateway.complete"]
    replies = [s for s in spans if s.name == "agents.extract_payload"]
    stub_service_ms = sum((end - start) * 1000.0 for round_calls in stub["calls"]
                          for _a, _k, start, end, _d in round_calls)
    depths = [d for round_calls in stub["calls"] for d in seq_call_depth(round_calls)]
    out = {
        "gateway.calls_per_doc": len(calls) / docs,
        "gateway.cache_hit_ratio": sum(1 for s in calls if s.cache_hit) / max(1, len(calls)),
        "gateway.overhead_ms_per_call":
            (sum(s.ms() for s in calls) - stub_service_ms) / max(1, len(calls)),
        "gateway.connections_per_call": stub["connections"] / max(1, stub["requests"]),
        "agents.judge_calls_per_doc": sum(1 for s in calls if s.agent == "judge") / docs,
        "agents.repair_calls_per_doc": sum(1 for s in calls if s.repair) / docs,
        "agents.parse_ms_per_reply": _mean([s.ms() for s in replies]),
        "pipeline.seq_call_depth": _mean(depths),
        "pipeline.write_ms_per_doc": _total_ms(spans, "pipeline.write_transcript") / docs,
        "retrieval.glossary_ms_per_query":
            _mean([s.ms() for s in spans if s.name == "retrieval.glossary_search"]),
        "retrieval.bm25_ms_per_query":
            _mean([s.ms() for s in spans if s.name == "retrieval.bm25_search"]),
        "transkg.integrate_ms_per_verdict":
            _mean([s.ms() for s in spans if s.name == "transkg.integrate_external"]),
        "transkg.serialize_graph_ms_per_doc": _total_ms(spans, "transkg.serialize_graph") / docs,
    }
    for stage in STAGES:
        out[f"pipeline.stage_ms.{stage}"] = _stage_ms(spans, stage, docs)
    for name in ("result", "graph", "transcript"):
        out[f"pipeline.{name}_kb_per_doc"] = file_bytes.get(f"{name}.json", 0) / 1024 / docs
    return out


def report(values: dict[str, float], missing: set[str]) -> dict[str, dict]:
    """Every per-layer metric whose spans were all available, with its unit."""
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better, needs) in PER_LAYER.items()
            if not missing.intersection(needs)}
