"""Command-line entry point.

Subcommands: ``translate`` (single text or JSONL batch, crat or direct
mode), ``build-index`` (corpus JSONL -> BM25 index file), ``evaluate``
(results vs. a parallel corpus, optionally comparing two result
directories), and ``inspect-kg`` (print a run's knowledge graph).

Exit codes: 0 success, 1 fatal error, 2 partial batch failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import canonical, retrieval
from .config import (
    ConfigError,
    build_gateway,
    build_pipeline_config,
    build_sources,
    load_run_config,
)
from .evaluation import (
    EvaluationError,
    attach_external_scores,
    compare_reports,
    evaluate_run,
    load_parallel_corpus,
)
from .gateway import GatewayError
from .pipeline import PipelineError, load_results, run_batch, write_transcript
from .transkg import (
    GraphParseError,
    deserialize_graph,
    graph_to_dict,
    triple_to_dict,
    triples_for_term,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FATAL


def _read_jsonl(path: Path) -> list[tuple[str, dict]]:
    """Each non-blank line's JSON object, with the ``path:line`` it came from."""
    try:
        lines = path.read_text("utf-8").splitlines()
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}") from None
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{where}: malformed JSON: {err.msg}") from err
        if not isinstance(record, dict):
            raise ValueError(f"{where}: expected a JSON object")
        records.append((where, record))
    return records


def _require(where: str, record: dict, *keys: str) -> dict:
    """``record``, once it is known to hold every one of ``keys``."""
    for key in keys:
        if key not in record:
            raise ValueError(f"{where}: record has no {key!r}")
    return record


# --- translate ---------------------------------------------------------------


def _load_translate_corpus(args) -> list[dict]:
    if args.text is not None:
        return [{"id": args.doc_id or "doc-0", "text": args.text}]
    path = Path(args.input)
    if not path.is_file():
        raise ValueError(f"input file not found: {path}")
    if path.suffix == ".jsonl":
        return [record for _, record in _read_jsonl(path)]
    return [{"id": args.doc_id or path.stem, "text": path.read_text("utf-8")}]


def cmd_translate(args) -> int:
    try:
        config = load_run_config(args.config)
        corpus = _load_translate_corpus(args)
        gateway = build_gateway(config, cache_enabled=not args.no_cache)
        sources = build_sources(config) if args.mode == "crat" else []
        pipeline_config = build_pipeline_config(config, sources, mode=args.mode,
                                                width_override=args.width)
    except (ConfigError, GatewayError, retrieval.RetrievalError, ValueError) as err:
        return _fail(str(err))
    out_dir = Path(args.output)
    try:  # before any provider call, so a bad --output costs none
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        return _fail(f"cannot create output directory {out_dir}: {err}")

    lang_pair = (args.source_lang, args.target_lang)
    try:
        with gateway:  # closes its cache segment
            results, manifest = run_batch(corpus, lang_pair, pipeline_config, gateway)
    except PipelineError as err:  # a corpus refused before any call
        return _fail(str(err))

    for result in results:
        write_transcript(result, out_dir)
    (out_dir / "manifest.jsonl").write_text(manifest.to_jsonl(), "utf-8")

    failed = manifest.aggregate["failed"]
    total = manifest.aggregate["documents"]
    print(f"translated {len(results)}/{total} document(s) -> {out_dir}")
    for record in manifest.records:
        if record["status"] != "ok":
            print(f"  failed {record['doc_id']}: {record['error']}", file=sys.stderr)
    if failed == 0:
        return EXIT_OK
    return EXIT_FATAL if failed == total else EXIT_PARTIAL


# --- build-index ---------------------------------------------------------------


def cmd_build_index(args) -> int:
    path = Path(args.corpus)
    try:
        records = [_require(where, record, "id") for where, record in _read_jsonl(path)]
    except (OSError, ValueError) as err:
        return _fail(str(err))
    if not records:
        print(f"warning: {path} holds no documents; building an empty index",
              file=sys.stderr)
    try:
        index = retrieval.build_index(records, tokenizer_id=args.tokenizer)
        retrieval.save_index(index, args.output)
    except (ValueError, OSError) as err:
        return _fail(str(err))
    print(f"indexed {index.doc_count} document(s), {len(index.terms)} term(s) "
          f"-> {args.output}")
    return EXIT_OK


# --- evaluate ---------------------------------------------------------------


def _evaluate_dir(directory: str, examples, gateway, consis_backend):
    results = load_results(directory)
    if not results:
        raise EvaluationError(f"no results found under {directory}")
    return evaluate_run(results, examples, gateway, consis_backend)


def cmd_evaluate(args) -> int:
    report_path = Path(args.report)
    try:  # before any grading call, so a bad --report costs none
        report_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        return _fail(f"cannot create report directory {report_path.parent}: {err}")
    if report_path.is_dir():
        return _fail(f"cannot write report {report_path}: it is a directory")
    try:
        config = load_run_config(args.config)
        gateway = build_gateway(config, cache_enabled=not args.no_cache)
        consis_backend = config.role_backend("consis")
        corpus_path = Path(args.corpus)
        if not corpus_path.is_file():
            return _fail(f"parallel corpus not found: {corpus_path}")
        examples = load_parallel_corpus(
            corpus_path.read_text("utf-8").splitlines(), str(corpus_path))
        with gateway:  # closes its cache segment
            report = _evaluate_dir(args.results, examples, gateway, consis_backend)
            if args.external_scores:
                records = [_require(where, record, "id", "score")
                           for where, record in _read_jsonl(Path(args.external_scores))]
                scores = {str(r["id"]): float(r["score"]) for r in records}
                attach_external_scores(report, scores)
            payload: dict = {"candidate": report.to_dict()}
            if args.baseline:
                baseline_report = _evaluate_dir(args.baseline, examples, gateway, consis_backend)
                comparison = compare_reports(baseline_report, report)
                payload["baseline"] = baseline_report.to_dict()
                payload["comparison"] = comparison.to_dict()
                print(comparison.to_text())
            else:
                print(f"bleu: {report.bleu:.3f}")
                if report.consis is not None:
                    print(f"consis: {report.consis:.3f}")
                if report.term_consistency is not None:
                    print(f"term_consistency: {report.term_consistency:.3f}")
    except (ConfigError, GatewayError, PipelineError, EvaluationError, OSError,
            ValueError) as err:
        return _fail(str(err))
    try:
        report_path.write_text(canonical.pretty(payload), "utf-8")
    except OSError as err:
        return _fail(f"cannot write report {report_path}: {err}")
    print(f"report -> {report_path}")
    return EXIT_OK


# --- inspect-kg ---------------------------------------------------------------


def cmd_inspect_kg(args) -> int:
    graph_path = Path(args.transcript) / "graph.json"
    if not graph_path.is_file():
        return _fail(f"no graph file under {args.transcript}")
    try:
        graph = deserialize_graph(graph_path.read_bytes())
    except GraphParseError as err:
        return _fail(f"unreadable graph file {graph_path}: {err}")
    if args.term:
        filtered = {
            "term": args.term,
            "triples": [triple_to_dict(t) for t in triples_for_term(graph, args.term)],
        }
        print(canonical.pretty(filtered), end="")
    else:
        print(canonical.pretty(graph_to_dict(graph)), end="")
    return EXIT_OK


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crat",
        description="Retrieval-augmented translation with judged term knowledge.")
    sub = parser.add_subparsers(dest="command", required=True)

    translate = sub.add_parser("translate", help="translate text or a JSONL corpus")
    group = translate.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="plain-text file or .jsonl corpus of {id, text}")
    group.add_argument("--text", help="translate this literal text")
    translate.add_argument("--config", required=True)
    translate.add_argument("--source-lang", required=True)
    translate.add_argument("--target-lang", required=True)
    translate.add_argument("--output", required=True, help="transcript output directory")
    translate.add_argument("--mode", choices=("crat", "direct"), default="crat")
    translate.add_argument("--width", type=int, default=None,
                           help="concurrent documents (overrides config)")
    translate.add_argument("--no-cache", action="store_true")
    translate.add_argument("--doc-id", default=None)
    translate.set_defaults(func=cmd_translate)

    build = sub.add_parser("build-index", help="build a BM25 index from corpus JSONL")
    build.add_argument("--corpus", required=True)
    build.add_argument("--output", required=True)
    build.add_argument("--tokenizer", choices=("simple", "char"), default="simple")
    build.set_defaults(func=cmd_build_index)

    evaluate = sub.add_parser("evaluate", help="score results against a parallel corpus")
    evaluate.add_argument("--results", required=True, help="transcript directory to score")
    evaluate.add_argument("--baseline", default=None,
                          help="second transcript directory to compare against")
    evaluate.add_argument("--corpus", required=True, help="parallel corpus JSONL")
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--report", required=True, help="report JSON output path")
    evaluate.add_argument("--external-scores", default=None,
                          help="optional JSONL of {id, score} from an external scorer")
    evaluate.add_argument("--no-cache", action="store_true")
    evaluate.set_defaults(func=cmd_evaluate)

    inspect = sub.add_parser("inspect-kg", help="print a run's knowledge graph")
    inspect.add_argument("--transcript", required=True, help="one document's transcript directory")
    inspect.add_argument("--term", default=None, help="only triples for this term")
    inspect.set_defaults(func=cmd_inspect_kg)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
