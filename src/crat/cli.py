"""Command-line entry point.

Subcommands: ``translate`` (single text or JSONL batch, crat or direct
mode), ``build-index`` (corpus JSONL -> BM25 index file), ``evaluate``
(results vs. a parallel corpus, optionally comparing two result
directories), and ``inspect-kg`` (print a run's knowledge graph).

Exit codes: 0 success, 1 fatal error, 2 partial batch failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import canonical, retrieval, tokenizers
from .agents.prompts import lang_name
from .config import (
    MODES,
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

# What a command may raise for bad input or a failed run: ``main`` prints it as
# one ``error:`` line and exits 1.
FAILURES = (ConfigError, EvaluationError, GatewayError, OSError, PipelineError,
            retrieval.RetrievalError, ValueError)


def _read_jsonl(path: str, what: str) -> list[tuple[str, dict]]:
    """Each non-blank line's JSON object, with the ``path:line`` it came from."""
    return canonical.jsonl_records(canonical.read_text(path, what, ValueError).splitlines(),
                                   path, ValueError)


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
    if path.suffix == ".jsonl":
        return [record for _, record in _read_jsonl(args.input, "input file")]
    return [{"id": args.doc_id or path.stem,
             "text": canonical.read_text(args.input, "input file", ValueError)}]


def cmd_translate(args) -> int:
    lang_pair = (args.source_lang, args.target_lang)
    for code in lang_pair:  # refused before any file is made or call sent
        lang_name(code)
    config = load_run_config(args.config)
    corpus = _load_translate_corpus(args)
    gateway = build_gateway(config, cache_enabled=not args.no_cache)
    sources = build_sources(config) if args.mode == "crat" else []
    pipeline_config = build_pipeline_config(config, sources, mode=args.mode,
                                            width_override=args.width)
    out_dir = Path(args.output)
    try:  # before any provider call, so a bad --output costs none
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot create output directory {out_dir}: {err}") from err

    with gateway:  # closes its cache segment
        results, manifest = run_batch(corpus, lang_pair, pipeline_config, gateway)

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
    records = [_require(where, record, "id")
               for where, record in _read_jsonl(args.corpus, "corpus file")]
    if not records:
        print(f"warning: {args.corpus} holds no documents; building an empty index",
              file=sys.stderr)
    index = retrieval.build_index(records, tokenizer_id=args.tokenizer)
    retrieval.save_index(index, args.output)
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
        raise OSError(f"cannot create report directory {report_path.parent}: {err}") from err
    if report_path.is_dir():
        raise IsADirectoryError(f"cannot write report {report_path}: it is a directory")
    config = load_run_config(args.config)
    gateway = build_gateway(config, cache_enabled=not args.no_cache)
    consis_backend = config.role_backend("consis")
    examples = load_parallel_corpus(
        canonical.read_text(args.corpus, "parallel corpus", EvaluationError).splitlines(),
        args.corpus)
    with gateway:  # closes its cache segment
        report = _evaluate_dir(args.results, examples, gateway, consis_backend)
        if args.external_scores:
            scores = {}
            for where, record in _read_jsonl(args.external_scores, "external scores file"):
                _require(where, record, "id", "score")
                canonical.check(record["score"], canonical.NUMBER, where, ValueError, "score")
                scores[str(record["id"])] = float(record["score"])
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
    try:
        report_path.write_text(canonical.pretty(payload), "utf-8")
    except OSError as err:
        raise OSError(f"cannot write report {report_path}: {err}") from err
    print(f"report -> {report_path}")
    return EXIT_OK


# --- inspect-kg ---------------------------------------------------------------


def cmd_inspect_kg(args) -> int:
    graph_path = Path(args.transcript) / "graph.json"
    if not graph_path.is_file():
        raise FileNotFoundError(f"no graph file under {args.transcript}")
    try:
        graph = deserialize_graph(graph_path.read_bytes())
    except GraphParseError as err:
        raise GraphParseError(f"unreadable graph file {graph_path}: {err}") from err
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
    translate.add_argument("--mode", choices=MODES, default="crat")
    translate.add_argument("--width", type=int, default=None,
                           help="concurrent documents (overrides config)")
    translate.add_argument("--no-cache", action="store_true")
    translate.add_argument("--doc-id", default=None)
    translate.set_defaults(func=cmd_translate)

    build = sub.add_parser("build-index", help="build a BM25 index from corpus JSONL")
    build.add_argument("--corpus", required=True)
    build.add_argument("--output", required=True)
    build.add_argument("--tokenizer", choices=tokenizers.TOKENIZER_IDS,
                       default=tokenizers.SIMPLE)
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
    try:
        return args.func(args)
    except FAILURES as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
