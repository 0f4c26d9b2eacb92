"""Translation quality measurement: corpus BLEU, a deterministic repeated-term
consistency metric, the LLM-judged CONSIS score, and side-by-side report
comparison.

BLEU here is corpus-level BLEU-4: clipped n-gram precisions pooled over all
pairs, geometric mean, brevity penalty ``min(1, e^(1 - r/c))``, scaled to
[0, 100]. Chinese targets are tokenized per character, space-delimited
targets lowercase with punctuation splitting. The only smoothing is add-one
on the numerator and denominator of any n-gram order whose pooled precision
is zero, which keeps identical candidate/reference pairs at exactly 100.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

from . import canonical, tokenizers
from .agents import AgentError, consis_evaluate
from .gateway import Gateway, GatewayError
from .pipeline import TranslationResult

log = logging.getLogger(__name__)

BLEU_MAX_ORDER = 4


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class ParallelExample:
    id: str
    source_text: str
    reference_text: str
    source_lang: str
    target_lang: str

    def __post_init__(self):
        for name, text in (("source_text", self.source_text),
                           ("reference_text", self.reference_text)):
            if not isinstance(text, str) or not text:
                raise ValueError(f"example {self.id!r}: {name} must be a non-empty string")
        for code in (self.source_lang, self.target_lang):
            if code not in tokenizers.LANG_NAMES:
                raise ValueError(f"example {self.id!r}: unknown language code {code!r}")


# --- BLEU --------------------------------------------------------------------


def bleu_pair_stats(candidate: str, reference: str, target_lang: str) -> dict:
    """Per-pair n-gram match statistics; aggregation happens in
    :func:`bleu_from_stats` so reports can recompute the corpus score."""
    mode = tokenizers.tokenizer_for_lang(target_lang)
    cand = tokenizers.tokenize(candidate, mode)
    ref = tokenizers.tokenize(reference, mode)
    matches = []
    totals = []
    for n in range(1, BLEU_MAX_ORDER + 1):
        cand_ngrams = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
        ref_ngrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        matches.append(sum(min(count, ref_ngrams[gram])
                           for gram, count in cand_ngrams.items()))
        totals.append(max(0, len(cand) - n + 1))
    return {
        "matches": matches,
        "totals": totals,
        "candidate_len": len(cand),
        "reference_len": len(ref),
    }


def bleu_from_stats(stats: Sequence[Mapping]) -> float:
    """Corpus BLEU from pooled pair statistics, scaled to [0, 100]."""
    if not stats:
        raise ValueError("bleu_from_stats needs at least one pair")
    cand_len = sum(s["candidate_len"] for s in stats)
    ref_len = sum(s["reference_len"] for s in stats)
    if cand_len == 0:
        return 0.0
    log_precision_sum = 0.0
    for n in range(BLEU_MAX_ORDER):
        matched = sum(s["matches"][n] for s in stats)
        total = sum(s["totals"][n] for s in stats)
        if matched == 0:
            matched += 1
            total += 1
        log_precision_sum += math.log(matched / total)
    geometric_mean = math.exp(log_precision_sum / BLEU_MAX_ORDER)
    brevity_penalty = min(1.0, math.exp(1.0 - ref_len / cand_len))
    return 100.0 * brevity_penalty * geometric_mean


def corpus_bleu(candidates: Sequence[str], references: Sequence[str],
                target_lang: str) -> float:
    """Corpus-level BLEU-4 of aligned candidate/reference lists."""
    if len(candidates) != len(references):
        raise ValueError(
            f"length mismatch: {len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ValueError("corpus_bleu needs at least one pair")
    stats = [bleu_pair_stats(c, r, target_lang) for c, r in zip(candidates, references)]
    return bleu_from_stats(stats)


# --- term consistency ----------------------------------------------------------


def term_consistency(result: TranslationResult) -> float | None:
    """Share of repeated detected terms rendered identically everywhere.

    Terms occurring fewer than twice in the source do not qualify; with no
    qualifying terms (or no rendering map) the metric is absent, not zero.
    """
    qualifying = [surface for surface in result.graph.nodes
                  if result.source_text.count(surface) >= 2]
    if not qualifying:
        return None
    if not result.term_renderings:
        log.warning("term_consistency: result %s has no term rendering map",
                    result.source_doc_id)
        return None
    scores = []
    for surface in qualifying:
        renderings = [r.strip() for r in result.term_renderings.get(surface, [])]
        renderings = [r for r in renderings if r]
        if not renderings:
            log.warning("term_consistency: no renderings reported for %r", surface)
            continue
        scores.append(1.0 if len(set(renderings)) == 1 else 0.0)
    if not scores:
        return None
    return sum(scores) / len(scores)


# --- reports ---------------------------------------------------------------


@dataclass
class MetricReport:
    bleu: float
    consis: float | None
    term_consistency: float | None
    per_example: list[dict] = field(default_factory=list)
    config_hash: str = ""
    external_score: float | None = None  # reserved for an external scorer's file

    def example_ids(self) -> list[str]:
        return [row["id"] for row in self.per_example]

    def to_dict(self) -> dict:
        return asdict(self)


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def evaluate_run(results: Sequence[TranslationResult], examples: Sequence[ParallelExample],
                 gateway: Gateway | None = None,
                 consis_backend: str | None = None) -> MetricReport:
    """Score pipeline results against a parallel corpus.

    Results and examples align by id; a mismatch is an error. CONSIS runs
    only when a gateway and a backend are given, and per-example CONSIS
    failures are recorded in the breakdown without failing the run. The
    report's ``config_hash`` names the CONSIS backend and its model. Every
    reply the grader cached is on disk when it returns.
    """
    if gateway is None:
        gateway, consis_backend = Gateway(), None
    by_id = {r.source_doc_id: r for r in results}
    example_ids = [e.id for e in examples]
    missing = [i for i in example_ids if i not in by_id]
    extra = [i for i in by_id if i not in set(example_ids)]
    if missing or extra:
        raise EvaluationError(
            f"result/example id mismatch: missing results for {missing}, "
            f"unmatched results {extra}")
    if not examples:
        raise EvaluationError("no examples to evaluate")
    target_langs = {e.target_lang for e in examples}
    if len(target_langs) > 1:
        raise EvaluationError(f"examples mix target languages: {sorted(target_langs)}")

    def grade(example: ParallelExample):
        """The example's CONSIS score, or the error that stopped it."""
        result = by_id[example.id]
        try:
            return consis_evaluate(example.source_text, result.target_text,
                                   list(result.graph.nodes),
                                   (example.source_lang, example.target_lang),
                                   consis_backend, gateway).score
        except (AgentError, GatewayError) as err:
            return err

    grades = gateway.fan_out(grade, examples) if consis_backend else [None] * len(examples)
    per_example = []
    consis_scores = []
    consistency_scores = []
    for example, graded in zip(examples, grades):
        result = by_id[example.id]
        row: dict = {"id": example.id,
                     "bleu_stats": bleu_pair_stats(result.target_text,
                                                   example.reference_text,
                                                   example.target_lang)}
        row["term_consistency"] = term_consistency(result)
        if row["term_consistency"] is not None:
            consistency_scores.append(row["term_consistency"])
        if isinstance(graded, Exception):
            log.warning("consis failed for %s: %s", example.id, graded)
            row["consis"] = None
            row["consis_error"] = str(graded)
        elif consis_backend:
            row["consis"] = graded
            consis_scores.append(graded)
        per_example.append(row)

    return MetricReport(
        bleu=bleu_from_stats([row["bleu_stats"] for row in per_example]),
        consis=_mean(consis_scores) if consis_backend else None,
        term_consistency=_mean(consistency_scores),
        per_example=per_example,
        config_hash=gateway.identity({"consis_backend": consis_backend},
                                     [consis_backend] if consis_backend else []),
    )


def attach_external_scores(report: MetricReport, scores: Mapping[str, float]) -> MetricReport:
    """Fill the reserved external-scorer field from {example id -> score}."""
    values = []
    for row in report.per_example:
        score = scores.get(row["id"])
        row["external_score"] = score
        if score is not None:
            values.append(score)
    report.external_score = _mean(values)
    return report


COMPARED_METRICS = ("bleu", "consis", "term_consistency", "external_score")


@dataclass
class ReportComparison:
    rows: list[dict]  # {metric, baseline, candidate, delta}

    def to_dict(self) -> dict:
        return {"rows": self.rows}

    def to_text(self) -> str:
        lines = [f"{'metric':<18} {'baseline':>12} {'candidate':>12} {'delta':>10}"]
        for row in self.rows:
            base = "n/a" if row["baseline"] is None else f"{row['baseline']:.3f}"
            cand = "n/a" if row["candidate"] is None else f"{row['candidate']:.3f}"
            delta = "n/a" if row["delta"] is None else f"{row['delta']:+.3f}"
            lines.append(f"{row['metric']:<18} {base:>12} {cand:>12} {delta:>10}")
        return "\n".join(lines)


def compare_reports(baseline: MetricReport, candidate: MetricReport) -> ReportComparison:
    """Per-metric deltas (candidate minus baseline) over the same examples."""
    if baseline.example_ids() != candidate.example_ids():
        raise EvaluationError("reports cover different example ids")
    rows = []
    for metric in COMPARED_METRICS:
        base = getattr(baseline, metric)
        cand = getattr(candidate, metric)
        delta = cand - base if (base is not None and cand is not None) else None
        rows.append({"metric": metric, "baseline": base, "candidate": cand, "delta": delta})
    return ReportComparison(rows)


def load_parallel_corpus(lines: Sequence[str], origin: str = "corpus") -> list[ParallelExample]:
    """Parse JSON Lines records {id, source_text, reference_text, source_lang,
    target_lang}."""
    examples = []
    for where, record in canonical.jsonl_records(lines, origin, EvaluationError):
        try:
            examples.append(ParallelExample(
                id=str(record["id"]),
                source_text=record["source_text"],
                reference_text=record["reference_text"],
                source_lang=record["source_lang"],
                target_lang=record["target_lang"],
            ))
        except (ValueError, KeyError, TypeError) as err:
            raise EvaluationError(f"{where}: bad parallel example: {err}") from err
    return examples
