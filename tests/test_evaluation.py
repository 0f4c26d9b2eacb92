"""Evaluation: BLEU against the brute-force oracle, term consistency,
report assembly, and report comparison."""

from __future__ import annotations

import logging
import random
import threading
import time

import pytest

from bleu_oracle import corpus_bleu_oracle
from conftest import fenced_payload
from crat.evaluation import (
    EvaluationError,
    MetricReport,
    ParallelExample,
    attach_external_scores,
    bleu_from_stats,
    compare_reports,
    corpus_bleu,
    evaluate_run,
    load_parallel_corpus,
    term_consistency,
)
from crat.gateway import Gateway, HttpStatusError
from crat.pipeline import TranslationResult
from crat.transcript import AgentTranscript
from crat.transkg import TermCandidate, new_graph

REL_TOL = 1e-9


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# --- BLEU fixtures ---------------------------------------------------------------

CLIPPED_CANDIDATES = ["the the the the"]
CLIPPED_REFERENCES = ["the cat sat"]

BREVITY_CANDIDATES = ["the cat", "a dog sat down"]
BREVITY_REFERENCES = ["the cat sat on the mat", "a dog sat down"]

ZH_CANDIDATES = ["河岸边"]
ZH_REFERENCES = ["河岸上"]


def test_bleu_identity_is_exactly_100():
    candidates = ["the cat sat on the mat", "a dog barked"]
    assert corpus_bleu(candidates, list(candidates), "en") == 100.0


def test_bleu_clipped_unigram_fixture():
    got = corpus_bleu(CLIPPED_CANDIDATES, CLIPPED_REFERENCES, "en")
    oracle = corpus_bleu_oracle(CLIPPED_CANDIDATES, CLIPPED_REFERENCES)
    assert rel_close(got, oracle)
    # Hand computation: p1 = 1/4 (clip "the" to 1), p2..p4 smoothed to
    # 1/4, 1/3, 1/2; BP = 1 -> 100 * (1/96)^(1/4).
    assert got == pytest.approx(100.0 * (1.0 / 96.0) ** 0.25, rel=1e-12)


def test_bleu_brevity_penalty_fixture():
    got = corpus_bleu(BREVITY_CANDIDATES, BREVITY_REFERENCES, "en")
    oracle = corpus_bleu_oracle(BREVITY_CANDIDATES, BREVITY_REFERENCES)
    assert rel_close(got, oracle)
    # All precisions 1; c = 6, r = 10 -> BP = exp(1 - 10/6).
    import math
    assert got == pytest.approx(100.0 * math.exp(1.0 - 10.0 / 6.0), rel=1e-12)


def test_bleu_chinese_character_tokenization():
    got = corpus_bleu(ZH_CANDIDATES, ZH_REFERENCES, "zh")
    oracle = corpus_bleu_oracle(ZH_CANDIDATES, ZH_REFERENCES, char_level=True)
    assert rel_close(got, oracle)
    assert got == pytest.approx(100.0 * (1.0 / 6.0) ** 0.25, rel=1e-12)


def test_bleu_permutation_invariance():
    candidates = ["one two three", "four five", "six seven eight nine"]
    references = ["one two four", "four five six", "six seven nine"]
    base = corpus_bleu(candidates, references, "en")
    order = [2, 0, 1]
    shuffled = corpus_bleu([candidates[i] for i in order],
                           [references[i] for i in order], "en")
    assert base == pytest.approx(shuffled, rel=1e-12)


def test_bleu_empty_candidate_drives_bp_not_error():
    score = corpus_bleu(["", "a dog sat down"], BREVITY_REFERENCES, "en")
    assert 0.0 <= score < 100.0
    assert corpus_bleu([""], ["anything here"], "en") == 0.0


def test_bleu_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        corpus_bleu(["a"], ["a", "b"], "en")
    with pytest.raises(ValueError):
        corpus_bleu([], [], "en")


def test_bleu_bounds_and_oracle_on_random_corpora():
    rng = random.Random(31337)
    vocabulary = ["alpha", "beta", "gamma", "delta", "cat", "dog", "the", "a"]
    for _ in range(50):
        pairs = rng.randint(1, 5)
        candidates = [" ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
                      for _ in range(pairs)]
        references = [" ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
                      for _ in range(pairs)]
        got = corpus_bleu(candidates, references, "en")
        assert 0.0 <= got <= 100.0
        assert rel_close(got, corpus_bleu_oracle(candidates, references))


# --- term consistency ----------------------------------------------------------


def make_result(source: str, surfaces: list[str], renderings: dict) -> TranslationResult:
    terms = []
    for surface in surfaces:
        start = source.index(surface)
        terms.append(TermCandidate(surface, start, start + len(surface), "new_term"))
    return TranslationResult(
        source_doc_id="doc", source_text=source, target_text="target",
        graph=new_graph("doc", terms), transcript=AgentTranscript(),
        term_renderings=renderings, term_count=len(terms))


def test_term_consistency_inconsistent_pair_scores_zero():
    source = "Typhoon Gaemi hit the coast. Gaemi then weakened."
    result = make_result(source, ["Gaemi"], {"Gaemi": ["卡米", "盖米"]})
    assert term_consistency(result) == 0.0


def test_term_consistency_identical_renderings_score_one():
    source = "Typhoon Gaemi hit the coast. Gaemi then weakened."
    result = make_result(source, ["Gaemi"], {"Gaemi": ["格美", "格美"]})
    assert term_consistency(result) == 1.0


def test_term_consistency_absent_without_repeats():
    result = make_result("Gaemi appeared once only", ["Gaemi"], {"Gaemi": ["格美"]})
    assert term_consistency(result) is None


def test_term_consistency_absent_without_rendering_map():
    source = "Gaemi twice: Gaemi."
    result = make_result(source, ["Gaemi"], {})
    assert term_consistency(result) is None


def test_term_consistency_skips_a_repeated_term_without_renderings(caplog):
    source = "Gaemi and Luzon; Gaemi and Luzon again."
    blank = make_result(source, ["Gaemi"], {"Gaemi": [" ", ""], "Luzon": ["吕宋"]})
    with caplog.at_level(logging.WARNING, logger="crat.evaluation"):
        assert term_consistency(blank) is None
    assert caplog.messages == ["term_consistency: no renderings reported for 'Gaemi'"]
    # A term without renderings leaves the others' average as it is.
    mixed = make_result(source, ["Gaemi", "Luzon"], {"Luzon": ["吕宋", "西吕宋"]})
    assert term_consistency(mixed) == 0.0


def test_term_consistency_mixed_terms_averages():
    source = "Gaemi and Luzon; Gaemi and Luzon again."
    result = make_result(source, ["Gaemi", "Luzon"],
                         {"Gaemi": ["格美", "格美"], "Luzon": ["吕宋", "西吕宋"]})
    assert term_consistency(result) == 0.5


def test_term_consistency_monotone_in_consistent_terms():
    rng = random.Random(5)
    for _ in range(30):
        n_consistent = rng.randint(0, 4)
        n_inconsistent = rng.randint(0, 4)
        surfaces = [f"term{i}" for i in range(n_consistent + n_inconsistent)]
        if not surfaces:
            continue
        source = "; ".join(f"{s} and {s}" for s in surfaces)
        renderings = {}
        for i, s in enumerate(surfaces):
            renderings[s] = ["same", "same"] if i < n_consistent else ["one", "two"]
        before = term_consistency(make_result(source, surfaces, renderings))
        surfaces2 = surfaces + ["extra"]
        source2 = source + "; extra and extra"
        renderings2 = dict(renderings, extra=["stable", "stable"])
        after = term_consistency(make_result(source2, surfaces2, renderings2))
        assert after >= before


# --- evaluate_run -----------------------------------------------------------------


def example(doc_id: str, source: str, reference: str) -> ParallelExample:
    return ParallelExample(doc_id, source, reference, "en", "zh")


def test_evaluate_run_perfect_candidates():
    examples = [example("a", "one", "一只猫"), example("b", "two", "两只狗")]
    results = [make_result("one", [], {}), make_result("two", [], {})]
    results[0].source_doc_id = "a"
    results[0].target_text = "一只猫"
    results[1].source_doc_id = "b"
    results[1].target_text = "两只狗"
    report = evaluate_run(results, examples)
    assert report.bleu == 100.0
    assert report.consis is None
    assert report.bleu == pytest.approx(
        bleu_from_stats([row["bleu_stats"] for row in report.per_example]))


def consis_gateway(score_by_marker: dict[str, float]) -> Gateway:
    gateway = Gateway()
    rules = [(marker, fenced_payload({"score": score, "term_findings": []}))
             for marker, score in score_by_marker.items()]
    gateway.register_mock("con", rules)
    return gateway


def test_evaluate_run_with_scripted_consis():
    examples = [example("a", "marker-one text", "猫"),
                example("b", "marker-two text", "狗")]
    results = [make_result("marker-one text", [], {}),
               make_result("marker-two text", [], {})]
    results[0].source_doc_id = "a"
    results[1].source_doc_id = "b"
    gateway = consis_gateway({"marker-one": 80.0, "marker-two": 90.0})
    report = evaluate_run(results, examples, gateway, "con")
    assert report.consis == pytest.approx(85.0)
    assert [row["consis"] for row in report.per_example] == [80.0, 90.0]


def test_evaluate_run_records_partial_consis_failures():
    examples = [example("a", "marker-one text", "猫"),
                example("b", "marker-two text", "狗")]
    results = [make_result("marker-one text", [], {}),
               make_result("marker-two text", [], {})]
    results[0].source_doc_id = "a"
    results[1].source_doc_id = "b"

    def http_500(request):
        raise HttpStatusError(500, "internal error")

    # An unparsable reply and a provider error are both recorded per example.
    for fault in ("garbage that never parses", http_500):
        gateway = Gateway()
        gateway.register_mock("con", [
            ("marker-one", fenced_payload({"score": 75.0, "term_findings": []})),
            ("marker-two", fault),
        ])
        report = evaluate_run(results, examples, gateway, "con")
        assert report.consis == pytest.approx(75.0)
        assert report.per_example[1]["consis"] is None
        assert "consis_error" in report.per_example[1]


def test_evaluate_run_records_a_consis_reply_with_null_findings():
    examples = [example("a", "marker-one text", "猫"),
                example("b", "marker-two text", "狗")]
    results = [make_result("marker-one text", [], {}),
               make_result("marker-two text", [], {})]
    results[0].source_doc_id = "a"
    results[1].source_doc_id = "b"
    gateway = Gateway()
    gateway.register_mock("con", [
        ("marker-one", fenced_payload({"score": 75.0, "term_findings": []})),
        ("marker-two", fenced_payload({"score": 90.0, "term_findings": None})),
    ])
    report = evaluate_run(results, examples, gateway, "con")
    assert report.consis == pytest.approx(75.0)
    assert report.per_example[1]["consis"] is None
    assert "field 'term_findings' must be an array" in report.per_example[1]["consis_error"]


def test_evaluate_run_grades_consis_on_the_fan_out(caplog):
    # A slow grader sees several calls at once; the rows, the warnings and a
    # failed example's place keep the examples' order.
    examples = [example(f"e{i}", f"marker-{i} text", "猫") for i in range(8)]
    results = [make_result(f"marker-{i} text", [], {}) for i in range(8)]
    for i, result in enumerate(results):
        result.source_doc_id = f"e{i}"
    lock = threading.Lock()
    active, peak = [0], [0]

    def grader(request):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0.03)
        with lock:
            active[0] -= 1
        if any("marker-3 text" in message.content for message in request.messages):
            return "garbage that never parses"
        return fenced_payload({"score": 60.0, "term_findings": []})

    gateway = Gateway()
    gateway.register_mock("con", [], fallback=grader)
    with caplog.at_level(logging.WARNING, logger="crat.evaluation"):
        report = evaluate_run(results, examples, gateway, "con")
    assert peak[0] > 1
    assert report.example_ids() == [f"e{i}" for i in range(8)]
    assert [row["consis"] for row in report.per_example] == [60.0] * 3 + [None] + [60.0] * 4
    assert "consis_error" in report.per_example[3]
    assert report.consis == pytest.approx(60.0)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["consis failed for e3"]


def test_report_hash_names_the_consis_model(stub_server):
    stub_server.set_default(200, {"choices": [{"message": {"content": fenced_payload(
        {"score": 80.0, "term_findings": []})}}]})
    examples = [example("a", "marker-one text", "猫")]
    results = [make_result("marker-one text", [], {})]
    results[0].source_doc_id = "a"

    def report_hash(model: str) -> str:
        gateway = Gateway()
        gateway.register_http("con", stub_server.url, model)
        report = evaluate_run(results, examples, gateway, "con")
        assert report.consis == pytest.approx(80.0)
        return report.config_hash

    first = report_hash("model-a")
    assert len(first) == 64
    assert report_hash("model-a") == first
    assert report_hash("model-b") != first


def test_evaluate_run_id_mismatch():
    examples = [example("a", "x", "猫")]
    result = make_result("x", [], {})
    result.source_doc_id = "other"
    with pytest.raises(EvaluationError, match="mismatch"):
        evaluate_run([result], examples)


def test_evaluate_run_refuses_an_empty_corpus():
    with pytest.raises(EvaluationError, match="^no examples to evaluate$"):
        evaluate_run([], [])


def test_bleu_from_stats_refuses_no_pairs():
    with pytest.raises(ValueError, match="^bleu_from_stats needs at least one pair$"):
        bleu_from_stats([])


def test_evaluate_run_rejects_mixed_target_langs():
    examples = [example("a", "x", "猫"),
                ParallelExample("b", "y", "dog", "en", "de")]
    results = [make_result("x", [], {}), make_result("y", [], {})]
    results[0].source_doc_id = "a"
    results[1].source_doc_id = "b"
    with pytest.raises(EvaluationError, match="target languages"):
        evaluate_run(results, examples)


def test_parallel_example_validation():
    with pytest.raises(ValueError):
        ParallelExample("a", "", "ref", "en", "zh")
    with pytest.raises(ValueError):
        ParallelExample("a", 5, "ref", "en", "zh")
    with pytest.raises(ValueError):
        ParallelExample("a", "src", "ref", "en", "klingon")
    lines = ['{"id": 1, "source_text": "s", "reference_text": "r", '
             '"source_lang": "en", "target_lang": "zh"}']
    assert load_parallel_corpus(lines)[0].id == "1"
    with pytest.raises(EvaluationError, match=":1"):
        load_parallel_corpus(["{broken"])


def test_parallel_corpus_record_that_is_not_an_example():
    with pytest.raises(EvaluationError,
                       match=r"^par.jsonl:1: bad parallel example: 'source_text'$"):
        load_parallel_corpus(['{"id": "a"}'], "par.jsonl")
    record = ('{"id": "a", "source_text": "s", "reference_text": "r", '
              '"source_lang": "en", "target_lang": "zz"}')
    with pytest.raises(EvaluationError, match=r"^par.jsonl:1: bad parallel example: "
                                              r"example 'a': unknown language code 'zz'$"):
        load_parallel_corpus([record], "par.jsonl")


def test_parallel_corpus_line_that_is_not_an_object():
    with pytest.raises(EvaluationError, match=r"^par.jsonl:2: expected a JSON object$"):
        load_parallel_corpus(["", "[1]"], "par.jsonl")


# --- comparison -----------------------------------------------------------------


def report_with(bleu: float, consis=None, tc=None, ids=("a", "b")) -> MetricReport:
    return MetricReport(bleu=bleu, consis=consis, term_consistency=tc,
                        per_example=[{"id": i} for i in ids], config_hash="x")


def test_compare_identical_reports_zero_deltas():
    comparison = compare_reports(report_with(30.0, consis=80.0),
                                 report_with(30.0, consis=80.0))
    by_metric = {row["metric"]: row for row in comparison.rows}
    assert by_metric["bleu"]["delta"] == 0.0
    assert by_metric["consis"]["delta"] == 0.0


def test_compare_reports_delta_sign():
    comparison = compare_reports(report_with(29.9), report_with(30.8))
    by_metric = {row["metric"]: row for row in comparison.rows}
    assert by_metric["bleu"]["delta"] == pytest.approx(0.9)
    assert "+0.900" in comparison.to_text()


def test_compare_reports_missing_metric_marked_unavailable():
    comparison = compare_reports(report_with(29.9, consis=None),
                                 report_with(30.8, consis=85.0))
    by_metric = {row["metric"]: row for row in comparison.rows}
    assert by_metric["consis"]["delta"] is None
    assert "n/a" in comparison.to_text()


def test_compare_reports_id_mismatch():
    with pytest.raises(EvaluationError):
        compare_reports(report_with(1.0, ids=("a",)), report_with(2.0, ids=("b",)))


def test_attach_external_scores():
    report = report_with(30.0)
    attach_external_scores(report, {"a": 0.8})
    assert report.external_score == pytest.approx(0.8)
    assert report.per_example[0]["external_score"] == 0.8
    assert report.per_example[1]["external_score"] is None
