"""Agents: structured-output parsing with bounded repair, prompt goldens,
and each agent's behavior over scripted mocks."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import (
    DEMO_CORPUS,
    DEMO_SCRIPTS,
    FINANCIAL_BANK,
    FINANCIAL_SOURCE,
    GEO_CRAT_TRANSLATION,
    GEOGRAPHIC_SOURCE,
    RIVERBANK,
    fenced_payload as fenced,
)
from crat.agents import (
    AgentParseError,
    consis_evaluate,
    detect_unknown_terms,
    extract_internal_knowledge,
    extract_payload,
    judge_document,
    render_judge_prompt,
    render_translator_prompt,
    translate_with_knowledge,
)
from crat.agents import JudgeVerdict, consis, detector, extractor, judge, prompts, translator
from crat.agents.schema import chat_structured
from crat.config import mock_script_from_dict
from crat.gateway import Gateway, HttpStatusError, UnknownBackendError, request_fingerprint
from crat.retrieval import RetrievedDocument
from crat.transcript import AgentTranscript
from crat.transkg import (
    CORRECT,
    EXTERNAL,
    INCORRECT,
    INTERNAL,
    KnowledgeTriple,
    Provenance,
    TermCandidate,
    new_graph,
    add_internal,
    admit_external,
)

GOLDEN = Path(__file__).parent / "golden"

EN_ZH = ("en", "zh")


def mock_gateway(backend_id: str, script=None, fallback=None) -> Gateway:
    gateway = Gateway()
    gateway.register_mock(backend_id, script or [], fallback)
    return gateway


def sequence_responder(replies: list[str]):
    """Respond with each reply in turn; repeats the last one afterwards."""
    state = {"i": 0}

    def respond(request):
        reply = replies[min(state["i"], len(replies) - 1)]
        state["i"] += 1
        return reply

    return respond


def transcript_for(stage: str) -> AgentTranscript:
    transcript = AgentTranscript()
    transcript.begin_stage(stage)
    return transcript


# --- payload extraction -----------------------------------------------------


def test_extract_payload_single_fenced_block():
    text = 'Sure, here you go:\n```json\n{"a": 1}\n```\nHope that helps.'
    assert extract_payload(text) == {"a": 1}


def test_extract_payload_bare_json():
    assert extract_payload('{"a": 1}') == {"a": 1}


def test_extract_payload_rejects_prose():
    with pytest.raises(ValueError, match="no well-formed"):
        extract_payload("I could not find anything.")


def test_extract_payload_rejects_two_blocks():
    text = '```json\n{"a": 1}\n```\nand also\n```json\n{"b": 2}\n```'
    with pytest.raises(ValueError, match="2 payload blocks"):
        extract_payload(text)


def test_extract_payload_ignores_broken_block_next_to_valid_one():
    text = '```json\n{"broken": \n```\n```json\n{"ok": true}\n```'
    assert extract_payload(text) == {"ok": True}


def test_extract_payload_rejects_non_object():
    with pytest.raises(ValueError, match="object"):
        extract_payload("[1, 2, 3]")


# --- repair loop ---------------------------------------------------------------


def identity_validator(payload: dict) -> dict:
    if "value" not in payload:
        raise ValueError("field 'value' is required")
    return payload


def test_repair_after_one_bad_reply():
    gateway = mock_gateway("m", fallback=sequence_responder(
        ["gibberish", fenced({"value": 7})]))
    transcript = AgentTranscript()
    transcript.begin_stage("detect")
    assert chat_structured(gateway, "m", "prompt", "detector", identity_validator,
                           transcript) == {"value": 7}
    assert len(transcript.exchanges()) == 2


def test_strict_repair_after_two_bad_replies():
    gateway = mock_gateway("m", fallback=sequence_responder(
        ["gibberish", fenced({"wrong": 1}), fenced({"value": 7})]))
    transcript = AgentTranscript()
    transcript.begin_stage("detect")
    assert chat_structured(gateway, "m", "prompt", "detector", identity_validator,
                           transcript) == {"value": 7}
    assert len(transcript.exchanges()) == 3


def test_parse_error_after_budget_exhausted():
    gateway = mock_gateway("m", fallback="never json")
    with pytest.raises(AgentParseError) as info:
        chat_structured(gateway, "m", "prompt", "detector", identity_validator)
    assert info.value.attempts == 2


def test_repair_conversation_appends_error_and_strict_retry():
    seen_prompts = []

    def respond(request):
        seen_prompts.append(request.messages[-1].content)
        return "gibberish"

    gateway = mock_gateway("m", fallback=respond)
    with pytest.raises(AgentParseError):
        chat_structured(gateway, "m", "prompt", "detector", identity_validator)
    assert len(seen_prompts) == 3
    assert "could not be used" in seen_prompts[1]
    assert "Emit only" in seen_prompts[2]


def test_exchanges_recorded_in_transcript():
    transcript = transcript_for("detect")
    gateway = mock_gateway("m", fallback=sequence_responder(
        ["gibberish", fenced({"value": 1})]))
    chat_structured(gateway, "m", "prompt", "detector", identity_validator, transcript)
    assert len(transcript.exchanges()) == 2


def test_failed_calls_recorded_in_transcript():
    # A repair turn whose call fails continues the conversation it repairs;
    # a call that fails before its request is hashed records no fingerprint.
    def respond(request):
        if len(request.messages) > 1:
            raise HttpStatusError(500, "boom")
        return "gibberish"

    transcript = transcript_for("detect")
    gateway = mock_gateway("m", fallback=respond)
    with pytest.raises(HttpStatusError):
        chat_structured(gateway, "m", "prompt", "detector", identity_validator, transcript)
    with pytest.raises(UnknownBackendError):
        chat_structured(gateway, "nope", "prompt", "detector", identity_validator, transcript)
    first, repair, unknown = (e for e in transcript.to_dict() if e["kind"] == "exchange")
    assert first["response_text"] == "gibberish" and "continues" not in first
    assert (repair["continues"], repair["error_type"]) == (True, "HttpStatusError")
    assert [m["role"] for m in repair["messages"]] == ["user"] and "response_text" not in repair
    assert repair["fingerprint"] == request_fingerprint(transcript.exchanges()[1].request)
    assert (unknown["fingerprint"], unknown["error_type"]) == (None, "UnknownBackendError")
    assert "continues" not in unknown


# --- golden prompts -------------------------------------------------------------


def geo_knowledge_graph():
    src = GEOGRAPHIC_SOURCE
    bank = TermCandidate("bank", src.index("bank"), src.index("bank") + 4,
                         "polyseme", "context-dependent sense")
    scotia = TermCandidate("Scotia", src.index("Scotia"), src.index("Scotia") + 6,
                           "proper_noun", "ambiguous name")
    graph = new_graph("doc-0", [bank, scotia])
    graph = add_internal(graph, [KnowledgeTriple(
        "Scotia", "names", "a sea crossed by the survey ship",
        Provenance(INTERNAL), frozenset({"Scotia"}))])
    doc = RetrievedDocument("d-scotiasea", "Scotia Sea",
                            DEMO_CORPUS[1]["text"], "local_index", 1.5)
    graph = admit_external(graph, doc.id, [KnowledgeTriple(
        "bank", "renders as", RIVERBANK,
        Provenance(EXTERNAL, "d-scotiasea"), frozenset({"bank"}))])
    return graph, doc, bank


def test_golden_detector_prompt():
    rendered = prompts.render(
        "detector", source_lang=prompts.lang_name("en"),
        target_lang=prompts.lang_name("zh"), source_text=GEOGRAPHIC_SOURCE)
    assert rendered == (GOLDEN / "detector_en_zh.txt").read_text("utf-8")


def test_golden_extractor_prompt():
    rendered = prompts.render("extractor", term_list="bank, Scotia",
                              source_text=GEOGRAPHIC_SOURCE)
    assert rendered == (GOLDEN / "extractor.txt").read_text("utf-8")


def test_golden_translator_prompt_without_knowledge():
    rendered = render_translator_prompt(
        GEOGRAPHIC_SOURCE, new_graph("doc-0", []), EN_ZH)
    assert rendered == (GOLDEN / "translator_no_knowledge.txt").read_text("utf-8")
    assert "Verified term knowledge" not in rendered


def test_golden_translator_prompt_with_knowledge():
    graph, doc, _ = geo_knowledge_graph()
    rendered = render_translator_prompt(
        GEOGRAPHIC_SOURCE, graph, EN_ZH, documents={doc.id: doc})
    assert rendered == (GOLDEN / "translator_with_knowledge.txt").read_text("utf-8")


def test_golden_judge_prompt():
    graph, doc, bank = geo_knowledge_graph()
    rendered = render_judge_prompt(list(graph.internal_triples), doc,
                                   GEOGRAPHIC_SOURCE, bank, EN_ZH)
    assert rendered == (GOLDEN / "judge_bank_scotiasea.txt").read_text("utf-8")


def test_golden_consis_prompt():
    rendered = prompts.render(
        "consis", source_lang=prompts.lang_name("en"),
        target_lang=prompts.lang_name("zh"), term_list="bank, Scotia",
        source_text=GEOGRAPHIC_SOURCE,
        candidate_translation=GEO_CRAT_TRANSLATION)
    assert rendered == (GOLDEN / "consis.txt").read_text("utf-8")


def test_lang_name_refuses_an_unknown_code():
    assert prompts.lang_name("zh") == "Chinese"
    with pytest.raises(ValueError, match="^unknown language code 'zz'$"):
        prompts.lang_name("zz")
    with pytest.raises(ValueError, match="'zz'"):
        render_translator_prompt("text", new_graph("d", []), ("en", "zz"))


def test_prompt_determinism():
    one = render_translator_prompt(GEOGRAPHIC_SOURCE, new_graph("d", []), EN_ZH)
    two = render_translator_prompt(GEOGRAPHIC_SOURCE, new_graph("d", []), EN_ZH)
    assert one == two


# --- detector -----------------------------------------------------------------


def demo_detector_gateway() -> Gateway:
    gateway = Gateway()
    rules, fallback = mock_script_from_dict(DEMO_SCRIPTS["det"])
    gateway.register_mock("det", rules, fallback)
    return gateway


def test_detector_flags_bank_and_scotia():
    gateway = demo_detector_gateway()
    terms = detect_unknown_terms(FINANCIAL_SOURCE, EN_ZH, "det", gateway)
    by_surface = {t.surface: t for t in terms}
    assert by_surface["bank"].category == "polyseme"
    assert by_surface["Scotia"].category == "proper_noun"
    for t in terms:
        assert FINANCIAL_SOURCE[t.start:t.end] == t.surface


def test_detector_empty_terms_reply():
    gateway = mock_gateway("det", fallback=fenced({"terms": []}))
    assert detect_unknown_terms("anything goes", EN_ZH, "det", gateway) == []


def test_detector_anchors_first_occurrence():
    source = "A phin brews slowly; the phin is traditional."
    gateway = mock_gateway("det", fallback=fenced(
        {"terms": [{"surface": "phin", "category": "new_term", "rationale": "tool"}]}))
    terms = detect_unknown_terms(source, EN_ZH, "det", gateway)
    assert len(terms) == 1
    assert terms[0].start == source.index("phin")
    assert source[terms[0].start:terms[0].end] == "phin"


def test_detector_drops_unlocatable_surface_with_warning():
    transcript = transcript_for("detect")
    gateway = mock_gateway("det", fallback=fenced({"terms": [
        {"surface": "dragon", "category": "new_term", "rationale": "x"},
        {"surface": "bank", "category": "polyseme", "rationale": "y"},
    ]}))
    terms = detect_unknown_terms("the bank is open", EN_ZH, "det", gateway, transcript)
    assert [t.surface for t in terms] == ["bank"]
    assert any("dragon" in w for w in transcript.warnings())


def test_detector_keeps_the_first_report_of_a_repeated_surface():
    gateway = mock_gateway("det", fallback=fenced({"terms": [
        {"surface": "bank", "category": "polyseme", "rationale": "first"},
        {"surface": "bank", "category": "new_term", "rationale": "second"},
    ]}))
    terms = detect_unknown_terms("the bank is open", EN_ZH, "det", gateway)
    assert [(t.surface, t.category, t.rationale) for t in terms] == [
        ("bank", "polyseme", "first")]


def test_detector_refuses_an_empty_text():
    gateway = mock_gateway("det", fallback=fenced({"terms": []}))
    with pytest.raises(ValueError, match="^source text must be non-empty$"):
        detect_unknown_terms("", EN_ZH, "det", gateway)


def test_detector_merges_overlaps_keeping_longer():
    source = "the riverbank area"
    gateway = mock_gateway("det", fallback=fenced({"terms": [
        {"surface": "bank", "category": "polyseme", "rationale": "short"},
        {"surface": "riverbank", "category": "new_term", "rationale": "long"},
    ]}))
    terms = detect_unknown_terms(source, EN_ZH, "det", gateway)
    assert [t.surface for t in terms] == ["riverbank"]


def test_detector_sorts_by_span_start():
    source = "alpha beta gamma"
    gateway = mock_gateway("det", fallback=fenced({"terms": [
        {"surface": "gamma", "category": "new_term", "rationale": ""},
        {"surface": "alpha", "category": "new_term", "rationale": ""},
    ]}))
    terms = detect_unknown_terms(source, EN_ZH, "det", gateway)
    assert [t.surface for t in terms] == ["alpha", "gamma"]


def test_detector_normalizes_category_spelling():
    gateway = mock_gateway("det", fallback=fenced({"terms": [
        {"surface": "bank", "category": "Proper Noun", "rationale": ""}]}))
    terms = detect_unknown_terms("the bank", EN_ZH, "det", gateway)
    assert terms[0].category == "proper_noun"


def test_detector_error_after_repairs():
    gateway = mock_gateway("det", fallback="never structured")
    with pytest.raises(AgentParseError):
        detect_unknown_terms("text", EN_ZH, "det", gateway)


# --- extractor -----------------------------------------------------------------


def bank_scotia_terms(source: str) -> list[TermCandidate]:
    return [
        TermCandidate("Scotia", source.index("Scotia"), source.index("Scotia") + 6,
                      "proper_noun"),
        TermCandidate("bank", source.index("bank"), source.index("bank") + 4,
                      "polyseme"),
    ]


def test_extractor_returns_scotia_triple():
    source = FINANCIAL_SOURCE
    gateway = Gateway()
    rules, fallback = mock_script_from_dict(DEMO_SCRIPTS["ext"])
    gateway.register_mock("ext", rules, fallback)
    triples = extract_internal_knowledge(source, bank_scotia_terms(source), "ext", gateway)
    assert ("Scotia", "offers", "savings plan") in [
        (t.subject, t.relation, t.object) for t in triples]
    assert all(t.provenance.kind == "internal" for t in triples)


def test_extractor_short_circuits_without_terms():
    calls = []

    def respond(request):
        calls.append(request)
        return fenced({"triples": []})

    gateway = mock_gateway("ext", fallback=respond)
    assert extract_internal_knowledge("text", [], "ext", gateway) == []
    assert calls == []


def test_extractor_drops_unknown_key_triples():
    source = "Scotia offers a savings plan at the bank."
    transcript = transcript_for("extract")
    gateway = mock_gateway("ext", fallback=fenced({"triples": [
        {"subject": "Scotia", "relation": "offers", "object": "savings plan",
         "terms": ["Scotia"]},
        {"subject": "bank", "relation": "serves", "object": "customers",
         "terms": ["bank"]},
        {"subject": "x", "relation": "y", "object": "z", "terms": ["mystery"]},
    ]}))
    triples = extract_internal_knowledge(source, bank_scotia_terms(source),
                                         "ext", gateway, transcript)
    assert len(triples) == 2
    assert any("mystery" in w for w in transcript.warnings())


def test_extractor_drops_a_triple_with_no_term_reference():
    source = "Scotia offers a savings plan at the bank."
    transcript = transcript_for("extract")
    gateway = mock_gateway("ext", fallback=fenced({"triples": [
        {"subject": "Scotia", "relation": "offers", "object": "savings plan",
         "terms": ["Scotia"]},
        {"subject": "x", "relation": "y", "object": "z", "terms": []},
    ]}))
    triples = extract_internal_knowledge(source, bank_scotia_terms(source),
                                         "ext", gateway, transcript)
    assert [t.subject for t in triples] == ["Scotia"]
    assert transcript.warnings() == [
        "extractor: dropped triple (x, y, z) with no term reference"]


# --- judge ---------------------------------------------------------------------


def scotiabank_doc() -> RetrievedDocument:
    record = DEMO_CORPUS[0]
    return RetrievedDocument(record["id"], record["title"], record["text"],
                             "local_index", 2.0)


def scotiasea_doc() -> RetrievedDocument:
    record = DEMO_CORPUS[1]
    return RetrievedDocument(record["id"], record["title"], record["text"],
                             "local_index", 2.0)


def demo_judge_gateway() -> Gateway:
    gateway = Gateway()
    rules, fallback = mock_script_from_dict(DEMO_SCRIPTS["jdg"])
    gateway.register_mock("jdg", rules, fallback)
    return gateway


def test_judge_correct_for_matching_context():
    source = FINANCIAL_SOURCE
    scotia = bank_scotia_terms(source)[0]
    verdict = judge_document([], scotiabank_doc(), source, scotia, EN_ZH,
                             "jdg", demo_judge_gateway())
    assert verdict.verdict == CORRECT
    assert verdict.proposed_rendering
    assert verdict.back_translation
    assert ("Scotia", "is a", "bank") in verdict.facts


def test_judge_incorrect_for_mismatched_context():
    source = FINANCIAL_SOURCE
    scotia = bank_scotia_terms(source)[0]
    verdict = judge_document([], scotiasea_doc(), source, scotia, EN_ZH,
                             "jdg", demo_judge_gateway())
    assert verdict.verdict == INCORRECT


def test_judge_fails_closed_on_garbage():
    source = FINANCIAL_SOURCE
    scotia = bank_scotia_terms(source)[0]
    gateway = mock_gateway("jdg", fallback="total nonsense, no block")
    transcript = transcript_for("judge")
    verdict = judge_document([], scotiabank_doc(), source, scotia, EN_ZH,
                             "jdg", gateway, transcript)
    assert verdict.verdict == INCORRECT
    assert verdict.alignment_rationale == "unparsable"
    assert any("unparsable" in w for w in transcript.warnings())


def test_judge_recovers_after_two_garbage_replies():
    source = FINANCIAL_SOURCE
    scotia = bank_scotia_terms(source)[0]
    good = fenced({"proposed_rendering": "x", "back_translation": "y",
                   "verdict": "correct", "rationale": "ok", "facts": []})
    gateway = mock_gateway("jdg", fallback=sequence_responder(
        ["garbage", "more garbage", good]))
    verdict = judge_document([], scotiabank_doc(), source, scotia, EN_ZH, "jdg", gateway)
    assert verdict.verdict == CORRECT  # lowercase token accepted, normalized


def test_judge_rejects_unknown_verdict_token():
    source = FINANCIAL_SOURCE
    scotia = bank_scotia_terms(source)[0]
    bad = fenced({"proposed_rendering": "", "back_translation": "",
                  "verdict": "MAYBE", "rationale": "", "facts": []})
    gateway = mock_gateway("jdg", fallback=bad)
    verdict = judge_document([], scotiabank_doc(), source, scotia, EN_ZH, "jdg", gateway)
    assert verdict.verdict == INCORRECT
    assert verdict.alignment_rationale == "unparsable"


def test_judge_verdict_refuses_an_unknown_token():
    with pytest.raises(ValueError, match="^verdict must be one of .*, got 'MAYBE'$"):
        JudgeVerdict("d1", "MAYBE", "", "", "")


# --- translator -----------------------------------------------------------------


def test_translator_uses_knowledge_rendering():
    graph, doc, _ = geo_knowledge_graph()
    gateway = Gateway()
    rules, fallback = mock_script_from_dict(DEMO_SCRIPTS["trn"])
    gateway.register_mock("trn", rules, fallback)
    output = translate_with_knowledge(GEOGRAPHIC_SOURCE, graph, EN_ZH,
                                      "trn", gateway, documents={doc.id: doc})
    assert RIVERBANK in output.text
    assert FINANCIAL_BANK not in output.text
    assert output.term_renderings["bank"] == [RIVERBANK, RIVERBANK]


def test_translator_empty_graph_prompt_has_no_knowledge(monkeypatch):
    prompts_seen = []

    def respond(request):
        prompts_seen.append(request.messages[0].content)
        return fenced({"translation": "ok", "term_renderings": {}})

    gateway = mock_gateway("trn", fallback=respond)
    translate_with_knowledge("plain text", new_graph("d", []), EN_ZH, "trn", gateway)
    assert "Verified term knowledge" not in prompts_seen[0]


def test_translator_takes_a_string_rendering_as_a_one_item_list():
    gateway = mock_gateway("trn", fallback=fenced(
        {"translation": "河岸。", "term_renderings": {"bank": "河岸"}}))
    output = translate_with_knowledge("The bank.", new_graph("d", []), EN_ZH, "trn", gateway)
    assert output.term_renderings == {"bank": ["河岸"]}


def test_translator_rejects_empty_translation():
    gateway = mock_gateway("trn", fallback=fenced({"translation": "", "term_renderings": {}}))
    with pytest.raises(AgentParseError):
        translate_with_knowledge("text", new_graph("d", []), EN_ZH, "trn", gateway)


def test_translator_budget_truncation():
    source = "word " * 30 + "term0"
    terms = [TermCandidate("term0", source.index("term0"),
                           source.index("term0") + 5, "new_term")]
    graph = new_graph("d", terms)
    graph = add_internal(graph, [
        KnowledgeTriple(f"s{i}", "rel", f"o{i}", Provenance(INTERNAL),
                        frozenset({"term0"}))
        for i in range(25)
    ])

    documents = {}
    for d in range(5):
        doc = RetrievedDocument(f"d{d}", f"t{d}", "x" * 600, "local_index", 1.0)
        graph = admit_external(graph, doc.id)
        documents[doc.id] = doc

    rendered = render_translator_prompt(source, graph, EN_ZH, documents=documents)
    assert rendered.count("- (") == 20  # triple budget
    assert rendered.count("- [d") == 3  # excerpt budget
    for line in rendered.splitlines():
        if line.startswith("- [d"):
            excerpt = line.split("] ", 1)[1]
            assert len(excerpt) == 500
            assert excerpt.endswith("...")


# --- consis -------------------------------------------------------------------


def test_consis_perfect_score():
    gateway = mock_gateway("con", fallback=fenced(
        {"score": 100, "term_findings": [
            {"surface": "bank", "consistent": True, "note": "stable"}]}))
    result = consis_evaluate("src", "tgt", ["bank"], EN_ZH, "con", gateway)
    assert result.score == 100.0
    assert result.term_findings[0].judged_consistent is True


def test_consis_fractional_score_with_finding():
    gateway = mock_gateway("con", fallback=fenced(
        {"score": 83.5, "term_findings": [
            {"surface": "Gaemi", "consistent": False, "note": "two renderings"}]}))
    result = consis_evaluate("src", "tgt", ["Gaemi"], EN_ZH, "con", gateway)
    assert result.score == 83.5
    assert len(result.term_findings) == 1
    assert result.term_findings[0].judged_consistent is False


def test_consis_clamps_out_of_range_score():
    transcript = transcript_for("translate")
    gateway = mock_gateway("con", fallback=fenced({"score": 150, "term_findings": []}))
    result = consis_evaluate("src", "tgt", [], EN_ZH, "con", gateway, transcript)
    assert result.score == 100.0
    assert any("clamped" in w for w in transcript.warnings())


def test_consis_unparsable_raises():
    gateway = mock_gateway("con", fallback="no payload here")
    with pytest.raises(AgentParseError):
        consis_evaluate("src", "tgt", [], EN_ZH, "con", gateway)


def test_consis_null_term_findings_is_repaired():
    replies = [fenced({"score": 70, "term_findings": None}),
               fenced({"score": 70, "term_findings": []})]
    transcript = transcript_for("translate")
    gateway = mock_gateway("con", fallback=sequence_responder(replies))
    result = consis_evaluate("src", "tgt", [], EN_ZH, "con", gateway, transcript)
    assert result.score == 70.0
    assert result.term_findings == ()
    repair = transcript.exchanges()[1].request.messages[-1].content
    assert "field 'term_findings' must be an array" in repair


def test_consis_term_findings_that_stay_null_raise_a_parse_error():
    gateway = mock_gateway("con", fallback=fenced({"score": 70, "term_findings": None}))
    with pytest.raises(AgentParseError, match="field 'term_findings' must be an array"):
        consis_evaluate("src", "tgt", [], EN_ZH, "con", gateway)


# --- reply shape errors --------------------------------------------------------
#
# These texts are quoted back in repair prompts, so a changed word changes the
# prompt, its fingerprint and every cached reply after it.

# Each row is named by its key, not by its place, so a row added anywhere
# renames no other test. The first fifteen keys are the positions pytest named
# them by before the rows had keys.
REPLY_SHAPE_ERRORS = {
    "payload0": (detector, {"terms": ["bank"]}, "each terms entry must be an object"),
    "payload1": (detector,
                 {"terms": [{"surface": "bank", "category": "polyseme", "rationale": 1}]},
                 "field 'rationale' must be a string"),
    "payload2": (extractor, {"triples": [["s", "r", "o"]]},
                 "each triples entry must be an object"),
    "payload3": (judge, {"verdict": "CORRECT", "facts": "none"},
                 "field 'facts' must be an array"),
    "payload4": (judge, {"verdict": "CORRECT", "back_translation": None},
                 "field 'back_translation' must be a string"),
    "payload5": (consis, {"score": 50, "term_findings": ["bank"]},
                 "each term_findings entry must be an object"),
    "payload6": (consis, {"score": 50, "term_findings": [{"surface": "bank",
                                                          "consistent": True, "note": 3}]},
                 "field 'note' must be a string"),
    # Two faults: the first entry's blank surface is reached before the second
    # entry's shape.
    "payload7": (detector, {"terms": [{"surface": " ", "category": "polyseme"}, "bank"]},
                 "field 'surface' must be non-empty"),
    # One value refused by each agent's own check.
    "payload8": (detector, {"terms": [{"surface": "bank", "category": "verb"}]},
                 "unknown term category: 'verb'"),
    "payload9": (extractor,
                 {"triples": [{"subject": "s", "relation": "r", "object": "o", "terms": [1]}]},
                 "field 'terms' must contain strings"),
    "payload10": (judge, {"verdict": "CORRECT", "facts": [["s", "r"]]},
                  "each fact must be a [subject, relation, object] string triple"),
    "payload11": (translator, {"translation": "x", "term_renderings": ["bank"]},
                  "field 'term_renderings' must be an object"),
    "payload12": (translator, {"translation": "x", "term_renderings": {"bank": 3}},
                  "renderings for 'bank' must be a string or string array"),
    "payload13": (consis, {"score": "high"}, "field 'score' must be a number"),
    "payload14": (consis, {"score": 50, "term_findings": [{"surface": "bank",
                                                           "consistent": "yes"}]},
                  "field 'consistent' must be a boolean"),
}


@pytest.mark.parametrize("agent, payload, message", [
    pytest.param(*row, id=f"{row[0].__name__}-{name}-{row[2]}")
    for name, row in REPLY_SHAPE_ERRORS.items()])
def test_reply_shape_error_texts(agent, payload, message):
    with pytest.raises(ValueError) as info:
        agent._validate(payload)
    assert str(info.value) == message
