"""Knowledge graph construction, the evidence verdict gate, and canonical
serialization."""

from __future__ import annotations

import json
import random

import pytest

from crat.transkg import (
    CORRECT,
    EXTERNAL,
    INCORRECT,
    INTERNAL,
    TERM_CATEGORIES,
    GraphError,
    GraphParseError,
    KnowledgeTriple,
    Provenance,
    TermCandidate,
    TermNode,
    TransKG,
    add_internal,
    admit_external,
    deserialize_graph,
    graph_to_dict,
    integrate_external,
    new_graph,
    serialize_graph,
    triples_for_term,
)


class Verdict:
    """What the gate reads of a ``JudgeVerdict``."""

    def __init__(self, doc_id, verdict, facts=(), proposed_rendering=""):
        self.doc_id = doc_id
        self.verdict = verdict
        self.facts = tuple(facts)
        self.proposed_rendering = proposed_rendering


def term(surface, start=0, category="proper_noun"):
    return TermCandidate(surface, start, start + len(surface), category)


def internal(s, r, o, keys):
    return KnowledgeTriple(s, r, o, Provenance(INTERNAL), frozenset(keys))


def external(s, r, o, doc_id, keys):
    return KnowledgeTriple(s, r, o, Provenance(EXTERNAL, doc_id), frozenset(keys))


# --- types -------------------------------------------------------------------


def test_term_candidate_validation():
    with pytest.raises(ValueError):
        TermCandidate("", 0, 0, "polyseme")
    with pytest.raises(ValueError):
        TermCandidate("bank", 3, 2, "polyseme")
    with pytest.raises(ValueError):
        TermCandidate("bank", 0, 4, "verb")
    with pytest.raises(ValueError, match="^span length does not match surface 'bank'$"):
        TermCandidate("bank", 0, 5, "polyseme")


def test_provenance_rules():
    with pytest.raises(ValueError):
        Provenance("internal", doc_id="d1")
    with pytest.raises(ValueError):
        Provenance("external")
    with pytest.raises(ValueError):
        Provenance("hearsay")
    assert Provenance("external", "d1").doc_id == "d1"


def test_triple_trims_and_rejects_blank_fields():
    triple = internal("  Scotia ", " offers ", " savings plan ", {"Scotia"})
    assert (triple.subject, triple.relation, triple.object) == (
        "Scotia", "offers", "savings plan")
    with pytest.raises(ValueError):
        internal("Scotia", "  ", "savings plan", {"Scotia"})
    with pytest.raises(ValueError):
        internal("Scotia", "offers", "savings plan", set())


# --- new_graph -----------------------------------------------------------------


def test_new_graph_empty():
    graph = new_graph("d1", [])
    assert graph.nodes == {} and graph.triples == () and graph.accepted_docs == ()


def test_new_graph_two_nodes():
    graph = new_graph("d1", [term("bank"), term("Scotia", start=10)])
    assert set(graph.nodes) == {"bank", "Scotia"}
    assert graph.triples == ()


def test_new_graph_dedups_by_surface():
    graph = new_graph("d1", [term("bank"), term("bank", start=20)])
    assert list(graph.nodes) == ["bank"]


# --- add_internal ---------------------------------------------------------------


def scotia_graph():
    return new_graph("d1", [term("Scotia"), term("bank", start=10, category="polyseme")])


def test_add_internal_appends():
    graph = add_internal(scotia_graph(), [internal("Scotia", "offers", "savings plan", {"Scotia"})])
    assert len(graph.triples) == 1
    assert graph.triples[0].subject == "Scotia"


def test_add_internal_empty_is_identity():
    graph = scotia_graph()
    assert add_internal(graph, []) is graph


def test_add_internal_duplicate_dropped():
    triple = internal("Scotia", "offers", "savings plan", {"Scotia"})
    graph = add_internal(scotia_graph(), [triple, triple])
    assert len(graph.triples) == 1
    again = add_internal(graph, [internal("Scotia", "offers", "savings plan", {"Scotia"})])
    assert len(again.triples) == 1


def test_add_internal_unknown_key_named_in_error():
    with pytest.raises(GraphError, match="unseen"):
        add_internal(scotia_graph(), [internal("x", "y", "z", {"unseen"})])


def test_add_internal_rejects_external_provenance():
    with pytest.raises(GraphError, match="external"):
        add_internal(scotia_graph(), [external("x", "y", "z", "d7", {"Scotia"})])


def test_add_internal_does_not_mutate_input():
    graph = scotia_graph()
    add_internal(graph, [internal("Scotia", "offers", "savings plan", {"Scotia"})])
    assert graph.triples == ()


# --- integrate_external: the verdict gate ------------------------------------------

SCOTIA_FACTS = [("Scotia", "is a", "bank"), ("Scotia", "is based in", "Toronto")]


def test_integrate_correct_admits_doc_and_triples():
    verdict = Verdict("d7", CORRECT, SCOTIA_FACTS, " 丰业银行 ")
    graph = integrate_external(scotia_graph(), verdict, term("Scotia"))
    assert graph.accepted_docs == ("d7",)
    assert [(t.subject, t.relation, t.object) for t in graph.triples] == [
        *SCOTIA_FACTS, ("Scotia", "renders as", "丰业银行")]
    assert {t.provenance for t in graph.triples} == {Provenance(EXTERNAL, "d7")}
    assert {t.term_keys for t in graph.triples} == {frozenset({"Scotia"})}


def test_integrate_blank_rendering_adds_no_triple():
    graph = integrate_external(scotia_graph(), Verdict("d7", CORRECT, SCOTIA_FACTS, "  "),
                               term("Scotia"))
    assert [(t.subject, t.relation, t.object) for t in graph.triples] == SCOTIA_FACTS


def test_integrate_correct_without_triples_still_admits():
    graph = integrate_external(scotia_graph(), Verdict("d7", CORRECT), term("Scotia"))
    assert graph.accepted_docs == ("d7",)
    assert graph.triples == ()


def test_integrate_incorrect_is_identity():
    graph = scotia_graph()
    result = integrate_external(graph, Verdict("d7", INCORRECT, SCOTIA_FACTS, "丰业银行"),
                                term("Scotia"))
    assert result is graph
    assert serialize_graph(result) == serialize_graph(graph)


def test_integrate_unknown_verdict_is_identity():
    graph = scotia_graph()
    result = integrate_external(graph, Verdict("d7", "MAYBE", SCOTIA_FACTS, "丰业银行"),
                                term("Scotia"))
    assert result is graph


def test_integrate_same_doc_twice_admits_once():
    verdict = Verdict("d7", CORRECT, SCOTIA_FACTS, "丰业银行")
    once = integrate_external(scotia_graph(), verdict, term("Scotia"))
    twice = integrate_external(once, verdict, term("Scotia"))
    assert twice == once
    assert twice.accepted_docs == ("d7",)


def test_admit_external_rejects_provenance_mismatch():
    with pytest.raises(GraphError):
        admit_external(scotia_graph(), "d7", [external("x", "y", "z", "d8", {"Scotia"})])
    with pytest.raises(GraphError):
        admit_external(scotia_graph(), "d7", [internal("x", "y", "z", {"Scotia"})])


# --- invariants ------------------------------------------------------------------

SCOTIA = {"Scotia": TermNode("Scotia", "proper_noun")}

# Graphs made directly that break one invariant, and the error each gives.
BROKEN_GRAPHS = {
    "node keyed off its surface": (
        dict(nodes={"bank": TermNode("Scotia", "proper_noun")}),
        "graph: nodes.bank has the surface 'Scotia'"),
    "repeated accepted document": (dict(accepted_docs=("d7", "d7")),
                                   "accepted_docs contains duplicates"),
    "unknown term key": (dict(nodes=SCOTIA, internal_triples=(internal("x", "y", "z", {"bank"}),)),
                         "triple references unknown term key: 'bank'"),
    "repeated triple": (
        dict(nodes=SCOTIA, internal_triples=(internal("x", "y", "z", {"Scotia"}),) * 2),
        "graph: triples[1] repeats triples[0]"),
    "external triple among internal triples": (
        dict(nodes=SCOTIA, internal_triples=(external("x", "y", "z", "d7", {"Scotia"}),),
             accepted_docs=("d7",)),
        "triple 0: external triple among internal triples"),
    "internal triple among external triples": (
        dict(nodes=SCOTIA, internal_triples=(internal("x", "y", "z", {"Scotia"}),),
             external_triples=(internal("a", "b", "c", {"Scotia"}),)),
        "triple 1: internal triple after external triples"),
    "external triple from an unadmitted document": (
        dict(nodes=SCOTIA, external_triples=(external("x", "y", "z", "d8", {"Scotia"}),),
             accepted_docs=("d7",)),
        "external triple cites unadmitted document 'd8'"),
}


@pytest.mark.parametrize("case", BROKEN_GRAPHS)
def test_graph_that_breaks_an_invariant_is_refused(case):
    fields, message = BROKEN_GRAPHS[case]
    with pytest.raises(GraphError) as caught:
        TransKG("d1", **fields)
    assert str(caught.value) == message


def test_add_internal_names_an_external_triple_by_its_place():
    graph = add_internal(scotia_graph(), [internal("Scotia", "offers", "savings plan", {"Scotia"})])
    with pytest.raises(GraphError, match=r"^triple 1: external triple among internal triples$"):
        add_internal(graph, [external("x", "y", "z", "d7", {"Scotia"})])


# --- queries ------------------------------------------------------------------


def two_insert_graph():
    graph = add_internal(scotia_graph(),
                         [internal("Scotia", "offers", "savings plan", {"Scotia"})])
    return admit_external(graph, "d7", [external("Scotia", "is a", "bank", "d7", {"Scotia"})])


def test_triples_for_term_in_insert_order():
    graph = two_insert_graph()
    found = triples_for_term(graph, "Scotia")
    assert [(t.relation) for t in found] == ["offers", "is a"]


def test_triples_for_unseen_term_empty():
    assert triples_for_term(two_insert_graph(), "unseen") == []


def test_triples_on_empty_graph():
    assert triples_for_term(new_graph("d1", []), "bank") == []


# --- serialization ----------------------------------------------------------------


def test_empty_graph_round_trip():
    graph = new_graph("d1", [])
    assert deserialize_graph(serialize_graph(graph)) == graph


def test_round_trip_byte_stable():
    graph = two_insert_graph()
    blob = serialize_graph(graph)
    restored = deserialize_graph(blob)
    assert restored == graph
    assert serialize_graph(restored) == blob


def test_truncated_payload_reports_position():
    blob = serialize_graph(two_insert_graph())[:40]
    with pytest.raises(GraphParseError, match="position"):
        deserialize_graph(blob)


def test_non_json_payload_rejected():
    with pytest.raises(GraphParseError):
        deserialize_graph(b"\xff\xfe\x00broken")
    with pytest.raises(GraphParseError):
        deserialize_graph(b'"just a string"')


def test_interleaved_triple_order_rejected():
    import json

    from crat.transkg import graph_to_dict

    data = graph_to_dict(two_insert_graph())
    data["triples"].reverse()  # external before internal
    with pytest.raises(GraphParseError, match="internal triple after external"):
        deserialize_graph((json.dumps(data) + "\n").encode())


def test_unknown_term_key_rejected_on_load():
    import json

    from crat.transkg import graph_to_dict

    data = graph_to_dict(two_insert_graph())
    data["nodes"].pop("Scotia")
    with pytest.raises(GraphParseError, match="Scotia"):
        deserialize_graph(json.dumps(data).encode())


def _subject_five(data):
    data["triples"][0]["subject"] = 5


# Edits to a written graph, and the error each gives on reading it back.
MALFORMED_GRAPHS = {
    "subject 5": (_subject_five, "graph: triples[0].subject must be a string"),
    "node category null": (lambda d: d["nodes"]["Scotia"].update(category=None),
                           "graph: nodes.Scotia.category must be a string"),
    "node list": (lambda d: d["nodes"].update(Sea=[]), "graph: nodes.Sea must be a mapping"),
    "provenance extra key": (lambda d: d["triples"][1]["provenance"].update(note="x"),
                             "graph: triples[1].provenance: unknown key(s): note"),
    "no accepted_docs": (lambda d: d.pop("accepted_docs"), "graph: needs 'accepted_docs'"),
    "accepted_docs string": (lambda d: d.update(accepted_docs="d7"),
                             "graph: accepted_docs must be a list"),
    "version 2": (lambda d: d.update(version=2, extra=1), "unsupported graph format version: 2"),
    "version true": (lambda d: d.update(version=True), "graph: version must be an integer"),
    # Invariants that the writer keeps and a shape cannot state.
    "node key not its surface": (lambda d: d["nodes"]["Scotia"].update(surface="Bank"),
                                 "graph: nodes.Scotia has the surface 'Bank'"),
    "repeated triple": (lambda d: d["triples"].insert(1, dict(d["triples"][0])),
                        "graph: triples[1] repeats triples[0]"),
    "repeated term key": (lambda d: d["triples"][0]["term_keys"].append("Scotia"),
                          "graph: triples[0].term_keys repeats a key"),
    "external triple from an unadmitted document": (
        lambda d: d["triples"][1]["provenance"].update(doc_id="d8"),
        "external triple cites unadmitted document 'd8'"),
    # What a node or a triple refuses on its own, named by its place.
    "node category verb": (lambda d: d["nodes"]["Scotia"].update(category="verb"),
                           "invalid node: unknown term category: 'verb'"),
    "blank subject": (lambda d: d["triples"][0].update(subject="  "),
                      "invalid triple 0: triple fields must be non-empty after trimming"),
    "repeated accepted document": (lambda d: d["accepted_docs"].append("d7"),
                                   "accepted_docs contains duplicates"),
}


@pytest.mark.parametrize("case", MALFORMED_GRAPHS)
def test_graph_file_is_checked_against_its_shape(case):
    edit, message = MALFORMED_GRAPHS[case]
    data = graph_to_dict(two_insert_graph())
    edit(data)
    with pytest.raises(GraphParseError) as caught:
        deserialize_graph(json.dumps(data).encode())
    assert str(caught.value) == message


def test_graph_file_that_is_not_an_object_is_refused():
    for payload in (b"[1]", b'"just a string"', b"null"):
        with pytest.raises(GraphParseError, match="^graph must be a mapping$"):
            deserialize_graph(payload)


# --- properties -----------------------------------------------------------------


def random_graph(rng: random.Random) -> TransKG:
    surfaces = [f"term{i}" for i in range(rng.randint(0, 5))]
    extra = ["银行", "河岸", "Scotia Sea"]
    surfaces += rng.sample(extra, rng.randint(0, len(extra)))
    terms = [TermCandidate(s, i * 40, i * 40 + len(s), rng.choice(TERM_CATEGORIES),
                           rationale=f"r{rng.randint(0, 9)}")
             for i, s in enumerate(surfaces)]
    graph = new_graph(f"doc-{rng.randint(0, 999)}", terms)
    if not surfaces:
        return graph
    internals = [
        internal(f"s{rng.randint(0, 9)}", f"rel{rng.randint(0, 9)}", f"o{rng.randint(0, 9)}",
                 {rng.choice(surfaces)})
        for _ in range(rng.randint(0, 4))
    ]
    graph = add_internal(graph, internals)
    for d in range(rng.randint(0, 3)):
        doc_id = f"d{d}"
        admitted = rng.choice([True, False])
        triples = [
            external(f"es{rng.randint(0, 9)}", "renders as", f"eo{rng.randint(0, 9)}",
                     doc_id, {rng.choice(surfaces)})
            for _ in range(rng.randint(0, 3))
        ]
        if admitted:
            graph = admit_external(graph, doc_id, triples)
    return graph


def test_round_trip_property():
    rng = random.Random(20240901)
    for _ in range(200):
        graph = random_graph(rng)
        blob = serialize_graph(graph)
        restored = deserialize_graph(blob)
        assert restored == graph
        assert serialize_graph(restored) == blob


def test_filtering_soundness_property():
    rng = random.Random(7)
    for _ in range(200):
        graph = scotia_graph()
        judged = []
        for d in range(rng.randint(0, 8)):
            doc_id = f"d{d}"
            verdict = rng.choice([CORRECT, INCORRECT])
            judged.append((doc_id, verdict))
            graph = integrate_external(graph, Verdict(doc_id, verdict), term("Scotia"))
        expected = tuple(doc_id for doc_id, verdict in judged if verdict == CORRECT)
        assert graph.accepted_docs == expected


def test_insert_order_determinism():
    triples = [internal(f"s{i}", "r", f"o{i}", {"Scotia"}) for i in range(5)]
    first = add_internal(scotia_graph(), triples)
    second = add_internal(add_internal(scotia_graph(), triples[:2]), triples[2:])
    assert first == second
    assert serialize_graph(first) == serialize_graph(second)
