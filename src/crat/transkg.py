"""Translation knowledge graph: term nodes, provenance-tagged triples, and
the verdict gate, ``integrate_external``, that admits or discards evidence.

Graph values are immutable; every operation returns a new ``TransKG`` and
never mutates its input, so graphs can be shared freely across concurrent
runs. Triples are kept in two ordered groups -- facts extracted from the
source context first, then facts taken from admitted external documents --
which makes the serialized triple list a pure function of the insert
sequence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from . import canonical
from .canonical import OPTIONAL, REQUIRED

TERM_CATEGORIES = ("polyseme", "acronym", "proper_noun", "new_term", "low_confidence")

INTERNAL = "internal"
EXTERNAL = "external"
PROVENANCE_KINDS = (INTERNAL, EXTERNAL)

# Evidence verdict tokens consumed by the integration gate.
CORRECT = "CORRECT"
INCORRECT = "INCORRECT"
VERDICTS = (CORRECT, INCORRECT)

GRAPH_FORMAT_VERSION = 1


class GraphError(ValueError):
    """A graph operation was rejected (bad provenance, unknown term key, ...)."""


class GraphParseError(ValueError):
    """Serialized graph bytes could not be decoded."""


def _check_term(surface: str, category: str) -> None:
    if not surface:
        raise ValueError("term surface must be non-empty")
    if category not in TERM_CATEGORIES:
        raise ValueError(f"unknown term category: {category!r}")


@dataclass(frozen=True)
class TermCandidate:
    """An unknown term flagged in the source text.

    ``start``/``end`` are character offsets into the source text such that
    ``source_text[start:end] == surface``; the detector guarantees this by
    anchoring each reported surface in the text.
    """

    surface: str
    start: int
    end: int
    category: str
    rationale: str = ""

    def __post_init__(self):
        _check_term(self.surface, self.category)
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span [{self.start}, {self.end}) for {self.surface!r}")
        if self.end - self.start != len(self.surface):
            raise ValueError(f"span length does not match surface {self.surface!r}")


@dataclass(frozen=True)
class TermNode:
    """A graph node for one distinct term surface."""

    surface: str
    category: str
    rationale: str = ""

    def __post_init__(self):
        _check_term(self.surface, self.category)


@dataclass(frozen=True)
class Provenance:
    """Where a triple came from: the source context or an external document."""

    kind: str
    doc_id: str | None = None

    def __post_init__(self):
        if self.kind not in PROVENANCE_KINDS:
            raise ValueError(f"unknown provenance kind: {self.kind!r}")
        if self.kind == INTERNAL and self.doc_id is not None:
            raise ValueError("internal provenance must not carry a doc_id")
        if self.kind == EXTERNAL and not self.doc_id:
            raise ValueError("external provenance requires a doc_id")


@dataclass(frozen=True)
class KnowledgeTriple:
    """One (subject, relation, object) fact tied to the term nodes it informs."""

    subject: str
    relation: str
    object: str
    provenance: Provenance
    term_keys: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "subject", self.subject.strip())
        object.__setattr__(self, "relation", self.relation.strip())
        object.__setattr__(self, "object", self.object.strip())
        object.__setattr__(self, "term_keys", frozenset(self.term_keys))
        if not (self.subject and self.relation and self.object):
            raise ValueError("triple fields must be non-empty after trimming")
        if not self.term_keys:
            raise ValueError("triple must reference at least one term key")

    def key(self) -> tuple[str, str, str, str, str | None]:
        """Duplicate-detection key: term_keys intentionally excluded."""
        return (self.subject, self.relation, self.object,
                self.provenance.kind, self.provenance.doc_id)


@dataclass(frozen=True)
class TransKG:
    """Immutable knowledge graph for one source document.

    Making one checks every invariant and raises ``GraphError`` on the
    first broken: each node is keyed by its own surface, each document is
    admitted once, every triple names known term keys, no triple repeats
    another, internal triples come before external ones, and every external
    triple cites an admitted document.
    """

    source_doc_id: str
    nodes: Mapping[str, TermNode] = field(default_factory=dict)
    internal_triples: tuple[KnowledgeTriple, ...] = ()
    external_triples: tuple[KnowledgeTriple, ...] = ()
    accepted_docs: tuple[str, ...] = ()

    def __post_init__(self):
        for key, node in self.nodes.items():
            if node.surface != key:
                raise GraphError(f"graph: nodes.{key} has the surface {node.surface!r}")
        if len(set(self.accepted_docs)) != len(self.accepted_docs):
            raise GraphError("accepted_docs contains duplicates")
        places: dict[tuple, int] = {}  # each triple's key -> its first index
        for i, triple in enumerate(self.triples):
            if places.setdefault(triple.key(), i) != i:
                raise GraphError(f"graph: triples[{i}] repeats triples[{places[triple.key()]}]")
            for key in sorted(triple.term_keys):
                if key not in self.nodes:
                    raise GraphError(f"triple references unknown term key: {key!r}")
            kind, doc_id = triple.provenance.kind, triple.provenance.doc_id
            if i < len(self.internal_triples):
                if kind != INTERNAL:
                    raise GraphError(f"triple {i}: external triple among internal triples")
            elif kind != EXTERNAL:
                raise GraphError(f"triple {i}: internal triple after external triples")
            elif doc_id not in self.accepted_docs:
                raise GraphError(f"external triple cites unadmitted document {doc_id!r}")

    @property
    def triples(self) -> tuple[KnowledgeTriple, ...]:
        """All triples: source-context facts first, then admitted external facts."""
        return self.internal_triples + self.external_triples

    def is_empty(self) -> bool:
        return not (self.nodes or self.triples or self.accepted_docs)


def new_graph(source_doc_id: str, terms: Sequence[TermCandidate]) -> TransKG:
    """Create a graph with one node per distinct term surface and no facts.

    Duplicate surfaces collapse to a single node; the first candidate wins.
    """
    nodes: dict[str, TermNode] = {}
    for term in terms:
        if term.surface not in nodes:
            nodes[term.surface] = TermNode(term.surface, term.category, term.rationale)
    return TransKG(source_doc_id=source_doc_id, nodes=nodes)


def _unseen(graph: TransKG, incoming: Iterable[KnowledgeTriple]) -> tuple[KnowledgeTriple, ...]:
    """``incoming`` in order without triples already in ``graph`` or repeated."""
    seen = {t.key() for t in graph.triples}
    added = []
    for triple in incoming:
        if triple.key() not in seen:
            seen.add(triple.key())
            added.append(triple)
    return tuple(added)


def add_internal(graph: TransKG, triples: Iterable[KnowledgeTriple]) -> TransKG:
    """Append source-context facts in input order, dropping exact duplicates."""
    added = _unseen(graph, triples)
    if not added:
        return graph
    return replace(graph, internal_triples=graph.internal_triples + added)


def integrate_external(graph: TransKG, verdict, term) -> TransKG:
    """The verdict gate: the one way a judged document enters the graph.

    A CORRECT ``verdict`` (a ``JudgeVerdict``) admits its ``doc_id`` with its
    facts, then ``(term.surface, "renders as", rendering)`` when its
    ``proposed_rendering`` is not blank; each triple carries that document's
    external provenance and the term as its key. Any other verdict returns
    ``graph`` unchanged.
    """
    if verdict.verdict != CORRECT:
        return graph
    facts = list(verdict.facts)
    if verdict.proposed_rendering.strip():
        facts.append((term.surface, "renders as", verdict.proposed_rendering))
    provenance = Provenance(EXTERNAL, verdict.doc_id)
    return admit_external(graph, verdict.doc_id, [
        KnowledgeTriple(*fact, provenance, frozenset({term.surface})) for fact in facts])


def admit_external(graph: TransKG, doc_id: str, triples: Iterable[KnowledgeTriple] = ()) -> TransKG:
    """Append ``doc_id`` to ``accepted_docs`` (once) and its triples in input
    order; each triple must carry that document's external provenance."""
    incoming = list(triples)
    for triple in incoming:
        if triple.provenance.kind != EXTERNAL or triple.provenance.doc_id != doc_id:
            raise GraphError(
                f"external triple must carry provenance of document {doc_id!r}: "
                f"({triple.subject}, {triple.relation}, {triple.object})")
    return replace(graph, external_triples=graph.external_triples + _unseen(graph, incoming),
                   accepted_docs=tuple(dict.fromkeys((*graph.accepted_docs, doc_id))))


def triples_for_term(graph: TransKG, surface: str) -> list[KnowledgeTriple]:
    """All triples whose term keys contain ``surface``, in graph order."""
    return [t for t in graph.triples if surface in t.term_keys]


# --- serialization ---------------------------------------------------------
#
# Canonical form: UTF-8 JSON with sorted keys and two-space indentation, so
# structurally equal graphs serialize to identical bytes and files diff
# cleanly. The triple list keeps graph order (internal first, external after).


def graph_to_dict(graph: TransKG) -> dict:
    return {
        "version": GRAPH_FORMAT_VERSION,
        "source_doc_id": graph.source_doc_id,
        "nodes": {surface: asdict(node) for surface, node in graph.nodes.items()},
        "triples": [triple_to_dict(t) for t in graph.triples],
        "accepted_docs": list(graph.accepted_docs),
    }


def triple_to_dict(triple: KnowledgeTriple) -> dict:
    prov: dict = {"kind": triple.provenance.kind}
    if triple.provenance.doc_id is not None:
        prov["doc_id"] = triple.provenance.doc_id
    return {
        "subject": triple.subject,
        "relation": triple.relation,
        "object": triple.object,
        "provenance": prov,
        "term_keys": sorted(triple.term_keys),
    }


def serialize_graph(graph: TransKG) -> bytes:
    return canonical.pretty(graph_to_dict(graph)).encode("utf-8")


# What graph.json holds, as ``canonical.check`` reads it.
GRAPH_SHAPE = {
    "version": (int, REQUIRED), "source_doc_id": (str, REQUIRED),
    "nodes": ({str: {"surface": (str, REQUIRED), "category": (str, REQUIRED),
                     "rationale": (str, OPTIONAL)}}, REQUIRED),
    "triples": ([{**dict.fromkeys(("subject", "relation", "object"), (str, REQUIRED)),
                  "provenance": ({"kind": (str, REQUIRED), "doc_id": (str, OPTIONAL)}, REQUIRED),
                  "term_keys": ([str], REQUIRED)}], REQUIRED),
    "accepted_docs": ([str], REQUIRED),
}


def graph_from_dict(data: Mapping) -> TransKG:
    version = data.get("version") if isinstance(data, Mapping) else GRAPH_FORMAT_VERSION
    if version != GRAPH_FORMAT_VERSION:
        raise GraphParseError(f"unsupported graph format version: {version!r}")
    canonical.check(data, GRAPH_SHAPE, "graph", GraphParseError)
    try:
        nodes = {surface: TermNode(**node) for surface, node in data["nodes"].items()}
    except ValueError as err:
        raise GraphParseError(f"invalid node: {err}") from err
    triples = []
    for i, raw in enumerate(data["triples"]):
        try:
            triple = KnowledgeTriple(raw["subject"], raw["relation"], raw["object"],
                                     Provenance(**raw["provenance"]), frozenset(raw["term_keys"]))
        except ValueError as err:
            raise GraphParseError(f"invalid triple {i}: {err}") from err
        if len(triple.term_keys) < len(raw["term_keys"]):
            raise GraphParseError(f"graph: triples[{i}].term_keys repeats a key")
        triples.append(triple)
    # Internal triples are those before the first external one; the graph
    # refuses any that come after it.
    split = next((i for i, t in enumerate(triples) if t.provenance.kind == EXTERNAL),
                 len(triples))
    try:
        return TransKG(data["source_doc_id"], nodes, tuple(triples[:split]),
                       tuple(triples[split:]), tuple(data["accepted_docs"]))
    except GraphError as err:
        raise GraphParseError(str(err)) from err


def deserialize_graph(data: bytes) -> TransKG:
    """Inverse of :func:`serialize_graph`; raises ``GraphParseError`` with the
    byte/character position on malformed payloads."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise GraphParseError(f"graph payload is not UTF-8 at byte {err.start}") from err
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphParseError(f"malformed graph payload at position {err.pos}: {err.msg}") from err
    return graph_from_dict(payload)
