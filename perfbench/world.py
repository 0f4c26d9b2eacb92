"""The benchmark's synthetic world: seeded inputs and the scripted model.

Both the stub provider (``stub.py``) and the output checks (``run.py``)
import this module. The stub answers from the rules below, and the checks
derive what crat must produce from the same rules and from the way the
corpus was built, never from a stored copy of crat's output. Nothing here
imports crat.

Vocabulary, by construction:

* terms are seven-letter pseudo-words starting with ``q``; no other word
  contains a ``q``, so a term never occurs inside another word;
* source filler words and corpus words come from disjoint pools, and the
  only words both kinds of text share are ``the`` and ``of``;
* terms in a source document are 13 tokens apart, so the +-10 token query
  window around one term holds no other term.

Hence glossary lookup for a term returns exactly that term's entry, and
BM25 ranks exactly that term's corpus documents first (``the`` and ``of``
occur in every corpus document, so they add long postings but almost no
score).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

CORRECT = "CORRECT"
INCORRECT = "INCORRECT"

COMMON_WORDS = ("the", "of")
TERM_GAP = 12  # filler tokens between two terms of a source document

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_WORD_RE = re.compile(r"\w+")
_RENDERING_RE = re.compile(r"«[^«»]+»")


@dataclass(frozen=True)
class Shape:
    """Sizes and retrieval settings of one workload."""

    mode: str                   # "crat" or "direct"
    batch_docs: int             # documents per round
    width: int                  # run_batch width
    latency_ms: float           # stub service time per chat request
    terms_per_doc: int = 0
    vocabulary: int = 0         # distinct terms; each has one glossary entry
    glossary_extra: int = 0     # glossary entries for terms no document uses
    term_doc_suffixes: tuple[str, ...] = ()  # corpus documents per term: <term>-<suffix>
    distractor_docs: int = 0    # corpus documents that hold no term
    k_per_source: int = 5
    n2: int = 5
    repeat_distance: int = 0    # direct mode: a repeat copies the text this many docs back
    repeat_every: int = 0       # direct mode: every n-th document is a repeat


@dataclass
class World:
    """Everything one run feeds crat, plus what the checks expect back."""

    shape: Shape
    docs: list[dict]                       # one round's batch: {"id", "text"}
    vocabulary: dict[str, str]             # term -> category, what the stub detector knows
    glossary_lines: list[str] = field(default_factory=list)
    corpus: list[dict] = field(default_factory=list)
    glossary_line_of: dict[str, int] = field(default_factory=dict)  # term -> 1-based line

    def retrieved(self, term: str) -> list[str]:
        """Document ids crat must judge for ``term``: its glossary entry, then
        its corpus documents, capped at n2 (the corpus order among equally
        built documents is left to BM25, so callers compare sets)."""
        ids = [f"glossary:{self.glossary_line_of[term]}"]
        ids += [f"{term}-{s}" for s in self.shape.term_doc_suffixes][:self.shape.k_per_source]
        return ids[:self.shape.n2]

    def expected_calls(self, text: str) -> int:
        """Chat requests one uncached document costs, by the stub's script."""
        if self.shape.mode == "direct":
            return 1
        judge = sum(1 + judge_rule(term, doc_id)[1]
                    for term in terms_in(text, self.vocabulary)
                    for doc_id in self.retrieved(term))
        return 3 + judge  # detect + extract + judge + translate

    def expected_admitted(self, text: str) -> set[tuple[str, str]]:
        if self.shape.mode == "direct":
            return set()
        return {(term, doc_id) for term in terms_in(text, self.vocabulary)
                for doc_id in self.retrieved(term) if judge_rule(term, doc_id)[0] == CORRECT}


# --- the scripted model's rules ---------------------------------------------


def judge_rule(term: str, doc_id: str) -> tuple[str, bool]:
    """(verdict, malformed first reply) for one judged document.

    Glossary entries and ``*-1`` corpus documents are CORRECT; the first
    reply about a ``*-0`` document is malformed, so crat's repair path runs.
    """
    if doc_id.startswith("glossary:"):
        return CORRECT, False
    suffix = doc_id.rsplit("-", 1)[-1]
    return (CORRECT if suffix == "1" else INCORRECT), suffix == "0"


def rendering(term: str, doc_id: str) -> str:
    return f"«{term.upper()}@{doc_id}»"


def renderings_in(text: str) -> list[str]:
    return _RENDERING_RE.findall(text)


def source_key(source_text: str) -> str:
    """Identity of a source document as the stub sees it."""
    return hashlib.sha1(source_text.encode("utf-8")).hexdigest()[:16]


def translation(source_text: str, renderings: list[str]) -> str:
    return " ".join(["译文", source_key(source_text)] + renderings)


def terms_in(text: str, vocabulary: dict[str, str]) -> list[str]:
    return list(dict.fromkeys(w for w in _WORD_RE.findall(text) if w in vocabulary))


# --- reading crat's prompts (the stub's side) --------------------------------

_AGENT_MARKERS = (  # the reply shape each agent's prompt asks for
    ("translator", '{"translation": '),
    ("judge", '"verdict": "CORRECT|INCORRECT"'),
    ("extractor", '{"triples": ['),
    ("detector", '{"terms": ['),
)
_SOURCE_RE = re.compile(r"^Source text:\n(.*)$", re.MULTILINE)
_TERM_RE = re.compile(r"^Term under review: (\S+) \(category", re.MULTILINE)
_DOC_RE = re.compile(r"^Document (\S+): ", re.MULTILINE)
_FLAGGED_RE = re.compile(r"^Flagged terms: (.*)$", re.MULTILINE)
_RENDERS_RE = re.compile(r"^- \(\S+, renders as, (.+?)\) \[from document \S+\]$", re.MULTILINE)


def agent_of(prompt: str) -> str:
    for agent, marker in _AGENT_MARKERS:
        if marker in prompt:
            return agent
    return "unknown"


def source_of(prompt: str) -> str:
    match = _SOURCE_RE.search(prompt)
    return match.group(1) if match else ""


def _fenced(payload: dict) -> str:
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


def reply(messages: list[dict], vocabulary: dict[str, str]) -> tuple[str, str, str, str]:
    """(agent, source key, judged document id or "", reply text) for one chat
    request.

    A pure function of the request's content, so replies do not depend on
    call order or concurrency. Raises ``ValueError`` on a prompt the script
    does not cover.
    """
    prompt = messages[0]["content"]
    agent = agent_of(prompt)
    source = source_of(prompt)
    key = source_key(source)
    doc_id = ""
    if agent == "detector":
        payload: dict = {"terms": [
            {"surface": t, "category": vocabulary[t], "rationale": "coined term"}
            for t in terms_in(source, vocabulary)]}
    elif agent == "extractor":
        flagged = _FLAGGED_RE.search(prompt).group(1).split(", ")
        payload = {"triples": [
            {"subject": t, "relation": "occurs in", "object": f"report {key}", "terms": [t]}
            for t in flagged]}
    elif agent == "judge":
        term = _TERM_RE.search(prompt).group(1)
        doc_id = _DOC_RE.search(prompt).group(1)
        verdict, malformed = judge_rule(term, doc_id)
        if malformed and len(messages) == 1:
            return agent, key, doc_id, "This document looks relevant, but I am not sure yet."
        payload = {
            "proposed_rendering": rendering(term, doc_id),
            "back_translation": term,
            "verdict": verdict,
            "rationale": "scripted",
            "facts": [[term, "is glossed by", doc_id]] if verdict == CORRECT else [],
        }
    elif agent == "translator":
        renderings = _RENDERS_RE.findall(prompt)
        term_renderings: dict[str, list[str]] = {}
        for r in renderings:
            term_renderings.setdefault(r[1:].split("@", 1)[0].lower(), []).append(r)
        payload = {"translation": translation(source, renderings),
                   "term_renderings": term_renderings}
    else:
        raise ValueError(f"prompt matches no scripted agent: {prompt[:80]!r}")
    return agent, key, doc_id, _fenced(payload)


# --- generation ---------------------------------------------------------------


class _Words:
    """Unique pseudo-words drawn from one seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set(COMMON_WORDS)

    def _syllables(self, n: int) -> str:
        return "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(n))

    def take(self, count: int, make) -> list[str]:
        out = []
        while len(out) < count:
            word = make()
            if word not in self.used:
                self.used.add(word)
                out.append(word)
        return out

    def terms(self, count: int) -> list[str]:
        return self.take(count, lambda: "q" + self._syllables(3))

    def plain(self, count: int) -> list[str]:
        return self.take(count, lambda: self._syllables(self.rng.choice((2, 3))))


_CATEGORIES = ("new_term", "proper_noun", "acronym", "polyseme", "low_confidence")


def _filler(rng: random.Random, pool: list[str], n: int) -> list[str]:
    words = [rng.choice(pool) for _ in range(n)]
    for common in COMMON_WORDS:
        words[rng.randrange(n)] = common
    return words


def _source_text(rng: random.Random, tag: str, pool: list[str], terms: list[str]) -> str:
    words = ["Report", tag] + _filler(rng, pool, TERM_GAP - 2)
    for term in terms:
        words += [term] + _filler(rng, pool, TERM_GAP)
    return " ".join(words) + "."


def _corpus_text(rng: random.Random, pool: list[str], term: str | None, tf: int) -> str:
    words = _filler(rng, pool, 36)
    if term is not None:
        for _ in range(tf):
            words.insert(rng.randrange(len(words) + 1), term)
    return " ".join(words) + "."


def generate(shape: Shape, seed: int) -> World:
    rng = random.Random(seed)
    words = _Words(rng)
    filler = words.plain(400)
    tag_base = f"s{seed}"
    if shape.mode == "direct":
        docs = []
        for i in range(shape.batch_docs):
            if i >= shape.repeat_distance and i % shape.repeat_every == shape.repeat_every - 1:
                text = docs[i - shape.repeat_distance]["text"]
            else:
                text = _source_text(rng, f"{tag_base}n{i}", filler, [])
                text += " " + " ".join(_filler(rng, filler, 3 * TERM_GAP)) + "."
            docs.append({"id": f"doc-{i:04d}", "text": text})
        return World(shape, docs, {})

    corpus_pool = words.plain(600)
    terms = words.terms(shape.vocabulary)
    vocabulary = {t: _CATEGORIES[i % len(_CATEGORIES)] for i, t in enumerate(terms)}
    entries = [(t, f"译{t}", "coined term") for t in terms]
    entries += [(t, f"译{t}", "unused entry") for t in words.terms(shape.glossary_extra)]
    rng.shuffle(entries)
    glossary_lines = ["\t".join(e) for e in entries]
    line_of = {t: i for i, (t, _, note) in enumerate(entries, start=1) if note == "coined term"}

    corpus = []
    for t in terms:
        for j, suffix in enumerate(shape.term_doc_suffixes):
            corpus.append({"id": f"{t}-{suffix}", "title": f"{t} note {suffix}",
                           "text": _corpus_text(rng, corpus_pool, t, 1 + j % 3)})
    for i in range(shape.distractor_docs):
        corpus.append({"id": f"misc-{i:05d}", "title": f"misc {i}",
                       "text": _corpus_text(rng, corpus_pool, None, 0)})
    rng.shuffle(corpus)

    docs = []
    for i in range(shape.batch_docs):
        chosen = rng.sample(terms, shape.terms_per_doc)
        docs.append({"id": f"doc-{i:04d}",
                     "text": _source_text(rng, f"{tag_base}n{i}", filler, chosen)})
    return World(shape, docs, vocabulary, glossary_lines, corpus, line_of)
