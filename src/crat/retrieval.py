"""External evidence sources behind one interface.

Three source kinds produce ranked ``RetrievedDocument`` lists: a local
BM25 inverted index, a bilingual glossary (one TSV record per line), and a
remote search endpoint. ``retrieve_for_term`` queries configured sources in
order, deduplicates, and caps the merged list. ``RemoteSource.search`` sends
one GET per query, ``{q, k}`` appended to the endpoint's query string, over
the gateway's standard-library HTTP transport (``gateway.http_exchange``),
whose kept-alive connections it shares with the chat backends.

The index numbers documents by ordinal, their position in ascending id
order, and keeps their ids, titles, texts and token counts as parallel
columns. Its terms are a sorted list; term *i*'s postings are
``ordinals[offsets[i]:offsets[i + 1]]`` and the matching ``tfs``, three
uint32 arrays, in ascending ordinal order. The index file (format 3) stores
each array as base64 of its little-endian bytes, so saving and loading
create no object per posting, and loading checks the arrays with C-level
passes. Ranking breaks score ties by ordinal, that is by ascending id, and
keeps the top *k* in a heap rather than sorting every scored document.

A glossary keys each record on a case fold of its source term when it is
built, and compiles nothing then. A query folds each of its windows that
has a term's length and could hold a whole-word match, and looks it up, so
its cost grows with the query's length times the number of distinct term
lengths, not with the number of records. Each record found that way is
confirmed by its whole-word, case-insensitive pattern, compiled the first
time the record is a candidate.
"""

from __future__ import annotations

import base64
import heapq
import json
import logging
import math
import operator
import re
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from urllib.parse import urlencode, urlsplit

from . import canonical, tokenizers
from .gateway import TransportError, body_excerpt, http_exchange
from .transcript import warn
from .transkg import TermCandidate

log = logging.getLogger(__name__)

LOCAL_INDEX = "local_index"
GLOSSARY = "glossary"
REMOTE = "remote"
SOURCE_KINDS = (LOCAL_INDEX, GLOSSARY, REMOTE)

# Standard BM25 constants; both the index and the test oracle use them.
BM25_K1 = 1.2
BM25_B = 0.75

INDEX_FORMAT_VERSION = 3

DEFAULT_N2 = 5
CONTEXT_WINDOW_TOKENS = 10


class RetrievalError(Exception):
    pass


class SourceError(RetrievalError):
    """A single retrieval source failed; callers skip it and continue."""


@dataclass(frozen=True)
class RetrievedDocument:
    id: str
    title: str
    text: str
    source: str
    score: float

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"retrieved document {self.id!r} has empty text")
        if self.source not in SOURCE_KINDS:
            raise ValueError(f"unknown document source: {self.source!r}")


@dataclass
class CorpusIndex:
    """Inverted index over a document corpus, in the layout of index format 3.

    Documents are numbered by ordinal, in ascending id order; ``doc_ids``,
    ``titles``, ``texts`` and ``doc_lengths`` are columns indexed by it.
    ``terms`` is sorted, and term *i*'s postings are
    ``ordinals[offsets[i]:offsets[i + 1]]`` with the matching ``tfs``, in
    ascending ordinal order; the three are ``array("I")`` columns.
    """

    doc_ids: list[str]
    titles: list[str]
    texts: list[str]
    doc_lengths: list[int]
    terms: list[str]
    offsets: array
    ordinals: array
    tfs: array
    tokenizer_id: str

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def avg_doc_length(self) -> float:
        return sum(self.doc_lengths) / len(self.doc_lengths) if self.doc_lengths else 0.0

    @cached_property
    def length_norms(self) -> list[float]:
        """Each document's BM25 length normalisation, by ordinal."""
        avg = self.avg_doc_length or 1.0  # 0.0 only when every length is 0
        return [BM25_K1 * (1.0 - BM25_B + BM25_B * length / avg) for length in self.doc_lengths]

    @cached_property
    def term_ids(self) -> dict[str, int]:
        """Each term's position in ``terms``."""
        return {term: i for i, term in enumerate(self.terms)}


def build_index(corpus: Iterable[Mapping], tokenizer_id: str = tokenizers.SIMPLE) -> CorpusIndex:
    """Index ``corpus`` records ({id, title, text}); ids must be unique."""
    if tokenizer_id not in tokenizers.TOKENIZER_IDS:
        raise ValueError(f"unknown tokenizer: {tokenizer_id!r}")
    records = sorted(((str(r["id"]), str(r.get("title", "")), str(r.get("text", "")))
                      for r in corpus), key=itemgetter(0))
    doc_ids = [doc_id for doc_id, _, _ in records]
    for previous, doc_id in zip(doc_ids, doc_ids[1:]):
        if previous == doc_id:
            raise ValueError(f"duplicate document id: {doc_id!r}")
    doc_lengths = []
    term_ordinals: defaultdict[str, array] = defaultdict(partial(array, "I"))
    term_tfs: defaultdict[str, array] = defaultdict(partial(array, "I"))
    for ordinal, (_, _, text) in enumerate(records):
        tokens = tokenizers.tokenize(text, tokenizer_id)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            term_ordinals[term].append(ordinal)
            term_tfs[term].append(tf)
    terms = sorted(term_ordinals)
    offsets, ordinals, tfs = array("I", [0]), array("I"), array("I")
    for term in terms:
        ordinals += term_ordinals.pop(term)
        tfs += term_tfs.pop(term)
        offsets.append(len(ordinals))
    return CorpusIndex(doc_ids=doc_ids, titles=[title for _, title, _ in records],
                       texts=[text for _, _, text in records], doc_lengths=doc_lengths,
                       terms=terms, offsets=offsets, ordinals=ordinals, tfs=tfs,
                       tokenizer_id=tokenizer_id)


def bm25_idf(doc_count: int, doc_freq: int) -> float:
    return math.log(1.0 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5))


def search(index: CorpusIndex, query: str, k: int) -> list[RetrievedDocument]:
    """Top-k documents by BM25; ties broken by ascending document id."""
    if k <= 0 or index.doc_count == 0:
        return []
    terms = list(dict.fromkeys(tokenizers.tokenize(query, index.tokenizer_id)))
    if not terms:
        return []
    norms = index.length_norms
    # Scores by ordinal: a document's weights are added in query term order,
    # starting from 0.0, which fixes its score to the bit.
    scores = [0.0] * index.doc_count
    scored: set[int] = set()
    for term in terms:
        i = index.term_ids.get(term)
        if i is None:
            continue
        start, end = index.offsets[i], index.offsets[i + 1]
        idf = bm25_idf(index.doc_count, end - start)
        ordinals = index.ordinals[start:end].tolist()
        scored.update(ordinals)
        for ordinal, tf in zip(ordinals, index.tfs[start:end]):
            scores[ordinal] += idf * tf * (BM25_K1 + 1.0) / (tf + norms[ordinal])
    ranked = heapq.nsmallest(k, scored, key=lambda ordinal: (-scores[ordinal], ordinal))
    return [RetrievedDocument(index.doc_ids[ordinal], index.titles[ordinal], index.texts[ordinal],
                              LOCAL_INDEX, scores[ordinal])
            for ordinal in ranked]


_COLUMNS = ("doc_ids", "titles", "texts", "doc_lengths")
_PACKED = ("offsets", "ordinals", "tfs")


def _pack(column: array) -> str:
    """Base64 of ``column``'s bytes as little-endian uint32."""
    if sys.byteorder == "big":
        column = array("I", column)
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


def _unpack(name: str, text) -> array:
    try:
        column = array("I")
        column.frombytes(base64.b64decode(text, validate=True))
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError(f"{name} must be base64 of little-endian uint32 values") from None
    if sys.byteorder == "big":
        column.byteswap()
    return column


def save_index(index: CorpusIndex, path: str | Path) -> None:
    payload = {"version": INDEX_FORMAT_VERSION, "tokenizer_id": index.tokenizer_id,
               "terms": index.terms,
               **{column: _pack(getattr(index, column)) for column in _PACKED},
               **{column: getattr(index, column) for column in _COLUMNS}}
    # The bytes of canonical.compact(payload), written one top-level value at
    # a time so that the text of the whole file is never held at once.
    with open(path, "w", encoding="utf-8") as file:
        separator = "{"
        for key in sorted(payload):
            file.write(f"{separator}{canonical.compact(key)}:{canonical.compact(payload.pop(key))}")
            separator = ","
        file.write("}\n")


def load_index(path: str | Path) -> CorpusIndex:
    try:
        # Format 3 holds no floats: one reads as null, which _check_index rejects.
        payload = json.loads(Path(path).read_bytes(), parse_float=lambda _: None,
                             parse_constant=lambda _: None)
    except FileNotFoundError:
        raise RetrievalError(f"index file not found: {path}") from None
    except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
        raise RetrievalError(f"malformed index file {path}: {err}") from err
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != INDEX_FORMAT_VERSION:
        raise RetrievalError(f"unsupported index file version {version!r} in {path}; "
                             f"rebuild it with `crat build-index`")
    try:
        # Each base64 text is dropped from the payload as soon as it is decoded.
        packed = {column: _unpack(column, payload.pop(column)) for column in _PACKED}
        index = CorpusIndex(terms=payload["terms"], tokenizer_id=payload["tokenizer_id"],
                            **packed, **{column: payload[column] for column in _COLUMNS})
        _check_index(index)
    except KeyError as err:
        raise RetrievalError(f"malformed index file {path}: missing key {err}") from None
    except ValueError as err:
        raise RetrievalError(f"malformed index file {path}: {err}") from None
    return index


def _rising(values) -> bool:
    """Whether each value is greater than the one before it."""
    return not any(map(operator.ge, values, values[1:]))


def _check_index(index: CorpusIndex) -> None:
    """Raise ValueError unless ``index`` has the shape ``search`` relies on.

    Every check is a C-level pass (``map``, ``set``, ``min``, ``max``) with
    no Python step per posting.
    """
    if index.tokenizer_id not in tokenizers.TOKENIZER_IDS:
        raise ValueError(f"unknown tokenizer {index.tokenizer_id!r}")
    n = len(index.doc_ids)
    for column, kind in zip(_COLUMNS, (str, str, str, int)):
        values = getattr(index, column)
        if type(values) is not list or len(values) != n or not set(map(type, values)) <= {kind}:
            raise ValueError(f"{column} must be a list of {n} {kind.__name__} values")
    if not _rising(index.doc_ids):
        raise ValueError("doc_ids must be unique and in ascending order")
    if min(index.doc_lengths, default=0) < 0:
        raise ValueError("doc_lengths must not be negative")
    terms = index.terms
    if type(terms) is not list or not set(map(type, terms)) <= {str} or not _rising(terms):
        raise ValueError("terms must be a list of unique strings in ascending order")
    offsets, postings = index.offsets, len(index.ordinals)
    if len(index.tfs) != postings:
        raise ValueError("ordinals and tfs must be of equal length")
    if (len(offsets) != len(terms) + 1 or offsets[0] != 0 or not _rising(offsets)
            or offsets[-1] != postings):
        raise ValueError(f"offsets must rise from 0 to the {postings} postings, "
                         f"one step per term")
    if max(index.ordinals, default=-1) >= n:
        raise ValueError(f"ordinals must be below the document count {n}")
    if min(index.tfs, default=1) < 1:
        raise ValueError("tfs must be at least 1")


# --- sources ----------------------------------------------------------------


class LocalIndexSource:
    kind = LOCAL_INDEX

    def __init__(self, index: CorpusIndex, label: str = "local_index"):
        self.index = index
        self.label = label

    def search(self, query: str, k: int) -> list[RetrievedDocument]:
        return search(self.index, query, k)


@dataclass(frozen=True)
class GlossaryEntry:
    source_term: str
    target_term: str
    note: str = ""


def load_glossary(path: str | Path) -> list[GlossaryEntry]:
    """Parse a TSV glossary: ``source_term<TAB>target_term[<TAB>note]``."""
    entries = []
    try:
        text = Path(path).read_text("utf-8")
    except FileNotFoundError:
        raise RetrievalError(f"glossary file not found: {path}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0].strip() or not parts[1].strip():
            raise RetrievalError(f"{path}:{lineno}: expected source<TAB>target[<TAB>note]")
        note = parts[2].strip() if len(parts) > 2 else ""
        entries.append(GlossaryEntry(parts[0].strip(), parts[1].strip(), note))
    return entries


def fold(text: str) -> str:
    """Case key of ``text``: two strings that ``re.IGNORECASE`` matches one
    literal code point at a time get the same key.

    ``lower().upper()`` gives every pair of characters that ``re`` equates
    the same key except U+0130, whose full lowercase adds U+0307.
    """
    return text.replace("\u0130", "I").lower().upper()


# Every position where a whole-word pattern's (?<!\w), or its (?!\w), holds.
_MATCH_START_RE = re.compile(r"(?<!\w)")
_MATCH_END_RE = re.compile(r"(?!\w)")


class GlossarySource:
    """Bilingual glossary; each record is served as a one-line document.

    A record matches a query that contains its source term as whole words,
    case-insensitively; ``search`` returns the first *k* matches in file
    order, with ids ``glossary:<n>`` numbering the records from 1.

    Records are keyed on the ``fold`` of their source term. ``re`` matches
    one code point per literal, so a match of a term of *n* code points is a
    query window of *n* code points with the same fold, starting where
    ``(?<!\\w)`` holds and ending where ``(?!\\w)`` holds. ``search`` looks up
    every such window of a term's length; the records found are candidates,
    tested in file order by their own pattern until *k* match. A pattern is
    compiled the first time its record is a candidate; two threads compiling
    the same one at once each store an equal pattern.
    """

    kind = GLOSSARY

    def __init__(self, entries: Sequence[GlossaryEntry], label: str = "glossary"):
        self.entries = list(entries)
        self.label = label
        self._by_key: defaultdict[str, list[int]] = defaultdict(list)
        for ordinal, entry in enumerate(self.entries):
            self._by_key[fold(entry.source_term)].append(ordinal)
        self._lengths = {len(entry.source_term) for entry in self.entries}
        self._patterns: list[re.Pattern | None] = [None] * len(self.entries)

    def search(self, query: str, k: int) -> list[RetrievedDocument]:
        if k <= 0:
            return []
        ends = {match.start() for match in _MATCH_END_RE.finditer(query)}
        candidates: set[int] = set()
        for match in _MATCH_START_RE.finditer(query):
            start = match.start()
            for length in self._lengths:
                end = start + length
                if end in ends:
                    candidates.update(self._by_key.get(fold(query[start:end]), ()))
        hits = []
        for ordinal in sorted(candidates):
            entry = self.entries[ordinal]
            pattern = self._patterns[ordinal]
            if pattern is None:
                pattern = self._patterns[ordinal] = re.compile(
                    rf"(?<!\w){re.escape(entry.source_term)}(?!\w)", re.IGNORECASE)
            if pattern.search(query):
                text = f"{entry.source_term}: {entry.target_term}"
                if entry.note:
                    text += f" ({entry.note})"
                hits.append(RetrievedDocument(
                    f"glossary:{ordinal + 1}", entry.source_term, text, GLOSSARY, 1.0))
                if len(hits) >= k:
                    break
        return hits


class RemoteSource:
    kind = REMOTE

    def __init__(self, endpoint_url: str, timeout_s: float = 10.0, label: str = "remote"):
        self.endpoint_url = endpoint_url
        self.timeout_s = timeout_s
        self.label = label

    def search(self, query: str, k: int) -> list[RetrievedDocument]:
        """One GET against the remote wire contract: params {q, k}, JSON
        array of {id, title, text, score} back, kept in server order."""
        if k <= 0:
            return []
        parts = urlsplit(self.endpoint_url)
        params = urlencode({"q": query, "k": k})
        url = parts._replace(query=f"{parts.query}&{params}" if parts.query else params).geturl()
        try:
            status, body, _ = http_exchange(url, None, {}, self.timeout_s)
        except TransportError as err:
            raise SourceError(f"remote search: {err}") from err
        if not 200 <= status < 300:
            raise SourceError(f"remote search returned HTTP {status}: {body_excerpt(body)!r}")
        try:
            payload = json.loads(body)
            docs = [
                RetrievedDocument(str(item["id"]), str(item.get("title", "")),
                                  str(item["text"]), REMOTE, float(item.get("score", 0.0)))
                for item in payload
            ]
        except (ValueError, KeyError, TypeError) as err:
            raise SourceError(f"remote search returned a malformed payload: {err}") from err
        return docs[:k]


# --- per-term retrieval -------------------------------------------------------


def term_query(term: TermCandidate, source_text: str) -> str:
    """Query string for one term: the surface plus +-``CONTEXT_WINDOW_TOKENS``
    source tokens of context around its span."""
    spans = tokenizers.word_spans(source_text)
    if not spans:
        return term.surface
    overlapping = [i for i, (s, e) in enumerate(spans)
                   if e > term.start and s < term.end]
    if overlapping:
        first, last = overlapping[0], overlapping[-1]
    else:
        after = [i for i, (s, _) in enumerate(spans) if s >= term.start]
        first = last = after[0] if after else len(spans) - 1
    lo = max(0, first - CONTEXT_WINDOW_TOKENS)
    hi = min(len(spans) - 1, last + CONTEXT_WINDOW_TOKENS)
    context = source_text[spans[lo][0]:spans[hi][1]]
    return f"{term.surface} {context}"


def retrieve_for_term(term: TermCandidate, source_text: str, sources: Sequence,
                      k_per_source: int = DEFAULT_N2, n2: int = DEFAULT_N2,
                      transcript=None) -> list[RetrievedDocument]:
    """Query every configured source in order; merge, dedup, cap at ``n2``.

    A failing source is skipped with a warning and never affects results
    contributed by the other sources.
    """
    query = term_query(term, source_text)
    merged: list[RetrievedDocument] = []
    seen: set[tuple[str, str]] = set()
    for source in sources:
        try:
            hits = source.search(query, k_per_source)
        except SourceError as err:
            warn(transcript, log,
                 f"retrieval source {getattr(source, 'label', source)!r} failed: {err}")
            continue
        for doc in hits:
            key = (doc.source, doc.id)
            if key in seen:
                continue
            seen.add(key)
            merged.append(doc)
    return merged[:n2]


def index_source_from_file(path: str | Path, label: str) -> LocalIndexSource:
    return LocalIndexSource(load_index(path), label)


def glossary_source_from_file(path: str | Path, label: str) -> GlossarySource:
    return GlossarySource(load_glossary(path), label)
