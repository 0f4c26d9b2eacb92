"""Retrieval: tokenizers, BM25 indexing and ranking against the brute-force
oracle, glossary and remote sources, and per-term merged retrieval."""

from __future__ import annotations

import base64
import json
import random
import re
import struct
import sys
import threading

import pytest

from bm25_oracle import bm25_rank
from conftest import CUT_OFF, STALL, random_text, simple_request
from glossary_oracle import glossary_lookup
from crat import canonical, tokenizers
from crat.gateway import BackendConfigError, Gateway
from crat.retrieval import (
    GlossaryEntry,
    GlossarySource,
    LocalIndexSource,
    RemoteSource,
    RetrievalError,
    RetrievedDocument,
    SourceError,
    build_index,
    fold,
    load_glossary,
    load_index,
    retrieve_for_term,
    save_index,
    search,
    term_query,
)
from crat.transcript import AgentTranscript
from crat.transkg import TermCandidate

THREE_DOCS = [
    {"id": "dA", "title": "retail", "text": "Scotia offers a savings plan to bank customers"},
    {"id": "dB", "title": "sea", "text": "The Scotia Sea lies between icy banks and islands"},
    {"id": "dC", "title": "coffee", "text": "Drip coffee with a phin filter in Vietnam"},
]


def corpus_tokens(corpus, tokenizer_id="simple"):
    return {d["id"]: tokenizers.tokenize(d["text"], tokenizer_id) for d in corpus}


# --- tokenizers ---------------------------------------------------------------


def test_simple_tokenizer_lowercases_and_splits_punctuation():
    assert tokenizers.tokenize("The cat, the mat!") == ["the", "cat", "the", "mat"]


def test_simple_tokenizer_lowers_each_word_after_matching():
    rng = random.Random(2718)
    alphabet = ["a", "Z", "_", "0", "İ", "ı", "ß", "ẞ", "ς", "σ", "é", "\u0307", "-", "银", " "]
    for _ in range(500):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
        expected = [m.group(0).lower() for m in re.finditer(r"\w+", text)]
        assert tokenizers.tokenize(text) == expected
    # "İ".lower() appends U+0307, which is not \w: lowering first would split.
    assert tokenizers.tokenize("İstanbul") == ["i\u0307stanbul"]
    # Every ASCII code point: the table-driven path must split exactly where
    # \w does, including on \x0b, \x0c, \x1c-\x1f and \x7f.
    ascii_alphabet = "".join(map(chr, range(128)))
    for _ in range(2000):
        text = "".join(rng.choices(ascii_alphabet, k=rng.randint(0, 40)))
        expected = [m.group(0).lower() for m in re.finditer(r"\w+", text)]
        assert tokenizers.tokenize(text) == expected


def test_char_tokenizer_for_chinese():
    assert tokenizers.tokenize("河岸 边", tokenizers.CHAR) == ["河", "岸", "边"]


def test_tokenizer_for_lang():
    assert tokenizers.tokenizer_for_lang("zh") == tokenizers.CHAR
    assert tokenizers.tokenizer_for_lang("en") == tokenizers.SIMPLE


def test_unknown_tokenizer_rejected():
    with pytest.raises(ValueError):
        tokenizers.tokenize("x", "stemmer")


# --- build_index -----------------------------------------------------------------


def test_build_index_empty_corpus():
    index = build_index([])
    assert index.doc_count == 0
    assert search(index, "anything", 5) == []


def postings(index, term):
    """``term``'s (ordinals, tfs) as lists."""
    i = index.terms.index(term)
    start, end = index.offsets[i], index.offsets[i + 1]
    return index.ordinals[start:end].tolist(), index.tfs[start:end].tolist()


def test_build_index_hand_counted_postings():
    index = build_index(THREE_DOCS)
    assert index.doc_count == 3
    assert index.doc_ids == ["dA", "dB", "dC"]
    assert postings(index, "scotia") == ([0, 1], [1, 1])
    assert postings(index, "bank") == ([0], [1])
    assert postings(index, "banks") == ([1], [1])
    assert postings(index, "a") == ([0, 2], [1, 1])
    assert index.terms == sorted(set(index.terms))
    assert len(index.offsets) == len(index.terms) + 1
    assert index.doc_lengths == [8, 9, 8]
    assert index.avg_doc_length == pytest.approx(25 / 3)


def test_build_index_duplicate_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_index([{"id": "d1", "text": "a"}, {"id": "d1", "text": "b"}])


def test_build_index_refuses_an_unknown_tokenizer():
    with pytest.raises(ValueError, match="^unknown tokenizer: 'words'$"):
        build_index(THREE_DOCS, "words")


# --- search --------------------------------------------------------------------


def test_search_empty_query_and_no_match():
    index = build_index(THREE_DOCS)
    assert search(index, "", 5) == []
    assert search(index, "zzz qqq", 5) == []
    assert search(index, "scotia", 0) == []


def test_search_matches_oracle_on_fixture():
    index = build_index(THREE_DOCS)
    results = search(index, "Scotia bank savings", 2)
    expected = bm25_rank(corpus_tokens(THREE_DOCS),
                         tokenizers.tokenize("Scotia bank savings"), 2)
    assert [(r.id, r.score) for r in results] == expected
    assert [r.id for r in results] == ["dA", "dB"]


def test_search_k_exceeding_corpus_returns_all_sorted():
    index = build_index(THREE_DOCS)
    results = search(index, "scotia coffee", 10)
    assert len(results) == 3
    assert all(results[i].score >= results[i + 1].score for i in range(len(results) - 1))


def test_search_tie_break_ascending_doc_id():
    corpus = [
        {"id": "z9", "text": "same words here"},
        {"id": "a1", "text": "same words here"},
        {"id": "m5", "text": "different content entirely"},
    ]
    index = build_index(corpus)
    results = search(index, "same words", 3)
    assert [r.id for r in results] == ["a1", "z9"]


def test_search_result_fields():
    index = build_index(THREE_DOCS)
    top = search(index, "phin", 1)[0]
    assert top.id == "dC"
    assert top.title == "coffee"
    assert top.source == "local_index"
    assert "phin" in top.text


def test_randomized_search_matches_oracle(tmp_path):
    rng = random.Random(1234)
    vocabulary = [f"w{i}" for i in range(30)]
    padded = [{"id": f"d{i:02d}", "text": " ".join(rng.choices(vocabulary, k=rng.randint(3, 30)))}
              for i in range(25)]
    shuffled = rng.sample(padded, len(padded))
    # d9 sorts after d10, and every seventh document repeats a text, so ties
    # must break by id string order, not by insertion order.
    unpadded = [{"id": f"d{i}", "text": padded[i % 7]["text"]} for i in range(25)]
    for n, corpus in enumerate((padded, shuffled, unpadded)):
        built = build_index(corpus)
        save_index(built, tmp_path / f"index{n}.json")
        tokens = corpus_tokens(corpus)
        for index in (built, load_index(tmp_path / f"index{n}.json")):
            for _ in range(40):
                query = " ".join(rng.choices(vocabulary, k=rng.randint(1, 4)))
                k = rng.randint(1, 10)
                got = [(r.id, r.score) for r in search(index, query, k)]
                assert got == bm25_rank(tokens, tokenizers.tokenize(query), k)


# --- persistence -----------------------------------------------------------------


def test_index_save_load_round_trip(tmp_path):
    index = build_index(THREE_DOCS)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert [r.id for r in search(loaded, "Scotia bank savings", 2)] == ["dA", "dB"]


def random_corpus(rng: random.Random) -> list[dict]:
    """0-40 records with unique ids; texts and titles may be empty, and a
    title may be missing."""
    corpus = []
    for n in range(rng.randint(0, 40)):
        record = {"id": f"{random_text(rng)}#{n}", "text": random_text(rng, 0, 40)}
        if rng.random() < 0.8:
            record["title"] = random_text(rng)
        corpus.append(record)
    return corpus


def test_index_file_round_trip_property(tmp_path):
    rng = random.Random(20261021)
    path = tmp_path / "index.json"
    for n in range(50):
        index = build_index(random_corpus(rng), tokenizers.TOKENIZER_IDS[n % 2])
        save_index(index, path)
        written = path.read_bytes()
        loaded = load_index(path)
        assert loaded == index, n
        save_index(loaded, path)
        assert path.read_bytes() == written, n


def test_index_load_rejects_bad_version(tmp_path):
    path = tmp_path / "index.json"
    path.write_text('{"version": 99}')
    with pytest.raises(RetrievalError, match="version"):
        load_index(path)
    path.write_text("not json")
    with pytest.raises(RetrievalError):
        load_index(path)


def test_index_load_rejects_formats_1_and_2_with_rebuild_hint(tmp_path):
    path = tmp_path / "index.json"
    format_1 = {
        "version": 1, "doc_count": 1, "postings": {"scotia": [["dA", 1]]},
        "doc_lengths": {"dA": 1}, "avg_doc_length": 1.0, "tokenizer_id": "simple",
        "docs": {"dA": ["retail", "Scotia"]}}
    format_2 = {
        "version": 2, "tokenizer_id": "simple", "doc_ids": ["dA"], "titles": ["retail"],
        "texts": ["Scotia"], "doc_lengths": [1], "postings": {"scotia": [0, 1]}}
    for payload in (format_1, format_2):
        path.write_text(json.dumps(payload))
        with pytest.raises(RetrievalError, match="rebuild it with `crat build-index`"):
            load_index(path)


def packed(*values: int) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}I", *values)).decode("ascii")


def unpacked(text: str) -> list[int]:
    data = base64.b64decode(text)
    return list(struct.unpack(f"<{len(data) // 4}I", data))


def test_index_load_rejects_malformed_payload(tmp_path):
    path = tmp_path / "index.json"
    save_index(build_index(THREE_DOCS), path)
    good = json.loads(path.read_text("utf-8"))
    terms, offsets = good["terms"], unpacked(good["offsets"])
    ordinals, tfs = unpacked(good["ordinals"]), unpacked(good["tfs"])
    assert len(offsets) == len(terms) + 1 and offsets[-1] == len(ordinals) == len(tfs)
    for bad in ({"version": 3}, {**good, "titles": "no title"},
                {**good, "doc_lengths": [8, 9]},
                {**good, "texts": good["texts"] + ["extra"]},
                {**good, "doc_ids": ["dB", "dA", "dC"]},
                {**good, "doc_lengths": [8, -1, 8]}, {**good, "doc_lengths": [8, 9.0, 8]},
                {**good, "tokenizer_id": "stemmer"},
                # packed columns: not base64, not text, not whole uint32s
                {**good, "ordinals": "not base64!"}, {**good, "tfs": None},
                {**good, "ordinals": "b3JkaW5hbHM=é"},
                {**good, "ordinals": base64.b64encode(b"\0" * 6).decode("ascii")},
                # offsets: short, long, not from 0, falling, not ending at the postings
                {**good, "offsets": packed(*offsets[:-1])},
                {**good, "offsets": packed(*offsets, offsets[-1] + 1)},
                {**good, "offsets": packed(1, *offsets[1:])},
                {**good, "offsets": packed(0, offsets[2], offsets[1], *offsets[3:])},
                {**good, "offsets": packed(*offsets[:-1], offsets[-1] - 1)},
                {**good, "tfs": packed(*tfs, 1)},
                # an ordinal equal to the document count, a tf of 0
                {**good, "ordinals": packed(*ordinals[:-1], 3)},
                {**good, "tfs": packed(0, *tfs[1:])},
                # terms: unsorted, duplicated, not text
                {**good, "terms": [terms[1], terms[0], *terms[2:]]},
                {**good, "terms": [terms[0], terms[0], *terms[2:]]},
                {**good, "terms": [1, *terms[1:]]}, {**good, "terms": "abc"}):
        path.write_text(json.dumps(bad))
        with pytest.raises(RetrievalError, match="malformed index file"):
            load_index(path)


def test_index_file_packs_postings_as_little_endian_uint32(tmp_path):
    path = tmp_path / "index.json"
    save_index(build_index([{"id": "d1", "text": "B"}, {"id": "d0", "text": "b a b"}]), path)
    payload = json.loads(path.read_text("utf-8"))
    assert payload["version"] == 3
    assert payload["terms"] == ["a", "b"]
    # a: d0 once; b: d0 twice, d1 once
    assert base64.b64decode(payload["offsets"]) == struct.pack("<3I", 0, 1, 3)
    assert base64.b64decode(payload["ordinals"]) == struct.pack("<3I", 0, 0, 1)
    assert base64.b64decode(payload["tfs"]) == struct.pack("<3I", 1, 2, 1)
    assert payload["tfs"] == packed(1, 2, 1) == "AQAAAAIAAAABAAAA"


def test_index_file_is_compact_and_indented_files_still_load(tmp_path):
    index = build_index(THREE_DOCS)
    path = tmp_path / "index.json"
    save_index(index, path)
    text = path.read_text("utf-8")
    assert text == canonical.compact(json.loads(text)) + "\n"
    path.write_text(canonical.pretty(json.loads(text)), "utf-8")
    assert load_index(path) == index


# --- glossary -----------------------------------------------------------------


def test_load_glossary(tmp_path):
    path = tmp_path / "gloss.tsv"
    path.write_text("phin\t滴漏咖啡壶\tdrip filter\n\n# comment\nbank\t河岸\n", "utf-8")
    entries = load_glossary(path)
    assert entries == [GlossaryEntry("phin", "滴漏咖啡壶", "drip filter"),
                       GlossaryEntry("bank", "河岸", "")]


def test_load_glossary_malformed_line(tmp_path):
    path = tmp_path / "gloss.tsv"
    path.write_text("only-one-field\n")
    with pytest.raises(RetrievalError, match=":1"):
        load_glossary(path)


def test_glossary_search_word_boundary():
    source = GlossarySource([GlossaryEntry("cat", "猫"), GlossaryEntry("phin", "滴漏咖啡壶")])
    assert source.search("the category of tools", 5) == []
    hits = source.search("a phin filter", 5)
    assert len(hits) == 1
    assert hits[0].title == "phin"
    assert "滴漏咖啡壶" in hits[0].text
    assert hits[0].source == "glossary"


def test_glossary_search_for_no_results_finds_none():
    assert GlossarySource([GlossaryEntry("phin", "滴漏咖啡壶")]).search("a phin", 0) == []


def test_glossary_ids_are_record_ordinals(tmp_path):
    path = tmp_path / "gloss.tsv"
    path.write_text("# terms\nphin\t滴漏咖啡壶\n\nbank\t河岸\n", "utf-8")
    source = GlossarySource(load_glossary(path))
    assert [d.id for d in source.search("a phin by the bank", 5)] == ["glossary:1", "glossary:2"]


# Python's case-insensitive matching pairs ı İ ſ K with ASCII letters and
# gives ς σ U+0345 ι several case forms; é and ß are non-ASCII word characters,
# and the punctuation sits next to a term's words.
GLOSSARY_ALPHABET = "aiksqAIKS_09ıİſ\u212aéßςσ\u0345ι-.+#"


def test_glossary_search_matches_the_full_scan():
    rng = random.Random(5)

    def phrase(max_len):
        chars = rng.choices(GLOSSARY_ALPHABET + "  ", k=rng.randint(1, max_len))
        return "".join(chars).strip() or rng.choice(GLOSSARY_ALPHABET)

    for _ in range(2000):
        terms = [phrase(4) for _ in range(rng.randint(1, 12))]
        terms += [rng.choice(terms).swapcase() for _ in range(rng.randint(0, 3))]
        terms += [rng.choice(terms) for _ in range(rng.randint(0, 2))]
        rng.shuffle(terms)
        entries = [GlossaryEntry(t, f"t{n}", rng.choice(["", "note"]))
                   for n, t in enumerate(terms)]
        query = rng.choice(terms)
        for _ in range(rng.randint(0, 4)):
            query += rng.choice([" ", " ", "", "-", "é"]) + rng.choice(terms + [phrase(6)])
        k = rng.choice([1, 2, 5, 50])
        got = [(d.id, d.title, d.text, d.source, d.score)
               for d in GlossarySource(entries).search(query, k)]
        assert got == glossary_lookup(entries, query, k), (terms, query, k)


# Characters with several case forms, or case forms outside their own block:
# final and medial sigma, micro and mu, ohm and omega, angstrom and A-ring,
# the Greek symbol variants, Cyrillic and Cherokee letters whose case pair is
# in another block, Georgian, the titlecase digraph, CJK, and a combining dot.
SCRIPT_ALPHABET = ("\u03a3\u03c3\u03c2\u00b5\u03bc\u2126\u03a9\u212b\u00c5\u03b2\u03d0"
                   "\u03b8\u03d1\u03f4\u0432\u1c80\u13e3\uab73\u10a0\u2d00\u01c5\u01c4\u01c6"
                   "银行\u0307")
CASE_VARIANTS = (str, str.upper, str.lower, str.swapcase, str.casefold)


def test_glossary_search_matches_the_full_scan_across_scripts():
    rng = random.Random(17)

    def phrase(max_len):
        chars = rng.choices(SCRIPT_ALPHABET + "a -", k=rng.randint(1, max_len))
        return "".join(chars).strip() or rng.choice(SCRIPT_ALPHABET)

    def variant(text):
        return rng.choice(CASE_VARIANTS)(text)

    for _ in range(2000):
        terms = [phrase(4) for _ in range(rng.randint(1, 12))]
        terms += [variant(rng.choice(terms)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(terms)
        entries = [GlossaryEntry(t, f"t{n}") for n, t in enumerate(terms)]
        words = [variant(rng.choice(terms + [phrase(6)])) for _ in range(rng.randint(1, 5))]
        query = variant("".join(w + rng.choice([" ", "", "-", "\u0307"]) for w in words))
        k = rng.choice([1, 2, 5, 50])
        got = [(d.id, d.title, d.text, d.source, d.score)
               for d in GlossarySource(entries).search(query, k)]
        assert got == glossary_lookup(entries, query, k), (terms, query, k)


def test_fold_keeps_together_every_pair_re_equates():
    alphabet = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                       if c.lower() != c or c.upper() != c or c.casefold() != c)
    pairs = {(a, b) for a in alphabet
             for b in re.findall(re.escape(a), alphabet, re.IGNORECASE) if a != b}
    assert len(pairs) > 2000
    assert [(a, b) for a, b in pairs if fold(a) != fold(b)] == []
    # Without its U+0130 case the fold splits six of those pairs.
    split = {(a, b) for a, b in pairs if a.lower().upper() != b.lower().upper()}
    assert len(split) == 6 and all("\u0130" in pair for pair in split)


def test_glossary_compiles_only_candidate_patterns(monkeypatch):
    compiled = []
    real_compile = re.compile

    def counting_compile(pattern, flags=0):
        compiled.append(pattern)
        return real_compile(pattern, flags)

    monkeypatch.setattr(re, "compile", counting_compile)
    source = GlossarySource([GlossaryEntry(f"term{n:05d}", f"t{n}") for n in range(50_000)])
    assert compiled == []
    query = "see TERM00099, term00042x, term00077 and Term00042"
    assert [d.id for d in source.search(query, 5)] == ["glossary:43", "glossary:78",
                                                       "glossary:100"]
    assert compiled == [rf"(?<!\w){term}(?!\w)" for term in ("term00042", "term00077",
                                                              "term00099")]
    source.search(query, 5)
    assert len(compiled) == 3
    # Candidates are tested in file order until k match; later ones stay uncompiled.
    assert [d.id for d in source.search("term00009 term00003 term00001", 2)] == [
        "glossary:2", "glossary:4"]
    assert compiled[3:] == [rf"(?<!\w){term}(?!\w)" for term in ("term00001", "term00003")]


def test_glossary_shared_across_threads_matches_the_full_scan():
    rng = random.Random(23)
    entries = [GlossaryEntry("".join(rng.choices("abcσΣς", k=rng.randint(1, 3))), f"t{n}")
               for n in range(400)]
    queries = [" ".join(rng.choice(entries).source_term.upper() for _ in range(6))
               for _ in range(40)]
    expected = [glossary_lookup(entries, query, 50) for query in queries]
    source = GlossarySource(entries)
    failures = []

    def work(offset):
        for n in range(len(queries)):
            i = (n + offset) % len(queries)
            got = [(d.id, d.title, d.text, d.source, d.score) for d in source.search(queries[i], 50)]
            if got != expected[i]:
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# --- remote -------------------------------------------------------------------


def test_remote_search_returns_server_order(stub_server):
    stub_server.script((200, [
        {"id": "r1", "title": "one", "text": "first hit", "score": 9.0},
        {"id": "r2", "title": "two", "text": "second hit", "score": 5.0},
    ]))
    docs = RemoteSource(stub_server.url).search("query", 5)
    assert [d.id for d in docs] == ["r1", "r2"]
    assert docs[0].source == "remote"
    assert "q=query" in stub_server.requests[0].path


def test_remote_search_query_string(stub_server):
    # {q, k} follow the endpoint's own query string; the query is sent as
    # percent-encoded UTF-8.
    stub_server.script((200, []))
    assert RemoteSource(f"{stub_server.url}/q?lang=zh").search("银行 bank", 3) == []
    (sent,) = stub_server.requests
    assert sent.method == "GET"
    assert sent.path == "/q?lang=zh&q=%E9%93%B6%E8%A1%8C+bank&k=3"


def test_remote_search_500_is_source_error(stub_server):
    stub_server.script((500, {"error": "boom"}))
    with pytest.raises(SourceError, match="500"):
        RemoteSource(stub_server.url).search("query", 5)


def test_remote_search_redirect_is_source_error(stub_server):
    # Not followed: a 3xx fails the source like any other non-2xx status.
    stub_server.script((301, {}, {"Location": "/moved"}))
    with pytest.raises(SourceError, match="301"):
        RemoteSource(stub_server.url).search("query", 5)
    assert len(stub_server.requests) == 1


@pytest.mark.parametrize("endpoint",
                         ["data:,[]", "file:///etc/hosts", "ftp://x.test/q", "http:/q",
                          "http://:8080/v1", "http://user@/v1", "http://h:99999/v1",
                          "http://h:port/v1", "http://h:0/v1"])
def test_remote_source_refuses_endpoints_that_are_not_http(endpoint):
    with pytest.raises(BackendConfigError, match="malformed endpoint URL"):
        RemoteSource(endpoint)


@pytest.mark.parametrize("fault", [CUT_OFF, STALL])
def test_remote_search_broken_reply_is_source_error(stub_server, fault):
    stub_server.script(fault)
    with pytest.raises(SourceError, match="transport failure"):
        RemoteSource(stub_server.url, timeout_s=0.2).search("query", 5)


def test_remote_search_malformed_payload(stub_server):
    stub_server.script((200, {"not": "a list"}))
    with pytest.raises(SourceError):
        RemoteSource(stub_server.url).search("query", 5)


def test_remote_search_shares_connections_with_chat_calls(keep_alive_server):
    # One pool of kept-alive connections per (scheme, host, port), whichever
    # caller opened them.
    keep_alive_server.script((200, [{"id": "r1", "text": "hit"}]), (200, []))
    source = RemoteSource(f"{keep_alive_server.url}/search")
    assert [d.id for d in source.search("one", 3)] == ["r1"]
    assert source.search("two", 3) == []
    gateway = Gateway()
    gateway.register_http("live", f"{keep_alive_server.url}/v1/chat", "test-model")
    assert gateway.complete(simple_request("live", "three")).response_text == "ok"
    assert [r.path.split("?")[0] for r in keep_alive_server.requests] == [
        "/search", "/search", "/v1/chat"]
    assert keep_alive_server.connection_count == 1


def test_remote_search_k_zero_makes_no_call():
    # Closed port: any actual request would raise.
    assert RemoteSource("http://127.0.0.1:9").search("query", 0) == []


def test_remote_search_connection_failure_is_source_error():
    with pytest.raises(SourceError):
        RemoteSource("http://127.0.0.1:9", timeout_s=0.2).search("query", 1)


# --- retrieve_for_term -----------------------------------------------------------


def bank_term(source: str) -> TermCandidate:
    start = source.index("bank")
    return TermCandidate("bank", start, start + 4, "polyseme")


def test_term_query_window():
    words = [f"t{i}" for i in range(24)]
    words[11] = "TERM"
    source = " ".join(words)
    term = TermCandidate("TERM", source.index("TERM"), source.index("TERM") + 4, "new_term")
    query = term_query(term, source)
    expected_context = " ".join(words[1:22])
    assert query == f"TERM {expected_context}"


def test_term_query_on_a_text_with_no_words_is_the_surface():
    assert term_query(TermCandidate("—", 2, 3, "new_term"), "… — …") == "—"


@pytest.mark.parametrize("source, context", [
    ("alpha — beta", "alpha — beta"),  # the window centres on the next word
    ("alpha beta —", "alpha beta"),  # no next word: on the last one
])
def test_term_query_on_a_span_that_covers_no_word(source, context):
    term = TermCandidate("—", source.index("—"), source.index("—") + 1, "new_term")
    assert term_query(term, source) == f"— {context}"


def test_retrieve_with_no_sources():
    source = "the bank is open"
    assert retrieve_for_term(bank_term(source), source, []) == []


def test_retrieve_glossary_first_then_index():
    source = "A phin filter brews the coffee slowly near the bank."
    phin = TermCandidate("phin", source.index("phin"), source.index("phin") + 4, "new_term")
    glossary = GlossarySource([GlossaryEntry("phin", "滴漏咖啡壶", "drip filter")])
    index_source = LocalIndexSource(build_index(THREE_DOCS))
    docs = retrieve_for_term(phin, source, [glossary, index_source])
    assert docs[0].source == "glossary"
    assert any(d.source == "local_index" and d.id == "dC" for d in docs)


def test_retrieve_caps_at_n2():
    source = "the bank is open"
    corpus = [{"id": f"d{i}", "text": "bank bank bank"} for i in range(10)]
    index_source = LocalIndexSource(build_index(corpus))
    docs = retrieve_for_term(bank_term(source), source, [index_source],
                             k_per_source=10, n2=4)
    assert len(docs) == 4


def test_retrieve_dedups_by_source_and_id():
    source = "the bank is open"
    index_source = LocalIndexSource(build_index(THREE_DOCS))
    docs = retrieve_for_term(bank_term(source), source, [index_source, index_source])
    assert len({(d.source, d.id) for d in docs}) == len(docs)


class FailingSource:
    label = "always-down"

    def search(self, query, k):
        raise SourceError("unreachable")


def test_failing_source_is_isolated():
    source = "the bank is open"
    index_source = LocalIndexSource(build_index(THREE_DOCS))
    transcript = AgentTranscript()
    transcript.begin_stage("retrieve")
    healthy_only = retrieve_for_term(bank_term(source), source, [index_source])
    with_failure = retrieve_for_term(bank_term(source), source,
                                     [FailingSource(), index_source],
                                     transcript=transcript)
    assert with_failure == healthy_only
    assert any("always-down" in w for w in transcript.warnings())


def test_retrieval_determinism():
    source = "the bank is open"
    sources = [GlossarySource([GlossaryEntry("bank", "河岸")]),
               LocalIndexSource(build_index(THREE_DOCS))]
    one = retrieve_for_term(bank_term(source), source, sources)
    two = retrieve_for_term(bank_term(source), source, sources)
    assert one == two


def test_retrieved_document_validation():
    with pytest.raises(ValueError):
        RetrievedDocument("d", "t", "", "local_index", 0.0)
    with pytest.raises(ValueError):
        RetrievedDocument("d", "t", "text", "oracle", 0.0)
