"""BM25 index benchmark: build, save and load time, query time and file size.

For each source tree given, and for seeded corpora of 4k and 20k documents,
it times ``crat.retrieval.build_index``, ``save_index`` and ``load_index``
(the median of three of each), the median of single ``search`` calls and the
size of the saved file. ``the`` and ``of`` occur in every document, so every
query scores two postings lists as long as the corpus, as in the benchmark's
``large_sources`` workload. Queries are 200-character windows of corpus
text, searched at k = 2. Each tree is measured once, in its own process, one
size at a time (``benchkit.main``), and every tree must return the same hits
with the same scores. Standard library only.

    python3 tools/bench_index.py --side parent=../parent/src --side change=src \\
        --out BENCH_index.json
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import benchkit

SIZES = (4_000, 20_000)
VOCABULARY = 20_000
REPEATS = 3
QUERIES = 50
QUERY_CHARS = 200
K = 2
SEED = 13

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def make_corpus(rng: random.Random, size: int) -> list[dict]:
    """``size`` documents of 20-80 words drawn with a long-tailed frequency,
    each also holding ``the`` and ``of``."""
    words = list(dict.fromkeys("".join(rng.choices(LETTERS, k=rng.randint(3, 10)))
                               for _ in range(VOCABULARY)))
    weights = [1.0 / rank for rank in range(1, len(words) + 1)]
    corpus = []
    for n in range(size):
        body = rng.choices(words, weights, k=rng.randint(20, 80))
        body[rng.randrange(len(body))] = "The"
        body.insert(rng.randrange(len(body)), "of")
        corpus.append({"id": f"doc-{n:06d}", "title": f"doc {n}", "text": " ".join(body) + "."})
    rng.shuffle(corpus)
    return corpus


def make_queries(rng: random.Random, corpus: list[dict]) -> list[str]:
    queries = []
    for record in rng.sample(corpus, QUERIES):
        text = record["text"]
        start = rng.randrange(max(1, len(text) - QUERY_CHARS))
        queries.append(text[start:start + QUERY_CHARS])
    return queries


def measure() -> dict:
    """Time the ``crat`` found on ``sys.path``; one entry per corpus size."""
    from crat.retrieval import build_index, load_index, save_index, search

    results: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.json"
        for size in SIZES:
            rng = random.Random(f"{SEED}:{size}")
            corpus = make_corpus(rng, size)
            queries = make_queries(rng, corpus)
            build_s, index = benchkit.median_s(lambda: build_index(corpus), REPEATS)
            save_s, _ = benchkit.median_s(lambda: save_index(index, path), REPEATS)
            del index
            load_s, index = benchkit.median_s(lambda: load_index(path), REPEATS)
            query_ms, found = benchkit.time_each(lambda query: search(index, query, K), queries)
            results[str(size)] = {
                "build_s": round(build_s, 4),
                "save_s": round(save_s, 4),
                "load_s": round(load_s, 4),
                "query_ms_p50": round(query_ms, 4),
                "file_mb": round(path.stat().st_size / 1e6, 3),
                "hits": [[[doc.id, repr(doc.score)] for doc in docs] for docs in found],
            }
            del index, corpus
    return results


if __name__ == "__main__":
    sys.exit(benchkit.main(__file__, __doc__, "BM25 index", {
        "vocabulary": VOCABULARY, "repeats": REPEATS, "queries": QUERIES,
        "query_chars": QUERY_CHARS, "k": K, "seed": SEED}, measure))
