"""BM25 index benchmark: build, save and load time, query time and file size.

For each source tree given, and for seeded corpora of 4k and 20k documents,
it times ``crat.retrieval.build_index``, ``save_index`` and ``load_index``
(the median of three of each), the median of single ``search`` calls and the
size of the saved file. ``the`` and ``of`` occur in every document, so every
query scores two postings lists as long as the corpus, as in the benchmark's
``large_sources`` workload. Queries are 200-character windows of corpus
text, searched at k = 2. Each tree is measured in its own process, one size
at a time, and every tree must return the same hits with the same scores.
Standard library only.

    python3 tools/bench_index.py --side parent=../parent/src --side change=src \\
        --out BENCH_index.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

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


def median_s(run, repeats: int = REPEATS):
    """The median seconds of ``repeats`` calls of ``run``, and its last result."""
    times = []
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


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
            build_s, index = median_s(lambda: build_index(corpus))
            save_s, _ = median_s(lambda: save_index(index, path))
            del index
            load_s, index = median_s(lambda: load_index(path))
            query_ms, hits = [], []
            for query in queries:
                started = time.perf_counter()
                found = search(index, query, K)
                query_ms.append((time.perf_counter() - started) * 1000.0)
                hits.append([[doc.id, repr(doc.score)] for doc in found])
            results[str(size)] = {
                "build_s": round(build_s, 4),
                "save_s": round(save_s, 4),
                "load_s": round(load_s, 4),
                "query_ms_p50": round(statistics.median(query_ms), 4),
                "file_mb": round(path.stat().st_size / 1e6, 3),
                "hits": hits,
            }
            del index, corpus
    return results


def run_side(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    done = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", default=[], metavar="NAME=SRC",
                        help="a name and the source tree holding its crat package")
    parser.add_argument("--out", type=Path, help="write the results as JSON here")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    sides = dict(side.split("=", 1) for side in args.side) or {"change": "src"}
    measured = {name: run_side(Path(src)) for name, src in sides.items()}
    hits = [{size: row.pop("hits") for size, row in result.items()}
            for result in measured.values()]
    if any(h != hits[0] for h in hits):
        print("the source trees returned different hits", file=sys.stderr)
        return 1
    report = {
        "benchmark": "BM25 index",
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "vocabulary": VOCABULARY, "repeats": REPEATS, "queries": QUERIES,
        "query_chars": QUERY_CHARS, "k": K, "seed": SEED,
        "sides": list(sides),
        "results": measured,
    }
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        args.out.write_text(text, "utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
