"""Glossary lookup benchmark: build time and query time by size and script.

For each source tree given, and for 1k, 10k and 50k records of ASCII,
Cyrillic, CJK and accented Latin terms, it times building a
``crat.retrieval.GlossarySource`` and the median of single queries shaped
like the pipeline's (one glossary term in a case variant, with ten words of
context on each side). Each tree is measured in its own process, one size
and script at a time, and every tree must return the same hits. Standard
library only.

    python3 tools/bench_glossary.py --side parent=../parent/src --side change=src \\
        --out BENCH_glossary.json
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
import time
from pathlib import Path

SIZES = (1_000, 10_000, 50_000)
QUERIES = 25
CONTEXT_WORDS = 10
SEED = 20

# Letters per script; CJK terms are runs of ideographs with no spaces.
LETTERS = {
    "ascii": "abcdefghijklmnopqrstuvwxyz",
    "cyrillic": "абвгдеёжзийклмнопрстуфхцчшщъыьэюя",
    "cjk": "".join(map(chr, range(0x4E00, 0x4E00 + 3000))),
    "accented": "abcdefghilmnoprstuàáâäçèéêëíîïñóôöùúûüýÿœ",
}
CASE_VARIANTS = (str, str.upper, str.lower, str.title)


def word(rng: random.Random, script: str) -> str:
    length = rng.randint(1, 3) if script == "cjk" else rng.randint(3, 9)
    return "".join(rng.choices(LETTERS[script], k=length))


def make_terms(rng: random.Random, script: str, count: int) -> list[str]:
    terms: dict[str, None] = {}
    while len(terms) < count:
        words = [word(rng, script) for _ in range(rng.choice((1, 1, 2, 3)))]
        terms[("" if script == "cjk" else " ").join(words)] = None
    return list(terms)


def make_queries(rng: random.Random, script: str, terms: list[str]) -> list[str]:
    def context() -> str:
        return " ".join(word(rng, script) for _ in range(CONTEXT_WORDS))

    return [f"{context()} {rng.choice(CASE_VARIANTS)(rng.choice(terms))}, {context()}."
            for _ in range(QUERIES)]


def measure() -> dict:
    """Time the ``crat`` found on ``sys.path``; one entry per script and size."""
    from crat.retrieval import GlossaryEntry, GlossarySource

    results: dict = {}
    for script in LETTERS:
        for size in SIZES:
            rng = random.Random(f"{SEED}:{script}:{size}")
            terms = make_terms(rng, script, size)
            entries = [GlossaryEntry(term, f"t{n}") for n, term in enumerate(terms)]
            queries = make_queries(rng, script, terms)
            gc.collect()
            started = time.perf_counter()
            source = GlossarySource(entries)
            build_s = time.perf_counter() - started
            query_ms, hits = [], []
            for query in queries:
                started = time.perf_counter()
                found = source.search(query, 5)
                query_ms.append((time.perf_counter() - started) * 1000.0)
                hits.append([doc.id for doc in found])
            results.setdefault(script, {})[str(size)] = {
                "build_s": round(build_s, 4),
                "query_ms_p50": round(statistics.median(query_ms), 4),
                "hits": hits,
            }
            del source, entries
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
    hits = [{script: {size: row.pop("hits") for size, row in sizes.items()}
             for script, sizes in result.items()} for result in measured.values()]
    if any(h != hits[0] for h in hits):
        print("the source trees returned different hits", file=sys.stderr)
        return 1
    report = {
        "benchmark": "glossary lookup",
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "queries": QUERIES, "k": 5, "context_words": CONTEXT_WORDS, "seed": SEED,
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
