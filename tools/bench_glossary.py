"""Glossary lookup benchmark: build time and query time by size and script.

For each source tree given, and for 1k, 10k and 50k records of ASCII,
Cyrillic, CJK and accented Latin terms, it times building a
``crat.retrieval.GlossarySource`` and the median of single queries shaped
like the pipeline's (one glossary term in a case variant, with ten words of
context on each side). Each tree is measured once, in its own process, one
size and script at a time (``benchkit.main``), and every tree must return the
same hits. Standard library only.

    python3 tools/bench_glossary.py --side parent=../parent/src --side change=src \\
        --out BENCH_glossary.json
"""

from __future__ import annotations

import random
import sys

import benchkit

SIZES = (1_000, 10_000, 50_000)
QUERIES = 25
K = 5
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
            build_s, source = benchkit.median_s(lambda: GlossarySource(entries), 1)
            query_ms, found = benchkit.time_each(lambda query: source.search(query, K), queries)
            results.setdefault(script, {})[str(size)] = {
                "build_s": round(build_s, 4),
                "query_ms_p50": round(query_ms, 4),
                "hits": [[doc.id for doc in docs] for docs in found],
            }
            del source, entries
    return results


if __name__ == "__main__":
    sys.exit(benchkit.main(__file__, __doc__, "glossary lookup", {
        "queries": QUERIES, "k": K, "context_words": CONTEXT_WORDS, "seed": SEED}, measure))
