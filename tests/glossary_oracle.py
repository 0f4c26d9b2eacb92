"""Brute-force glossary lookup used only as a test oracle.

Runs one whole-word, case-insensitive regex per entry over the query in file
order, the full scan ``crat.retrieval.GlossarySource`` must agree with.
"""

from __future__ import annotations

import re


def glossary_lookup(entries, query: str, k: int) -> list[tuple[str, str, str, str, float]]:
    """The first ``k`` matching entries as (id, title, text, source, score)."""
    if k <= 0:
        return []
    hits = []
    for i, entry in enumerate(entries, start=1):
        pattern = rf"(?<!\w){re.escape(entry.source_term)}(?!\w)"
        if re.search(pattern, query, re.IGNORECASE):
            text = f"{entry.source_term}: {entry.target_term}"
            if entry.note:
                text += f" ({entry.note})"
            hits.append((f"glossary:{i}", entry.source_term, text, "glossary", 1.0))
        if len(hits) >= k:
            break
    return hits
