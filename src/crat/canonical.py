"""Canonical JSON, the one encoding of run artifacts, reports and hashes:
sorted keys and non-ASCII text kept as is, so equal values encode to equal
bytes."""

from __future__ import annotations

import hashlib
import json


def pretty(value) -> str:
    """Two-space indented text ending in a newline: files and command output."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def compact(value) -> str:
    """One line with no optional whitespace: manifest lines, cache entries and
    hashes."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    """Hex sha256 of the UTF-8 compact form."""
    return hashlib.sha256(compact(value).encode("utf-8")).hexdigest()
