"""Canonical JSON, the one encoding of run artifacts, reports and hashes:
sorted keys and non-ASCII text kept as is, so equal values encode to equal
bytes. ``read_text`` and ``jsonl_records``, the one reader of the files crat is
handed and its JSON Lines parser. And ``check``, the one shape check of every
document crat reads: the config, mock scripts, ``graph.json`` and ``result.json``."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Mapping


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


def read_text(path: str | Path, what: str, error: type[Exception]) -> str:
    """The UTF-8 text of the file at ``path``; ``error``, naming ``what`` and
    the path, if it is missing, unreadable or not UTF-8."""
    try:
        return Path(path).read_text("utf-8")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:  # a directory, no permission, not UTF-8
        raise error(f"cannot read {what} {path}: {getattr(err, 'strerror', err)}") from None


def jsonl_records(lines: Iterable[str], origin: str, error: type[Exception],
                  ) -> list[tuple[str, dict]]:
    """Each non-blank line's JSON object, with the ``origin:line`` it came from."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{origin}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise error(f"{where}: malformed JSON: {err.msg}") from None
        if not isinstance(record, dict):
            raise error(f"{where}: expected a JSON object")
        records.append((where, record))
    return records


# --- shapes --------------------------------------------------------------------
#
# A mapping's shape gives each key it may hold the shape of its value and
# whether it is required. A value's shape is a scalar type, a one-item list (a
# list of that shape), a nested mapping's shape, ``{str: shape}`` (any string
# keys, each value of that shape) or its ``Kinds``. Ranges and enumerations
# are for the code that reads the checked value.

REQUIRED, OPTIONAL = True, False
NUMBER = (int, float)


class Kinds(dict):
    """The shapes of one mapping, told apart by its ``kind`` value."""


_TYPE_NAMES = {str: "a string", int: "an integer", NUMBER: "a number", bool: "true or false",
               dict: "a mapping", list: "a list"}


def check(value: Any, shape: Any, where: str, error: type[Exception] = ValueError,
          path: str = "") -> None:
    """Raise ``error`` unless ``value`` has ``shape``; ``where`` names the
    document and ``path`` the value's place in it."""
    at = f"{where}: {path}" if path else where
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise error(f"{at} must be a list")
        for i, item in enumerate(value):
            check(item, shape[0], where, error, f"{path}[{i}]")
    elif isinstance(shape, dict):
        if not isinstance(value, Mapping):
            raise error(f"{at} must be a mapping")
        if isinstance(shape, Kinds):
            kind = value.get("kind")
            if not (isinstance(kind, str) and kind in shape):
                raise error(f"{at}: 'kind' must be one of {', '.join(shape)}, not {kind!r}")
            shape = shape[kind]
        if str in shape:  # {str: shape}: whatever keys the value has, each of that shape
            shape = dict.fromkeys(value, (shape[str], OPTIONAL))
        unknown = sorted(str(key) for key in value if key not in shape)
        if unknown:
            raise error(f"{at}: unknown key(s): {', '.join(unknown)}")
        for key, (key_shape, required) in shape.items():
            if key in value:
                check(value[key], key_shape, where, error, f"{path}.{key}" if path else key)
            elif required:
                raise error(f"{at}: needs {key!r}")
    elif not isinstance(value, shape) or isinstance(value, bool) != (shape is bool):
        raise error(f"{at} must be {_TYPE_NAMES[shape]}")
