"""Count the source lines under ``src/``: non-blank lines of ``*.py`` files
whose first non-space character is not ``#``. Docstrings count, and the
change since a git ref says how much of it is docstring lines (module, class
and function docstrings, found with ``ast``). Standard library and the
``git`` command only.

    python3 tools/src_lines.py              # the total
    python3 tools/src_lines.py --files      # and each file's count
    python3 tools/src_lines.py --base HEAD  # and the change since a git ref
    python3 tools/src_lines.py --root ../other-checkout
"""

from __future__ import annotations

import argparse
import ast
import subprocess
from pathlib import Path


def count_lines(text: str) -> int:
    stripped = (line.strip() for line in text.splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def count(text: str) -> tuple[int, int]:
    """The counted lines of ``text``, and how many of them are docstring lines."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstring.update(range(node.body[0].lineno - 1, node.body[0].end_lineno))
    return count_lines(text), count_lines("\n".join(lines[i] for i in sorted(docstring)))


def tree_counts(root: Path) -> dict[str, tuple[int, int]]:
    """Each ``src/`` file's ``count``, as the files on disk stand."""
    return {str(path.relative_to(root)): count(path.read_text("utf-8"))
            for path in sorted((root / "src").rglob("*.py"))}


def ref_counts(root: Path, ref: str) -> dict[str, tuple[int, int]]:
    """Each ``src/`` file's ``count`` at the git ``ref``, read with ``git show``."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"git {' '.join(args)}: {done.stderr.strip()}")
        return done.stdout
    names = git("ls-tree", "-r", "--name-only", ref, "--", "src").splitlines()
    return {name: count(git("show", f"{ref}:{name}"))
            for name in names if name.endswith(".py")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is counted (default: this one)")
    parser.add_argument("--files", action="store_true", help="also print each file's count")
    parser.add_argument("--base", metavar="REF",
                        help="also count src/ at this git ref and print the change")
    args = parser.parse_args()
    counts = tree_counts(args.root)
    base = ref_counts(args.root, args.base) if args.base else None
    if args.files:
        for name, (n, _) in counts.items():
            change = f"  {n - base.get(name, (0, 0))[0]:+d}" if base is not None else ""
            print(f"{n:6d}  {name}{change}")
        for name in sorted(set(base or ()) - set(counts)):
            print(f"{0:6d}  {name}  {-base[name][0]:+d}")
    total = sum(n for n, _ in counts.values())
    print(total)
    if base is not None:
        base_total = sum(n for n, _ in base.values())
        change = total - base_total
        docstring_change = (sum(d for _, d in counts.values())
                            - sum(d for _, d in base.values()))
        print(f"{base_total} at {args.base}, change {change:+d} "
              f"(docstrings {docstring_change:+d}, code {change - docstring_change:+d})")


if __name__ == "__main__":
    main()
