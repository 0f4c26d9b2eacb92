"""Count the source lines under ``src/``: non-blank lines of ``*.py`` files
whose first non-space character is not ``#``. Docstrings count. Standard
library and the ``git`` command only.

    python3 tools/src_lines.py              # the total
    python3 tools/src_lines.py --files      # and each file's count
    python3 tools/src_lines.py --base HEAD  # and the change since a git ref
    python3 tools/src_lines.py --root ../other-checkout
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path


def count_lines(text: str) -> int:
    stripped = (line.strip() for line in text.splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def tree_counts(root: Path) -> dict[str, int]:
    """Each ``src/`` file's count, as the files on disk stand."""
    return {str(path.relative_to(root)): count_lines(path.read_text("utf-8"))
            for path in sorted((root / "src").rglob("*.py"))}


def ref_counts(root: Path, ref: str) -> dict[str, int]:
    """Each ``src/`` file's count at the git ``ref``, read with ``git show``."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"git {' '.join(args)}: {done.stderr.strip()}")
        return done.stdout
    names = git("ls-tree", "-r", "--name-only", ref, "--", "src").splitlines()
    return {name: count_lines(git("show", f"{ref}:{name}"))
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
        for name, n in counts.items():
            change = f"  {n - base.get(name, 0):+d}" if base is not None else ""
            print(f"{n:6d}  {name}{change}")
        for name in sorted(set(base or ()) - set(counts)):
            print(f"{0:6d}  {name}  {-base[name]:+d}")
    total = sum(counts.values())
    print(total)
    if base is not None:
        print(f"{sum(base.values())} at {args.base}, change {total - sum(base.values()):+d}")


if __name__ == "__main__":
    main()
