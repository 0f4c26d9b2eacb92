"""Count the source lines under ``src/``: non-blank lines of ``*.py`` files
whose first non-space character is not ``#``. Docstrings count. Standard
library only.

    python3 tools/src_lines.py            # the total
    python3 tools/src_lines.py --files    # and each file's count
    python3 tools/src_lines.py --root ../other-checkout
"""

from __future__ import annotations

import argparse
from pathlib import Path


def count_lines(path: Path) -> int:
    stripped = (line.strip() for line in path.read_text("utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is counted (default: this one)")
    parser.add_argument("--files", action="store_true", help="also print each file's count")
    args = parser.parse_args()
    counts = {path: count_lines(path) for path in sorted((args.root / "src").rglob("*.py"))}
    if args.files:
        for path, n in counts.items():
            print(f"{n:6d}  {path.relative_to(args.root)}")
    print(sum(counts.values()))


if __name__ == "__main__":
    main()
