"""List the lines inside ``src/`` functions that the test suite never runs.

Runs the tier-1 suite (``pytest`` over the checkout) in this process with a
line tracer installed by ``sys.settrace`` and ``threading.settrace``, then
prints, for each ``src/`` file, the executable lines of its functions,
lambdas and comprehensions that no test ran, and the total. Module and
class bodies are left out, as they run on import. Code that tests run only
in a child process is not seen. ``ALLOWED`` names the lines that cannot run
on this kind of machine; they are listed but not counted. Tracing about
doubles the suite's time, so the suite itself does not enforce coverage.
Standard library only, besides the ``pytest`` the suite runs on.

    python3 tools/line_coverage.py
    python3 tools/line_coverage.py --root ../other-checkout
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

# Lines no test can reach here, by file and line, with the reason.
ALLOWED = {
    "src/crat/retrieval.py": dict.fromkeys((186, 187, 198), "big-endian machines only"),
}


def function_lines(code: CodeType) -> set[int]:
    """The lines of every function code object nested in ``code``, a
    compiled module, less each one's first line (its ``def``)."""
    lines: set[int] = set()
    stack = [const for const in code.co_consts if isinstance(const, CodeType)]
    while stack:
        inner = stack.pop()
        stack.extend(const for const in inner.co_consts if isinstance(const, CodeType))
        if inner.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
            lines.update(line for _, _, line in inner.co_lines()
                         if line is not None and line != inner.co_firstlineno)
    return lines


def group(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(root: Path) -> tuple[int, dict[str, set[int]]]:
    """Run pytest over ``root`` and return its exit code and the lines that
    ran in each ``src/`` file, by absolute path."""
    import pytest

    src = str(root / "src") + os.sep
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(src):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                             os.environ.get("PYTHONPATH")]))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(root)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose tests run and whose src/ is traced "
                             "(default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    code, ran = run_traced(root)
    total = allowed = 0
    print()
    for path in sorted((root / "src").rglob("*.py")):
        name = path.relative_to(root).as_posix()
        compiled = compile(path.read_text("utf-8"), str(path), "exec")
        missed = sorted(function_lines(compiled) - ran.get(str(path), set()))
        excused = [line for line in missed if line in ALLOWED.get(name, {})]
        total += len(missed) - len(excused)
        allowed += len(excused)
        if missed:
            note = f"  (allowed: {group(excused)})" if excused else ""
            print(f"{name}: {group(missed)}{note}")
    print(f"{total} line(s) inside functions never ran, besides {allowed} allowed")
    if code:
        print(f"pytest exited with {code}: the count covers a partial run", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
