"""What the layer benches in this directory share: their command line, one
process per source tree, trees alternating over repeats, timing helpers, and
the report with its machine block. Standard library only.

A bench whose trees each run once and must return the same hits needs only
its settings and a ``measure()`` that times the ``crat`` on ``sys.path``:

    sys.exit(benchkit.main(__file__, __doc__, "name", {"seed": SEED}, measure))
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable


def parser(doc: str) -> argparse.ArgumentParser:
    """``--side NAME=SRC`` (repeatable), ``--out`` and the hidden ``--measure``,
    which may carry a value; the description is ``doc``'s first line."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--side", action="append", default=[], metavar="NAME=SRC",
                        help="a name and the source tree holding its crat package")
    parser.add_argument("--out", type=Path, help="write the results as JSON here")
    parser.add_argument("--measure", nargs="?", const="", help=argparse.SUPPRESS)
    return parser


def sides(args: argparse.Namespace) -> dict[str, Path]:
    """Each ``--side``'s source tree by name; ``change=src`` when none is given."""
    return {name: Path(src) for name, src in
            (side.split("=", 1) for side in args.side or ["change=src"])}


def measure_in(script: str, src: Path, args: list[str], env: dict | None = None) -> Any:
    """The JSON that ``script`` run with ``args`` prints, in a process of its own
    whose ``PYTHONPATH`` is the tree ``src``, on ``env`` (by default this
    process's environment)."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(src.resolve()))
    done = subprocess.run([sys.executable, script, *args], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def alternate(sides: dict[str, Path], repeats: int, run: Callable[[Path], Any]) -> dict[str, list]:
    """``run`` of each tree, ``repeats`` times, the trees in their given order on
    even repeats and reversed on odd ones; each tree's results in repeat order."""
    runs: dict[str, list] = {name: [] for name in sides}
    for repeat in range(repeats):
        for name in (list(sides) if repeat % 2 == 0 else list(reversed(sides))):
            runs[name].append(run(sides[name]))
    return runs


def median_s(run: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """The median seconds of ``repeats`` calls of ``run``, each after a garbage
    collection, and the last call's result."""
    times = []
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def time_each(run: Callable[[Any], Any], items: Iterable) -> tuple[float, list]:
    """The median milliseconds of ``run`` of one item, and each item's result."""
    times, results = [], []
    for item in items:
        started = time.perf_counter()
        results.append(run(item))
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times), results


def pop_hits(results: dict) -> Any:
    """The ``hits`` of every row under ``results``, popped from the rows and
    nested as the rows are."""
    if "hits" in results:
        return results.pop("hits")
    return {key: pop_hits(row) for key, row in results.items()}


def write_report(args: argparse.Namespace, name: str, settings: dict, results: dict) -> int:
    """Print the report of benchmark ``name``, and write it to ``--out`` if
    given: the machine, ``settings``, the sides and each side's ``results``."""
    report = {
        "benchmark": name,
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        **settings,
        "sides": list(results),
        "results": results,
    }
    text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        args.out.write_text(text, "utf-8")
    print(text, end="")
    return 0


def main(script: str, doc: str, name: str, settings: dict, measure: Callable[[], dict],
         argv: list[str] | None = None) -> int:
    """A bench whose trees each run ``measure`` once, in ``script``'s process
    of their own, and must return the same hits; exit status 1 when they
    do not."""
    args = parser(doc).parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure()))
        return 0
    results = {side: measure_in(script, src, ["--measure"]) for side, src in sides(args).items()}
    hits = [pop_hits(result) for result in results.values()]
    if any(h != hits[0] for h in hits):
        print("the source trees returned different hits", file=sys.stderr)
        return 1
    return write_report(args, name, settings, results)
