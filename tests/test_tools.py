"""The layer benches in ``tools/``: their shared harness, each bench's
``measure()`` at toy sizes, and one whole run of a bench over two trees."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
sys.path.insert(0, str(TOOLS))

import bench_glossary  # noqa: E402
import bench_index  # noqa: E402
import benchkit  # noqa: E402


def test_bench_index_measure_at_a_toy_size(monkeypatch):
    monkeypatch.setattr(bench_index, "SIZES", (60,))
    monkeypatch.setattr(bench_index, "QUERIES", 4)
    monkeypatch.setattr(bench_index, "VOCABULARY", 200)
    monkeypatch.setattr(bench_index, "REPEATS", 1)
    results = bench_index.measure()
    assert list(results) == ["60"]
    row = results["60"]
    assert list(row) == ["build_s", "save_s", "load_s", "query_ms_p50", "file_mb", "hits"]
    assert len(row["hits"]) == 4
    for hits in row["hits"]:
        assert 1 <= len(hits) <= bench_index.K
        assert all(doc_id.startswith("doc-") and float(score) > 0 for doc_id, score in hits)


def test_bench_glossary_measure_at_a_toy_size(monkeypatch):
    monkeypatch.setattr(bench_glossary, "SIZES", (20,))
    monkeypatch.setattr(bench_glossary, "QUERIES", 3)
    results = bench_glossary.measure()
    assert list(results) == list(bench_glossary.LETTERS)
    for sizes in results.values():
        assert list(sizes) == ["20"]
        row = sizes["20"]
        assert list(row) == ["build_s", "query_ms_p50", "hits"]
        assert len(row["hits"]) == 3
        assert all(hits for hits in row["hits"])  # each query holds a glossary term


def test_alternate_reverses_the_trees_on_every_other_repeat():
    calls = []
    runs = benchkit.alternate({"a": Path("A"), "b": Path("B")}, 3,
                              lambda src: calls.append(str(src)) or len(calls))
    assert calls == ["A", "B", "B", "A", "A", "B"]
    assert runs == {"a": [1, 4, 5], "b": [2, 3, 6]}


def test_pop_hits_keeps_the_nesting_and_leaves_no_hits():
    results = {"ascii": {"10": {"build_s": 1.0, "hits": [["x"]]},
                         "20": {"build_s": 2.0, "hits": [["y"]]}},
               "cjk": {"10": {"build_s": 3.0, "hits": []}}}
    assert benchkit.pop_hits(results) == {"ascii": {"10": [["x"]], "20": [["y"]]},
                                          "cjk": {"10": []}}
    assert results == {"ascii": {"10": {"build_s": 1.0}, "20": {"build_s": 2.0}},
                       "cjk": {"10": {"build_s": 3.0}}}


@pytest.mark.parametrize("sides, expected", [
    ([], {"change": Path("src")}),
    (["a=src", "b=../other/src"], {"a": Path("src"), "b": Path("../other/src")}),
])
def test_sides_default_to_this_tree(sides, expected):
    args = benchkit.parser("bench\n").parse_args([f"--side={side}" for side in sides])
    assert benchkit.sides(args) == expected
    assert args.measure is None


def test_bench_glossary_over_two_trees_writes_its_report(tmp_path):
    # Each tree in a process of its own, at the bench's full sizes: about 3 s.
    out = tmp_path / "report.json"
    done = subprocess.run([sys.executable, str(TOOLS / "bench_glossary.py"), "--side", "a=src",
                           "--side", "b=src", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text("utf-8"))
    assert done.stdout == out.read_text("utf-8")
    assert list(report) == ["benchmark", "machine", "queries", "k", "context_words", "seed",
                            "sides", "results"]
    assert report["sides"] == ["a", "b"]
    assert "hits" not in json.dumps(report["results"])


TOY_MODULE = '''\
import sys


class Box:
    size = 1

    def grow(self, by):
        self.size += by
        return self.size


def sign(x):
    if x < 0:
        return -1
    return 1


def unused():
    return [n * 2
            for n in range(3)]
'''

TOY_TEST = '''\
import threading

from toy import Box, sign


def test_toy():
    assert sign(2) == 1
    worker = threading.Thread(target=lambda: Box().grow(2))
    worker.start()
    worker.join()
'''


def test_line_coverage_lists_the_function_lines_no_test_ran(tmp_path):
    # A toy checkout: ``sign``'s negative branch and all of ``unused`` never
    # run; ``Box.grow`` runs only on a thread of the test's own.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY_MODULE, "utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TEST, "utf-8")
    done = subprocess.run([sys.executable, str(TOOLS / "line_coverage.py"), "--root",
                           str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "src/toy.py: 14, 19-20", "3 line(s) inside functions never ran, besides 0 allowed"]
