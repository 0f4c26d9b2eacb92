"""CLI: exit codes, file outputs, determinism, the crat/direct contrast over
the scripted demo workspace, and the README's Quick demo run as written."""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import (
    DEMO_CONFIG,
    DEMO_DIR,
    FINANCIAL_BANK,
    FINANCIAL_SOURCE,
    GEOGRAPHIC_SOURCE,
    RIVERBANK,
    copy_demo,
)
from crat.cli import main
from crat.gateway import MockBackend

EN_ZH_ARGS = ["--source-lang", "en", "--target-lang", "zh"]


@pytest.fixture
def demo(tmp_path):
    return copy_demo(tmp_path / "demo")


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def translate(demo, out, *extra) -> int:
    return run_cli("translate", "--config", demo / "config.yaml",
                   "--input", demo / "inputs.jsonl",
                   "--output", out, *EN_ZH_ARGS, *extra)


# --- translate -----------------------------------------------------------------


def test_translate_single_text(demo, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("translate", "--config", demo / "config.yaml",
                   "--text", GEOGRAPHIC_SOURCE, "--doc-id", "geo-1",
                   "--output", out, *EN_ZH_ARGS)
    assert code == 0
    assert (out / "geo-1" / "result.json").is_file()
    assert (out / "geo-1" / "graph.json").is_file()
    assert (out / "geo-1" / "transcript.json").is_file()
    assert (out / "manifest.jsonl").is_file()
    assert "translated 1/1" in capsys.readouterr().out


def test_crat_vs_direct_differ(demo, tmp_path):
    crat_out = tmp_path / "crat"
    direct_out = tmp_path / "direct"
    assert translate(demo, crat_out, "--mode", "crat") == 0
    assert translate(demo, direct_out, "--mode", "direct") == 0
    crat_result = json.loads((crat_out / "geo-1" / "result.json").read_text("utf-8"))
    direct_result = json.loads((direct_out / "geo-1" / "result.json").read_text("utf-8"))
    assert RIVERBANK in crat_result["target_text"]
    assert RIVERBANK not in direct_result["target_text"]
    assert FINANCIAL_BANK in direct_result["target_text"]



def readme_quick_demo() -> list[list[str]]:
    """The commands of the README's Quick demo block, each split as a shell
    splits it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Quick demo", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def test_readme_quick_demo_runs_on_the_committed_demo(tmp_path, monkeypatch, capsys):
    shutil.copytree(DEMO_DIR, tmp_path / "demo", ignore=shutil.ignore_patterns("index.json"))
    monkeypatch.chdir(tmp_path)
    for command in readme_quick_demo():
        assert command[0] == "crat", command
        assert main(command[1:]) == 0, (command, capsys.readouterr().err)
    crat_geo = json.loads((tmp_path / "out-crat" / "geo-1" / "result.json").read_text("utf-8"))
    direct_geo = json.loads(
        (tmp_path / "out-direct" / "geo-1" / "result.json").read_text("utf-8"))
    assert RIVERBANK in crat_geo["target_text"]
    assert FINANCIAL_BANK in direct_geo["target_text"]


@pytest.mark.parametrize("doc_id", [None, "geo-9"])
def test_translate_plain_text_input_is_one_document(demo, tmp_path, capsys, doc_id):
    source = tmp_path / "geo.txt"
    source.write_text(GEOGRAPHIC_SOURCE, "utf-8")
    out = tmp_path / "out"
    extra = ["--doc-id", doc_id] if doc_id else []
    code = run_cli("translate", "--config", demo / "config.yaml", "--input", source,
                   "--output", out, *EN_ZH_ARGS, *extra)
    assert code == 0
    name = doc_id or "geo"
    assert files_under(out) == [name, *(f"{name}/{file}" for file in (
        "graph.json", "result.json", "transcript.json")), "manifest.jsonl"]
    result = json.loads((out / name / "result.json").read_text("utf-8"))
    assert result["source_doc_id"] == name
    assert result["source_text"] == GEOGRAPHIC_SOURCE
    assert RIVERBANK in result["target_text"]
    assert "translated 1/1" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--source-lang", "--target-lang"])
def test_translate_refuses_an_unknown_language_code(demo, tmp_path, capsys, monkeypatch, flag):
    calls = count_provider_calls(monkeypatch)
    langs = {"--source-lang": "en", "--target-lang": "zh", flag: "zz"}
    out = tmp_path / "out"
    code = run_cli("translate", "--config", demo / "config.yaml", "--text", "The bank.",
                   "--output", out, *(part for item in langs.items() for part in item))
    assert code == 1
    assert capsys.readouterr().err == "error: unknown language code 'zz'\n"
    assert calls == []
    assert not out.exists()


def test_translate_missing_input(demo, tmp_path, capsys):
    code = run_cli("translate", "--config", demo / "config.yaml",
                   "--input", tmp_path / "nope.jsonl",
                   "--output", tmp_path / "out", *EN_ZH_ARGS)
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_translate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("backends:\n  registrations: []\n  mystery_key: 1\n")
    code = run_cli("translate", "--config", bad, "--text", "x",
                   "--output", tmp_path / "out", *EN_ZH_ARGS)
    assert code == 1
    assert "mystery_key" in capsys.readouterr().err


def test_translate_output_that_is_a_file_fails_before_any_call(demo, tmp_path, capsys,
                                                               monkeypatch):
    calls = count_provider_calls(monkeypatch)
    out = tmp_path / "out"
    out.write_text("not a directory", "utf-8")
    assert translate(demo, out) == 1
    err = capsys.readouterr().err
    assert calls == []
    assert err.startswith("error: cannot create output directory")
    assert "Traceback" not in err
    assert out.read_text("utf-8") == "not a directory"


# Each case sets one value of the demo config: (path into it, value, the error).
MALFORMED_CONFIGS = {
    "remote source without endpoint": (
        ("retrieval", "sources", 0), {"kind": "remote"}, "retrieval.sources[0]: needs 'endpoint'"),
    "remote source with a data: endpoint": (
        ("retrieval", "sources", 0), {"kind": "remote", "endpoint": "data:,[]"},
        "malformed endpoint URL: 'data:,[]'"),
    "remote source with no host": (
        ("retrieval", "sources", 0), {"kind": "remote", "endpoint": "http://:8080/v1"},
        "malformed endpoint URL: 'http://:8080/v1'"),
    "remote source with a port out of range": (
        ("retrieval", "sources", 0), {"kind": "remote", "endpoint": "http://h:99999/v1"},
        "malformed endpoint URL: 'http://h:99999/v1'"),
    "http backend with only a user": (
        ("backends", "registrations", 0),
        {"id": "det", "kind": "http", "endpoint": "http://user@/v1", "model": "m"},
        "malformed endpoint URL: 'http://user@/v1'"),
    "glossary source without path": (
        ("retrieval", "sources", 0), {"kind": "glossary"}, "retrieval.sources[0]: needs 'path'"),
    "mock script holding a list": (
        ("backends", "registrations", 3, "script_path"), "scripts/bad.json",
        "bad.json must be a mapping"),
    "mock script with a fingerprint rule": (
        ("backends", "registrations", 3, "script_path"), "scripts/fingerprint.json",
        "fingerprint.json: rules[0]: unknown key(s): fingerprint"),
    "list n2": (("retrieval", "n2"), [1], "retrieval.n2 must be an integer"),
    "quoted judge_enabled": (
        ("pipeline", "judge_enabled"), "no", "pipeline.judge_enabled must be true or false"),
    "list id": (
        ("backends", "registrations", 0, "id"), [1],
        "backends.registrations[0].id must be a string"),
    "registrations as a mapping": (
        ("backends", "registrations"), {"det": {"kind": "mock"}},
        "backends.registrations must be a list"),
    "eval section": (("eval",), {"consis_backend": "con"}, "config: unknown key(s): eval"),
}


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_exits_with_one_error_line(demo, tmp_path, capsys, case):
    path, value, error = MALFORMED_CONFIGS[case]
    data = yaml.safe_load((demo / "config.yaml").read_text("utf-8"))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    (demo / "config.yaml").write_text(yaml.safe_dump(data), "utf-8")
    (demo / "scripts" / "bad.json").write_text("[1]\n", "utf-8")
    (demo / "scripts" / "fingerprint.json").write_text(
        '{"rules": [{"fingerprint": "ab", "response": "r"}]}\n', "utf-8")
    commands = {
        "translate": ("--input", demo / "inputs.jsonl", "--output", tmp_path / "out",
                      *EN_ZH_ARGS),
        "evaluate": ("--results", tmp_path / "results", "--corpus", demo / "parallel.jsonl",
                     "--report", tmp_path / "report.json"),
    }
    for command, args in commands.items():
        code = run_cli(command, "--config", demo / "config.yaml", *args)
        err = capsys.readouterr().err
        assert code == 1, command
        assert "Traceback" not in err
        assert err.count("error:") == 1 and err.startswith("error: ") and error in err, err


def test_width_zero_is_refused(demo, tmp_path, capsys):
    assert translate(demo, tmp_path / "out", "--width", "0") == 1
    assert capsys.readouterr().err == "error: width must be >= 1\n"


def test_evaluate_reads_the_consis_role(demo, tmp_path, capsys):
    assert "eval" not in DEMO_CONFIG
    assert DEMO_CONFIG["backends"]["roles"]["consis"] == "con"
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", tmp_path / "report.json")
    assert code == 0
    assert "consis: 85.000\n" in capsys.readouterr().out


def test_translate_missing_index_file(demo, tmp_path, capsys):
    (demo / "index.json").unlink()
    code = run_cli("translate", "--config", demo / "config.yaml",
                   "--text", "x", "--output", tmp_path / "out", *EN_ZH_ARGS)
    assert code == 1
    assert "index file not found" in capsys.readouterr().err


# Files crat is handed that ended in a traceback, or in an error naming no
# file: (the file in the demo workspace, how it is spoiled, the error).
UNREADABLE_INPUTS = {
    "config a directory": ("config.yaml", "directory", "cannot read config file"),
    "glossary a directory": ("glossary.tsv", "directory", "cannot read glossary file"),
    "index a directory": ("index.json", "directory", "cannot read index file"),
    "mock script a directory": ("scripts/judge.json", "directory", "cannot read mock script"),
    "glossary not UTF-8": ("glossary.tsv", "latin-1", "cannot read glossary file"),
    "input not UTF-8": ("inputs.jsonl", "latin-1", "cannot read input file"),
    "parallel corpus not UTF-8": ("parallel.jsonl", "latin-1", "cannot read parallel corpus"),
    "index corpus not UTF-8": ("corpus.jsonl", "latin-1", "cannot read corpus file"),
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_unreadable_input_file_is_one_error_line(demo, tmp_path, capsys, case):
    name, spoil, message = UNREADABLE_INPUTS[case]
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()
    path = demo / name
    if spoil == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes("caf\u00e9\n".encode("latin-1") + path.read_bytes())
    if name == "parallel.jsonl":
        code = run_cli("evaluate", "--results", out, "--corpus", path,
                       "--config", demo / "config.yaml", "--report", tmp_path / "r.json")
    elif name == "corpus.jsonl":
        code = run_cli("build-index", "--corpus", path, "--output", tmp_path / "i.json")
    else:
        code = translate(demo, tmp_path / "again")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message} {path}: ") and err.count("\n") == 1, err
    assert ("Is a directory" if spoil == "directory" else "can't decode") in err


def test_translate_partial_batch_failure(demo, tmp_path, capsys):
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text(
        json.dumps({"id": "ok-1", "text": FINANCIAL_SOURCE}) + "\n"
        + json.dumps({"id": "bad-1", "text": "   "}) + "\n")
    code = run_cli("translate", "--config", demo / "config.yaml",
                   "--input", corpus, "--output", tmp_path / "out", *EN_ZH_ARGS)
    assert code == 2
    err = capsys.readouterr().err
    assert "bad-1" in err


def test_translate_total_failure_is_fatal(demo, tmp_path):
    corpus = tmp_path / "allbad.jsonl"
    corpus.write_text(json.dumps({"id": "bad-1", "text": " "}) + "\n")
    code = run_cli("translate", "--config", demo / "config.yaml",
                   "--input", corpus, "--output", tmp_path / "out", *EN_ZH_ARGS)
    assert code == 1


def test_translate_malformed_corpus_line(demo, tmp_path, capsys):
    corpus = tmp_path / "broken.jsonl"
    corpus.write_text('{"id": "a", "text": "fine"}\n{oops\n')
    code = run_cli("translate", "--config", demo / "config.yaml",
                   "--input", corpus, "--output", tmp_path / "out", *EN_ZH_ARGS)
    assert code == 1
    assert ":2" in capsys.readouterr().err


def test_cli_determinism(demo, tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert translate(demo, out1, "--no-cache") == 0
    assert translate(demo, out2, "--no-cache") == 0
    for doc_id in ("geo-1", "fin-1"):
        for name in ("result.json", "graph.json", "transcript.json"):
            assert ((out1 / doc_id / name).read_bytes()
                    == (out2 / doc_id / name).read_bytes())


def test_config_hash_does_not_depend_on_the_workspace_directory(tmp_path):
    def run_hash(root, glossary="glossary.tsv"):
        copy_demo(root)
        (root / "glossary.tsv").rename(root / glossary)
        config = yaml.safe_load((root / "config.yaml").read_text("utf-8"))
        config["retrieval"]["sources"][0]["path"] = glossary
        (root / "config.yaml").write_text(yaml.safe_dump(config), "utf-8")
        out = root / "out"
        assert translate(root, out, "--no-cache") == 0
        header = json.loads((out / "manifest.jsonl").read_text("utf-8").splitlines()[0])
        return header["config_hash"]

    here = run_hash(tmp_path / "one" / "demo")
    assert len(here) == 64
    assert run_hash(tmp_path / "two" / "elsewhere") == here
    assert run_hash(tmp_path / "three", glossary="terms.tsv") != here


def count_provider_calls(monkeypatch) -> list:
    """The requests every mock backend answers from now on, in a list."""
    calls = []
    generate = MockBackend.generate
    monkeypatch.setattr(MockBackend, "generate", lambda self, request, on_sent=None:
                        calls.append(request) or generate(self, request, on_sent))
    return calls


def files_under(directory: Path) -> list[str]:
    return sorted(str(path.relative_to(directory)) for path in directory.rglob("*"))


def translate_corpus(demo, tmp_path, records) -> tuple[int, Path]:
    """``translate --mode direct`` of ``records`` into ``work/out``; the exit
    code and the ``work`` directory, which holds nothing but ``out``."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(record) + "\n" for record in records), "utf-8")
    work = tmp_path / "work"
    work.mkdir()
    code = run_cli("translate", "--config", demo / "config.yaml", "--input", corpus,
                   "--output", work / "out", "--mode", "direct", *EN_ZH_ARGS)
    return code, work


def test_translate_all_dot_ids_stay_under_output(demo, tmp_path, capsys):
    records = [{"id": doc_id, "text": GEOGRAPHIC_SOURCE}
               for doc_id in (".", "..", "...")]
    code, work = translate_corpus(demo, tmp_path, records)
    assert code == 0
    assert "translated 3/3" in capsys.readouterr().out
    assert [path.name for path in work.iterdir()] == ["out"]
    names = ("_", "__", "___")
    assert files_under(work / "out") == sorted(
        ["manifest.jsonl", *names] + [f"{name}/{file}" for name in names for file in
                                      ("graph.json", "result.json", "transcript.json")])
    for name, doc_id in zip(names, (".", "..", "...")):
        result = json.loads((work / "out" / name / "result.json").read_text("utf-8"))
        assert result["source_doc_id"] == doc_id


@pytest.mark.parametrize("ids, message", [
    (["a/b", "c", "a_b"], "documents 'a/b' and 'a_b' would share the output directory 'a_b'"),
    (["doc-0001", None], "documents 'doc-0001' and 'doc-0001' would share"),
    (["__", ".."], "documents '__' and '..' would share the output directory '__'"),
], ids=["slash and underscore", "default id", "all dots"])
def test_translate_refuses_ids_that_share_a_directory(demo, tmp_path, capsys, monkeypatch,
                                                      ids, message):
    calls = count_provider_calls(monkeypatch)
    records = [{"text": GEOGRAPHIC_SOURCE} if doc_id is None
               else {"id": doc_id, "text": GEOGRAPHIC_SOURCE} for doc_id in ids]
    code, work = translate_corpus(demo, tmp_path, records)
    captured = capsys.readouterr()
    assert code == 1
    assert calls == []
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert files_under(work) == ["out"]


# --- build-index ---------------------------------------------------------------


def test_build_index_counts(demo, tmp_path, capsys):
    out = tmp_path / "index.json"
    code = run_cli("build-index", "--corpus", demo / "corpus.jsonl", "--output", out)
    assert code == 0
    assert out.is_file()
    assert "indexed 3 document(s)" in capsys.readouterr().out


def test_build_index_empty_corpus_warns(tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    code = run_cli("build-index", "--corpus", corpus, "--output", tmp_path / "i.json")
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "indexed 0 document(s)" in captured.out


def test_build_index_malformed_line(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text('{"id": "a", "text": "x"}\nnot json\n')
    code = run_cli("build-index", "--corpus", corpus, "--output", tmp_path / "i.json")
    assert code == 1
    assert ":2" in capsys.readouterr().err


def test_build_index_record_without_id(tmp_path, capsys):
    corpus = tmp_path / "noid.jsonl"
    corpus.write_text('{"id": "a", "text": "x"}\n{"text": "no id"}\n')
    code = run_cli("build-index", "--corpus", corpus, "--output", tmp_path / "i.json")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{corpus}:2" in err and "'id'" in err
    assert "Traceback" not in err


# --- evaluate -----------------------------------------------------------------


def test_evaluate_single_results_dir(demo, tmp_path, capsys):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    report_path = tmp_path / "report.json"
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", report_path)
    assert code == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert report["candidate"]["bleu"] == 100.0
    assert report["candidate"]["consis"] == 85.0
    assert report["candidate"]["term_consistency"] == 1.0
    assert "bleu: 100.000" in capsys.readouterr().out


def test_evaluate_comparison(demo, tmp_path, capsys):
    crat_out, direct_out = tmp_path / "crat", tmp_path / "direct"
    assert translate(demo, crat_out, "--mode", "crat") == 0
    assert translate(demo, direct_out, "--mode", "direct") == 0
    report_path = tmp_path / "report.json"
    code = run_cli("evaluate", "--results", crat_out, "--baseline", direct_out,
                   "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", report_path)
    assert code == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert report["candidate"]["bleu"] == 100.0
    assert report["baseline"]["bleu"] < 100.0
    rows = {r["metric"]: r for r in report["comparison"]["rows"]}
    assert rows["bleu"]["delta"] > 0
    out = capsys.readouterr().out
    assert "metric" in out and "delta" in out


def test_evaluate_report_under_a_file_fails_before_grading(demo, tmp_path, capsys,
                                                          monkeypatch):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()
    calls = count_provider_calls(monkeypatch)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", "utf-8")
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", blocker / "report.json")
    captured = capsys.readouterr()
    assert code == 1
    assert calls == []
    assert captured.out == ""
    assert captured.err.startswith("error: cannot create report directory")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert blocker.read_text("utf-8") == "not a directory"


def test_evaluate_unwritable_report_is_one_error_line(demo, tmp_path, capsys):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    report_path.mkdir()
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", report_path)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write report {report_path}")
    assert captured.err.count("\n") == 1


def test_evaluate_report_write_that_fails_after_grading_is_one_error_line(demo, tmp_path, capsys):
    # A link into a directory that does not exist passes the early checks,
    # and the write itself fails.
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    report_path.symlink_to(tmp_path / "missing" / "report.json")
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", report_path)
    captured = capsys.readouterr()
    assert code == 1
    assert "bleu:" in captured.out
    assert captured.err.startswith(f"error: cannot write report {report_path}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_evaluate_report_naming_a_directory_fails_before_grading(demo, tmp_path, capsys,
                                                                  monkeypatch):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()
    calls = count_provider_calls(monkeypatch)
    report_path = tmp_path / "report.json"
    report_path.mkdir()
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", report_path)
    captured = capsys.readouterr()
    assert code == 1
    assert calls == []
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report {report_path}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert list(report_path.iterdir()) == []


def test_evaluate_empty_results_dir(demo, tmp_path, capsys):
    empty = tmp_path / "results"
    empty.mkdir()
    code = run_cli("evaluate", "--results", empty, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", tmp_path / "r.json")
    assert code == 1
    assert "no results" in capsys.readouterr().err


def test_evaluate_id_mismatch_lists_ids(demo, tmp_path, capsys):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    corpus = tmp_path / "other.jsonl"
    corpus.write_text(json.dumps({
        "id": "stranger", "source_text": "x", "reference_text": "y",
        "source_lang": "en", "target_lang": "zh"}) + "\n")
    code = run_cli("evaluate", "--results", out, "--corpus", corpus,
                   "--config", demo / "config.yaml", "--report", tmp_path / "r.json")
    assert code == 1
    assert "stranger" in capsys.readouterr().err


def test_evaluate_external_scores(demo, tmp_path):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"id": "geo-1", "score": 0.9}) + "\n"
                      + json.dumps({"id": "fin-1", "score": 0.7}) + "\n")
    report_path = tmp_path / "report.json"
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", report_path,
                   "--external-scores", scores)
    assert code == 0
    report = json.loads(report_path.read_text("utf-8"))
    assert report["candidate"]["external_score"] == pytest.approx(0.8)


def test_evaluate_external_scores_missing_file(demo, tmp_path, capsys):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()  # discard translate output
    scores = tmp_path / "nope.jsonl"
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", tmp_path / "r.json",
                   "--external-scores", scores)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(scores) in err and "not found" in err


def test_evaluate_external_scores_record_without_score(demo, tmp_path, capsys):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()  # discard translate output
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"id": "geo-1", "score": 0.9}) + "\n"
                      + json.dumps({"id": "fin-1"}) + "\n")
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", tmp_path / "r.json",
                   "--external-scores", scores)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{scores}:2" in err and "'score'" in err


@pytest.mark.parametrize("score", ["high", True, None])
def test_evaluate_external_score_that_is_not_a_number(demo, tmp_path, capsys, score):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()  # discard translate output
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"id": "geo-1", "score": 0.9}) + "\n"
                      + json.dumps({"id": "fin-1", "score": score}) + "\n")
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", tmp_path / "r.json",
                   "--external-scores", scores)
    assert code == 1
    assert capsys.readouterr().err == f"error: {scores}:2: score must be a number\n"


def rewrite_json(path: Path, edit) -> None:
    path.write_text(json.dumps(edit(json.loads(path.read_text("utf-8")))), "utf-8")


def subject_five(graph: dict) -> dict:
    graph["triples"][0]["subject"] = 5
    return graph


# Files that ended `crat evaluate` in a traceback, and the error each gives.
UNREADABLE_FILES = {
    "graph subject 5": ("graph.json", subject_five,
                        "graph: triples[0].subject must be a string"),
    "graph version 2": ("graph.json", lambda g: {**g, "version": 2, "extra": 1},
                        "unsupported graph format version: 2"),
    "node key not its surface": ("graph.json", lambda g: g["nodes"]["bank"].update(
        surface="Scotia") or g, "graph: nodes.bank has the surface 'Scotia'"),
    "repeated triple": ("graph.json", lambda g: g["triples"].insert(1, g["triples"][0]) or g,
                        "graph: triples[1] repeats triples[0]"),
    "repeated term key": ("graph.json", lambda g: g["triples"][0]["term_keys"].append(
        "Scotia") or g, "graph: triples[0].term_keys repeats a key"),
    "renderings list": ("result.json", lambda r: {**r, "term_renderings": []},
                        "result: term_renderings must be a mapping"),
    "result array": ("result.json", lambda r: [r], "result must be a mapping"),
    "result version 7": ("result.json", lambda r: {**r, "format_version": 7},
                         "unsupported result format version: 7"),
    "result version 1": ("result.json", lambda r: {**r, "format_version": 1},
                         "unsupported result format version: 1"),
}


@pytest.mark.parametrize("case", UNREADABLE_FILES)
def test_evaluate_unreadable_file_is_one_error_line(demo, tmp_path, capsys, case):
    name, edit, message = UNREADABLE_FILES[case]
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    path = out / "geo-1" / name
    rewrite_json(path, edit)
    capsys.readouterr()
    code = run_cli("evaluate", "--results", out, "--corpus", demo / "parallel.jsonl",
                   "--config", demo / "config.yaml", "--report", tmp_path / "r.json")
    assert code == 1
    assert capsys.readouterr().err == f"error: unreadable {path.stem} file {path}: {message}\n"


# --- inspect-kg ---------------------------------------------------------------


def test_inspect_kg_filtered(demo, tmp_path, capsys):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()  # discard translate output
    code = run_cli("inspect-kg", "--transcript", out / "fin-1", "--term", "Scotia")
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["term"] == "Scotia"
    assert all("Scotia" in t["term_keys"] for t in printed["triples"])
    spo = [(t["subject"], t["relation"], t["object"]) for t in printed["triples"]]
    assert ("Scotia", "is a", "bank") in spo


def test_inspect_kg_whole_graph(demo, tmp_path, capsys):
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    capsys.readouterr()  # discard translate output
    code = run_cli("inspect-kg", "--transcript", out / "geo-1")
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed["nodes"]) == {"bank", "Scotia"}
    assert printed["accepted_docs"] == ["d-scotiasea"]


def test_inspect_kg_unknown_dir(tmp_path, capsys):
    code = run_cli("inspect-kg", "--transcript", tmp_path / "missing")
    assert code == 1
    assert "no graph file" in capsys.readouterr().err


@pytest.mark.parametrize("case", [case for case in UNREADABLE_FILES if case.startswith(
    ("graph", "node", "repeated"))])
def test_inspect_kg_malformed_graph_is_one_error_line(demo, tmp_path, capsys, case):
    _, edit, message = UNREADABLE_FILES[case]
    out = tmp_path / "out"
    assert translate(demo, out) == 0
    path = out / "geo-1" / "graph.json"
    rewrite_json(path, edit)
    capsys.readouterr()
    assert run_cli("inspect-kg", "--transcript", out / "geo-1") == 1
    assert capsys.readouterr().err == f"error: unreadable graph file {path}: {message}\n"


def test_cli_imports_no_third_party_http_client():
    # The HTTP transport is the standard library's; importing the CLI in a
    # fresh interpreter must not pull requests or urllib3 back in.
    probe = "import sys, crat.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
