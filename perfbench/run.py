"""End-to-end benchmark of crat over a scripted loopback chat provider.

Run from the root of a checkout:

    python3 perfbench/run.py --workload judge_fanout --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25     # every workload, one process each
    python3 perfbench/run.py --quick                   # every workload, small, all checks

One workload run generates its inputs from ``--seed``, starts the stub
provider (``stub.py``) as a separate process, points crat at it with a
``kind: http`` backend, and translates the batch through the calls
``crat translate`` makes, in whole rounds, until ``--seconds`` have passed.
Every round's outputs are checked against the synthetic world
(``world.py``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run. The exit code is 0 when every check passed, 1 when one failed,
and 2 when the benchmark could not run at all. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import world  # noqa: E402
from world import Shape  # noqa: E402

LANG_PAIR = ("en", "zh")

WORKLOADS = {
    "judge_fanout": Shape(
        mode="crat", batch_docs=6, width=1, latency_ms=30.0, terms_per_doc=3,
        vocabulary=48, glossary_extra=252, term_doc_suffixes=("0", "1", "2"),
        distractor_docs=156, k_per_source=3, n2=4),
    "large_sources": Shape(
        mode="crat", batch_docs=4, width=1, latency_ms=100.0, terms_per_doc=1,
        vocabulary=1000, term_doc_suffixes=("1",), distractor_docs=3000,
        k_per_source=2, n2=2),
    "direct_repeats": Shape(
        mode="direct", batch_docs=80, width=1, latency_ms=80.0,
        repeat_distance=20, repeat_every=4),
}
QUICK = {
    "judge_fanout": Shape(
        mode="crat", batch_docs=4, width=2, latency_ms=2.0, terms_per_doc=3,
        vocabulary=12, glossary_extra=20, term_doc_suffixes=("0", "1", "2"),
        distractor_docs=20, k_per_source=3, n2=4),
    "large_sources": Shape(
        mode="crat", batch_docs=3, width=2, latency_ms=2.0, terms_per_doc=1,
        vocabulary=600, term_doc_suffixes=("1",), distractor_docs=100,
        k_per_source=2, n2=2),
    "direct_repeats": Shape(
        mode="direct", batch_docs=16, width=2, latency_ms=2.0,
        repeat_distance=8, repeat_every=4),
}
# doc_ms_tail's percentile per workload: the highest of 50/75/90/95/99 with at
# least ten documents beyond it, given the documents a run translates. A run
# keeps adding rounds past --seconds until it has that many documents.
TAIL_PERCENTILE = {"judge_fanout": 75, "large_sources": 75, "direct_repeats": 95}
SETUPS = {"judge_fanout": 15, "large_sources": 9, "direct_repeats": 31}

END_TO_END = {  # name -> unit
    "docs_per_s": "doc/s",
    "doc_ms_p50": "ms",
    "doc_ms_tail": "ms",
    "provider_calls_per_doc": "calls",
    "prompt_kchars_per_doc": "kchar",
    "artifact_kb_per_doc": "KB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def _load_crat():
    """Import crat from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "crat" / "__init__.py").is_file():
        raise BenchError(f"no crat sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import crat  # noqa: F401
    from crat import config, pipeline, retrieval
    if Path(crat.__file__).resolve().parent != (src / "crat").resolve():
        raise BenchError(f"imported crat from {crat.__file__}, not from {src}")
    return config, pipeline, retrieval


# --- the stub provider ---------------------------------------------------------


class Stub:
    """The stub provider process; see stub.py."""

    def __init__(self, script: Path):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py"), str(script)],
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise BenchError("stub provider did not start")
        self.url = f"http://127.0.0.1:{int(line)}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.url + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", data=b"{}")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- inputs on disk --------------------------------------------------------------


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), "utf-8")


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def write_inputs(work: Path, w: world.World) -> Path:
    """Batch, corpus, glossary and the stub's script; returns the script path."""
    _write_jsonl(work / "inputs.jsonl", w.docs)
    if w.shape.mode == "crat":
        _write_jsonl(work / "corpus.jsonl", w.corpus)
        (work / "glossary.tsv").write_text("\n".join(w.glossary_lines) + "\n", "utf-8")
    script = work / "script.json"
    script.write_text(json.dumps({"latency_ms": w.shape.latency_ms,
                                  "vocabulary": w.vocabulary}), "utf-8")
    return script


def write_config(work: Path, shape: Shape, stub_url: str) -> None:
    """The run's YAML, as a user would point crat at a remote provider."""
    roles = ("detector", "extractor", "judge", "translator")
    lines = [
        "backends:",
        "  registrations:",
        "    - id: provider",
        "      kind: http",
        f"      endpoint: {stub_url}/v1/chat/completions",
        "      model: perfbench-stub",
        "      timeout_s: 30",
        "  roles:",
        *[f"    {role}: provider" for role in roles],
        "retrieval:",
        f"  n2: {shape.n2}",
        f"  k_per_source: {shape.k_per_source}",
    ]
    if shape.mode == "crat":
        lines += ["  sources:",
                  "    - {kind: glossary, path: glossary.tsv}",
                  "    - {kind: local_index, path: index.json}"]
    lines += ["pipeline:",
              f"  width: {shape.width}",
              "  cache_dir: cache",
              "  on_detector_error: fail"]
    (work / "config.yaml").write_text("\n".join(lines) + "\n", "utf-8")


# --- one workload run ------------------------------------------------------------


@dataclass
class Totals:
    """Sums over the measured rounds; a run's untimed warm-up round only adds
    to ``unmeasured_docs``, ``unmeasured_failed`` and ``errors``."""

    docs: int = 0
    failed: int = 0
    unmeasured_docs: int = 0
    unmeasured_failed: int = 0
    round_wall_s: list[float] = field(default_factory=list)
    round_cpu_s: list[float] = field(default_factory=list)
    provider_calls: int = 0
    connections: int = 0
    prompt_chars: int = 0
    artifact_bytes: int = 0
    doc_ms: list[float] = field(default_factory=list)
    stub_calls: list[list] = field(default_factory=list)  # one list per round
    file_bytes: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def add_warmup(self, warm: "Totals") -> None:
        self.unmeasured_docs += warm.docs
        self.unmeasured_failed += warm.failed
        self.errors += warm.errors


def _user_cpu_s() -> float:
    """User-mode CPU time of this process, all threads: the part that runs
    Python and so holds the interpreter lock. Kernel time is left out; on a
    virtual disk it swung threefold between runs of the same code. Linux
    may split user from kernel time by timer-tick samples, so callers sum
    it over a whole run rather than compare single rounds."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class DocTimer:
    """Wall time of each ``run_pipeline`` call that ``run_batch`` makes."""

    def __init__(self, pipeline_module):
        self.ms: list[float] = []
        original = pipeline_module.run_pipeline

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.ms.append((time.perf_counter() - started) * 1000.0)

        pipeline_module.run_pipeline = timed


class Runner:
    def __init__(self, name: str, shape: Shape, seed: int, work: Path):
        self.name = name
        self.shape = shape
        self.work = work
        self.world = world.generate(shape, seed)
        self.config, self.pipeline, self.retrieval = _load_crat()
        self.timer = DocTimer(self.pipeline)
        self.stub: Stub | None = None
        self.rounds_run = 0
        self.ready = None  # (corpus, gateway, pipeline config) of the last set-up
        self.setup_s: list[float] = []

    def set_up(self):
        """From config, corpus and glossary on disk to a pipeline ready to
        translate: ``crat build-index`` then ``crat translate``'s set-up."""
        work, retrieval = self.work, self.retrieval
        if self.shape.mode == "crat":
            index = retrieval.build_index(_read_jsonl(work / "corpus.jsonl"))
            retrieval.save_index(index, work / "index.json")
        config = self.config.load_run_config(work / "config.yaml")
        corpus = _read_jsonl(work / "inputs.jsonl")
        gateway = self.config.build_gateway(config)
        sources = self.config.build_sources(config) if self.shape.mode == "crat" else []
        pipeline_config = self.config.build_pipeline_config(config, sources, mode=self.shape.mode)
        return corpus, gateway, pipeline_config

    def timed_setup(self) -> None:
        """Set up once, timed, from a quiet file system; the new pipeline
        replaces the one the rounds use. The previous index file is moved
        aside rather than overwritten (see ``run_round``)."""
        self.ready = None  # drop the previous set-up before building the next
        index = self.work / "index.json"
        if index.exists():
            index.rename(self.work / f"index-{len(self.setup_s)}.json")
        os.sync()
        started = time.perf_counter()
        self.ready = self.set_up()
        self.setup_s.append(time.perf_counter() - started)
        os.sync()

    def run_round(self, totals: Totals) -> str:
        """Translate the batch once with an empty cache; check it; return a
        digest of the canonical per-document files.

        The round's output and cache directories are moved aside, not
        deleted, until the run ends, and the round ends with ``os.sync``.
        Without both, one round's deletions and deferred writeback landed in
        a later round's time, and the same code's kernel CPU per round
        swung threefold.
        """
        corpus, gateway, pipeline_config = self.ready
        out, cache = self.work / "out", self.work / "cache"
        self.stub.reset()
        self.timer.ms.clear()

        started, cpu_started = time.perf_counter(), _user_cpu_s()
        results, manifest = self.pipeline.run_batch(corpus, LANG_PAIR, pipeline_config, gateway)
        out.mkdir(parents=True)
        for result in results:
            self.pipeline.write_transcript(result, out)
        (out / "manifest.jsonl").write_text(manifest.to_jsonl(), "utf-8")
        totals.round_wall_s.append(time.perf_counter() - started)
        totals.round_cpu_s.append(_user_cpu_s() - cpu_started)

        stats = self.stub.stats()
        totals.docs += len(corpus)
        totals.provider_calls += stats["requests"]
        totals.connections += stats["connections"]
        totals.prompt_chars += stats["prompt_chars"]
        totals.stub_calls.append(stats["calls"])
        totals.doc_ms += self.timer.ms
        if len(self.timer.ms) != len(corpus):
            totals.errors.append(f"timed {len(self.timer.ms)} of {len(corpus)} documents")
        digest = hashlib.sha256()
        for path in sorted(out.rglob("*")):
            if path.is_file():
                size = path.stat().st_size
                totals.artifact_bytes += size
                if path.parent != out:  # per-document files; the manifest has timings
                    totals.file_bytes[path.name] = totals.file_bytes.get(path.name, 0) + size
                    digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        totals.failed += check_round(self.world, out, manifest.records, stats, totals.errors)
        spent = self.work / "spent" / str(self.rounds_run)
        spent.mkdir(parents=True)
        out.rename(spent / "out")
        if cache.exists():
            cache.rename(spent / "cache")
        self.rounds_run += 1
        os.sync()
        return digest.hexdigest()

    def rounds(self, totals: Totals, seconds: float, min_docs: int,
               reference: str | None = None, setups: int = 0) -> None:
        """Measured rounds until ``seconds`` have passed and ``min_docs``
        documents are done. The run's set-ups, ``setups`` in all, are spread
        evenly over that time, so their median speaks for the whole run and
        not for its first seconds; any left over run after the last round."""
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            due = 1 + int((setups - 1) * min(1.0, elapsed / seconds)) if seconds > 0 else 0
            while len(self.setup_s) < min(due, setups):
                self.timed_setup()
            digest = self.run_round(totals)
            if reference is not None and digest != reference:
                totals.errors.append(
                    "traced round's canonical files differ from the untraced round's")
            if time.perf_counter() - started >= seconds and totals.docs >= min_docs:
                break
        while len(self.setup_s) < setups:
            self.timed_setup()


def check_round(w: world.World, out: Path, records: list[dict], stats: dict,
                errors: list[str]) -> int:
    """Check one round's outputs against the synthetic world; returns the
    number of failed documents and appends every failed check to ``errors``."""
    status = {r["doc_id"]: r["status"] for r in records}
    failed = 0
    for doc in w.docs:
        doc_id, text = doc["id"], doc["text"]
        if status.get(doc_id) != "ok":
            failed += 1
            continue
        try:
            result = json.loads((out / doc_id / "result.json").read_text("utf-8"))
            graph = json.loads((out / doc_id / "graph.json").read_text("utf-8"))
        except (OSError, ValueError) as err:
            errors.append(f"{doc_id}: unreadable output: {err}")
            continue
        target = result["target_text"]
        admitted = w.expected_admitted(text)
        want_renderings = sorted(world.rendering(t, d) for t, d in admitted)
        if target.split()[:2] != world.translation(text, []).split():
            errors.append(f"{doc_id}: target text is not this document's translation")
        if sorted(world.renderings_in(target)) != want_renderings:
            errors.append(f"{doc_id}: target renderings {world.renderings_in(target)} "
                          f"!= admitted {want_renderings}")
        if set(graph["accepted_docs"]) != {d for _, d in admitted}:
            errors.append(f"{doc_id}: admitted {graph['accepted_docs']} != judged CORRECT "
                          f"{sorted(d for _, d in admitted)}")
        for triple in graph["triples"]:
            cited = triple["provenance"].get("doc_id")
            if triple["provenance"]["kind"] == "external" and cited not in graph["accepted_docs"]:
                errors.append(f"{doc_id}: external triple cites unadmitted {cited!r}")
    if failed:
        return failed  # partial rounds leave the provider counts undefined

    texts = {doc["text"] for doc in w.docs}
    calls_by_key: dict[str, int] = {}
    judged_by_key: dict[str, set[str]] = {}
    for _agent, key, _start, _end, doc_id in stats["calls"]:
        calls_by_key[key] = calls_by_key.get(key, 0) + 1
        if doc_id:
            judged_by_key.setdefault(key, set()).add(doc_id)
    for text in texts:
        key = world.source_key(text)
        want = w.expected_calls(text)
        if calls_by_key.get(key, 0) != want:
            errors.append(f"document {key}: {calls_by_key.get(key, 0)} provider calls, "
                          f"script implies {want}")
        want_judged = {d for t in world.terms_in(text, w.vocabulary) for d in w.retrieved(t)}
        if judged_by_key.get(key, set()) != want_judged:
            errors.append(f"document {key}: judged {sorted(judged_by_key.get(key, ()))}, "
                          f"retrieval should give {sorted(want_judged)}")
    if stats["requests"] != sum(w.expected_calls(t) for t in texts):
        errors.append(f"{stats['requests']} provider calls for {len(texts)} distinct texts")
    return 0


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    shape = (QUICK if quick else WORKLOADS)[name]
    work = OUT_DIR / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(name, shape, seed, work)
        script = write_inputs(work, runner.world)
        runner.stub = Stub(script)
        # Quick mode: one set-up and one measured round.
        setups = 1 if quick else SETUPS[name]
        min_docs = 0 if quick else 10 * 100 // (100 - TAIL_PERCENTILE[name])
        seconds = 0 if quick else seconds
        try:
            write_config(work, shape, runner.stub.url)
            if trace:
                return traced_run(runner, seed, setups, seconds, min_docs)
            return untraced_run(runner, setups, seconds, min_docs)
        finally:
            runner.stub.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # so this run's deletions do not slow the next run


def untraced_run(runner: Runner, setups: int, seconds: float, min_docs: int) -> dict:
    name = runner.name
    runner.timed_setup()
    warm, totals = Totals(), Totals()
    runner.run_round(warm)
    totals.add_warmup(warm)
    runner.rounds(totals, seconds, min_docs, setups=setups)
    docs, batch_docs = totals.docs, len(runner.world.docs)
    values = {
        "docs_per_s": statistics.median(batch_docs / wall for wall in totals.round_wall_s),
        "doc_ms_p50": statistics.median(totals.doc_ms),
        "doc_ms_tail": nearest_rank(totals.doc_ms, TAIL_PERCENTILE[name]),
        "provider_calls_per_doc": totals.provider_calls / docs,
        "prompt_kchars_per_doc": totals.prompt_chars / 1000.0 / docs,
        "artifact_kb_per_doc": totals.artifact_bytes / 1024.0 / docs,
        "setup_s": statistics.median(runner.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return _result(totals, metrics)


def traced_run(runner: Runner, seed: int, setups: int, seconds: float, min_docs: int) -> dict:
    name = runner.name
    tracer = tracing.Tracer({d["id"]: d["text"] for d in runner.world.docs})
    tracer.install()
    per_setup = []
    for _ in range(setups):
        first = len(tracer.spans)
        runner.timed_setup()
        per_setup.append(tracer.spans[first:])
    index = runner.work / "index.json"
    setup_values = tracing.setup_metrics(per_setup, index.stat().st_size if index.exists() else 0)

    tracer.uninstall()
    warm, totals = Totals(), Totals()
    reference = runner.run_round(warm)  # untraced; also the warm-up round
    totals.add_warmup(warm)
    tracer.install()
    first = len(tracer.spans)
    runner.rounds(totals, seconds, min_docs, reference)
    tracer.uninstall()

    stub = {"requests": totals.provider_calls, "connections": totals.connections,
            "calls": totals.stub_calls}
    values = {**setup_values,
              **tracing.round_metrics(tracer.spans[first:], totals.docs, stub, totals.file_bytes),
              "process.cpu_ms_per_doc": sum(totals.round_cpu_s) * 1000.0 / totals.docs}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer.write(results / f"{name}-seed{seed}-spans.jsonl")
    print(f"traced: {totals.docs / sum(totals.round_wall_s):.3f} doc/s", file=sys.stderr)
    for missing in sorted(tracer.missing):
        print(f"traced: {missing} not found; its layer metrics are left out", file=sys.stderr)
    return _result(totals, tracing.report(values, tracer.missing))


def _result(totals: Totals, metrics: dict) -> dict:
    return {"correct": not totals.errors, "attempted": totals.docs + totals.unmeasured_docs,
            "failed": totals.failed + totals.unmeasured_failed,
            "metrics": metrics, "errors": totals.errors[:20]}


# --- command line ------------------------------------------------------------------


def _print_result(label: str, result: dict) -> None:
    print(f"{label}: {result['attempted']} documents attempted, {result['failed']} failed, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for error in result.get("errors", []):
        print(f"  check failed: {error}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<36} {m['value']:>14.4f} {m['unit']}")


def _run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long one workload run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one round, every check")
    args = parser.parse_args(argv)
    os.environ["NO_PROXY"] = ",".join(filter(None, [os.environ.get("NO_PROXY"), "127.0.0.1"]))
    try:
        _load_crat()
        if args.workload is None:
            return _run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _print_result(f"{args.workload} seed {args.seed}", result)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    line = json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
