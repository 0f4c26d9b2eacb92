"""Config loading: section validation, mock script files, runtime
construction, and transcript stage-order enforcement."""

from __future__ import annotations

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

import yaml

from conftest import DEMO_CONFIG, copy_demo, random_text, simple_request
from crat import canonical
from crat.config import (
    CONFIG_SHAPE,
    YAML_LOADER,
    ConfigError,
    Kinds,
    RunConfig,
    build_gateway,
    build_pipeline_config,
    build_sources,
    load_mock_script,
    load_run_config,
    mock_script_from_dict,
)
from crat.gateway import ChatExchange, Gateway, echo_last_user
from crat.pipeline import PipelineConfig, PipelineError, run_batch, run_pipeline, write_transcript
from crat.transcript import AgentTranscript, TranscriptError


@pytest.fixture
def demo(tmp_path):
    return copy_demo(tmp_path / "demo")


# --- validation ---------------------------------------------------------------


def write_config(tmp_path, data) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data), "utf-8")
    return str(path)


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="surprise"):
        load_run_config(write_config(tmp_path, {"surprise": 1}))


def test_unknown_nested_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="pipeline.*mystery"):
        load_run_config(write_config(tmp_path, {"pipeline": {"mystery": 1}}))
    with pytest.raises(ConfigError, match="retrieval"):
        load_run_config(write_config(
            tmp_path, {"retrieval": {"sources": [{"kind": "glossary", "path": "x",
                                                  "extra": 1}]}}))
    http = {"id": "a", "kind": "http", "endpoint": "http://x.test", "model": "m"}
    mock = {"id": "a", "kind": "mock", "script_path": "s.json"}
    # Keys that once had a single value in use; a config that sets one is refused.
    removed = {
        "request_shape": {"backends": {"registrations": [
            {**http, "request_shape": "openai_chat_v1"}]}},
        "fallback": {"backends": {"registrations": [
            {**mock, "fallback": {"kind": "text", "text": "x"}}]}},
        "max_triples": {"pipeline": {"max_triples": 20}},
        "max_doc_excerpts": {"pipeline": {"max_doc_excerpts": 3}},
        "excerpt_chars": {"pipeline": {"excerpt_chars": 500}},
        "eval": {"eval": {"consis_backend": "con"}},
    }
    for key, data in removed.items():
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\): {key}"):
            load_run_config(write_config(tmp_path, data))


def test_registration_validation(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        load_run_config(write_config(
            tmp_path, {"backends": {"registrations": [{"id": "a"}]}}))
    with pytest.raises(ConfigError, match="script_path"):
        load_run_config(write_config(
            tmp_path, {"backends": {"registrations": [{"id": "a", "kind": "mock"}]}}))
    with pytest.raises(ConfigError, match="duplicate"):
        load_run_config(write_config(tmp_path, {"backends": {"registrations": [
            {"id": "a", "kind": "mock", "script_path": "s.json"},
            {"id": "a", "kind": "mock", "script_path": "s.json"}]}}))


def test_role_must_reference_registered_backend(tmp_path):
    with pytest.raises(ConfigError, match="ghost"):
        load_run_config(write_config(
            tmp_path, {"backends": {"registrations": [], "roles": {"translator": "ghost"}}}))


def test_consis_backend_must_be_registered(tmp_path):
    with pytest.raises(ConfigError, match="roles.consis.*ghost"):
        load_run_config(write_config(
            tmp_path, {"backends": {"registrations": [], "roles": {"consis": "ghost"}}}))


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "nope.yaml")


def test_non_mapping_config_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_run_config(path)


def readme_configuration_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_yaml_loader_reads_what_the_pure_python_loader_reads():
    for text in (readme_configuration_example(), yaml.safe_dump(DEMO_CONFIG)):
        parsed = yaml.load(text, Loader=YAML_LOADER)
        assert parsed == yaml.load(text, Loader=yaml.SafeLoader)
        assert parsed
    assert yaml.load(yaml.safe_dump(DEMO_CONFIG), Loader=YAML_LOADER) == DEMO_CONFIG


def test_invalid_yaml_is_a_config_error(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("backends: [unclosed\n", "utf-8")
    with pytest.raises(ConfigError, match="is not valid YAML"):
        load_run_config(path)


def test_readme_configuration_example_loads(tmp_path):
    config = RunConfig(yaml.safe_load(readme_configuration_example()), tmp_path)
    assert config.role_backend("translator") == "live"

    # Every key the table declares, a kind's keys as "kind.key", is in the example.
    def declared(shape) -> set:
        if isinstance(shape, list):
            return declared(shape[0])
        if isinstance(shape, Kinds):
            return {f"{kind}.{key}" for kind, each in shape.items() for key in declared(each)}
        if isinstance(shape, dict):
            return set(shape).union(*(declared(value) for value, _ in shape.values()))
        return set()

    def named(value) -> set:
        if isinstance(value, list):
            return set().union(*map(named, value))
        if isinstance(value, dict):
            keys = set(value).union(*map(named, value.values()))
            return {f"{value['kind']}.{key}" for key in keys} if "kind" in value else keys
        return set()

    assert declared(CONFIG_SHAPE) - named(config.data) == set()


# --- mock scripts ----------------------------------------------------------------


def test_mock_script_rule_validation():
    with pytest.raises(ConfigError, match="response"):
        mock_script_from_dict({"rules": [{"substring": "x"}]})
    # Rules match on text: a script file's requests are fingerprinted with
    # the script's own digest, so no rule in it could name one.
    with pytest.raises(ConfigError,
                       match=r"^mock script: rules\[0\]: unknown key\(s\): fingerprint$"):
        mock_script_from_dict({"rules": [
            {"substring": "x", "fingerprint": "y", "response": "r"}]})
    with pytest.raises(ConfigError, match="exactly one of substring/substrings"):
        mock_script_from_dict({"rules": [
            {"substring": "x", "substrings": ["y"], "response": "r"}]})
    with pytest.raises(ConfigError, match="exactly one of substring/substrings"):
        mock_script_from_dict({"rules": [{"response": "r"}]})
    with pytest.raises(ConfigError, match="fallback"):
        mock_script_from_dict({"rules": [], "fallback": {"kind": "dice"}})


def test_mock_script_matchers_work():
    rules, fallback = mock_script_from_dict({
        "rules": [
            {"substrings": ["alpha", "beta"], "response": "both"},
            {"substring": "alpha", "response": "one"},
        ],
        "fallback": {"kind": "echo_last_user"},
    })
    gateway = Gateway()
    gateway.register_mock("m", rules, fallback)
    assert gateway.complete(simple_request("m", "alpha and beta")).response_text == "both"
    assert gateway.complete(simple_request("m", "alpha only")).response_text == "one"
    assert gateway.complete(simple_request("m", "neither")).response_text == "neither"


def test_load_mock_script_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_mock_script(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_mock_script(bad)


def random_script(rng: random.Random) -> dict:
    """A script document: rules by ``substring`` or ``substrings``, and a
    ``text`` fallback (with or without its text), an ``echo_last_user`` one
    or none; each key that may be left out is left out at times."""
    script = {}
    if rng.random() < 0.8:
        script["rules"] = []
        for _ in range(rng.randint(0, 4)):
            rule = {"response": random_text(rng, 0, 30)}
            if rng.random() < 0.5:
                rule["substring"] = random_text(rng)
            else:
                rule["substrings"] = [random_text(rng) for _ in range(rng.randint(0, 3))]
            script["rules"].append(rule)
    fallback = rng.choice(("text", "echo_last_user", None))
    if fallback is not None:
        script["fallback"] = {"kind": fallback}
        if fallback == "text" and rng.random() < 0.8:
            script["fallback"]["text"] = random_text(rng, 0, 30)
    return script


def test_mock_script_round_trip_property(tmp_path):
    # Scripts with Latin, Cyrillic, CJK and non-BMP texts, JSON escapes and
    # U+2028, written as canonical files, load to equal documents that
    # register as their rules say and write back to the same bytes.
    rng = random.Random(20261022)
    for i in range(100):
        script = random_script(rng)
        path = tmp_path / f"script-{i}.json"
        path.write_bytes(canonical.pretty(script).encode("utf-8"))
        loaded = load_mock_script(path)
        assert loaded == script
        assert canonical.digest(loaded) == canonical.digest(script)
        rules, fallback = mock_script_from_dict(loaded, str(path))
        assert [response for _, response in rules] == [
            rule["response"] for rule in script.get("rules", [])]
        kind = script.get("fallback", {}).get("kind")
        if kind == "text":
            assert fallback == script["fallback"].get("text", "")
        else:
            assert (fallback is echo_last_user) if kind else (fallback is None)
        assert canonical.pretty(loaded).encode("utf-8") == path.read_bytes()


def test_scripted_miss_names_the_fingerprint_transcripts_hold(tmp_path):
    # A mock read from a script file answers as the script's digest, and its
    # miss names the fingerprint prefix that transcript.json and the cache
    # record for the same request once a mock of that identity answers it.
    script = {"rules": [{"substring": "goodbye", "response": "bye"}]}
    (tmp_path / "script.json").write_text(json.dumps(script), "utf-8")
    config = RunConfig({"backends": {"registrations": [
        {"id": "trn", "kind": "mock", "script_path": "script.json"}]}}, tmp_path)
    direct = PipelineConfig(translator_backend="trn", use_knowledge=False)
    with pytest.raises(PipelineError, match=r"for request [0-9a-f]{12} ") as miss:
        run_pipeline("The bank.", ("en", "zh"), direct, build_gateway(config, cache_enabled=False))
    prefix = re.search(r"for request ([0-9a-f]{12}) ", str(miss.value))[1]
    answering = Gateway()
    answering.register_mock("trn", [("The bank.", '{"translation": "银行。"}')],
                            model={"script": canonical.digest(script)})
    result = run_pipeline("The bank.", ("en", "zh"), direct, answering)
    transcript = json.loads(write_transcript(result, tmp_path / "run")[2].read_text("utf-8"))
    (fingerprint,) = [event["fingerprint"] for event in transcript if event["kind"] == "exchange"]
    assert fingerprint.startswith(prefix)


# --- runtime construction ---------------------------------------------------------


def test_build_runtime_from_demo_config(demo):
    config = load_run_config(demo / "config.yaml")
    gateway = build_gateway(config)
    for backend_id in ("det", "ext", "jdg", "trn", "con"):
        assert gateway.has_backend(backend_id)
    sources = build_sources(config)
    assert [s.label for s in sources] == ["glossary:glossary.tsv", "local_index:index.json"]
    pipeline_config = build_pipeline_config(config, sources, mode="crat")
    assert pipeline_config.translator_backend == "trn"
    assert pipeline_config.use_knowledge is True
    assert config.role_backend("consis") == "con"


def test_direct_mode_needs_only_translator(tmp_path):
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"rules": [], "fallback": {"kind": "text", "text": "x"}}))
    config = load_run_config(write_config(tmp_path, {
        "backends": {"registrations": [{"id": "t", "kind": "mock", "script_path": "s.json"}],
                     "roles": {"translator": "t"}}}))
    pipeline_config = build_pipeline_config(config, [], mode="direct")
    assert pipeline_config.use_knowledge is False
    with pytest.raises(ConfigError, match="detector"):
        build_pipeline_config(config, [], mode="crat")


def test_pipeline_config_refuses_an_unknown_mode(demo):
    config = load_run_config(demo / "config.yaml")
    with pytest.raises(ConfigError, match="^unknown mode: 'fast'$"):
        build_pipeline_config(config, [], mode="fast")


def demo_config_without(demo, role: str, **pipeline):
    """The demo config with ``role`` unset and ``pipeline`` keys added."""
    data = yaml.safe_load((demo / "config.yaml").read_text("utf-8"))
    del data["backends"]["roles"][role]
    data["pipeline"].update(pipeline)
    (demo / "config.yaml").write_text(yaml.safe_dump(data), "utf-8")
    return load_run_config(demo / "config.yaml")


@pytest.mark.parametrize("mode, role", [
    ("crat", "detector"), ("crat", "judge"), ("crat", "translator"), ("direct", "translator"),
])
def test_a_role_the_run_calls_is_required(demo, mode, role):
    config = demo_config_without(demo, role)
    with pytest.raises(ConfigError) as caught:
        build_pipeline_config(config, [], mode=mode)
    assert str(caught.value) == f"backends.roles.{role} is required in {mode} mode"


def test_judge_off_run_needs_no_judge_role(demo):
    config = demo_config_without(demo, "judge", judge_enabled=False)
    pipeline_config = build_pipeline_config(config, build_sources(config))
    assert pipeline_config.required_roles() == ["detector", "extractor", "translator"]
    corpus = [json.loads(line) for line in (demo / "inputs.jsonl").read_text("utf-8").splitlines()]
    results, manifest = run_batch(corpus, ("en", "zh"), pipeline_config,
                                  build_gateway(config, cache_enabled=False))
    assert manifest.aggregate["ok"] == 2
    stages = [e.stage for r in results for e in r.transcript.events if e.kind == "exchange"]
    assert "judge" not in stages and "translate" in stages
    assert all(r.judged_count == 0 and r.accepted_count for r in results)


def test_omitted_knobs_take_pipeline_config_defaults(tmp_path):
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"rules": [], "fallback": {"kind": "text", "text": "x"}}))
    roles = {role: "t" for role in ("detector", "extractor", "judge", "translator")}
    config = load_run_config(write_config(tmp_path, {
        "backends": {"registrations": [{"id": "t", "kind": "mock", "script_path": "s.json"}],
                     "roles": roles},
        "retrieval": {}, "pipeline": {}}))
    built = build_pipeline_config(config, [], mode="crat")
    knobs = [f.name for f in dataclasses.fields(PipelineConfig)
             if not f.name.endswith("_backend") and f.name not in ("sources", "use_knowledge")]
    assert "width" in knobs and "use_judge" in knobs
    assert ({name: getattr(built, name) for name in knobs}
            == {name: getattr(PipelineConfig(), name) for name in knobs})


def test_cache_dir_resolves_relative_to_config(demo, tmp_path):
    data = yaml.safe_load((demo / "config.yaml").read_text("utf-8"))
    data["pipeline"]["cache_dir"] = "cachehere"
    (demo / "config.yaml").write_text(yaml.safe_dump(data), "utf-8")
    config = load_run_config(demo / "config.yaml")
    gateway = build_gateway(config)
    assert gateway.cache_dir == demo / "cachehere"
    disabled = build_gateway(config, cache_enabled=False)
    assert disabled.cache_dir is None


# --- pipeline config validation ------------------------------------------------------


def test_pipeline_config_bounds():
    with pytest.raises(ValueError, match="n2"):
        PipelineConfig(n2=0)
    with pytest.raises(ValueError, match="width"):
        PipelineConfig(width=0)
    with pytest.raises(ValueError, match="on_detector_error"):
        PipelineConfig(on_detector_error="shrug")


# --- transcript ordering -----------------------------------------------------------


def dummy_exchange() -> ChatExchange:
    request = simple_request("m", "hi")
    return ChatExchange(request, "ok", 0, False, "f" * 64)


def test_transcript_rejects_out_of_order_stages():
    transcript = AgentTranscript()
    transcript.begin_stage("retrieve")
    with pytest.raises(TranscriptError):
        transcript.begin_stage("detect")
    with pytest.raises(TranscriptError):
        transcript.begin_stage("retrieve")  # no repeats either
    with pytest.raises(TranscriptError):
        transcript.begin_stage("mystery")


def test_transcript_rejects_exchange_outside_stage():
    transcript = AgentTranscript()
    with pytest.raises(TranscriptError):
        transcript.add_exchange(dummy_exchange())
    transcript.begin_stage("detect")
    transcript.add_exchange(dummy_exchange())
    assert [e.kind for e in transcript.events] == ["stage", "exchange"]


def test_transcript_volatile_fields_stripped():
    transcript = AgentTranscript()
    transcript.begin_stage("translate")
    transcript.add_exchange(dummy_exchange())
    stable = transcript.to_dict()
    assert not {"latency_ms", "cache_hit", "attempts"} & set(stable[1])
    assert stable[1]["params"] == {"temperature": 0.0, "max_new_tokens": 2048, "stop": None}
