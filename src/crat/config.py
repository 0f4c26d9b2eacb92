"""File-backed run configuration: validation and construction of
the runtime objects (gateway, retrieval sources, pipeline config).

The config is one YAML document with three sections -- backends, retrieval,
pipeline. ``CONFIG_SHAPE`` declares every key it may hold and the YAML type of
each value, so a typo cannot silently disable anything and a value of the
wrong type is refused, not coerced. Secrets never appear in the file; HTTP
backends name the environment variable that holds their token.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from . import canonical, retrieval
from .canonical import NUMBER, OPTIONAL, REQUIRED, Kinds
from .gateway import Gateway, check_endpoint, echo_last_user, match_all_substrings
from .pipeline import PipelineConfig

ROLE_NAMES = ("detector", "extractor", "judge", "translator", "consis")
MODES = ("crat", "direct")

# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# both build the same values through the same safe constructor.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(Exception):
    pass


# --- the table -----------------------------------------------------------------
#
# Every mapping of a config file and of a mock script file, in
# ``canonical.check``'s shapes. Ranges and enumerations are PipelineConfig's
# to check; an omitted optional value takes the default of the function that
# receives it.

_KIND = {"kind": (str, REQUIRED)}
_PATH_SOURCE = {**_KIND, "path": (str, REQUIRED)}

CONFIG_SHAPE = {
    "backends": ({
        "registrations": ([Kinds(
            mock={"id": (str, REQUIRED), **_KIND, "script_path": (str, REQUIRED)},
            http={"id": (str, REQUIRED), **_KIND, "endpoint": (str, REQUIRED),
                  "model": (str, REQUIRED), "auth_env": (str, OPTIONAL),
                  "timeout_s": (NUMBER, OPTIONAL)},
        )], OPTIONAL),
        "roles": ({role: (str, OPTIONAL) for role in ROLE_NAMES}, OPTIONAL),
    }, OPTIONAL),
    "retrieval": ({
        "sources": ([Kinds(
            glossary=_PATH_SOURCE, local_index=_PATH_SOURCE,
            remote={**_KIND, "endpoint": (str, REQUIRED), "timeout_s": (NUMBER, OPTIONAL)},
        )], OPTIONAL),
        "n2": (int, OPTIONAL), "k_per_source": (int, OPTIONAL),
    }, OPTIONAL),
    "pipeline": ({
        "on_detector_error": (str, OPTIONAL), "width": (int, OPTIONAL),
        "cache_dir": (str, OPTIONAL), "judge_enabled": (bool, OPTIONAL),
    }, OPTIONAL),
}

SCRIPT_SHAPE = {
    "rules": ([{"substring": (str, OPTIONAL), "substrings": ([str], OPTIONAL),
                "response": (str, REQUIRED)}], OPTIONAL),
    "fallback": (Kinds(text={**_KIND, "text": (str, OPTIONAL)}, echo_last_user=_KIND),
                 OPTIONAL),
}


class RunConfig:
    """Validated configuration document plus the directory it resolves
    relative paths against."""

    def __init__(self, data: Mapping, base_dir: Path):
        self.data = data
        self.base_dir = base_dir
        self._validate()

    def _validate(self) -> None:
        canonical.check(self.data, CONFIG_SHAPE, "config", ConfigError)
        backends = self.data.get("backends", {})
        ids = set()
        for i, reg in enumerate(backends.get("registrations", [])):
            if reg["id"] in ids:
                raise ConfigError(
                    f"config: backends.registrations[{i}]: duplicate id {reg['id']!r}")
            ids.add(reg["id"])
        for role, backend_id in backends.get("roles", {}).items():
            if backend_id not in ids:
                raise ConfigError(f"config: backends.roles.{role}: unregistered {backend_id!r}")
        for source in self.retrieval_section().get("sources", []):
            if source["kind"] == "remote":
                check_endpoint(source["endpoint"])

    def resolve(self, path: str) -> Path:
        candidate = Path(path)
        return candidate if candidate.is_absolute() else self.base_dir / candidate

    # -- section accessors -------------------------------------------------

    def role_backend(self, role: str) -> str | None:
        return self.data.get("backends", {}).get("roles", {}).get(role)

    def pipeline_section(self) -> Mapping:
        return self.data.get("pipeline", {})

    def retrieval_section(self) -> Mapping:
        return self.data.get("retrieval", {})


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = yaml.load(canonical.read_text(path, "config file", ConfigError), Loader=YAML_LOADER)
    except yaml.YAMLError as err:
        raise ConfigError(f"config file {path} is not valid YAML: {err}") from err
    return RunConfig(raw, path.parent)


# --- mock script files ---------------------------------------------------------


def mock_script_from_dict(data: Any, where: str = "mock script",
                          ) -> tuple[list, Callable[..., str] | str | None]:
    """Turn a scripted-mock description into register_mock arguments.

    Rules match in order; each carries exactly one of ``substring`` or
    ``substrings`` (all must appear), plus ``response``.
    The optional fallback is ``{"kind": "text", "text": ...}`` or
    ``{"kind": "echo_last_user"}``.
    """
    canonical.check(data, SCRIPT_SHAPE, where, ConfigError)
    rules = []
    for i, rule in enumerate(data.get("rules", [])):
        if ("substring" in rule) == ("substrings" in rule):
            raise ConfigError(f"{where}: rules[{i}]: needs exactly one of substring/substrings")
        matcher = (rule["substring"] if "substring" in rule
                   else match_all_substrings(rule["substrings"]))
        rules.append((matcher, rule["response"]))
    fallback = data.get("fallback")
    if fallback is not None:
        fallback = fallback.get("text", "") if fallback["kind"] == "text" else echo_last_user
    return rules, fallback


def load_mock_script(path: Path) -> Mapping:
    """The parsed script document, for ``mock_script_from_dict``."""
    try:
        return json.loads(canonical.read_text(path, "mock script", ConfigError))
    except json.JSONDecodeError as err:
        raise ConfigError(f"mock script {path} is not valid JSON: {err}") from err


# --- runtime construction ----------------------------------------------------


def build_gateway(config: RunConfig, cache_enabled: bool = True) -> Gateway:
    cache_dir = config.pipeline_section().get("cache_dir") if cache_enabled else None
    gateway = Gateway(cache_dir=config.resolve(cache_dir) if cache_dir else None)
    for reg in config.data.get("backends", {}).get("registrations", []):
        if reg["kind"] == "mock":
            # The script document's digest names the mock, so editing the
            # script changes the run hash and misses old cache entries.
            path = config.resolve(reg["script_path"])
            script = load_mock_script(path)
            gateway.register_mock(reg["id"], *mock_script_from_dict(script, f"mock script {path}"),
                                  model={"script": canonical.digest(script)})
        else:
            timeout = {"timeout_s": reg["timeout_s"]} if "timeout_s" in reg else {}
            gateway.register_http(reg["id"], reg["endpoint"], reg["model"],
                                  auth_token_env_var=reg.get("auth_env"), **timeout)
    return gateway


def build_sources(config: RunConfig) -> list:
    """Each source is labelled by its kind and its path or endpoint as the
    config writes it, so a run's identity names what it searched and does not
    depend on where its workspace sits."""
    sources = []
    for spec in config.retrieval_section().get("sources", []):
        kind = spec["kind"]
        if kind == "remote":
            timeout = {"timeout_s": spec["timeout_s"]} if "timeout_s" in spec else {}
            sources.append(retrieval.RemoteSource(spec["endpoint"],
                                                  label=f"remote:{spec['endpoint']}", **timeout))
            continue
        path, label = config.resolve(spec["path"]), f"{kind}:{spec['path']}"
        if kind == "glossary":
            sources.append(retrieval.GlossarySource(retrieval.load_glossary(path), label))
        else:
            sources.append(retrieval.LocalIndexSource(retrieval.load_index(path), label))
    return sources


def build_pipeline_config(config: RunConfig, sources: list, mode: str = "crat",
                          width_override: int | None = None) -> PipelineConfig:
    """The run's pipeline settings; every role the run calls must be set, and
    a role it does not call defaults to the translator's backend."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode: {mode!r}")
    # Every other retrieval and pipeline key is a PipelineConfig field.
    knobs = {key: value
             for section in (config.retrieval_section(), config.pipeline_section())
             for key, value in section.items() if key not in ("sources", "cache_dir")}
    if "judge_enabled" in knobs:
        knobs["use_judge"] = knobs.pop("judge_enabled")
    if width_override is not None:
        knobs["width"] = width_override
    translator = config.role_backend("translator")
    pipeline = PipelineConfig(
        **{f"{role}_backend": config.role_backend(role) or translator
           for role in ("detector", "extractor", "judge")},
        translator_backend=translator,
        sources=sources,
        use_knowledge=(mode == "crat"),
        **knobs,
    )
    for role in pipeline.required_roles():
        if not config.role_backend(role):
            raise ConfigError(f"backends.roles.{role} is required in {mode} mode")
    return pipeline
