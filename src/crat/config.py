"""File-backed run configuration: validation and construction of
the runtime objects (gateway, retrieval sources, pipeline config).

The config is one YAML document with four sections -- backends, retrieval,
pipeline, eval. Unknown keys are rejected so a typo cannot silently disable
anything. Secrets never appear in the file; HTTP backends name the
environment variable that holds their token.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from . import canonical
from .gateway import Gateway, echo_last_user, match_all_substrings, match_fingerprint
from .pipeline import PipelineConfig
from .retrieval import RemoteSource, glossary_source_from_file, index_source_from_file

ROLE_NAMES = ("detector", "extractor", "judge", "translator", "consis")

_TOP_KEYS = {"backends", "retrieval", "pipeline", "eval"}
_BACKENDS_KEYS = {"registrations", "roles"}
_MOCK_REG_KEYS = {"id", "kind", "script_path"}
_HTTP_REG_KEYS = {"id", "kind", "endpoint", "model", "auth_env", "timeout_s"}
_RETRIEVAL_KEYS = {"sources", "n2", "k_per_source"}
_SOURCE_KEYS = {
    "glossary": {"kind", "path"},
    "local_index": {"kind", "path"},
    "remote": {"kind", "endpoint", "timeout_s"},
}
_PIPELINE_KEYS = {"on_detector_error", "width", "cache_dir", "judge_enabled"}
_EVAL_KEYS = {"consis_backend"}


class ConfigError(Exception):
    pass


def _check_keys(mapping: Mapping, allowed: set, where: str) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")


class RunConfig:
    """Validated configuration document plus the directory it resolves
    relative paths against."""

    def __init__(self, data: Mapping, base_dir: Path):
        self.data = data
        self.base_dir = base_dir
        self._validate()

    def _validate(self) -> None:
        _check_keys(self.data, _TOP_KEYS, "config")
        backends = self.data.get("backends", {})
        _check_keys(backends, _BACKENDS_KEYS, "backends")
        ids = set()
        for i, reg in enumerate(backends.get("registrations", [])):
            where = f"backends.registrations[{i}]"
            if not isinstance(reg, Mapping) or "id" not in reg or "kind" not in reg:
                raise ConfigError(f"{where}: needs 'id' and 'kind'")
            if reg["id"] in ids:
                raise ConfigError(f"{where}: duplicate backend id {reg['id']!r}")
            ids.add(reg["id"])
            if reg["kind"] == "mock":
                _check_keys(reg, _MOCK_REG_KEYS, where)
                if "script_path" not in reg:
                    raise ConfigError(f"{where}: mock backend needs 'script_path'")
            elif reg["kind"] == "http":
                _check_keys(reg, _HTTP_REG_KEYS, where)
                for needed in ("endpoint", "model"):
                    if needed not in reg:
                        raise ConfigError(f"{where}: http backend needs {needed!r}")
            else:
                raise ConfigError(f"{where}: unknown backend kind {reg['kind']!r}")
        roles = backends.get("roles", {})
        _check_keys(roles, set(ROLE_NAMES), "backends.roles")
        for role, backend_id in roles.items():
            if backend_id not in ids:
                raise ConfigError(f"backends.roles.{role}: unregistered backend {backend_id!r}")
        retrieval = self.data.get("retrieval", {})
        _check_keys(retrieval, _RETRIEVAL_KEYS, "retrieval")
        for i, source in enumerate(retrieval.get("sources", [])):
            where = f"retrieval.sources[{i}]"
            if not isinstance(source, Mapping) or "kind" not in source:
                raise ConfigError(f"{where}: needs 'kind'")
            allowed = _SOURCE_KEYS.get(source["kind"])
            if allowed is None:
                raise ConfigError(f"{where}: unknown source kind {source['kind']!r}")
            _check_keys(source, allowed, where)
        _check_keys(self.data.get("pipeline", {}), _PIPELINE_KEYS, "pipeline")
        _check_keys(self.data.get("eval", {}), _EVAL_KEYS, "eval")
        consis_backend = self.data.get("eval", {}).get("consis_backend")
        if consis_backend is not None and consis_backend not in ids:
            raise ConfigError(f"eval.consis_backend: unregistered backend {consis_backend!r}")

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

    def eval_section(self) -> Mapping:
        return self.data.get("eval", {})


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text("utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"config file {path} is not valid YAML: {err}") from err
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config file {path} must hold a mapping")
    return RunConfig(raw, path.parent)


# --- mock script files ---------------------------------------------------------


def mock_script_from_dict(data: Mapping) -> tuple[list, Callable[..., str] | str | None]:
    """Turn a scripted-mock description into register_mock arguments.

    Rules match in order; each carries exactly one of ``substring``,
    ``substrings`` (all must appear), or ``fingerprint``, plus ``response``.
    The optional fallback is ``{"kind": "text", "text": ...}`` or
    ``{"kind": "echo_last_user"}``.
    """
    rules = []
    for i, rule in enumerate(data.get("rules", [])):
        where = f"rules[{i}]"
        if not isinstance(rule, Mapping) or "response" not in rule:
            raise ConfigError(f"{where}: needs 'response'")
        keys = [k for k in ("substring", "substrings", "fingerprint") if k in rule]
        if len(keys) != 1:
            raise ConfigError(f"{where}: needs exactly one of substring/substrings/fingerprint")
        if keys[0] == "substring":
            matcher: Any = str(rule["substring"])
        elif keys[0] == "substrings":
            matcher = match_all_substrings([str(s) for s in rule["substrings"]])
        else:
            matcher = match_fingerprint(str(rule["fingerprint"]))
        rules.append((matcher, str(rule["response"])))
    fallback_spec = data.get("fallback")
    fallback: Callable[..., str] | str | None = None
    if fallback_spec is not None:
        kind = fallback_spec.get("kind") if isinstance(fallback_spec, Mapping) else None
        if kind == "text":
            fallback = str(fallback_spec.get("text", ""))
        elif kind == "echo_last_user":
            fallback = echo_last_user
        else:
            raise ConfigError(f"fallback: unknown kind {kind!r}")
    return rules, fallback


def load_mock_script(path: Path) -> Mapping:
    """The parsed script document, for ``mock_script_from_dict``."""
    try:
        return json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"mock script not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"mock script {path} is not valid JSON: {err}") from err


# --- runtime construction ----------------------------------------------------


def _given(section: Mapping, **casts: Callable) -> dict:
    """Given keys, cast; absent ones are left to the callee's defaults."""
    return {key: cast(section[key]) for key, cast in casts.items() if key in section}


def build_gateway(config: RunConfig, cache_enabled: bool = True) -> Gateway:
    pipeline = config.pipeline_section()
    cache_dir = pipeline.get("cache_dir") if cache_enabled else None
    gateway = Gateway(cache_dir=config.resolve(cache_dir) if cache_dir else None)
    for reg in config.data.get("backends", {}).get("registrations", []):
        if reg["kind"] == "mock":
            # The script document's digest names the mock, so editing the
            # script changes the run hash and misses old cache entries.
            script = load_mock_script(config.resolve(reg["script_path"]))
            gateway.register_mock(reg["id"], *mock_script_from_dict(script),
                                  model={"script": canonical.digest(script)})
        else:
            gateway.register_http(
                reg["id"], reg["endpoint"], reg["model"],
                auth_token_env_var=reg.get("auth_env"),
                **_given(reg, timeout_s=float),
            )
    return gateway


def build_sources(config: RunConfig) -> list:
    """Each source is labelled by its kind and its path or endpoint as the
    config writes it, so a run's identity names what it searched and does not
    depend on where its workspace sits."""
    sources = []
    for spec in config.retrieval_section().get("sources", []):
        kind = spec["kind"]
        label = f"{kind}:{spec['endpoint'] if kind == 'remote' else spec['path']}"
        if kind == "remote":
            sources.append(RemoteSource(spec["endpoint"], label=label,
                                        **_given(spec, timeout_s=float)))
            continue
        from_file = glossary_source_from_file if kind == "glossary" else index_source_from_file
        sources.append(from_file(config.resolve(spec["path"]), label))
    return sources


def build_pipeline_config(config: RunConfig, sources: list, mode: str = "crat",
                          width_override: int | None = None) -> PipelineConfig:
    if mode not in ("crat", "direct"):
        raise ConfigError(f"unknown mode: {mode!r}")
    roles = {role: config.role_backend(role) for role in ROLE_NAMES}
    translator = roles["translator"]
    if not translator:
        raise ConfigError("backends.roles.translator is required")
    if mode == "crat":
        for role in ("detector", "extractor", "judge"):
            if not roles[role]:
                raise ConfigError(f"backends.roles.{role} is required in crat mode")
    pipeline = config.pipeline_section()
    knobs = _given(config.retrieval_section(), n2=int, k_per_source=int)
    knobs.update(_given(pipeline, on_detector_error=str, width=int))
    if "judge_enabled" in pipeline:
        knobs["use_judge"] = bool(pipeline["judge_enabled"])
    if width_override:
        knobs["width"] = width_override
    return PipelineConfig(
        detector_backend=roles["detector"] or translator,
        extractor_backend=roles["extractor"] or translator,
        judge_backend=roles["judge"] or translator,
        translator_backend=translator,
        sources=sources,
        use_knowledge=(mode == "crat"),
        **knobs,
    )
