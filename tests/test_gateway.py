"""Gateway: fingerprints, scripted mocks, the response cache, and the HTTP
backend's wire handling and retry policy."""

from __future__ import annotations

import base64
import json
import os
import random
import re
import shutil
import socket
import ssl
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest

import crat
from crat import gateway as gateway_module
from conftest import (CUT_OFF, HANG_UP, STALL, Raw, StubServer, random_text, simple_request,
                      wait_for)
from crat import canonical
from crat.config import build_gateway, load_run_config
from crat.gateway import (
    BackendConfigError,
    ChatMessage,
    ChatRequest,
    DuplicateBackendError,
    EmptyResponseError,
    Gateway,
    GatewayError,
    HttpStatusError,
    PARAMS,
    ProtocolError,
    RetryLaterError,
    ScriptedMissError,
    TransportError,
    UnknownBackendError,
    echo_last_user,
    match_substring,
    request_fingerprint,
    request_text,
    retry_after_s,
)

# Fingerprint of the canonical "hello" request, frozen to pin cross-process
# stability of the hashing scheme.
HELLO_FINGERPRINT = "9c20a107b0b7462c638a39b8384ce5bd9b29fa4ef6d3b123578d5f1564e4512f"


def hello_request(backend="mock"):
    return simple_request(backend, "say hello")


@pytest.fixture(autouse=True)
def short_retry_delay(monkeypatch):
    """Backoff draws from 10 ms, so retried calls do not wait out the real base."""
    monkeypatch.setattr(gateway_module, "RETRY_BASE_DELAY_S", 0.01)


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest("b", ())
    with pytest.raises(ValueError):
        ChatRequest("b", (ChatMessage("assistant", "hi"),))
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hi")


def test_request_with_no_user_message_has_no_user_content():
    request = ChatRequest("mock", (ChatMessage("system", "be brief"),))
    assert request.last_user_content() == ""


def test_fingerprint_stability_and_sensitivity():
    fp = request_fingerprint(hello_request())
    assert fp == request_fingerprint(hello_request())
    assert fp == HELLO_FINGERPRINT
    assert fp != request_fingerprint(simple_request("mock", "say goodbye"))


def test_in_code_mock_keeps_the_bare_fingerprint():
    gateway = Gateway()
    gateway.register_mock("mock", [(match_substring("say hello"), "hello")])
    exchange = gateway.complete(hello_request())
    assert exchange.response_text == "hello"
    assert exchange.cache_hit is False
    # An in-code mock names no model, so its calls keep the bare fingerprint.
    assert exchange.fingerprint == HELLO_FINGERPRINT
    assert exchange.attempts == 1


def test_mock_substring_rule_and_plain_string_matcher():
    gateway = Gateway()
    gateway.register_mock("mock", [
        (match_substring("Identify unknown terms"), '{"terms": []}'),
        ("say", "matched by plain substring"),
    ])
    detector_like = simple_request("mock", "Identify unknown terms in the text")
    assert gateway.complete(detector_like).response_text == '{"terms": []}'
    assert gateway.complete(hello_request()).response_text == "matched by plain substring"


def test_mock_fallback_echo():
    gateway = Gateway()
    gateway.register_mock("mock", [], fallback=echo_last_user)
    assert gateway.complete(hello_request()).response_text == "say hello"


def test_scripted_miss_identifies_request():
    gateway = Gateway()
    gateway.register_mock("mock", [])
    with pytest.raises(ScriptedMissError, match="say hello"):
        gateway.complete(hello_request())


def test_duplicate_backend_id_rejected():
    gateway = Gateway()
    gateway.register_mock("mock", [], fallback="x")
    with pytest.raises(DuplicateBackendError):
        gateway.register_mock("mock", [], fallback="y")


def test_unknown_backend():
    with pytest.raises(UnknownBackendError):
        Gateway().complete(hello_request("nowhere"))


def test_empty_response_is_an_error():
    gateway = Gateway()
    gateway.register_mock("mock", [], fallback="   ")
    with pytest.raises(EmptyResponseError):
        gateway.complete(hello_request())


# --- cache --------------------------------------------------------------------


def test_cache_append_after_close_raises(tmp_path):
    # The gateway closes while the call is in flight; its reply is not cached.
    gateway = Gateway(cache_dir=tmp_path / "cache")
    gateway.register_mock("mock", [], fallback="hello")
    with pytest.raises(RuntimeError, match="^cannot write to the cache of a closed gateway$"):
        gateway.complete(hello_request(), on_sent=gateway.close)
    assert not (tmp_path / "cache").exists()


def test_cache_second_call_hits(tmp_path):
    gateway = Gateway(cache_dir=tmp_path / "cache")
    gateway.register_mock("mock", [], fallback="cached text")
    first = gateway.complete(hello_request())
    second = gateway.complete(hello_request())
    assert first.cache_hit is False and second.cache_hit is True
    assert second.attempts == 0
    assert first.response_text == second.response_text == "cached text"


def test_cache_transparency(tmp_path):
    request = hello_request()
    with_cache = Gateway(cache_dir=tmp_path / "cache")
    with_cache.register_mock("mock", [], fallback="same text")
    without_cache = Gateway()
    without_cache.register_mock("mock", [], fallback="same text")
    assert (with_cache.complete(request).response_text
            == without_cache.complete(request).response_text)


def segments(cache_dir) -> list:
    """The cache segments in ``cache_dir``."""
    return sorted(cache_dir.glob("*.jsonl"))


def test_cache_layout_and_contents(tmp_path):
    gateway = Gateway(cache_dir=tmp_path / "cache")
    gateway.register_mock("mock", [], fallback="entry")
    exchange = gateway.complete(hello_request())
    gateway.complete(hello_request())
    [segment] = segments(tmp_path / "cache")
    assert re.fullmatch(rf"{os.getpid()}-[0-9a-f]{{16}}\.jsonl", segment.name)
    [line] = segment.read_text("utf-8").splitlines()  # on disk when complete returns
    fp = exchange.fingerprint
    assert line.startswith(f'{{"fingerprint":"{fp}",')
    entry = json.loads(line)
    assert sorted(entry) == ["fingerprint", "request", "response_text", "timestamp"]
    assert entry["response_text"] == "entry"
    assert entry["request"]["messages"] == [["user", "say hello"]]


def test_cache_line_is_the_canonical_entry(tmp_path):
    # The entry line is the compact canonical JSON of its four fields, byte
    # for byte, and its fingerprint is the request's, non-ASCII text kept.
    model = {"name": "modèle", "endpoint": "http://chat.test/v1"}
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_mock("mock", [], fallback="réponse « 银行 » \u2028 \"fin\"", model=model)
    request = ChatRequest("mock", (ChatMessage("system", "sois bref"),
                                   ChatMessage("user", "银行 bank\n\"quoted\" é")))
    exchange = gateway.complete(request)
    [segment] = segments(tmp_path)
    line = segment.read_bytes()
    entry = json.loads(line)
    assert entry["fingerprint"] == exchange.fingerprint == request_fingerprint(request, model)
    assert entry["request"] == {
        "backend": "mock", "model": model, "params": PARAMS,
        "messages": [["system", "sois bref"], ["user", "银行 bank\n\"quoted\" é"]]}
    assert entry["response_text"] == "réponse « 银行 » \u2028 \"fin\""
    fields = ("fingerprint", "request", "response_text", "timestamp")
    assert line == (canonical.compact({name: entry[name] for name in fields}) + "\n").encode()


def test_cache_line_round_trip_property(tmp_path):
    # Prompts and replies with JSON escapes and characters outside the Basic
    # Multilingual Plane come back from a fresh gateway's read of the lines.
    rng = random.Random(20261021)
    replies = {f"{i} {random_text(rng)}": f"{i}:{random_text(rng, 0, 40)}" for i in range(100)}
    with Gateway(cache_dir=tmp_path) as writer:
        writer.register_mock("mock", [], fallback=lambda request: replies[
            request.messages[0].content])
        assert not any(writer.complete(simple_request("mock", p)).cache_hit for p in replies)
    calls = []
    with Gateway(cache_dir=tmp_path) as reader:
        reader.register_mock("mock", [], fallback=lambda request: calls.append(request) or "miss")
        for prompt, reply in replies.items():
            exchange = reader.complete(simple_request("mock", prompt))
            assert (exchange.cache_hit, exchange.response_text) == (True, reply)
    assert calls == []


def test_gateway_context_flushes_and_stops_its_threads(tmp_path):
    before = set(threading.enumerate())
    with Gateway(cache_dir=tmp_path / "cache") as gateway:
        gateway.register_mock("mock", [], fallback="entry")
        exchange = gateway.complete(hello_request())
        assert gateway.fan_out(len, ["a", "bb"]) == [1, 2]
    [segment] = segments(tmp_path / "cache")
    entry = json.loads(segment.read_text("utf-8"))
    assert (entry["fingerprint"], entry["response_text"]) == (exchange.fingerprint, "entry")
    assert gateway._segment.closed
    assert not [t for t in threading.enumerate() if t not in before and t.is_alive()]


def test_closed_gateway_refuses_new_work(tmp_path):
    gateway = Gateway(cache_dir=tmp_path / "cache")
    assert gateway.fan_out(len, ["a"]) == [1]
    gateway.close()
    with pytest.raises(RuntimeError):
        gateway.fan_out(len, ["a"])
    gateway.close()  # closing again is harmless


@pytest.mark.parametrize("cached", [False, True])
def test_closed_gateway_refuses_complete_before_the_backend(tmp_path, cached):
    calls = []
    gateway = Gateway(cache_dir=tmp_path / "cache" if cached else None)
    gateway.register_mock("mock", [], fallback=lambda request: calls.append(request) or "hi")
    gateway.close()
    with pytest.raises(RuntimeError):
        gateway.complete(hello_request())
    assert calls == []
    assert not (tmp_path / "cache").exists()  # no segment was written


def test_concurrent_calls_leave_every_reply_on_disk(tmp_path):
    # Many threads repeat a few requests; every line of the segment is a
    # whole entry, and a second gateway on the directory finds every reply.
    prompts = [f"prompt {n}" for n in range(8)]
    gateway = Gateway(cache_dir=tmp_path / "cache")
    gateway.register_mock("mock", [], fallback=lambda request: "re: " + request_text(request))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        texts = gateway.fan_out(lambda n: gateway.complete(
            simple_request("mock", prompts[n % len(prompts)])).response_text, range(200))
    finally:
        sys.setswitchinterval(switch)
    assert texts == [f"re: {prompts[n % len(prompts)]}" for n in range(200)]
    [segment] = segments(tmp_path / "cache")
    entries = [json.loads(line) for line in segment.read_text("utf-8").splitlines()]
    assert {entry["response_text"] for entry in entries} == set(texts)
    reader = Gateway(cache_dir=tmp_path / "cache")
    reader.register_mock("mock", [])
    for prompt in prompts:
        exchange = reader.complete(simple_request("mock", prompt))
        assert exchange.cache_hit and exchange.response_text == f"re: {prompt}"


def counting_gateway(cache_dir, calls: list) -> Gateway:
    """A cached gateway whose mock answers "re: <prompt>" and counts its calls."""
    gateway = Gateway(cache_dir=cache_dir)
    gateway.register_mock("mock", [], fallback=lambda request: calls.append(1) or (
        "re: " + request_text(request)))
    return gateway


@pytest.mark.parametrize("spend", ["move", "delete"])
def test_cache_dir_moved_away_under_a_live_gateway(tmp_path, spend):
    # A benchmark round moves the cache aside and keeps the gateway: the next
    # call misses and starts a new segment, and its repeat hits.
    calls = []
    cache = tmp_path / "cache"
    gateway = counting_gateway(cache, calls)
    assert [gateway.complete(hello_request()).cache_hit for _ in range(2)] == [False, True]
    if spend == "move":
        cache.rename(tmp_path / "spent")
    else:
        shutil.rmtree(cache)
    assert [gateway.complete(hello_request()).cache_hit for _ in range(2)] == [False, True]
    assert len(calls) == 2
    [segment] = segments(cache)
    assert len(segment.read_text("utf-8").splitlines()) == 1
    if spend == "move":
        [spent] = segments(tmp_path / "spent")
        assert spent.name == segment.name
        assert len(spent.read_text("utf-8").splitlines()) == 1


def assert_bad_tail_is_skipped_with_a_warning(tmp_path, caplog, bad_tail):
    # Two whole entries, then the line that bad_tail makes of their bytes: a
    # gateway opened later skips that line with one warning and finds both.
    calls = []
    writer = counting_gateway(tmp_path / "cache", calls)
    for prompt in ("first", "second"):
        writer.complete(simple_request("mock", prompt))
    [segment] = segments(tmp_path / "cache")
    with open(segment, "ab") as handle:
        handle.write(bad_tail(segment.read_bytes()))
    reader = counting_gateway(tmp_path / "cache", calls)
    for prompt in ("first", "second"):
        exchange = reader.complete(simple_request("mock", prompt))
        assert exchange.cache_hit and exchange.response_text == f"re: {prompt}"
    assert len(calls) == 2
    warnings = [r.getMessage() for r in caplog.records if r.name == "crat.gateway"]
    assert warnings == [f"skipped unreadable lines in cache segment {segment}"]


def test_torn_last_line_is_skipped_with_a_warning(tmp_path, caplog):
    # A process killed in mid-append leaves a line with no newline.
    assert_bad_tail_is_skipped_with_a_warning(tmp_path, caplog, lambda whole: whole[:50])


def test_line_whose_fingerprint_is_not_hex_is_skipped_with_a_warning(tmp_path, caplog):
    assert_bad_tail_is_skipped_with_a_warning(
        tmp_path, caplog, lambda whole: whole[:16] + b"\xff" * 64 + whole[80:]
    )


def test_line_at_a_stale_offset_is_a_miss(tmp_path, caplog):
    # The segment was rewritten in place with its lines swapped: the line at
    # the first entry's offset names another fingerprint, so it is a miss.
    calls = []
    gateway = counting_gateway(tmp_path / "cache", calls)
    for prompt in ("first", "second"):
        gateway.complete(simple_request("mock", prompt))
    [segment] = segments(tmp_path / "cache")
    first, second = segment.read_bytes().splitlines(keepends=True)
    segment.write_bytes(second + first)
    exchange = gateway.complete(simple_request("mock", "first"))
    assert exchange.cache_hit is False and exchange.response_text == "re: first"
    assert "ignoring corrupt cache entry" in caplog.text
    assert gateway.complete(simple_request("mock", "first")).cache_hit is True
    assert len(calls) == 3


def test_gateway_opened_later_finds_another_gateways_replies(tmp_path):
    calls = []
    first = counting_gateway(tmp_path / "cache", calls)
    first.complete(simple_request("mock", "one"))
    second = counting_gateway(tmp_path / "cache", calls)
    assert second.complete(simple_request("mock", "one")).cache_hit is True
    second.complete(simple_request("mock", "two"))
    assert len(segments(tmp_path / "cache")) == 2
    # The first gateway built its key directory before the second wrote.
    assert first.complete(simple_request("mock", "two")).cache_hit is False
    third = counting_gateway(tmp_path / "cache", calls)
    assert third.complete(simple_request("mock", "two")).cache_hit is True
    assert len(calls) == 3


def chat_body(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


def script_gateway(directory, answer, cache_dir) -> Gateway:
    """A gateway built from a config file whose mock backend "mock" reads a
    script file that answers "say hello" with ``answer``."""
    directory.mkdir()
    (directory / "script.json").write_text(json.dumps(
        {"rules": [{"substring": "say hello", "response": answer}]}))
    (directory / "config.yaml").write_text(json.dumps({
        "backends": {"registrations": [
            {"id": "mock", "kind": "mock", "script_path": "script.json"}]},
        "pipeline": {"cache_dir": str(cache_dir)}}))
    return build_gateway(load_run_config(directory / "config.yaml"))


def test_cache_does_not_cross_models_or_endpoints(tmp_path, stub_server):
    # Two gateways share one cache dir, and the backend id "live" is served
    # first by model A, then by model B: on another model name, then on
    # another endpoint. The second gateway must not get model A's answer.
    # The same holds for two mocks read from two script files.
    other_server = StubServer()
    try:
        other_server.set_default(200, chat_body("answer from model B"))
        for name, (url_b, model_b) in {"model": (stub_server.url, "model-b"),
                                       "endpoint": (other_server.url, "model-a")}.items():
            stub_server.script((200, chat_body("answer from model A")),
                               (200, chat_body("answer from model B")))
            cache_dir = tmp_path / name
            first = Gateway(cache_dir=cache_dir)
            first.register_http("live", stub_server.url, "model-a")
            assert first.complete(hello_request("live")).response_text == "answer from model A"
            second = Gateway(cache_dir=cache_dir)
            second.register_http("live", url_b, model_b)
            exchange = second.complete(hello_request("live"))
            assert exchange.cache_hit is False, name
            assert exchange.response_text == "answer from model B", name
            again = Gateway(cache_dir=cache_dir)
            again.register_http("live", stub_server.url, "model-a")
            assert again.complete(hello_request("live")).cache_hit is True, name
    finally:
        other_server.close()
    cache_dir = tmp_path / "script"
    first = script_gateway(tmp_path / "a", "answer from script A", cache_dir)
    assert first.complete(hello_request()).response_text == "answer from script A"
    exchange = script_gateway(tmp_path / "b", "answer from script B",
                              cache_dir).complete(hello_request())
    assert exchange.cache_hit is False
    assert exchange.response_text == "answer from script B"
    # The same script in another directory is the same model.
    again = script_gateway(tmp_path / "c", "answer from script A", cache_dir)
    assert again.complete(hello_request()).cache_hit is True


def test_empty_segment_is_read_and_a_directory_is_skipped(tmp_path, caplog):
    # An empty segment holds no entries and cannot be mapped; a directory
    # named like a segment cannot be opened, and is named in a warning.
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "a.jsonl").write_bytes(b"")
    (tmp_path / "cache" / "b.jsonl").mkdir()
    calls = []
    gateway = counting_gateway(tmp_path / "cache", calls)
    assert gateway.complete(hello_request()).cache_hit is False
    assert gateway.complete(hello_request()).cache_hit is True
    assert len(calls) == 1
    warnings = [r.getMessage() for r in caplog.records if r.name == "crat.gateway"]
    directory = tmp_path / "cache" / "b.jsonl"
    assert warnings == [f"skipped unreadable lines in cache segment {directory}"]


def test_corrupt_cache_entry_is_ignored(tmp_path, caplog):
    # Not JSON, another fingerprint, not an object: each is a miss, with a
    # warning, and the fresh reply appended after it then hits.
    for n, corrupt in enumerate([b"not json\n", b'{"fingerprint":"x"}\n', b"[]\n"]):
        gateway = Gateway(cache_dir=tmp_path / f"cache{n}")
        gateway.register_mock("mock", [], fallback="fresh")
        gateway.complete(hello_request())
        [segment] = segments(tmp_path / f"cache{n}")
        segment.write_bytes(corrupt)
        caplog.clear()
        again = gateway.complete(hello_request())
        assert again.cache_hit is False and again.response_text == "fresh"
        assert "ignoring corrupt cache entry" in caplog.text
        assert gateway.complete(hello_request()).cache_hit is True


# --- http backend ---------------------------------------------------------------


def http_gateway(url):
    gateway = Gateway()
    gateway.register_http("live", url, "test-model")
    return gateway


def test_http_happy_path(stub_server):
    stub_server.script((200, {"choices": [{"message": {"content": "bonjour"}}]}))
    gateway = http_gateway(stub_server.url)
    exchange = gateway.complete(hello_request("live"))
    assert exchange.response_text == "bonjour"
    assert exchange.attempts == 1


def test_http_retries_on_rate_limit(stub_server):
    stub_server.script(
        (429, {"error": "slow down"}),
        (200, {"choices": [{"message": {"content": "after retry"}}]}),
    )
    gateway = http_gateway(stub_server.url)
    exchange = gateway.complete(hello_request("live"))
    assert exchange.response_text == "after retry"
    assert exchange.attempts == 2


def test_http_rate_limit_exhausts_after_three_attempts(stub_server):
    stub_server.set_default(429, {"error": "slow down"})
    gateway = http_gateway(stub_server.url)
    with pytest.raises(GatewayError):
        gateway.complete(hello_request("live"))
    assert len(stub_server.requests) == 3


@pytest.mark.parametrize("status", [502, 503, 504])
def test_http_retries_on_unavailable(stub_server, status):
    stub_server.script((status, {"error": "busy"}), (status, {"error": "busy"}),
                       (200, chat_body("after two retries")))
    gateway = http_gateway(stub_server.url)
    exchange = gateway.complete(hello_request("live"))
    assert exchange.response_text == "after two retries"
    assert exchange.attempts == 3


def test_http_unavailable_exhausts_after_three_attempts(stub_server):
    stub_server.script(*[(503, {"error": "busy"})] * 3, (200, chat_body("too late")))
    gateway = http_gateway(stub_server.url)
    with pytest.raises(RetryLaterError, match="503") as info:
        gateway.complete(hello_request("live"))
    assert info.value.status == 503 and "busy" in info.value.body_excerpt
    assert len(stub_server.requests) == 3


def record_sleeps(monkeypatch) -> list[float]:
    sleeps = []
    monkeypatch.setattr(gateway_module.time, "sleep", sleeps.append)
    return sleeps


def http_date(offset_s: float) -> str:
    return format_datetime(datetime.now(timezone.utc) + timedelta(seconds=offset_s), usegmt=True)


def test_http_retry_honours_retry_after_up_to_a_cap(stub_server, monkeypatch):
    # In seconds or as an HTTP date; a date already past means now.
    sleeps = record_sleeps(monkeypatch)
    stub_server.script((503, {}, {"Retry-After": "7"}), (429, {}, {"Retry-After": "86400"}),
                       (503, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                       (429, {}, {"Retry-After": http_date(86400)}),
                       (200, chat_body("done")))
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 5)
    gateway = http_gateway(stub_server.url)
    assert gateway.complete(hello_request("live")).response_text == "done"
    assert sleeps == [7.0, gateway_module.RETRY_CAP_S, 0.0, gateway_module.RETRY_CAP_S]


def test_retry_after_reads_seconds_and_http_dates():
    assert retry_after_s("7") == 7.0
    assert 15 < retry_after_s(http_date(20)) <= 20
    assert retry_after_s("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0
    assert retry_after_s("Wed, 21 Oct 2015 07:28:00 -0000") == 0.0
    for unusable in (None, "-1", "soon", "Wed, 32 Oct 2015 07:28:00 GMT", ""):
        assert retry_after_s(unusable) is None


def test_http_retry_backoff_is_full_jitter(stub_server, monkeypatch):
    # Without a usable Retry-After, attempt n sleeps a uniform draw from
    # [0, base * 2^(n-1)].
    sleeps = record_sleeps(monkeypatch)
    draws = []
    monkeypatch.setattr(gateway_module.random, "uniform",
                        lambda low, high: draws.append((low, high)) or high / 2)
    stub_server.script((503, {}), (503, {}, {"Retry-After": "after lunch"}),
                       (200, chat_body("done")))
    monkeypatch.setattr(gateway_module, "RETRY_BASE_DELAY_S", 0.5)
    gateway = Gateway()
    gateway.register_http("live", stub_server.url, "test-model")
    assert gateway.complete(hello_request("live")).response_text == "done"
    assert draws == [(0, 0.5), (0, 1.0)]
    assert sleeps == [0.25, 0.5]


def test_http_retry_sleep_holds_no_inflight_slot(stub_server, monkeypatch):
    # With one slot per backend, a second call must go through while the
    # first sleeps before its retry.
    monkeypatch.setattr(gateway_module, "MAX_INFLIGHT_PER_BACKEND", 1)
    gateway = http_gateway(stub_server.url)
    stub_server.script((503, {"error": "busy"}), (200, chat_body("meanwhile")),
                       (200, chat_body("retried")))
    during_sleep = []

    def sleep(seconds):
        other = threading.Thread(target=lambda: during_sleep.append(
            gateway.complete(simple_request("live", "other")).response_text))
        other.start()
        other.join(5)
        assert not other.is_alive()

    monkeypatch.setattr(gateway_module.time, "sleep", sleep)
    assert gateway.complete(hello_request("live")).response_text == "retried"
    assert during_sleep == ["meanwhile"]


def test_http_500_surfaces_status_and_body(stub_server):
    stub_server.script((500, {"error": "boom"}))
    gateway = http_gateway(stub_server.url)
    with pytest.raises(HttpStatusError, match="500") as info:
        gateway.complete(hello_request("live"))
    assert "boom" in info.value.body_excerpt


def test_http_malformed_payload(stub_server):
    stub_server.script((200, {"unexpected": "shape"}))
    gateway = http_gateway(stub_server.url)
    with pytest.raises(ProtocolError):
        gateway.complete(hello_request("live"))


@pytest.mark.parametrize("body, message", [
    ("<html>busy</html>", "provider returned non-JSON payload: '<html>busy</html>'"),
    (chat_body(42), "provider message content is not a string"),
])
def test_http_reply_that_is_not_a_chat_reply(stub_server, body, message):
    stub_server.script((200, body))
    gateway = http_gateway(stub_server.url)
    with pytest.raises(ProtocolError) as info:
        gateway.complete(hello_request("live"))
    assert str(info.value) == message
    assert len(stub_server.requests) == 1


def test_http_204_reply_has_no_body_to_read(keep_alive_server):
    # A 204 ends at its head even with no length given, so the connection is
    # read no further and carries the next call.
    keep_alive_server.script(Raw(raw("HTTP/1.1 204 No Content")))
    gateway = http_gateway(keep_alive_server.url)
    with pytest.raises(ProtocolError, match="^provider returned non-JSON payload: ''$"):
        gateway.complete(hello_request("live"))
    assert gateway.complete(simple_request("live", "again")).response_text == "ok"
    assert keep_alive_server.connection_count == 1


def test_http_transport_failure_retries_then_fails():
    # Nothing listens on this port; connection errors burn all three attempts.
    gateway = Gateway()
    gateway.register_http("live", "http://127.0.0.1:9", "test-model", timeout_s=0.2)
    with pytest.raises(GatewayError):
        gateway.complete(hello_request("live"))


@pytest.mark.parametrize("fault", [CUT_OFF, STALL])
def test_http_broken_reply_retries_then_is_transport_error(stub_server, fault):
    # A reply cut off before its Content-Length, or stalled past timeout_s,
    # is a transport failure: retried, then raised as TransportError.
    stub_server.script(fault, fault, fault)
    gateway = Gateway()
    gateway.register_http("live", stub_server.url, "test-model", timeout_s=0.2)
    with pytest.raises(TransportError):
        gateway.complete(hello_request("live"))
    assert len(stub_server.requests) == 3


def test_register_http_validation(monkeypatch):
    gateway = Gateway()
    with pytest.raises(BackendConfigError):
        gateway.register_http("bad", "not a url", "m")
    monkeypatch.delenv("MISSING_TOKEN_VAR", raising=False)
    with pytest.raises(BackendConfigError, match="MISSING_TOKEN_VAR"):
        gateway.register_http("bad", "http://x.test", "m",
                              auth_token_env_var="MISSING_TOKEN_VAR")


def test_http_sends_auth_and_wire_shape(stub_server, monkeypatch):
    monkeypatch.setenv("TEST_TOKEN", "sekret")
    gateway = Gateway()
    gateway.register_http("live", stub_server.url, "test-model",
                          auth_token_env_var="TEST_TOKEN")
    request = ChatRequest(
        "live",
        (ChatMessage("system", "be brief"), ChatMessage("user", "hi 银行")),
    )
    exchange = gateway.complete(request)
    assert exchange.response_text == "ok"
    (sent,) = stub_server.requests
    assert sent.method == "POST"
    assert sent.body == json.dumps({
        "model": "test-model",
        "messages": [{"role": "system", "content": "be brief"},
                     {"role": "user", "content": "hi 银行"}],
        "temperature": 0.0,
        "max_tokens": 2048,
    }).encode("utf-8")
    assert sent.headers["Authorization"] == "Bearer sekret"
    assert sent.headers["Content-Type"] == "application/json"
    assert sent.headers["User-Agent"] == f"crat/{crat.__version__}"


def test_http_header_value_with_a_newline_is_refused(stub_server, monkeypatch):
    # A token read from a file with its newline would end the header block
    # early; the call fails before anything is sent.
    monkeypatch.setenv("TEST_TOKEN", "sekret\nX-Injected: yes")
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 1)
    gateway = Gateway()
    gateway.register_http("live", stub_server.url, "test-model", auth_token_env_var="TEST_TOKEN")
    with pytest.raises(TransportError, match="CR or LF|Invalid header"):
        gateway.complete(hello_request("live"))
    assert stub_server.requests == []


# --- kept-alive connections -------------------------------------------------------


def test_http_calls_share_one_connection(keep_alive_server):
    gateway = http_gateway(keep_alive_server.url)
    for prompt in ("one", "two", "three"):
        assert gateway.complete(simple_request("live", prompt)).attempts == 1
    assert len(keep_alive_server.requests) == 3
    assert keep_alive_server.connection_count == 1


def test_http_threads_never_share_a_connection_at_once(keep_alive_server):
    # Two threads on one connection would break an exchange, and the retry
    # would show as a second attempt; the pool never holds more connections
    # than there were calls in flight.
    gateway = http_gateway(keep_alive_server.url)
    attempts, threads = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in range(8):
            prompts = [f"thread {t} call {n}" for n in range(10)]
            threads.append(threading.Thread(target=lambda prompts=prompts: attempts.extend(
                gateway.complete(simple_request("live", p)).attempts for p in prompts)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert attempts == [1] * 80
    assert len(keep_alive_server.requests) == 80
    assert keep_alive_server.connection_count <= 8


@pytest.mark.parametrize("reused", [False, True])
@pytest.mark.parametrize("error", [ValueError, ConnectionResetError, KeyError])
def test_http_on_sent_error_closes_the_connection_and_propagates(keep_alive_server, reused,
                                                                  error):
    # What on_sent raises is not a transport failure: the request is not
    # sent again, the exception is the one raised, and the connection,
    # with its reply unread, is closed rather than pooled.
    gateway = http_gateway(keep_alive_server.url)
    if reused:
        gateway.complete(simple_request("live", "warm up"))
    raised = error("from on_sent")

    def on_sent():
        raise raised

    with pytest.raises(error) as caught:
        gateway.complete(hello_request("live"), on_sent)
    assert caught.value is raised
    wait_for(lambda: len(keep_alive_server.requests) > reused)
    wait_for(lambda: not keep_alive_server.httpd.connections)
    assert len(keep_alive_server.requests) == 1 + reused
    assert not keep_alive_server.httpd.connections
    host, port = keep_alive_server.httpd.server_address
    assert not gateway_module._IDLE.get(("http", host, port, None))


def test_http_connection_closed_while_idle_costs_no_attempt(keep_alive_server, monkeypatch):
    # The server drops the connection after the first reply; the second call
    # finds it dead and sends again on a new one, within its first attempt.
    sleeps = record_sleeps(monkeypatch)
    keep_alive_server.script(HANG_UP, (200, chat_body("second")))
    gateway = http_gateway(keep_alive_server.url)
    assert gateway.complete(hello_request("live")).response_text == "ok"
    exchange = gateway.complete(simple_request("live", "again"))
    assert (exchange.response_text, exchange.attempts) == ("second", 1)
    assert sleeps == []
    assert len(keep_alive_server.requests) == 2
    assert keep_alive_server.connection_count == 2


@pytest.mark.parametrize("keep_alive", [False, True])
def test_http_reply_that_closes_is_not_reused(keep_alive, monkeypatch):
    # An HTTP/1.0 reply, or an HTTP/1.1 one saying "Connection: close".
    sleeps = record_sleeps(monkeypatch)
    server = StubServer(keep_alive=keep_alive)
    try:
        server.script(*[(200, chat_body("bye"), {"Connection": "close"})] * 3)
        gateway = http_gateway(server.url)
        for prompt in ("one", "two", "three"):
            assert gateway.complete(simple_request("live", prompt)).attempts == 1
        assert sleeps == []
        assert len(server.requests) == 3
        assert server.connection_count == 3
    finally:
        server.close()


@pytest.mark.parametrize("fault", [CUT_OFF, STALL])
def test_http_broken_reply_on_reused_connection(keep_alive_server, fault, monkeypatch):
    # Cut off or stalled on a kept-alive connection: a TransportError, not a
    # second send, and the next call goes out on a new connection.
    keep_alive_server.script((200, chat_body("first")), fault, (200, chat_body("third")))
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 1)
    gateway = Gateway()
    gateway.register_http("live", keep_alive_server.url, "test-model", timeout_s=0.2)
    assert gateway.complete(hello_request("live")).response_text == "first"
    with pytest.raises(TransportError):
        gateway.complete(simple_request("live", "broken"))
    assert gateway.complete(simple_request("live", "third")).response_text == "third"
    assert len(keep_alive_server.requests) == 3
    assert keep_alive_server.connection_count == 2


def test_http_reused_connection_takes_each_calls_timeout(keep_alive_server, monkeypatch):
    # The patient backend opens the connection; the hasty one reuses it, and
    # its own 0.2 s, not the 10 s the connection was opened with, ends the
    # stalled reply.
    keep_alive_server.script((200, chat_body("first")), STALL)
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 1)
    gateway = Gateway()
    gateway.register_http("patient", keep_alive_server.url, "test-model", timeout_s=10)
    gateway.register_http("hasty", keep_alive_server.url, "test-model", timeout_s=0.2)
    gateway.complete(hello_request("patient"))
    started = time.monotonic()
    with pytest.raises(TransportError):
        gateway.complete(hello_request("hasty"))
    assert time.monotonic() - started < 5
    assert keep_alive_server.connection_count == 1


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="needs TCP_QUICKACK")
def test_http_reused_connection_does_not_wait_for_delayed_ack(keep_alive_server):
    # The server writes the headers and then the body with Nagle's algorithm
    # on, as the benchmark's stub provider does: on a kept-alive connection the
    # body waits until the client acknowledges the headers, which a delayed
    # ACK puts off by 40 ms or more.
    gateway = http_gateway(keep_alive_server.url)
    gateway.complete(hello_request("live"))
    seconds = []
    for n in range(5):
        started = time.perf_counter()
        gateway.complete(simple_request("live", f"call {n}"))
        seconds.append(time.perf_counter() - started)
    assert keep_alive_server.connection_count == 1
    assert statistics.median(seconds) < 0.02


PROXY_USERINFO = "us%40er:p%3Ass"  # percent-encoded, as a proxy URL carries it
PROXY_AUTHORIZATION = "Basic " + base64.b64encode(b"us@er:p:ss").decode("ascii")


@pytest.fixture
def proxy_env(monkeypatch):
    """Sets one proxy variable to a server's URL with ``PROXY_USERINFO``, with no
    other proxy settings, and makes the gateway read the proxy table again,
    then once more after the test."""
    for name in ("no_proxy", "NO_PROXY", "http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY"):
        monkeypatch.delenv(name, raising=False)

    def use(name, server, scheme="http://"):
        monkeypatch.setenv(name, server.url.replace("http://", f"{scheme}{PROXY_USERINFO}@"))
        gateway_module._proxies.cache_clear()

    yield use
    gateway_module._proxies.cache_clear()


def test_http_proxied_request_reuses_a_proxy_connection(stub_server, keep_alive_server,
                                                        monkeypatch, proxy_env):
    # The proxy table is read once per process, no_proxy on every call.
    proxy_env("http_proxy", keep_alive_server)
    gateway = http_gateway(f"{stub_server.url}/v1/chat")
    assert gateway.complete(hello_request("live")).response_text == "ok"
    assert gateway.complete(simple_request("live", "again")).response_text == "ok"
    assert keep_alive_server.connection_count == 1
    for proxied in keep_alive_server.requests:
        assert proxied.path == f"{stub_server.url}/v1/chat"
        assert proxied.headers["Host"] == stub_server.url.removeprefix("http://")
        assert proxied.headers["Proxy-Authorization"] == PROXY_AUTHORIZATION
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert gateway.complete(simple_request("live", "direct")).response_text == "ok"
    (direct,) = stub_server.requests
    assert direct.path == "/v1/chat"
    assert "Proxy-Authorization" not in direct.headers
    assert len(keep_alive_server.requests) == 2


def test_http_proxy_without_a_port_is_reached_on_port_80(monkeypatch, proxy_env):
    addresses = []

    def refuse(address, *args, **kwargs):
        addresses.append(address)
        raise ConnectionRefusedError("refused")

    monkeypatch.setenv("http_proxy", "http://proxy.test")
    gateway_module._proxies.cache_clear()
    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 1)
    with pytest.raises(TransportError, match="refused"):
        http_gateway("http://chat.test/v1/chat").complete(hello_request("live"))
    assert addresses == [("proxy.test", 80)]


@pytest.mark.parametrize("no_proxy", ["localhost,127.0.0.1,::1", "localhost,127.0.0.1,[::1]"])
def test_http_no_proxy_list_with_ipv6_entries(stub_server, keep_alive_server,
                                              monkeypatch, proxy_env, no_proxy):
    # no_proxy is not a URL: entries such as ::1 or [::1] must not stop a call,
    # with or without a proxy, when the table is read after it is set.
    monkeypatch.setenv("no_proxy", no_proxy)
    gateway_module._proxies.cache_clear()
    gateway = http_gateway(f"{stub_server.url}/v1/chat")
    assert gateway.complete(hello_request("live")).response_text == "ok"
    proxy_env("http_proxy", keep_alive_server)
    assert gateway.complete(simple_request("live", "bypassed")).response_text == "ok"
    assert [r.path for r in stub_server.requests] == ["/v1/chat", "/v1/chat"]
    assert keep_alive_server.requests == []
    gateway.register_http("elsewhere", "http://chat.test/v1/chat", "test-model")
    assert gateway.complete(hello_request("elsewhere")).response_text == "ok"
    (proxied,) = keep_alive_server.requests
    assert proxied.path == "http://chat.test/v1/chat"


def test_https_proxied_request_opens_a_connect_tunnel(stub_server, proxy_env, monkeypatch):
    # The stub refuses the tunnel, so no TLS is spoken; the CONNECT alone
    # carries the proxy's credentials. The proxy URL may leave out its scheme.
    proxy_env("https_proxy", stub_server, scheme="")
    monkeypatch.setattr(gateway_module, "MAX_ATTEMPTS", 1)
    gateway = Gateway()
    gateway.register_http("live", "https://secure.test/v1/chat", "test-model")
    with pytest.raises(TransportError, match="403"):
        gateway.complete(hello_request("live"))
    (tunnel,) = stub_server.requests
    assert (tunnel.method, tunnel.path) == ("CONNECT", "secure.test:443")
    assert tunnel.headers["Proxy-Authorization"] == PROXY_AUTHORIZATION


@pytest.fixture
def tls_server(tmp_path, monkeypatch, proxy_env):
    """A kept-alive ``StubServer`` speaking HTTPS with a self-signed
    certificate for localhost, which ``SSL_CERT_FILE`` makes trusted; no proxy
    is set."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
                    "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1", "-subj", "/CN=localhost",
                    "-addext", "subjectAltName=DNS:localhost", "-keyout", key, "-out", cert],
                   check=True, capture_output=True)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    gateway_module._proxies.cache_clear()
    gateway_module._tls.cache_clear()
    server = StubServer(keep_alive=True, tls=context)
    yield server
    server.close()
    gateway_module._tls.cache_clear()


def test_https_calls_share_one_verified_connection(tls_server):
    port = tls_server.httpd.server_address[1]
    gateway = http_gateway(f"https://localhost:{port}/v1/chat")
    for prompt in ("one", "two", "three"):
        assert gateway.complete(simple_request("live", prompt)).response_text == "ok"
    assert tls_server.connection_count == 1
    assert [r.headers["Host"] for r in tls_server.requests] == [f"localhost:{port}"] * 3


class TunnelProxy:
    """A proxy that answers each ``CONNECT`` with 200 and then relays bytes
    both ways between the client and 127.0.0.1 at the port asked for; it
    records each ``CONNECT`` head."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.heads = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                client, _ = self.listener.accept()
            except OSError:  # closed
                return
            head = b""
            # A byte at a time, so as to read no further than the head.
            while not head.endswith(b"\r\n\r\n") and (byte := client.recv(1)):
                head += byte
            self.heads.append(head.decode("latin-1"))
            port = int(head.split()[1].rpartition(b":")[2])
            upstream = socket.create_connection(("127.0.0.1", port))
            client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            for source, sink in ((client, upstream), (upstream, client)):
                threading.Thread(target=self._relay, args=(source, sink), daemon=True).start()

    @staticmethod
    def _relay(source, sink):
        try:
            while data := source.recv(65536):
                sink.sendall(data)
            sink.shutdown(socket.SHUT_WR)
        except OSError:
            pass


def test_https_through_a_connect_tunnel(tls_server, proxy_env):
    # The tunnel carries the verified TLS connection, kept alive like a direct one.
    proxy = TunnelProxy()
    try:
        proxy_env("https_proxy", proxy)
        port = tls_server.httpd.server_address[1]
        gateway = http_gateway(f"https://localhost:{port}/v1/chat")
        for prompt in ("one", "two"):
            assert gateway.complete(simple_request("live", prompt)).response_text == "ok"
        (head,) = proxy.heads
        assert head.startswith(f"CONNECT localhost:{port} HTTP/1.1\r\n")
        assert f"Proxy-Authorization: {PROXY_AUTHORIZATION}\r\n" in head
        assert tls_server.connection_count == 1
        assert [r.path for r in tls_server.requests] == ["/v1/chat"] * 2
    finally:
        proxy.listener.close()


def test_http_redirect_is_not_followed(stub_server):
    stub_server.script((307, {}, {"Location": "/elsewhere"}))
    gateway = http_gateway(f"{stub_server.url}/v1/chat")
    with pytest.raises(HttpStatusError, match="307") as info:
        gateway.complete(hello_request("live"))
    assert info.value.status == 307
    assert len(stub_server.requests) == 1


# --- reply framing ------------------------------------------------------------------


def raw(*head: str, body: bytes = b"") -> bytes:
    """A reply head of the lines ``head``, each ended by CRLF, then an empty
    line and ``body``."""
    return "".join(f"{line}\r\n" for line in (*head, "")).encode("latin-1") + body


def chunked(data: bytes, size: int) -> bytes:
    """``data`` in chunks of ``size`` bytes, each with a chunk extension, then
    the last chunk and a trailer field."""
    pieces = [data[n:n + size] for n in range(0, len(data), size)]
    return (b"".join(b'%x;note="x"\r\n%s\r\n' % (len(piece), piece) for piece in pieces)
            + b"0\r\nX-Checksum: none\r\n\r\n")


FRAMED = json.dumps(chat_body("framed")).encode()


def test_http_chunked_reply_with_extension_and_trailer(keep_alive_server):
    # The trailer is read up to its end: the next call on the same
    # connection reads its own reply.
    keep_alive_server.script(Raw(raw("HTTP/1.1 200 OK", "Transfer-Encoding: chunked",
                                     body=chunked(FRAMED, 7))))
    gateway = http_gateway(keep_alive_server.url)
    assert gateway.complete(hello_request("live")).response_text == "framed"
    assert gateway.complete(simple_request("live", "again")).response_text == "ok"
    assert keep_alive_server.connection_count == 1


def test_http_reply_without_length_is_read_to_close(keep_alive_server):
    # Neither a length nor chunking: the body ends where the server stops
    # writing, and the connection carries no second request.
    keep_alive_server.script(Raw(raw("HTTP/1.1 200 OK", body=FRAMED), close=True))
    gateway = http_gateway(keep_alive_server.url)
    assert gateway.complete(hello_request("live")).response_text == "framed"
    assert gateway.complete(simple_request("live", "again")).attempts == 1
    assert len(keep_alive_server.requests) == 2
    assert keep_alive_server.connection_count == 2


def test_http_reply_with_length_and_chunking_is_read_as_chunked(keep_alive_server):
    # RFC 9112 6.3: chunking overrides Content-Length, and a reply that sends
    # both may not be framed as the server meant, so its connection is dropped.
    keep_alive_server.script(Raw(raw("HTTP/1.1 200 OK", "Content-Length: 5",
                                     "Transfer-Encoding: chunked", body=chunked(FRAMED, 16))))
    gateway = http_gateway(keep_alive_server.url)
    assert gateway.complete(hello_request("live")).response_text == "framed"
    assert gateway.complete(simple_request("live", "again")).response_text == "ok"
    assert keep_alive_server.connection_count == 2


@pytest.mark.parametrize("interim", [("HTTP/1.1 100 Continue",),
                                     ("HTTP/1.1 103 Early Hints", "Link: </a.css>; rel=preload")],
                         ids=["100", "103"])
def test_http_interim_reply_is_skipped(keep_alive_server, interim):
    keep_alive_server.script(Raw(raw(*interim) + raw(
        "HTTP/1.1 200 OK", f"Content-Length: {len(FRAMED)}", body=FRAMED)))
    gateway = http_gateway(keep_alive_server.url)
    exchange = gateway.complete(hello_request("live"))
    assert (exchange.response_text, exchange.attempts) == ("framed", 1)
    assert gateway.complete(simple_request("live", "again")).response_text == "ok"
    assert keep_alive_server.connection_count == 1


def test_http_lower_case_retry_after_is_honoured(stub_server, monkeypatch):
    sleeps = record_sleeps(monkeypatch)
    stub_server.script((503, {}, {"retry-after": "7"}), (200, chat_body("done")))
    gateway = http_gateway(stub_server.url)
    assert gateway.complete(hello_request("live")).response_text == "done"
    assert sleeps == [7.0]


@pytest.mark.parametrize("reply", [
    raw("ICY 200 OK", "Content-Length: 2", body=b"{}"),
    raw("HTTP/1.1 200 OK", "X-Long: " + "a" * 65536, "Content-Length: 2", body=b"{}"),
    raw("HTTP/1.1 200 OK", *[f"X-Field-{n}: {n}" for n in range(100)], "Content-Length: 2",
        body=b"{}"),
], ids=["not-http", "line-over-64-kib", "101-fields"])
def test_http_malformed_reply_head_is_a_transport_error(keep_alive_server, reply):
    keep_alive_server.script(*[Raw(reply)] * gateway_module.MAX_ATTEMPTS)
    gateway = http_gateway(keep_alive_server.url)
    with pytest.raises(TransportError):
        gateway.complete(hello_request("live"))
    assert len(keep_alive_server.requests) == gateway_module.MAX_ATTEMPTS
