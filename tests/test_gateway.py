"""Gateway: fingerprints, scripted mocks, the response cache, and the HTTP
backend's wire handling and retry policy."""

from __future__ import annotations

import json
import socket
import statistics
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest

import crat
from crat import gateway as gateway_module
from conftest import CUT_OFF, HANG_UP, STALL, StubServer, simple_request
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
    ProtocolError,
    RetryLaterError,
    ScriptedMissError,
    TransportError,
    UnknownBackendError,
    echo_last_user,
    match_fingerprint,
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


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest("b", ())
    with pytest.raises(ValueError):
        ChatRequest("b", (ChatMessage("assistant", "hi"),))
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hi")


def test_fingerprint_stability_and_sensitivity():
    fp = request_fingerprint(hello_request())
    assert fp == request_fingerprint(hello_request())
    assert fp == HELLO_FINGERPRINT
    assert fp != request_fingerprint(simple_request("mock", "say goodbye"))


def test_mock_fingerprint_rule():
    gateway = Gateway()
    gateway.register_mock("mock", [(match_fingerprint(HELLO_FINGERPRINT), "hello")])
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


def test_cache_layout_and_contents(tmp_path):
    gateway = Gateway(cache_dir=tmp_path / "cache")
    gateway.register_mock("mock", [], fallback="entry")
    exchange = gateway.complete(hello_request())
    gateway.flush()
    fp = exchange.fingerprint
    path = tmp_path / "cache" / fp[:2] / f"{fp}.json"
    assert path.is_file()
    entry = json.loads(path.read_text())
    assert entry["response_text"] == "entry"
    assert entry["fingerprint"] == fp
    assert "timestamp" in entry and "request" in entry


def test_pending_entry_is_a_hit_before_it_is_on_disk(tmp_path, monkeypatch):
    # The writer is held until the second call is done: the reply is then
    # only in memory, and the backend must still be called once.
    calls = []
    gateway = Gateway(cache_dir=tmp_path / "cache")
    gateway.register_mock("mock", [], fallback=lambda request: calls.append(1) or "pending")
    release = threading.Event()
    write = gateway._cache_write

    def held_write(*args):
        assert release.wait(5), "the test never released the writer"
        write(*args)

    monkeypatch.setattr(gateway, "_cache_write", held_write)
    first = gateway.complete(hello_request())
    path = tmp_path / "cache" / first.fingerprint[:2] / f"{first.fingerprint}.json"
    second = gateway.complete(hello_request())
    assert not path.exists()
    assert (first.cache_hit, second.cache_hit) == (False, True)
    assert second.response_text == "pending" and second.attempts == 0
    assert len(calls) == 1
    release.set()
    gateway.flush()
    entry = json.loads(path.read_text())
    assert sorted(entry) == ["fingerprint", "request", "response_text", "timestamp"]
    assert entry["fingerprint"] == first.fingerprint
    assert entry["response_text"] == "pending"
    assert entry["request"]["messages"] == [["user", "say hello"]]


def test_gateway_context_flushes_and_stops_its_threads(tmp_path):
    before = set(threading.enumerate())
    with Gateway(cache_dir=tmp_path / "cache") as gateway:
        gateway.register_mock("mock", [], fallback="entry")
        exchange = gateway.complete(hello_request())
        assert gateway.fan_out(len, ["a", "bb"]) == [1, 2]
    fp = exchange.fingerprint
    assert json.loads((tmp_path / "cache" / fp[:2] / f"{fp}.json").read_text())[
        "response_text"] == "entry"
    assert not [t for t in threading.enumerate() if t not in before and t.is_alive()]


def test_concurrent_calls_leave_every_reply_on_disk(tmp_path):
    # Many threads repeat a few requests while the writer drains; after
    # flush, a second gateway on the directory finds every reply on disk.
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
    gateway.flush()
    assert texts == [f"re: {prompts[n % len(prompts)]}" for n in range(200)]
    reader = Gateway(cache_dir=tmp_path / "cache")
    reader.register_mock("mock", [])
    for prompt in prompts:
        exchange = reader.complete(simple_request("mock", prompt))
        assert exchange.cache_hit and exchange.response_text == f"re: {prompt}"


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
            first.flush()
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
    first.flush()
    exchange = script_gateway(tmp_path / "b", "answer from script B",
                              cache_dir).complete(hello_request())
    assert exchange.cache_hit is False
    assert exchange.response_text == "answer from script B"
    # The same script in another directory is the same model.
    again = script_gateway(tmp_path / "c", "answer from script A", cache_dir)
    assert again.complete(hello_request()).cache_hit is True


def test_corrupt_cache_entry_is_ignored(tmp_path):
    gateway = Gateway(cache_dir=tmp_path / "cache")
    gateway.register_mock("mock", [], fallback="fresh")
    exchange = gateway.complete(hello_request())
    gateway.flush()
    path = tmp_path / "cache" / exchange.fingerprint[:2] / f"{exchange.fingerprint}.json"
    path.write_text("not json")
    again = gateway.complete(hello_request())
    assert again.cache_hit is False and again.response_text == "fresh"


# --- http backend ---------------------------------------------------------------


def http_gateway(url, **kwargs):
    gateway = Gateway(retry_base_delay_s=0.01, **kwargs)
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
    gateway = http_gateway(stub_server.url, max_attempts=5)
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
    gateway = Gateway(retry_base_delay_s=0.5)
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


def test_http_transport_failure_retries_then_fails():
    # Nothing listens on this port; connection errors burn all three attempts.
    gateway = Gateway(retry_base_delay_s=0.01)
    gateway.register_http("live", "http://127.0.0.1:9", "test-model", timeout_s=0.2)
    with pytest.raises(GatewayError):
        gateway.complete(hello_request("live"))


@pytest.mark.parametrize("fault", [CUT_OFF, STALL])
def test_http_broken_reply_retries_then_is_transport_error(stub_server, fault):
    # A reply cut off before its Content-Length, or stalled past timeout_s,
    # is a transport failure: retried, then raised as TransportError.
    stub_server.script(fault, fault, fault)
    gateway = Gateway(retry_base_delay_s=0.01)
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
def test_http_broken_reply_on_reused_connection(keep_alive_server, fault):
    # Cut off or stalled on a kept-alive connection: a TransportError, not a
    # second send, and the next call goes out on a new connection.
    keep_alive_server.script((200, chat_body("first")), fault, (200, chat_body("third")))
    gateway = Gateway(max_attempts=1)
    gateway.register_http("live", keep_alive_server.url, "test-model", timeout_s=0.2)
    assert gateway.complete(hello_request("live")).response_text == "first"
    with pytest.raises(TransportError):
        gateway.complete(simple_request("live", "broken"))
    assert gateway.complete(simple_request("live", "third")).response_text == "third"
    assert len(keep_alive_server.requests) == 3
    assert keep_alive_server.connection_count == 2


def test_http_reused_connection_takes_each_calls_timeout(keep_alive_server):
    # The patient backend opens the connection; the hasty one reuses it, and
    # its own 0.2 s, not the 10 s the connection was opened with, ends the
    # stalled reply.
    keep_alive_server.script((200, chat_body("first")), STALL)
    gateway = Gateway(max_attempts=1)
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


def test_http_proxied_request_goes_through_urllib(stub_server, keep_alive_server, monkeypatch):
    # The proxy table is read once per process, no_proxy on every call.
    for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", stub_server.url)
    gateway_module._urllib.cache_clear()
    try:
        gateway = http_gateway(f"{keep_alive_server.url}/v1/chat")
        assert gateway.complete(hello_request("live")).response_text == "ok"
        (proxied,) = stub_server.requests
        assert proxied.path == f"{keep_alive_server.url}/v1/chat"
        assert proxied.headers["Connection"] == "close"
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert gateway.complete(simple_request("live", "direct")).response_text == "ok"
        (direct,) = keep_alive_server.requests
        assert direct.path == "/v1/chat"
    finally:
        gateway_module._urllib.cache_clear()
