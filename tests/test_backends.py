from __future__ import annotations

import base64
import gc
import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import kg_reason
from kg_reason import BackendConfig, HttpBackend, MockBackend, backends, make_backend, prompt_hash
from kg_reason import RETRIEVAL_TEMPLATE, VERIFICATION_INFERENCE_TEMPLATE, render_prompt
from kg_reason.backends import MockEntry
from kg_reason.errors import BackendError, MockScriptError


def write_script(tmp_path, records):
    path = tmp_path / "script.jsonl"
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return str(path)


# --- mock backend ---------------------------------------------------------


def test_hash_entry_matches_exact_prompt(tmp_path):
    prompt = "the rendered prompt"
    path = write_script(
        tmp_path,
        [
            {
                "stage": "inference",
                "match_kind": "hash",
                "key": prompt_hash(prompt),
                "response": "True, because scripted.",
            }
        ],
    )
    backend = MockBackend.from_path(path)
    assert backend.complete(prompt, "inference") == "True, because scripted."


def test_sentence_entries_answer_the_sentence_a_prompt_asks_about(tmp_path):
    claim = "AIDAstella was built by Meyer Werft."
    path = write_script(
        tmp_path,
        [
            {"stage": "inference", "match_kind": "sentence", "key": claim, "response": "True."},
            {"stage": "retrieval", "match_kind": "sentence", "key": claim, "response": "['builder']"},
        ],
    )
    backend = MockBackend.from_path(path)
    for shots in (1, 12):  # the key holds whatever the examples and evidence are
        for evidence in ("[]", "[['AIDAstella', 'builder', 'Meyer_Werft']]"):
            bindings = {"CLAIM": claim, "EVIDENCE_SET": evidence}
            prompt = render_prompt(VERIFICATION_INFERENCE_TEMPLATE, bindings, shots)
            assert backend.complete(prompt, "inference") == "True."
    bindings = {"SENTENCE": claim, "RELATION_SET": "['builder']", "TOP_K": "5"}
    assert backend.complete(render_prompt(RETRIEVAL_TEMPLATE, bindings, 12), "retrieval") == "['builder']"
    with pytest.raises(MockScriptError, match="no entry for the prompt or for None$"):
        backend.complete(claim, "inference")  # no footer: the prompt asks about no sentence


def test_hash_match_takes_precedence_over_the_sentence(tmp_path):
    claim = "AIDAstella was built by Meyer Werft."
    special = render_prompt(VERIFICATION_INFERENCE_TEMPLATE, {"CLAIM": claim, "EVIDENCE_SET": "[]"}, 4)
    other = render_prompt(VERIFICATION_INFERENCE_TEMPLATE, {"CLAIM": claim, "EVIDENCE_SET": "[]"}, 5)
    path = write_script(
        tmp_path,
        [
            {"stage": "inference", "match_kind": "sentence", "key": claim, "response": "by sentence"},
            {"stage": "inference", "match_kind": "hash", "key": prompt_hash(special), "response": "hashed"},
        ],
    )
    backend = MockBackend.from_path(path)
    assert backend.complete(other, "inference") == "by sentence"
    assert backend.complete(special, "inference") == "hashed"
    assert backend.complete(other, "inference") == "by sentence"
    with pytest.raises(MockScriptError):  # keyed per stage
        backend.complete(other, "segmentation")


@pytest.mark.parametrize("match_kind, key", [("sentence", "A claim."), ("hash", prompt_hash("p"))])
def test_a_key_given_two_responses_is_refused_with_its_line(tmp_path, match_kind, key):
    entry = {"stage": "inference", "match_kind": match_kind, "key": key, "response": "True."}
    other_stage = {**entry, "stage": "segmentation", "response": "1. A claim."}
    # the same response again is the same entry, and another stage another key
    path = write_script(tmp_path, [entry, other_stage, entry, {**entry, "response": "False."}])
    with pytest.raises(MockScriptError) as err:
        MockBackend.from_path(path)
    assert str(err.value) == f"stage=- hash=-: {path}:4: inference {match_kind} key {key!r} has two responses"
    with pytest.raises(MockScriptError) as err:
        MockBackend([MockEntry(**entry), MockEntry(**{**entry, "response": "False."})])
    assert str(err.value) == f"stage=- hash=-: inference {match_kind} key {key!r} has two responses"


def test_a_sequence_entry_is_refused_naming_sentence_entries(tmp_path):
    # the message names the kind that keys a hand-written reply
    path = write_script(
        tmp_path,
        [{"stage": "inference", "match_kind": "sequence", "key": "0", "response": "True."}],
    )
    with pytest.raises(MockScriptError) as err:
        MockBackend.from_path(path)
    assert str(err.value) == (
        f'stage=- hash=-: {path}:1: bad match_kind \'sequence\', not "hash" or "sentence"'
    )


def test_mock_miss_reports_stage_and_hash(tmp_path):
    path = write_script(tmp_path, [])
    backend = MockBackend.from_path(path)
    with pytest.raises(MockScriptError) as err:
        backend.complete("prompt", "segmentation")
    assert err.value.stage == "segmentation"
    assert err.value.prompt_hash == prompt_hash("prompt")


def test_bad_script_record_reports_line(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"stage": "inference"}\n', encoding="utf-8")
    with pytest.raises(MockScriptError) as err:
        MockBackend.from_path(str(path))
    assert ":1" in str(err.value)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"response": None}, "stage, key and response must be strings"),
        ({"stage": ["inference"]}, "stage, key and response must be strings"),
        ({"key": 0}, "stage, key and response must be strings"),
        ({"match_kind": "fuzzy"}, 'bad match_kind \'fuzzy\', not "hash" or "sentence"'),
        # stage names are compared verbatim: a near miss could never match a call
        ({"stage": "Segmentation"}, "unknown stage 'Segmentation'"),
        ({"stage": "retrieve"}, "unknown stage 'retrieve'"),
    ],
)
def test_script_record_of_the_wrong_form_reports_path_and_line(tmp_path, change, message):
    good = {"stage": "inference", "match_kind": "sentence", "key": "A claim.", "response": "True."}
    path = write_script(tmp_path, [good, {**good, **change}])
    with pytest.raises(MockScriptError) as err:
        MockBackend.from_path(path)
    assert str(err.value).endswith(f"{path}:2: {message}")


def test_bad_match_kind_rejected():
    with pytest.raises(MockScriptError):
        MockBackend([MockEntry("inference", "fuzzy", "A claim.", "x")])


@pytest.mark.parametrize(
    "entry, message",
    [
        (("Segmentation", "sentence", "A claim.", "x"), "unknown stage 'Segmentation'"),
        (("segmentation", "sentence", "A claim.", None), "stage, key and response must be strings"),
        (("segmentation", "sentence", 0, "x"), "stage, key and response must be strings"),
        (("inference", "hash", "abc", "x"), "hash key must be 64 lowercase hex digits, got 'abc'"),
    ],
    ids=["bad-stage", "none-response", "integer-key", "short-hash-key"],
)
def test_a_directly_built_entry_is_checked_like_a_script_line(entry, message):
    with pytest.raises(MockScriptError) as err:
        MockBackend([MockEntry(*entry)])
    assert str(err.value) == f"stage=- hash=-: {message}"


def test_make_backend_dispatches_on_endpoint(tmp_path):
    path = write_script(tmp_path, [])
    assert isinstance(make_backend(BackendConfig(endpoint=f"mock:{path}")), MockBackend)
    assert isinstance(make_backend(BackendConfig(endpoint="http://localhost:1")), HttpBackend)


# --- http backend ------------------------------------------------------------
# The seam is the loopback server: it records each request and answers from
# its script of replies.


def _backend(server, **config):
    return HttpBackend(BackendConfig(endpoint=server.url, **config))


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once, without the exponential wait between attempts."""
    monkeypatch.setattr(backends, "BACKOFF_BASE", 0.0)


def test_http_backend_payload_and_auth(chat_server, monkeypatch):
    server = chat_server(replies=[(200, {}, "True, fine.")])
    monkeypatch.setenv("KG_REASON_API_KEY", "sk-test")
    backend = HttpBackend(BackendConfig(endpoint=server.url, model="m1"))
    got = backend.complete("the prompt", "inference")
    assert got == "True, fine."
    (seen,) = server.seen
    assert (seen.method, seen.target) == ("POST", "/v1/chat/completions")
    assert seen.payload["messages"] == [{"role": "user", "content": "the prompt"}]
    assert seen.payload["model"] == "m1"
    assert seen.payload["temperature"] == 0.2
    assert seen.payload["top_p"] == 0.1
    assert seen.headers["Authorization"] == "Bearer sk-test"
    assert backend._channel().conn.timeout == 30.0


@pytest.mark.parametrize("suffix", ["", "/", "/v1", "/v1/", "/v1/chat/completions"])
def test_http_backend_posts_to_the_chat_completions_path(chat_server, suffix):
    server = chat_server()
    HttpBackend(BackendConfig(endpoint=server.url + suffix)).complete("p", "inference")
    assert [s.target for s in server.seen] == ["/v1/chat/completions"]


def test_http_backend_no_key_sends_no_auth_header(chat_server, monkeypatch):
    server = chat_server()
    monkeypatch.delenv("KG_REASON_API_KEY", raising=False)
    _backend(server).complete("p", "inference")
    assert "Authorization" not in server.seen[0].headers


def test_http_backend_retries_then_fails(chat_server, no_backoff):
    server = chat_server(replies=[(None, {}, "")])  # hang up without a reply
    with pytest.raises(BackendError) as err:
        _backend(server, max_retries=2).complete("p", "inference")
    assert len(server.seen) == 3
    assert "after 3 attempts" in str(err.value)


def test_http_backend_unreachable_server_retries_then_fails(chat_server, no_backoff):
    server = chat_server()
    url = server.url
    server.shutdown()
    server.server_close()
    backend = HttpBackend(BackendConfig(endpoint=url, max_retries=1))
    with pytest.raises(BackendError) as err:
        backend.complete("p", "inference")
    assert "after 2 attempts" in str(err.value)


def test_http_backend_retries_server_errors_then_succeeds(chat_server, no_backoff):
    server = chat_server(replies=[(500, {}, "busy"), (200, {}, "late")])
    assert _backend(server, max_retries=1).complete("p", "inference") == "late"


@pytest.mark.parametrize("content", [None, ["True"], 1])
def test_http_backend_non_string_content_retries_then_fails(chat_server, no_backoff, content):
    server = chat_server(replies=[(200, {}, content)])
    with pytest.raises(BackendError) as err:
        _backend(server, max_retries=1).complete("p", "inference")
    assert len(server.seen) == 2
    assert "reply content is" in str(err.value)


def test_http_backend_client_error_fails_fast(chat_server):
    server = chat_server(replies=[(401, {}, "bad key")])
    with pytest.raises(BackendError) as err:
        _backend(server, max_retries=3).complete("p", "inference")
    assert len(server.seen) == 1
    assert "rejected with 401: bad key" in str(err.value)


def test_http_backend_follows_no_redirect(chat_server):
    server = chat_server(replies=[(302, {"Location": "/elsewhere"}, "moved")])
    with pytest.raises(BackendError) as err:
        _backend(server, max_retries=3).complete("p", "inference")
    assert [s.target for s in server.seen] == ["/v1/chat/completions"]
    assert "rejected with 302" in str(err.value)


@pytest.mark.parametrize(
    "status, retry_after, slept",
    [
        (429, "3", [3, 3]),
        (503, " 2 ", [2, 2]),
        (429, "120", [10.0, 10.0]),  # capped at the timeout
        (429, None, [0.5, 1.0]),  # no header: exponential backoff
        (503, "Fri, 31 Dec 1999 23:59:59 GMT", [0.5, 1.0]),  # HTTP-date: not parsed
        (429, "1.5", [0.5, 1.0]),  # not delta-seconds
        (500, "3", [0.5, 1.0]),  # honoured on 429 and 503 only
    ],
)
def test_http_backend_honours_retry_after(chat_server, monkeypatch, status, retry_after, slept):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    server = chat_server(replies=[(status, headers, "")])
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    backend = HttpBackend(
        BackendConfig(endpoint=server.url, max_retries=2, timeout=10.0)
    )
    with pytest.raises(BackendError):
        backend.complete("p", "inference")
    assert len(server.seen) == 3
    assert sleeps == slept


def test_http_backend_retry_after_applies_to_the_next_attempt_only(chat_server, monkeypatch):
    server = chat_server(
        replies=[(429, {"Retry-After": "4"}, ""), (500, {}, ""), (200, {}, "done")]
    )
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    backend = HttpBackend(BackendConfig(endpoint=server.url, max_retries=2))
    assert backend.complete("p", "inference") == "done"
    assert sleeps == [4, 1.0]


# --- http backend connections ------------------------------------------------


def _run_in_thread(target) -> None:
    errors = []

    def body():
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(30)
    assert not thread.is_alive()
    if errors:
        raise errors[0]


def test_http_backend_reuses_one_connection_per_thread(chat_server):
    server = chat_server()
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    _run_in_thread(lambda: [backend.complete(f"call {i}", "inference") for i in range(3)])
    assert [prompt for _, prompt in server.requests] == ["call 0", "call 1", "call 2"]
    assert server.connections == 1


def test_http_backend_sends_back_no_cookies(chat_server):
    # Like one-off requests, the kept connection stores no cookie a server sets.
    server = chat_server()
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    for i in range(2):
        backend.complete(f"call {i}", "inference")
    assert server.cookies == [None, None]


def test_http_backend_threads_never_share_a_connection(chat_server):
    server = chat_server()
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    both_live = threading.Barrier(2, timeout=10)

    def client(name):
        for i in range(3):
            both_live.wait()
            assert backend.complete(f"{name} {i}", "inference") == f"{name} {i}"

    threads = [threading.Thread(target=client, args=(name,)) for name in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    ports = {
        name: {port for port, prompt in server.requests if prompt.startswith(name)}
        for name in ("a", "b")
    }
    assert len(server.requests) == 6
    assert len(ports["a"]) == len(ports["b"]) == 1
    assert ports["a"].isdisjoint(ports["b"])
    assert server.connections == 2


def test_http_backend_closes_a_finished_threads_connection(chat_server):
    # One slot: thread B's connection is served only once thread A's closes;
    # otherwise B's first call times out after 5 s and raises BackendError.
    # The close is explicit: a socket left for the collector warns.
    server = chat_server(slots=1)
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _run_in_thread(lambda: [backend.complete(f"a {i}", "inference") for i in range(2)])
        _run_in_thread(lambda: [backend.complete(f"b {i}", "inference") for i in range(2)])
        gc.collect()
    assert [prompt for _, prompt in server.requests] == ["a 0", "a 1", "b 0", "b 1"]
    assert server.connections == 2
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_http_backend_reopens_a_kept_connection_the_server_closed(chat_server):
    # The server closes each connection after its reply without saying so,
    # as one whose keep-alive timeout ran out does. With no retries to
    # spend, each call still succeeds, on a fresh connection.
    server = chat_server(hang_up=True)
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    for i in range(3):
        time.sleep(0.05)
        assert backend.complete(f"call {i}", "inference") == f"call {i}"
    assert server.connections == 3


def test_http_backend_reopens_a_closed_connection_where_select_has_no_poll(
    chat_server, monkeypatch
):
    # As on a platform without select.poll: select.select sees the close.
    monkeypatch.delattr(select, "poll")
    server = chat_server(hang_up=True)
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    for i in range(3):
        time.sleep(0.05)
        assert backend.complete(f"call {i}", "inference") == f"call {i}"
    assert server.connections == 3


def test_http_backend_connections_send_without_nagle_delay(chat_server):
    # With Nagle's algorithm on, a delayed ACK of the headers would hold back the body.
    server = chat_server()
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    assert backend.complete("p", "inference") == "p"
    sock = backend._local.channel.conn.sock
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def _basic(userinfo: str) -> str:
    return "Basic " + base64.b64encode(userinfo.encode()).decode()


@pytest.mark.parametrize("variable", ["HTTP_PROXY", "http_proxy", "ALL_PROXY"])
def test_http_backend_sends_through_the_environments_proxy(chat_server, monkeypatch, variable):
    proxy = chat_server()
    monkeypatch.setenv(variable, proxy.url.replace("//", "//user:p%40ss@"))
    backend = HttpBackend(
        BackendConfig(endpoint="http://kg-reason.invalid:9", timeout=5.0, max_retries=0)
    )
    assert backend.complete("p", "inference") == "p"
    (seen,) = proxy.seen
    assert seen.target == "http://kg-reason.invalid:9/v1/chat/completions"
    assert seen.headers["Host"] == "kg-reason.invalid:9"
    assert seen.headers["Proxy-Authorization"] == _basic("user:p@ss")


def test_http_backend_no_proxy_bypasses_the_proxy(chat_server, monkeypatch):
    server = chat_server()
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
    monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
    _backend(server, timeout=5.0, max_retries=0).complete("p", "inference")
    assert [s.target for s in server.seen] == ["/v1/chat/completions"]


def test_http_backend_tunnels_https_through_the_proxy(chat_server, monkeypatch):
    proxy = chat_server()  # refuses every CONNECT with 502
    monkeypatch.setenv("HTTPS_PROXY", proxy.url.replace("//", "//user:pw@"))
    backend = HttpBackend(
        BackendConfig(endpoint="https://kg-reason.invalid", timeout=5.0, max_retries=0)
    )
    with pytest.raises(BackendError):
        backend.complete("p", "inference")
    (seen,) = proxy.seen
    assert (seen.method, seen.target) == ("CONNECT", "kg-reason.invalid:443")
    assert seen.headers["Proxy-Authorization"] == _basic("user:pw")


def test_importing_the_package_loads_no_third_party_http_client():
    src = str(Path(kg_reason.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, kg_reason; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"


def test_negative_retries_rejected():
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", max_retries=-1)


@pytest.mark.parametrize("value", [2.0, True, "2", None])
def test_retries_that_are_not_an_int_rejected(value):
    # a float count would get past construction and fail inside complete as a TypeError
    with pytest.raises(ValueError, match=f"^max_retries must be .*, got {re.escape(str(value))}$"):
        BackendConfig(endpoint="http://x", max_retries=value)


def test_sampling_defaults():
    cfg = BackendConfig(endpoint="http://x")
    assert cfg.temperature == 0.2
    assert cfg.top_p == 0.1


@pytest.mark.parametrize(
    "field, value",
    [
        ("temperature", -0.1),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("top_p", -0.1),
        ("top_p", 1.5),
        ("top_p", float("nan")),
        ("top_p", float("inf")),
    ],
)
def test_sampling_settings_must_be_finite_and_in_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        BackendConfig(endpoint="http://x", **{field: value})


def test_sampling_settings_at_their_bounds_are_accepted():
    assert BackendConfig(endpoint="http://x", temperature=0, top_p=0).top_p == 0
    assert BackendConfig(endpoint="http://x", temperature=2.0, top_p=1).top_p == 1


def test_http_backend_sends_no_float_that_json_cannot_hold(chat_server):
    # a config forced past its checks stands for any float field the body
    # carries: the body stays strict JSON, which has no NaN or Infinity
    server = chat_server()
    config = BackendConfig(endpoint=server.url)
    object.__setattr__(config, "temperature", float("nan"))
    with pytest.raises(ValueError, match="not JSON compliant"):
        HttpBackend(config).complete("p", "inference")
    assert server.seen == []


@pytest.mark.parametrize(
    "endpoint, proxy, message",
    [
        (
            "http://localhost:65536",
            None,
            "bad endpoint URL 'http://localhost:65536/v1/chat/completions'",
        ),
        ("ftp://localhost", None, "bad endpoint URL 'ftp://localhost/v1/chat/completions'"),
        (
            "http://kg-reason.invalid",
            "https://127.0.0.1:9",
            "unsupported proxy 'https://127.0.0.1:9': only http:// proxies are supported",
        ),
        (
            "http://kg-reason.invalid",
            "http://127.0.0.1:65536",
            "bad proxy URL 'http://127.0.0.1:65536'",
        ),
    ],
    ids=["endpoint-port-out-of-range", "endpoint-not-http", "https-proxy", "proxy-port-out-of-range"],
)
@pytest.mark.usefixtures("chat_server")  # for its cleared proxy variables; no server starts
def test_http_backend_refuses_a_url_it_cannot_use_before_any_connection(
    monkeypatch, endpoint, proxy, message
):
    if proxy is not None:
        monkeypatch.setenv("HTTP_PROXY", proxy)
    with pytest.raises(BackendError) as err:
        HttpBackend(BackendConfig(endpoint=endpoint, max_retries=0)).complete("p", "inference")
    assert str(err.value) == message


@pytest.mark.parametrize("timeout", [-1, 0, float("nan"), float("inf")])
def test_timeout_must_be_finite_and_above_zero(timeout):
    with pytest.raises(ValueError, match="timeout must be finite and > 0"):
        BackendConfig(endpoint="http://x", timeout=timeout)


_NOT_A_DIGEST = "hash key must be 64 lowercase hex digits, got "


@pytest.mark.parametrize(
    "change, message",
    [
        ({}, "bad record ('key')"),  # every entry has a key
        ({"key": "abc"}, _NOT_A_DIGEST + "'abc'"),
        ({"key": prompt_hash("p").upper()}, _NOT_A_DIGEST + repr(prompt_hash("p").upper())),
        ({"key": prompt_hash("p")[:-1]}, _NOT_A_DIGEST + repr(prompt_hash("p")[:-1])),
        ({"key": prompt_hash("p") + "0"}, _NOT_A_DIGEST + repr(prompt_hash("p") + "0")),
        ({"key": 7}, "stage, key and response must be strings"),
    ],
    ids=["missing", "short", "upper-case", "63-digits", "65-digits", "integer"],
)
def test_hash_entry_whose_key_no_prompt_hash_can_equal_is_rejected(tmp_path, change, message):
    good = {"stage": "inference", "match_kind": "hash", "key": prompt_hash("p"), "response": "a"}
    bad = {"stage": "inference", "match_kind": "hash", "response": "b", **change}
    path = write_script(tmp_path, [good, bad])
    with pytest.raises(MockScriptError) as err:
        MockBackend.from_path(path)
    assert str(err.value) == f"stage=- hash=-: {path}:2: {message}"
