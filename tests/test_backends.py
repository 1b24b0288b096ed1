from __future__ import annotations

import json
import threading
import time

import pytest
import requests

from kg_reason import BackendConfig, HttpBackend, MockBackend, make_backend, prompt_hash
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


def test_sequence_entries_consumed_per_stage(tmp_path):
    path = write_script(
        tmp_path,
        [
            {"stage": "inference", "match_kind": "sequence", "key": 0, "response": "first"},
            {"stage": "inference", "match_kind": "sequence", "key": 1, "response": "second"},
            {"stage": "inference", "match_kind": "sequence", "key": 2, "response": "third"},
            {"stage": "retrieval", "match_kind": "sequence", "key": 0, "response": "other stage"},
        ],
    )
    backend = MockBackend.from_path(path)
    assert backend.complete("a", "inference") == "first"
    assert backend.complete("b", "retrieval") == "other stage"
    assert backend.complete("c", "inference") == "second"
    assert backend.complete("d", "inference") == "third"


def test_hash_match_takes_precedence_and_preserves_sequence(tmp_path):
    special = "special prompt"
    path = write_script(
        tmp_path,
        [
            {"stage": "inference", "match_kind": "hash", "key": prompt_hash(special), "response": "hashed"},
            {"stage": "inference", "match_kind": "sequence", "key": 0, "response": "seq0"},
            {"stage": "inference", "match_kind": "sequence", "key": 1, "response": "seq1"},
        ],
    )
    backend = MockBackend.from_path(path)
    assert backend.complete("x", "inference") == "seq0"
    assert backend.complete(special, "inference") == "hashed"
    assert backend.complete("y", "inference") == "seq1"


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


def test_bad_match_kind_rejected():
    with pytest.raises(MockScriptError):
        MockBackend([MockEntry("inference", "fuzzy", 0, "x")])


def test_make_backend_dispatches_on_endpoint(tmp_path):
    path = write_script(tmp_path, [])
    assert isinstance(make_backend(BackendConfig(endpoint=f"mock:{path}")), MockBackend)
    assert isinstance(make_backend(BackendConfig(endpoint="http://localhost:1")), HttpBackend)


# --- http backend ------------------------------------------------------------
# The seam is the backend's per-thread session accessor: the fake session
# records each post and replays its replies in order, repeating the last one
# (a reply may be an exception to raise).


class _Response:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text
        self.headers = headers or {}

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(dict(url=url, payload=json, headers=headers, timeout=timeout))
        reply = self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]
        if isinstance(reply, Exception):
            raise reply
        return reply


def fake_session(monkeypatch, *replies):
    session = _FakeSession(replies)
    monkeypatch.setattr(HttpBackend, "_session", lambda self: session)
    return session


def _ok(content):
    return _Response(payload={"choices": [{"message": {"content": content}}]})


def test_http_backend_payload_and_auth(monkeypatch):
    session = fake_session(monkeypatch, _ok("True, fine."))
    monkeypatch.setenv("KG_REASON_API_KEY", "sk-test")
    backend = HttpBackend(BackendConfig(endpoint="http://example.test", model="m1"))
    got = backend.complete("the prompt", "inference")
    assert got == "True, fine."
    (seen,) = session.calls
    assert seen["url"] == "http://example.test/v1/chat/completions"
    assert seen["payload"]["messages"] == [{"role": "user", "content": "the prompt"}]
    assert seen["payload"]["model"] == "m1"
    assert seen["payload"]["temperature"] == 0.2
    assert seen["payload"]["top_p"] == 0.1
    assert seen["headers"]["Authorization"] == "Bearer sk-test"
    assert seen["timeout"] == 30.0


def test_http_backend_no_key_sends_no_auth_header(monkeypatch):
    session = fake_session(monkeypatch, _ok("ok"))
    monkeypatch.delenv("KG_REASON_API_KEY", raising=False)
    HttpBackend(BackendConfig(endpoint="http://example.test")).complete("p", "inference")
    assert "Authorization" not in session.calls[0]["headers"]


def test_http_backend_retries_then_fails(monkeypatch):
    session = fake_session(monkeypatch, requests.ConnectionError("unreachable"))
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=2), backoff_base=0.0
    )
    with pytest.raises(BackendError) as err:
        backend.complete("p", "inference")
    assert len(session.calls) == 3
    assert "after 3 attempts" in str(err.value)


def test_http_backend_retries_server_errors_then_succeeds(monkeypatch):
    fake_session(monkeypatch, _Response(status_code=500), _ok("late"))
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=1), backoff_base=0.0
    )
    assert backend.complete("p", "inference") == "late"


@pytest.mark.parametrize("content", [None, ["True"], 1])
def test_http_backend_non_string_content_retries_then_fails(monkeypatch, content):
    session = fake_session(monkeypatch, _ok(content))
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=1), backoff_base=0.0
    )
    with pytest.raises(BackendError) as err:
        backend.complete("p", "inference")
    assert len(session.calls) == 2
    assert "reply content is" in str(err.value)


def test_http_backend_client_error_fails_fast(monkeypatch):
    session = fake_session(monkeypatch, _Response(status_code=401, text="bad key"))
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=3), backoff_base=0.0
    )
    with pytest.raises(BackendError):
        backend.complete("p", "inference")
    assert len(session.calls) == 1


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
def test_http_backend_honours_retry_after(monkeypatch, status, retry_after, slept):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    session = fake_session(monkeypatch, _Response(status_code=status, headers=headers))
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=2, timeout=10.0)
    )
    with pytest.raises(BackendError):
        backend.complete("p", "inference")
    assert len(session.calls) == 3
    assert sleeps == slept


def test_http_backend_retry_after_applies_to_the_next_attempt_only(monkeypatch):
    fake_session(
        monkeypatch,
        _Response(status_code=429, headers={"Retry-After": "4"}),
        _Response(status_code=500),
        _ok("done"),
    )
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    backend = HttpBackend(BackendConfig(endpoint="http://example.test", max_retries=2))
    assert backend.complete("p", "inference") == "done"
    assert sleeps == [4, 1.0]


# --- http backend over loopback ------------------------------------------------


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
    # Like one-off requests, the kept session stores no cookie a server sets.
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
    server = chat_server(slots=1)
    backend = HttpBackend(BackendConfig(endpoint=server.url, timeout=5.0, max_retries=0))
    _run_in_thread(lambda: [backend.complete(f"a {i}", "inference") for i in range(2)])
    _run_in_thread(lambda: [backend.complete(f"b {i}", "inference") for i in range(2)])
    assert [prompt for _, prompt in server.requests] == ["a 0", "a 1", "b 0", "b 1"]
    assert server.connections == 2


def test_negative_retries_rejected():
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", max_retries=-1)


def test_sampling_defaults():
    cfg = BackendConfig(endpoint="http://x")
    assert cfg.temperature == 0.2
    assert cfg.top_p == 0.1
