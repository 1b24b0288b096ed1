from __future__ import annotations

import json

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


class _Response:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

    def json(self):
        return self._payload


def test_http_backend_payload_and_auth(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, payload=json, headers=headers, timeout=timeout)
        return _Response(payload={"choices": [{"message": {"content": "True, fine."}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("KG_REASON_API_KEY", "sk-test")
    backend = HttpBackend(BackendConfig(endpoint="http://example.test", model="m1"))
    got = backend.complete("the prompt", "inference")
    assert got == "True, fine."
    assert seen["url"] == "http://example.test/v1/chat/completions"
    assert seen["payload"]["messages"] == [{"role": "user", "content": "the prompt"}]
    assert seen["payload"]["model"] == "m1"
    assert seen["payload"]["temperature"] == 0.2
    assert seen["payload"]["top_p"] == 0.1
    assert seen["headers"]["Authorization"] == "Bearer sk-test"


def test_http_backend_no_key_sends_no_auth_header(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(headers=headers)
        return _Response(payload={"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.delenv("KG_REASON_API_KEY", raising=False)
    HttpBackend(BackendConfig(endpoint="http://example.test")).complete("p", "inference")
    assert "Authorization" not in seen["headers"]


def test_http_backend_retries_then_fails(monkeypatch):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        raise requests.ConnectionError("unreachable")

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=2), backoff_base=0.0
    )
    with pytest.raises(BackendError) as err:
        backend.complete("p", "inference")
    assert len(calls) == 3
    assert "after 3 attempts" in str(err.value)


def test_http_backend_retries_server_errors_then_succeeds(monkeypatch):
    responses = [
        _Response(status_code=500),
        _Response(payload={"choices": [{"message": {"content": "late"}}]}),
    ]

    def fake_post(url, **kwargs):
        return responses.pop(0)

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=1), backoff_base=0.0
    )
    assert backend.complete("p", "inference") == "late"


@pytest.mark.parametrize("content", [None, ["True"], 1])
def test_http_backend_non_string_content_retries_then_fails(monkeypatch, content):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return _Response(payload={"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=1), backoff_base=0.0
    )
    with pytest.raises(BackendError) as err:
        backend.complete("p", "inference")
    assert len(calls) == 2
    assert "reply content is" in str(err.value)


def test_http_backend_client_error_fails_fast(monkeypatch):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return _Response(status_code=401, text="bad key")

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpBackend(
        BackendConfig(endpoint="http://example.test", max_retries=3), backoff_base=0.0
    )
    with pytest.raises(BackendError):
        backend.complete("p", "inference")
    assert len(calls) == 1


def test_negative_retries_rejected():
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", max_retries=-1)


def test_sampling_defaults():
    cfg = BackendConfig(endpoint="http://x")
    assert cfg.temperature == 0.2
    assert cfg.top_p == 0.1
