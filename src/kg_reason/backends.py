"""Pluggable completion backends.

A backend is anything with ``complete(prompt, stage) -> str``. Two
implementations ship here: a deterministic mock replaying a script file,
and an OpenAI-compatible chat-completions client with retry. The endpoint
string ``mock:<path>`` selects the mock; anything else is treated as the
base URL of a live server.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from http.cookiejar import DefaultCookiePolicy
from typing import Protocol

import requests

from .errors import BackendError, MockScriptError, reading

API_KEY_ENV = "KG_REASON_API_KEY"
CHAT_COMPLETIONS_PATH = "/v1/chat/completions"


@dataclass(frozen=True)
class BackendConfig:
    """Connection and sampling settings for a completion backend."""

    endpoint: str
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.2
    top_p: float = 0.1
    max_retries: int = 2
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class Backend(Protocol):
    def complete(self, prompt: str, stage: str) -> str: ...


def prompt_hash(prompt: str) -> str:
    """SHA-256 hex digest of the rendered prompt, used as a mock script key."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MockEntry:
    stage: str
    match_kind: str  # "hash" | "sequence"
    key: str | int
    response: str


class MockBackend:
    """Replays scripted responses.

    Hash entries match on (stage, sha256 of the rendered prompt) and take
    precedence. Sequence entries are consumed per stage in script order; the
    i-th call at a stage that falls through to sequence matching gets the
    stage's i-th sequence entry. Index assignment is serialized, so the
    backend is safe for concurrent callers.
    """

    def __init__(self, entries: list[MockEntry]):
        self._by_hash: dict[tuple[str, str], str] = {}
        self._sequences: dict[str, list[str]] = {}
        for e in entries:
            if e.match_kind == "hash":
                self._by_hash[(e.stage, str(e.key))] = e.response
            elif e.match_kind == "sequence":
                self._sequences.setdefault(e.stage, []).append(e.response)
            else:
                raise MockScriptError(e.stage, "-", f"bad match_kind {e.match_kind!r}")
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_path(cls, path: str) -> "MockBackend":
        entries: list[MockEntry] = []

        def script_error(line: int | None, message: str) -> MockScriptError:
            if line is not None:
                message = f"{path}:{line}: {message}"
            return MockScriptError("-", "-", message)

        with reading(path, script_error) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    entries.append(
                        MockEntry(
                            stage=record["stage"],
                            match_kind=record["match_kind"],
                            key=record.get("key", ""),
                            response=record["response"],
                        )
                    )
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise script_error(lineno, f"bad record ({exc})") from exc
        return cls(entries)

    def complete(self, prompt: str, stage: str) -> str:
        digest = prompt_hash(prompt)
        hashed = self._by_hash.get((stage, digest))
        if hashed is not None:
            return hashed
        with self._lock:
            index = self._cursor.get(stage, 0)
            self._cursor[stage] = index + 1
        sequence = self._sequences.get(stage, [])
        if index < len(sequence):
            return sequence[index]
        raise MockScriptError(stage, digest, f"no entry for call #{index + 1}")


@dataclass
class HttpBackend:
    """OpenAI-compatible chat-completions client with exponential backoff.

    Sends the rendered prompt as a single user message. The bearer token is
    read from the ``KG_REASON_API_KEY`` environment variable when present.
    Each calling thread sends through its own ``requests.Session``, created on
    the thread's first call, so its calls reuse one keep-alive connection; the
    session and its connection go when the thread ends. A 429 or 503 reply
    carrying a delta-seconds ``Retry-After`` sets the wait before the next
    attempt, capped at the timeout.
    """

    config: BackendConfig
    backoff_base: float = field(default=0.5, repr=False)
    # Per thread: a Session is not thread-safe, and a connection left open
    # after its thread ends can hold one of the server's slots.
    _local: threading.local = field(
        default_factory=threading.local, init=False, repr=False, compare=False
    )

    def _url(self) -> str:
        base = self.config.endpoint.rstrip("/")
        if base.endswith("/chat/completions"):
            return base
        if base.endswith("/v1"):
            return base + "/chat/completions"
        return base + CHAT_COMPLETIONS_PATH

    def _session(self) -> requests.Session:
        """The calling thread's session, created on its first call."""
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
            # Stateless like a one-off request: store no cookie a server sets.
            session.cookies.set_policy(DefaultCookiePolicy(allowed_domains=()))
        return session

    def complete(self, prompt: str, stage: str) -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "top_p": self.config.top_p,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        session = self._session()
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            retry_after = None
            try:
                response = session.post(
                    self._url(), json=payload, headers=headers, timeout=self.config.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if response.status_code == 200:
                    try:
                        content = response.json()["choices"][0]["message"]["content"]
                        if not isinstance(content, str):
                            raise TypeError(f"reply content is {type(content).__name__}")
                        return content
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        last_error = exc
                elif response.status_code == 429 or response.status_code >= 500:
                    last_error = BackendError(f"server returned {response.status_code}")
                    if response.status_code in (429, 503):
                        retry_after = _delta_seconds(response.headers.get("Retry-After"))
                else:
                    # client errors do not resolve by retrying
                    raise BackendError(
                        f"request rejected with {response.status_code}: {response.text[:200]}"
                    )
            if attempt < attempts - 1:
                if retry_after is None:
                    time.sleep(self.backoff_base * (2**attempt))
                else:
                    time.sleep(min(retry_after, self.config.timeout))
        raise BackendError(f"request failed after {attempts} attempts: {last_error}")


def _delta_seconds(value: str | None) -> int | None:
    """A ``Retry-After`` in its delta-seconds form (RFC 9110 §10.2.3), else None."""
    value = (value or "").strip()
    return int(value) if value.isascii() and value.isdigit() else None


def make_backend(config: BackendConfig) -> Backend:
    """Build a backend from its configuration."""
    if config.endpoint.startswith("mock:"):
        return MockBackend.from_path(config.endpoint[len("mock:"):])
    return HttpBackend(config)
