"""Pluggable completion backends.

A backend is anything with ``complete(prompt, stage) -> str``. Two
implementations ship here: a deterministic mock replaying a script file,
and an OpenAI-compatible chat-completions client with retry. The endpoint
string ``mock:<path>`` selects the mock; anything else is treated as the
base URL of a live server.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import math
import os
import re
import select
import socket
import ssl
import threading
import time
import urllib.request
import weakref
from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from .errors import BackendError, FileError, read_lines
from .prompts import INFERENCE, RETRIEVAL, SEGMENTATION, task_sentence

API_KEY_ENV = "KG_REASON_API_KEY"
CHAT_COMPLETIONS_PATH = "/v1/chat/completions"
BACKOFF_BASE = 0.5  # seconds before the second attempt, doubling for each one after
_USERINFO = re.compile(r"[^/?#]*//[^/?#]*@")  # a URL's user:password@, where urlsplit finds it
# what an error message leaves out of a URL: up to its last @, as a password may hold / or @
_HIDDEN = re.compile(r"(?<=//).*@")


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
        if _USERINFO.match(self.endpoint):  # not echoed: the message would leak the password
            raise ValueError(f"endpoint must not carry user:password@; set {API_KEY_ENV} instead")
        if type(self.max_retries) is not int or self.max_retries < 0:  # bools refused too
            raise ValueError(f"max_retries must be an int >= 0, got {self.max_retries}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 <= self.top_p <= 1:
            raise ValueError(f"top_p must be between 0 and 1, got {self.top_p}")


class Backend(Protocol):
    def complete(self, prompt: str, stage: str) -> str: ...


_DIGEST = re.compile("[0-9a-f]{64}")  # what prompt_hash returns


def prompt_hash(prompt: str) -> str:
    """SHA-256 hex digest of the rendered prompt, used as a mock script key."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MockEntry:
    """One scripted response, checked here whether built directly or read from a script;
    one that breaks a rule raises ``ValueError``."""

    stage: str
    match_kind: str  # "hash" | "sentence"
    key: str  # the prompt's prompt_hash, or the sentence it asks about
    response: str

    def __post_init__(self) -> None:
        if not all(isinstance(x, str) for x in (self.stage, self.key, self.response)):
            raise ValueError("stage, key and response must be strings")
        if self.stage not in (SEGMENTATION, RETRIEVAL, INFERENCE):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.match_kind not in ("hash", "sentence"):
            raise ValueError(f'bad match_kind {self.match_kind!r}, not "hash" or "sentence"')
        if self.match_kind == "hash" and not _DIGEST.fullmatch(self.key):
            raise ValueError(f"hash key must be 64 lowercase hex digits, got {self.key!r}")


class MockBackend:
    """Replays scripted responses, each keyed by what it answers.

    A hash entry matches on (stage, :func:`prompt_hash` of the prompt), and a
    sentence entry on (stage, the sentence the prompt asks about, as
    :func:`~kg_reason.prompts.task_sentence` reads it); a hash entry wins. No
    reply depends on call order, so the backend keeps no state. One (match
    kind, stage, key) given two responses raises ``ValueError``, and
    :meth:`from_path` turns that, or any other bad line of a script, into a
    :class:`~kg_reason.errors.FileError` naming the line. A call that no entry
    answers raises :class:`~kg_reason.errors.BackendError`.
    """

    def __init__(self, entries: list[MockEntry]):
        self._replies: dict[tuple[str, str, str], str] = {}
        for entry in entries:
            self._add(entry)

    def _add(self, e: MockEntry) -> None:
        if self._replies.setdefault((e.match_kind, e.stage, e.key), e.response) != e.response:
            raise ValueError(f"{e.stage} {e.match_kind} key {e.key!r} has two responses")

    @classmethod
    def from_path(cls, path: str) -> "MockBackend":
        backend = cls([])
        for lineno, line in read_lines(path):
            try:
                record = json.loads(line.strip())
                fields = (record["stage"], record["match_kind"], record["key"], record["response"])
                backend._add(MockEntry(*fields))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FileError(path, lineno, f"bad record ({exc})") from exc
            except ValueError as exc:  # a rule of MockEntry's, or a repeated key
                raise FileError(path, lineno, str(exc)) from None
        return backend

    def complete(self, prompt: str, stage: str) -> str:
        digest, sentence = prompt_hash(prompt), task_sentence(prompt)
        for key in (("hash", stage, digest), ("sentence", stage, sentence)):
            if key in self._replies:
                return self._replies[key]
        message = f"no entry for the prompt or for {sentence!r}"
        raise BackendError(f"stage={stage} hash={digest}: {message}")


@dataclass
class HttpBackend:
    """OpenAI-compatible chat-completions client with exponential backoff.

    Sends the rendered prompt as a single user message. The bearer token is
    read from the ``KG_REASON_API_KEY`` environment variable when present.
    Each calling thread keeps its own ``http.client`` connection, opened on
    the thread's first call and closed when the thread ends, so a thread's
    calls share one keep-alive connection and no two threads share one. A
    kept connection that the server closed while it sat idle is reopened
    without spending an attempt. The proxy for the endpoint comes from the
    environment (``HTTP_PROXY``, ``HTTPS_PROXY`` or ``ALL_PROXY``, less
    ``NO_PROXY``), read when the thread's connection is made: plain HTTP goes
    to the proxy in absolute form, HTTPS through a ``CONNECT`` tunnel, and
    userinfo in the proxy URL becomes ``Proxy-Authorization: Basic``. HTTPS
    verifies against the system trust store. Redirects are not followed. A
    429 or 503 reply carrying a delta-seconds ``Retry-After`` sets the wait
    before the next attempt, capped at the timeout.
    """

    config: BackendConfig
    # Per thread: a connection carries one exchange at a time, and one left
    # open after its thread ends can hold one of the server's slots.
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

    def _channel(self) -> _Channel:
        """The calling thread's channel, created on its first call."""
        channel = getattr(self._local, "channel", None)
        if channel is None:
            channel = self._local.channel = _Channel(self._url(), self.config.timeout)
        return channel

    def complete(self, prompt: str, stage: str) -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "top_p": self.config.top_p,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        channel = self._channel()
        headers = {"Content-Type": "application/json", **channel.headers}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            retry_after = None
            try:
                response, data = channel.post(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
            else:
                status = response.status
                if status == 200:
                    try:
                        content = json.loads(data)["choices"][0]["message"]["content"]
                        if not isinstance(content, str):
                            raise TypeError(f"reply content is {type(content).__name__}")
                        return content
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        last_error = exc
                elif status == 429 or status >= 500:
                    last_error = BackendError(f"server returned {status}")
                    if status in (429, 503):
                        retry_after = _delta_seconds(response.getheader("Retry-After"))
                else:
                    # client errors do not resolve by retrying; redirects are not followed
                    text = data.decode("utf-8", "replace")
                    raise BackendError(f"request rejected with {status}: {text[:200]}")
            if attempt < attempts - 1:
                if retry_after is None:
                    time.sleep(BACKOFF_BASE * (2**attempt))
                else:
                    time.sleep(min(retry_after, self.config.timeout))
        raise BackendError(f"request failed after {attempts} attempts: {last_error}")


class _Channel:
    """One thread's keep-alive connection to a URL, through the proxy the
    environment names for it.

    ``target`` is the request target to send and ``headers`` what the proxy
    needs on each request. The connection closes when the channel is
    collected, which for a thread's channel is when the thread ends.
    """

    def __init__(self, url: str, timeout: float):
        parts = _split_url(url, "endpoint")
        host, port = parts.hostname, parts.port
        self.target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self.headers: dict[str, str] = {}
        proxy = _proxy_for(parts.scheme, parts.netloc)
        address = (host, port) if proxy is None else proxy[:2]
        if parts.scheme == "http":
            if proxy is not None:
                self.target = url  # absolute form, for the proxy to forward
                self.headers = proxy[2]
            self.conn = http.client.HTTPConnection(*address, timeout=timeout)
        else:
            self.conn = http.client.HTTPSConnection(
                *address, timeout=timeout, context=ssl.create_default_context()
            )
            if proxy is not None:
                self.conn.set_tunnel(host, port, proxy[2])
        weakref.finalize(self, self.conn.close)

    def post(self, body: bytes, headers: dict[str, str]) -> tuple[http.client.HTTPResponse, bytes]:
        """Send one POST and read its whole reply, on a new connection when
        the kept one was closed while idle. Any failure closes the
        connection, so the next call starts on a fresh one."""
        conn = self.conn
        try:
            if conn.sock is not None and _readable(conn.sock):
                # An idle kept connection has nothing to say: a readable one
                # was closed by the server, or is out of step with it.
                conn.close()
            conn.request("POST", self.target, body, headers)
            response = conn.getresponse()
            return response, response.read()
        except BaseException:
            conn.close()
            raise


def _proxy_for(scheme: str, netloc: str) -> tuple[str, int | None, dict[str, str]] | None:
    """Host, port and headers (``Proxy-Authorization`` from the URL's
    userinfo) of the proxy the environment names for ``scheme``, or else for
    ``all``; None when it names none or ``NO_PROXY`` exempts ``netloc``."""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(netloc):
        return None
    parts = _split_url(proxy if "://" in proxy else "http://" + proxy, "proxy")
    if parts.scheme != "http":
        shown = _HIDDEN.sub("", proxy, 1)
        raise BackendError(f"unsupported proxy {shown!r}: only http:// proxies are supported")
    headers = {}
    if parts.username is not None:
        userinfo = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(userinfo.encode()).decode()
    return parts.hostname, parts.port, headers


def _split_url(url: str, what: str) -> SplitResult:
    """``url`` split, once it is known to be http(s) with a host and a valid port."""
    try:
        parts = urlsplit(url)  # raises ValueError on an unbalanced bracket
        if parts.scheme in ("http", "https") and parts.hostname:
            parts.port  # noqa: B018 - raises ValueError on a port out of range
            return parts
    except ValueError:
        pass
    raise BackendError(f"bad {what} URL {_HIDDEN.sub('', url, 1)!r}")


def _readable(sock: socket.socket) -> bool:
    """Whether the socket has data or end-of-file waiting, without blocking."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _delta_seconds(value: str | None) -> int | None:
    """A ``Retry-After`` in its delta-seconds form (RFC 9110 §10.2.3), else None."""
    value = (value or "").strip()
    return int(value) if value.isascii() and value.isdigit() else None


def make_backend(config: BackendConfig) -> Backend:
    """Build a backend from its configuration."""
    if config.endpoint.startswith("mock:"):
        return MockBackend.from_path(config.endpoint[len("mock:"):])
    return HttpBackend(config)
