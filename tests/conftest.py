from __future__ import annotations

import contextlib
import json
import threading
from email.message import Message
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

from kg_reason import build_type_graph, load_graph

from helpers import FIXTURES

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def factkg_graph():
    return load_graph(str(FIXTURES / "factkg_graph.tsv"), str(FIXTURES / "factkg_types.tsv"))


@pytest.fixture(scope="session")
def factkg_type_graph(factkg_graph):
    return build_type_graph(factkg_graph)


@pytest.fixture(scope="session")
def metaqa_graph():
    return load_graph(str(FIXTURES / "metaqa_graph.tsv"))


@pytest.fixture(scope="session")
def metaqa_type_graph(metaqa_graph):
    return build_type_graph(metaqa_graph)


@pytest.fixture(scope="session")
def crewed_flight_graph():
    return load_graph(str(FIXTURES / "crewed_flight_graph.tsv"), str(FIXTURES / "crewed_flight_types.tsv"))


@pytest.fixture(scope="session")
def crewed_flight_type_graph(crewed_flight_graph):
    return build_type_graph(crewed_flight_graph)


# --- loopback chat-completions server ----------------------------------------


class ChatServer(ThreadingMixIn, HTTPServer):
    """HTTP/1.1 chat-completions server on 127.0.0.1.

    By default it echoes each prompt. ``replies`` scripts the answers
    instead, in order, the last one repeating: each is ``(status, headers,
    content)``, where a 200 carries ``content`` as the message content and
    any other status as the plain-text body, and a status of None closes the
    connection without a reply. With ``hang_up``, it closes each connection
    after the reply without saying so first, as a server whose keep-alive
    timeout has run out does.

    It counts connections, and records each request in ``seen``: the
    client's port, the method, the request target, the headers and the JSON
    body. ``requests`` and ``cookies`` give each request's (client port,
    prompt) and ``Cookie`` header; every reply sets a cookie. With
    ``slots``, it serves at most that many connections at once; later ones
    are accepted but wait, unanswered, until a served connection closes, as
    a server whose slots are all busy does. A ``CONNECT`` is recorded and
    refused with 502.
    """

    daemon_threads = True

    def __init__(self, slots: int | None = None, replies=(), hang_up: bool = False):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.slots = threading.BoundedSemaphore(slots) if slots else contextlib.nullcontext()
        self.replies = list(replies)
        self.hang_up = hang_up
        self.lock = threading.Lock()
        self.connections = 0
        self.seen: list[Seen] = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    @property
    def requests(self) -> list[tuple[int, str]]:
        return [(s.port, s.payload["messages"][-1]["content"]) for s in self.seen if s.payload]

    @property
    def cookies(self) -> list[str | None]:
        return [s.headers.get("Cookie") for s in self.seen]

    def next_reply(self, prompt: str) -> tuple:
        with self.lock:
            if not self.replies:
                return 200, {}, prompt
            return self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]

    def process_request_thread(self, request, client_address):
        # Runs in the connection's own thread, so a connection that waits
        # for a slot never blocks the accept loop or shutdown().
        with self.lock:
            self.connections += 1
        with self.slots:
            super().process_request_thread(request, client_address)


class Seen(NamedTuple):
    port: int
    method: str
    target: str
    headers: Message
    payload: dict | None


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ChatServer

    def _record(self, payload: dict | None) -> None:
        seen = Seen(self.client_address[1], self.command, self.path, self.headers, payload)
        with self.server.lock:
            self.server.seen.append(seen)

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        self._record(payload)
        status, headers, content = self.server.next_reply(payload["messages"][-1]["content"])
        if status is None:
            self.close_connection = True
            return
        if status == 200:
            reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
            data, kind = json.dumps(reply).encode("utf-8"), "application/json"
        else:
            data, kind = content.encode("utf-8"), "text/plain"
        self.send_response(status)
        for name, value in {"Content-Type": kind, **headers}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Set-Cookie", "route=a; Path=/")
        self.end_headers()
        self.wfile.write(data)
        if self.server.hang_up:
            self.close_connection = True

    def do_CONNECT(self) -> None:
        self._record(None)
        self.send_error(502)

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass


PROXY_VARIABLES = (
    "HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy",
    "ALL_PROXY", "all_proxy", "NO_PROXY", "no_proxy",
)


@pytest.fixture
def chat_server(monkeypatch):
    """Start a :class:`ChatServer`: ``chat_server(slots=None, replies=(),
    hang_up=False)``. Proxy variables are cleared so that requests stay on
    the loopback."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    servers: list[ChatServer] = []

    def start(slots: int | None = None, replies=(), hang_up: bool = False) -> ChatServer:
        server = ChatServer(slots, replies, hang_up)
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
