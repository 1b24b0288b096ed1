from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn

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
    """HTTP/1.1 chat-completions server on 127.0.0.1 that echoes each prompt.

    It counts connections and requests and records, per request, the client's
    port and the prompt, and the ``Cookie`` header it carried; every reply
    sets a cookie. With ``slots``, it serves at most that many
    connections at once; later ones are accepted but wait, unanswered, until
    a served connection closes, as a server whose slots are all busy does.
    """

    daemon_threads = True

    def __init__(self, slots: int | None = None):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.slots = threading.BoundedSemaphore(slots) if slots else contextlib.nullcontext()
        self.lock = threading.Lock()
        self.connections = 0
        self.requests: list[tuple[int, str]] = []  # (client port, prompt)
        self.cookies: list[str | None] = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def process_request_thread(self, request, client_address):
        # Runs in the connection's own thread, so a connection that waits
        # for a slot never blocks the accept loop or shutdown().
        with self.lock:
            self.connections += 1
        with self.slots:
            super().process_request_thread(request, client_address)


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ChatServer

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        prompt = json.loads(body)["messages"][-1]["content"]
        with self.server.lock:
            self.server.requests.append((self.client_address[1], prompt))
            self.server.cookies.append(self.headers.get("Cookie"))
        reply = {"choices": [{"message": {"role": "assistant", "content": prompt}}]}
        data = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Set-Cookie", "route=a; Path=/")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass


@pytest.fixture
def chat_server(monkeypatch):
    """Start a :class:`ChatServer`: ``chat_server(slots=None)``. Proxy
    variables are cleared so that requests stay on the loopback."""
    for name in ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    servers: list[ChatServer] = []

    def start(slots: int | None = None) -> ChatServer:
        server = ChatServer(slots)
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
