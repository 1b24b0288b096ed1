"""Loopback stub of an OpenAI-compatible chat-completions server.

Answers ``POST .../chat/completions`` from the oracle a fixed service time
after each request arrives, however long its own parsing took, so client-side
overhead is the call time minus that fixed time. It serves at most ``width``
connections at once (later ones wait in the listen backlog) and counts
connections and requests; ``GET /stats`` returns the counters. Prints its
port on the first line of stdout, then serves until terminated::

    python3 kgbench/stub.py --queries queries.jsonl --width 2 --service-ms 20
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn

from oracle import Oracle, OracleError, load_queries


class StubServer(ThreadingMixIn, HTTPServer):
    daemon_threads = True

    def __init__(self, oracle: Oracle, width: int, service_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.oracle = oracle
        self.service_s = service_s
        self.slots = threading.BoundedSemaphore(width)
        self.lock = threading.Lock()
        self.stats = {"connections": 0, "requests": 0, "oracle_s": 0.0}

    def process_request(self, request, client_address):
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def shutdown_request(self, request):
        try:
            super().shutdown_request(request)
        finally:
            self.slots.release()

    def count(self, **deltas) -> None:
        with self.lock:
            for key, value in deltas.items():
                self.stats[key] += value


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.served = 0

    def parse_request(self) -> bool:
        # Called as soon as the request line is read: the arrival time.
        self.arrived = time.perf_counter()
        return super().parse_request()

    def do_POST(self) -> None:
        arrived = self.arrived
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        started = time.perf_counter()
        try:
            prompt = json.loads(body)["messages"][-1]["content"]
            content = self.server.oracle.respond(prompt)
            status, payload = 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
        except (OracleError, ValueError, KeyError, IndexError, TypeError) as exc:
            status, payload = 400, {"error": {"message": str(exc)}}
        self.server.count(
            connections=int(self.served == 0), requests=1, oracle_s=time.perf_counter() - started,
        )
        self.served += 1
        self._send(status, payload, arrived + self.server.service_s)

    def do_GET(self) -> None:
        with self.server.lock:
            stats = dict(self.server.stats)
        self._send(200, stats, 0.0)

    def _send(self, status: int, payload: dict, not_before: float) -> None:
        data = json.dumps(payload).encode("utf-8")
        delay = not_before - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="loopback chat-completions stub")
    ap.add_argument("--queries", required=True)
    ap.add_argument("--width", type=int, required=True)
    ap.add_argument("--service-ms", type=float, required=True)
    args = ap.parse_args(argv)
    server = StubServer(Oracle(load_queries(args.queries)), args.width, args.service_ms / 1000)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
