"""Shared fixtures: a local JSON HTTP server for remote-backend tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class StubApiServer:
    """Scriptable JSON endpoint.

    Responses are served from ``script`` (a list consumed per request,
    in order of arrival; the last entry repeats). Each entry is
    ``(status, payload)`` or ``(status, payload, headers)``, where payload
    may be a dict (sent as JSON) or raw bytes and headers is a dict of
    extra response headers, or a callable of the request's body that
    returns such a tuple: requests sent at once arrive in any order, and
    a callable answers each by its content. A callable may block to hold
    its request open. Requests are recorded as (path, headers, body-json)
    in order of arrival. ``events`` records ``("open", i)`` when request i
    has been read, ``("answer", i)`` before its response is written, so
    before its client can see it, and ``("done", i)`` once it has been
    written (or its client has gone). ``max_open`` is the most requests
    open at once between "open" and "answer": never more than the client
    had in flight.
    """

    def __init__(self):
        self.script: list = [(200, {})]
        self.requests: list[tuple[str, dict, dict]] = []
        self.events: list[tuple[str, int]] = []
        self.max_open = 0
        self._open = 0
        self._handling = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    body = json.loads(raw) if raw else {}
                except json.JSONDecodeError:
                    body = {"_raw": raw.decode("utf-8", "replace")}
                with server._lock:
                    number = len(server.requests)
                    server.requests.append((self.path, dict(self.headers), body))
                    server.events.append(("open", number))
                    server._open += 1
                    server._handling += 1
                    server.max_open = max(server.max_open, server._open)
                    entry = server.script[min(number, len(server.script) - 1)]
                answered = False
                try:
                    status, payload, *extra = entry(body) if callable(entry) else entry
                    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                    with server._lock:
                        server.events.append(("answer", number))
                        server._open -= 1
                        answered = True
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    for name, value in (extra[0] if extra else {}).items():
                        self.send_header(name, value)
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):  # a client that stopped waiting
                    pass
                finally:
                    with server._lock:
                        server.events.append(("done", number))
                        server._open -= not answered
                        server._handling -= 1
                        server._idle.notify_all()

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1"

    def reset(self, script: list) -> None:
        with self._lock:
            self.script = script
            self.requests = []
            self.events = []
            self.max_open = 0

    def wait_idle(self, timeout: float) -> bool:
        """Wait until every request has been answered and written; False if one has not after ``timeout`` seconds."""
        with self._idle:
            return self._idle.wait_for(lambda: not self._handling, timeout)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture(scope="session")
def api_server():
    server = StubApiServer()
    yield server
    server.close()


@pytest.fixture(autouse=True)
def _no_api_key(monkeypatch):
    monkeypatch.delenv("BUDGETRAG_API_KEY", raising=False)
