"""Shared fixtures: a local JSON HTTP server for remote-backend tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class StubApiServer:
    """Scriptable JSON endpoint.

    Responses are served from ``script`` (a list consumed per request;
    the last entry repeats). Each entry is ``(status, payload)`` or
    ``(status, payload, headers)``, where payload may be a dict (sent as
    JSON) or raw bytes and headers is a dict of extra response headers.
    Requests are recorded as (path, headers, body-json).
    """

    def __init__(self):
        self.script: list[tuple] = [(200, {})]
        self.requests: list[tuple[str, dict, dict]] = []
        self._lock = threading.Lock()

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
                    server.requests.append((self.path, dict(self.headers), body))
                    idx = min(len(server.requests) - 1, len(server.script) - 1)
                    status, payload, *extra = server.script[idx]
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1"

    def reset(self, script: list[tuple]) -> None:
        with self._lock:
            self.script = script
            self.requests = []

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
