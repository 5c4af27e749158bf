"""Local stand-in for the embeddings and chat-completions services.

Runs as its own process, so its work does not share the interpreter
lock of the benchmark process that runs the pipeline. It binds
127.0.0.1 on a free port, writes the port to ``--port-file`` and serves
until it is terminated:

* ``POST /embeddings`` returns ``embed_hashing(text, 256)`` for each input;
* ``POST /chat/completions`` returns ``mock_response`` of the prompt, so
  the pipeline's remote outcomes can be checked against the mock;
* ``GET /stats`` returns request, status and byte counts per path.

Every request waits a fixed 5 ms service delay first. Every 100th
distinct chat body, counted in order of arrival, gets one HTTP 503
without a ``Retry-After`` header; its retry succeeds. The number of 503s
is therefore fixed by the number of distinct chat bodies, whatever the
seed, and so is the client's retry cost. With one client thread the
arrival order, and so the set of 503'd bodies, repeats from run to run;
with several, neighbouring requests may swap places.

Run ``python3 perfbench/stub.py --port-file port.txt`` from the
repository root with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from budgetrag.classifier import mock_response
from budgetrag.embedding import embed_hashing

EMBED_PATH = "/embeddings"
CHAT_PATH = "/chat/completions"
STUB_DIM = 256
DELAY_S = 0.005
FAIL_EVERY = 100  # 1% of distinct chat bodies draw one 503


class StubState:
    """Request counters and the injected-failure bookkeeping, behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.paths: dict[str, dict] = {}
        self.seen: set[str] = set()  # digests of every chat body received
        self.failed: set[str] = set()  # ... of those that drew a 503
        self.recovered: set[str] = set()  # ... and were later served

    def record(self, path: str, status: int, nbytes: int) -> None:
        with self._lock:
            entry = self.paths.setdefault(path, {"requests": 0, "bytes": 0, "status": {}})
            entry["requests"] += 1
            entry["bytes"] += nbytes
            entry["status"][str(status)] = entry["status"].get(str(status), 0) + 1

    def first_failure(self, body: bytes) -> bool:
        """True when this chat body must be answered with its one 503."""
        digest = hashlib.sha256(body).hexdigest()
        with self._lock:
            if digest not in self.seen:
                self.seen.add(digest)
                if len(self.seen) % FAIL_EVERY == 0:
                    self.failed.add(digest)
                    return True
            elif digest in self.failed:
                self.recovered.add(digest)
            return False

    def snapshot(self) -> dict:
        with self._lock:
            paths = copy.deepcopy(self.paths)
            return {
                "paths": paths,
                "http_requests": sum(p["requests"] for p in paths.values()),
                "status_503": sum(p["status"].get("503", 0) for p in paths.values()),
                "request_bytes": sum(p["bytes"] for p in paths.values()),
                "chat_bodies": len(self.seen),
                "failed_bodies": sorted(self.failed),
                "unrecovered_bodies": len(self.failed - self.recovered),
            }


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, state.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            time.sleep(DELAY_S)
            status, payload = self._answer(raw)
            state.record(self.path, status, len(raw))
            self._send(status, payload)

        def _answer(self, raw: bytes) -> tuple[int, dict]:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                return 400, {"error": "body is not JSON"}
            if self.path == EMBED_PATH:
                data = [{"embedding": embed_hashing(text, STUB_DIM).tolist()} for text in body["input"]]
                return 200, {"data": data}
            if self.path == CHAT_PATH:
                if state.first_failure(raw):
                    return 503, {"error": "injected overload"}
                content = mock_response(body["messages"][0]["content"])
                return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
            return 404, {"error": f"unknown path {self.path}"}

        def log_message(self, *args):
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args(argv)
    state = StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    tmp = Path(f"{args.port_file}.tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    tmp.replace(args.port_file)  # readers never see a half-written port
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
