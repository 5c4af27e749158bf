"""The JSON POST transport: retries, error classes and the bytes on the wire."""

from __future__ import annotations

import json
import socket

import pytest

from budgetrag.errors import RemoteSchemaError, RemoteServiceError
from budgetrag.remote import post_json


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("budgetrag.remote.time.sleep", recorded.append)
    return recorded


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_connection_refused_is_retried_then_raised(sleeps, max_attempts):
    with pytest.raises(RemoteServiceError) as err:
        post_json(f"http://127.0.0.1:{_closed_port()}/v1", {"x": 1}, max_attempts=max_attempts)
    assert err.value.retryable
    assert err.value.status is None
    assert sleeps == [0.5, 1.0][:max_attempts - 1]  # one backoff between each two of max_attempts tries


def test_429_is_retried(api_server, sleeps):
    api_server.reset([(429, {}), (200, {"ok": 1})])
    assert post_json(api_server.url, {"x": 1}) == {"ok": 1}
    assert len(api_server.requests) == 2
    assert sleeps == [0.5]


def test_non_json_2xx_body_is_schema_error_without_retry(api_server, sleeps):
    api_server.reset([(200, b"<html>not json</html>")])
    with pytest.raises(RemoteSchemaError, match="not valid JSON"):
        post_json(api_server.url, {"x": 1})
    assert len(api_server.requests) == 1
    assert sleeps == []


def test_body_and_headers_on_the_wire(api_server):
    payload = {"model": "m", "input": ["café notes", "x" * 300], "temperature": 0.25}
    api_server.reset([(200, {})])
    post_json(api_server.url, payload)
    _, headers, body = api_server.requests[0]
    headers = {name.lower(): value for name, value in headers.items()}  # header names are case-insensitive
    assert body == payload
    assert int(headers["content-length"]) == len(json.dumps(payload).encode("utf-8"))
    assert headers["content-type"] == "application/json"
    assert "authorization" not in headers


@pytest.mark.parametrize("url", ["file:///dev/null", "localhost:8000/v1", "embeddings"])
def test_non_http_url_fails_without_a_request(url, sleeps):
    with pytest.raises(RemoteServiceError, match="http") as err:
        post_json(url, {"x": 1})
    assert not err.value.retryable
    assert sleeps == []


@pytest.mark.parametrize("malformed_url,key", [(False, "sekret\nInjected: 1"), (True, None)],
                         ids=["key-with-newline", "malformed-url"])
def test_malformed_request_fails_at_once_without_quoting_the_key(api_server, sleeps, monkeypatch, malformed_url, key):
    if key:
        monkeypatch.setenv("BUDGETRAG_API_KEY", key)
    url = api_server.url.replace("127.0.0.1", "[127.0.0.1") if malformed_url else api_server.url
    api_server.reset([(200, {})])
    with pytest.raises(RemoteServiceError, match="malformed URL or BUDGETRAG_API_KEY") as err:
        post_json(url, {"x": 1})
    assert not err.value.retryable
    assert "sekret" not in str(err.value)
    assert api_server.requests == []
    assert sleeps == []
