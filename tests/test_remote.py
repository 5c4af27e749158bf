"""The JSON POST transport: retries, error classes and the bytes on the wire."""

from __future__ import annotations

import json
import random
import socket
import time
from email.utils import formatdate

import pytest

from budgetrag import remote
from budgetrag.errors import RemoteSchemaError, RemoteServiceError
from budgetrag.remote import post_json

CAPS = [0.5, 1.0, 2.0, 4.0, 8.0]  # the full-jitter bound before retries 1..5: base 0.5 s, factor 2


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("budgetrag.remote.time.sleep", recorded.append)
    return recorded


@pytest.fixture
def twin(monkeypatch):
    """Seeds the jitter source and returns an RNG in the same state, which draws what post_json draws."""
    monkeypatch.setattr(remote, "RNG", random.Random(7))
    return random.Random(7)


class _Ceiling:
    """A jitter source that always draws the bound."""

    def uniform(self, low, high):
        return high


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_connection_refused_is_retried_then_raised(sleeps, twin, max_attempts):
    with pytest.raises(RemoteServiceError) as err:
        post_json(f"http://127.0.0.1:{_closed_port()}/v1", {"x": 1}, max_attempts=max_attempts)
    assert err.value.retryable
    assert err.value.status is None
    # one full-jitter wait between each two of max_attempts tries
    assert sleeps == [twin.uniform(0, cap) for cap in CAPS[:max_attempts - 1]]


def test_429_is_retried(api_server, sleeps, twin):
    api_server.reset([(429, {}), (200, {"ok": 1})])
    assert post_json(api_server.url, {"x": 1}) == {"ok": 1}
    assert len(api_server.requests) == 2
    assert sleeps == [twin.uniform(0, 0.5)]


def test_jitter_is_drawn_from_the_rng_within_the_exponential_bound(sleeps, twin, monkeypatch):
    url = f"http://127.0.0.1:{_closed_port()}/v1"
    with pytest.raises(RemoteServiceError):
        post_json(url, {"x": 1}, max_attempts=6)
    assert sleeps == [twin.uniform(0, cap) for cap in CAPS]
    assert all(0 <= wait <= cap for wait, cap in zip(sleeps, CAPS))
    monkeypatch.setattr(remote, "RNG", _Ceiling())
    with pytest.raises(RemoteServiceError):
        post_json(url, {"x": 1}, max_attempts=6)
    assert sleeps[5:] == CAPS  # the longest draw is the fixed exponential backoff


@pytest.mark.parametrize("status", [429, 500, 503])
def test_retry_after_seconds_is_waited_in_full_without_a_draw(api_server, sleeps, twin, status):
    api_server.reset([(status, {}, {"Retry-After": "7"}), (200, {"ok": 1})])
    assert post_json(api_server.url, {"x": 1}) == {"ok": 1}
    assert sleeps == [7.0]
    assert remote.RNG.random() == twin.random()  # no jitter was drawn


def test_retry_after_http_date_is_waited_until_that_time(api_server, sleeps, twin):
    api_server.reset([(503, {}, {"Retry-After": formatdate(time.time() + 30, usegmt=True)}), (200, {"ok": 1})])
    assert post_json(api_server.url, {"x": 1}) == {"ok": 1}
    assert len(sleeps) == 1 and 28 < sleeps[0] <= 30  # the date has whole seconds
    assert remote.RNG.random() == twin.random()


@pytest.mark.parametrize("value", ["Sun, 06 Nov 1994 08:49:37 GMT", "Sunday, 06-Nov-94 08:49:37 GMT",
                                   "Sun Nov  6 08:49:37 1994", "0"],
                         ids=["imf-fixdate", "rfc850", "asctime", "zero-seconds"])
def test_retry_after_in_the_past_retries_at_once(api_server, sleeps, value):
    api_server.reset([(503, {}, {"Retry-After": value}), (200, {"ok": 1})])
    assert post_json(api_server.url, {"x": 1}) == {"ok": 1}
    assert sleeps == [0.0]


@pytest.mark.parametrize("value", ["-5", "1.5", "soon", "5 apples", "", "\u00b2"])
def test_malformed_or_negative_retry_after_falls_back_to_jitter(api_server, sleeps, twin, value):
    api_server.reset([(503, {}, {"Retry-After": value}), (200, {"ok": 1})])
    assert post_json(api_server.url, {"x": 1}) == {"ok": 1}
    assert sleeps == [twin.uniform(0, 0.5)]


@pytest.mark.parametrize("value", ["86400", formatdate(time.time() + 86400, usegmt=True)],
                         ids=["seconds", "http-date"])
def test_deadline_refuses_a_long_retry_after_without_sleeping(api_server, sleeps, value):
    api_server.reset([(503, {}, {"Retry-After": value}), (200, {"ok": 1})])
    with pytest.raises(RemoteServiceError) as err:
        post_json(api_server.url, {"x": 1})
    assert (err.value.status, err.value.retryable) == (503, True)
    assert f"Retry-After: {value} would pass the 181.5 s deadline" in str(err.value)
    assert len(api_server.requests) == 1
    assert sleeps == []


def test_deadline_holds_the_default_attempts_and_refuses_a_later_wait(monkeypatch):
    # every attempt times out after the full TIMEOUT_S on a clock that only sends and sleeps advance
    clock, sends, sleeps = [0.0], [], []

    def timed_out(url, body, timeout):
        assert timeout == remote.TIMEOUT_S  # the default attempts and waits leave each its full timeout
        sends.append(clock[0])
        clock[0] += timeout
        raise TimeoutError("timed out")

    def sleep(seconds):
        sleeps.append(seconds)
        clock[0] += seconds

    monkeypatch.setattr(remote, "_send", timed_out)
    monkeypatch.setattr(remote, "RNG", _Ceiling())
    monkeypatch.setattr("budgetrag.remote.time.sleep", sleep)
    monkeypatch.setattr("budgetrag.remote.time.monotonic", lambda: clock[0])
    with pytest.raises(RemoteServiceError, match="request to .* failed: timed out$"):
        post_json("http://127.0.0.1:9/v1", {"x": 1}, max_attempts=remote.DEFAULT_MAX_ATTEMPTS)
    assert (len(sends), sleeps) == (3, [0.5, 1.0])
    sends.clear(), sleeps.clear()
    clock[0] = 0.0
    with pytest.raises(RemoteServiceError, match="not retried: a 2 s wait would pass the 181.5 s deadline$") as err:
        post_json("http://127.0.0.1:9/v1", {"x": 1}, max_attempts=4)
    assert err.value.retryable
    assert (len(sends), sleeps) == (3, [0.5, 1.0])


def test_deadline_shortens_the_timeout_of_an_attempt_after_a_long_retry_after(monkeypatch):
    # a 503 at once asks for 150 s, which fits in the deadline but leaves the next attempt 31.5 s
    clock, timeouts, sleeps = [0.0], [], []

    def send(url, body, timeout):
        timeouts.append(timeout)
        if len(timeouts) == 1:
            return 503, b"", "150"
        clock[0] += timeout
        raise TimeoutError("timed out")

    def sleep(seconds):
        sleeps.append(seconds)
        clock[0] += seconds

    monkeypatch.setattr(remote, "_send", send)
    monkeypatch.setattr(remote, "RNG", _Ceiling())
    monkeypatch.setattr("budgetrag.remote.time.sleep", sleep)
    monkeypatch.setattr("budgetrag.remote.time.monotonic", lambda: clock[0])
    with pytest.raises(RemoteServiceError, match="failed: timed out; not retried: a 1 s wait would pass the 181.5 s"):
        post_json("http://127.0.0.1:9/v1", {"x": 1}, max_attempts=3)
    assert sleeps == [150.0]
    assert timeouts == [remote.TIMEOUT_S, remote.DEADLINE_S - 150.0]
    assert timeouts[1] < remote.TIMEOUT_S and clock[0] == remote.DEADLINE_S


@pytest.mark.parametrize("status", [400, 401, 404, 409, 422])
def test_client_error_other_than_429_is_not_retried(api_server, sleeps, status):
    api_server.reset([(status, {}, {"Retry-After": "1"}), (200, {"ok": 1})])
    with pytest.raises(RemoteServiceError) as err:
        post_json(api_server.url, {"x": 1})
    assert (err.value.status, err.value.retryable) == (status, False)
    assert len(api_server.requests) == 1
    assert sleeps == []


def test_non_json_2xx_body_is_schema_error_without_retry(api_server, sleeps):
    api_server.reset([(200, b"<html>not json</html>")])
    with pytest.raises(RemoteSchemaError, match="not valid JSON"):
        post_json(api_server.url, {"x": 1})
    assert len(api_server.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize("body", [b"5", b'"data"', b'["data"]', b"null", b"true"],
                         ids=["number", "string", "list", "null", "bool"])
def test_2xx_json_that_is_not_an_object_is_schema_error_without_retry(api_server, sleeps, body):
    api_server.reset([(200, body)])
    with pytest.raises(RemoteSchemaError, match=r"^response from \S+ is not a JSON object$"):
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
