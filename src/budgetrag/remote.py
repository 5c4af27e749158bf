"""JSON-over-HTTP helper shared by the embedding and classifier clients.

Standard library only: each POST, a retry included, goes through
``urllib.request`` on a connection of its own (none is kept alive),
through the proxies named by ``HTTP(S)_PROXY`` and ``NO_PROXY``, and
HTTPS is verified against the system trust store. The HTTP stack
(``urllib.request``, ``http.client``, ``ssl``) is imported on the first
POST, so offline commands never load it.

Auth: when the ``BUDGETRAG_API_KEY`` environment variable is set, it is
sent as ``Authorization: Bearer <token>``.

Retries: a transport failure, 429 or 5xx is retried, up to
``max_attempts`` attempts in all, the first included. Other 4xx
responses, a 2xx body that is not JSON, and a URL or key that cannot be
sent fail at once. Before retry k the call waits

- the failed response's ``Retry-After`` (RFC 9110 §10.2.3), in full, when
  it is delta-seconds or an HTTP-date (a date already past waits 0 s);
- otherwise a full-jitter draw, ``RNG.uniform(0, BACKOFF_BASE_S *
  BACKOFF_FACTOR ** (k - 1))`` (Brooker, "Exponential Backoff and
  Jitter", AWS Architecture Blog, 2015), so that clients failed by one
  overload do not all come back together. A malformed or negative
  ``Retry-After`` gets this draw too.

All attempts of one call share a deadline, ``DEADLINE_S`` after the call
starts on ``time.monotonic``: the default attempts, each answered within
``TIMEOUT_S``, with the longest jitter wait before each retry, fit in it.
No attempt is given more than the time left to the deadline, and a wait
that would end past it is not taken; the call raises the retryable error
at once, and names the ``Retry-After`` it refused.
"""

from __future__ import annotations

import json
import os
import random
import time

from .errors import RemoteSchemaError, RemoteServiceError

API_KEY_ENV = "BUDGETRAG_API_KEY"
DEFAULT_MAX_ATTEMPTS = 3
TIMEOUT_S = 60.0
BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0
DEADLINE_S = DEFAULT_MAX_ATTEMPTS * TIMEOUT_S + sum(
    BACKOFF_BASE_S * BACKOFF_FACTOR ** k for k in range(DEFAULT_MAX_ATTEMPTS - 1))
RNG = random.Random()  # the jitter source; tests replace it with a seeded one


def _send(url: str, body: bytes, timeout: float) -> tuple[int, bytes, str | None]:
    """One POST given ``timeout`` s; returns the status, a 2xx body, and any other's ``Retry-After``."""
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    token = os.environ.get(API_KEY_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), None
    except urllib.error.HTTPError as exc:  # a non-2xx status, or a redirect urllib will not follow
        exc.close()
        return exc.code, b"", exc.headers.get("Retry-After")


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a ``Retry-After`` value asks to wait, or None when it is neither delta-seconds
    nor an HTTP-date."""
    if value is None:
        return None
    if value.isascii() and value.isdigit():
        return float(value)
    import email.utils  # it loads socket and datetime too, about 24 ms that offline commands need not pay

    date = email.utils.parsedate_tz(value)  # IMF-fixdate, RFC 850 and asctime forms; a missing zone reads as GMT
    if date is None:
        return None
    return max(0.0, email.utils.mktime_tz(date) - time.time())


def post_json(url: str, payload: dict, *, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> dict:
    """POST a JSON payload and return the decoded JSON response.

    Raises :class:`RemoteServiceError` when the attempts are exhausted or
    the next wait would pass the deadline (with the last HTTP status when
    there was one), and :class:`RemoteSchemaError` when a 2xx body is not
    a JSON object.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if not url.lower().startswith(("http://", "https://")):  # urllib would also open file: and ftp: URLs
        raise RemoteServiceError(f"{url!r} is not an http(s) URL")
    import http.client

    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    deadline = time.monotonic() + DEADLINE_S
    for attempt in range(max_attempts):
        if attempt:
            delay = _retry_after_s(retry_after)
            wait = RNG.uniform(0.0, BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1)) if delay is None else delay
            if time.monotonic() + wait > deadline:
                refused = f"a {wait:.3g} s wait" if delay is None else f"Retry-After: {retry_after}"
                raise RemoteServiceError(f"{error}; not retried: {refused} would pass the {DEADLINE_S:g} s "
                                         f"deadline", status=error.status, retryable=True)
            time.sleep(wait)
        retry_after = None
        timeout = min(TIMEOUT_S, max(deadline - time.monotonic(), 1e-3))  # 1 ms at least: a sleep may overrun
        try:
            status, raw, retry_after = _send(url, body, timeout)
        except ValueError as exc:  # retrying cannot mend it, and the text of exc may quote the key
            raise RemoteServiceError(f"cannot send to {url}: malformed URL or {API_KEY_ENV}") from exc
        except (OSError, http.client.HTTPException) as exc:  # OSError covers URLError
            error = RemoteServiceError(f"request to {url} failed: {exc}", retryable=True)
            continue
        if 200 <= status < 300:
            try:
                decoded = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise RemoteSchemaError(f"response from {url} is not valid JSON: {exc}") from exc
            if not isinstance(decoded, dict):
                raise RemoteSchemaError(f"response from {url} is not a JSON object")
            return decoded
        error = RemoteServiceError(f"{url} returned HTTP {status}", status=status,
                                   retryable=status == 429 or status >= 500)
        if not error.retryable:
            raise error
    raise error
