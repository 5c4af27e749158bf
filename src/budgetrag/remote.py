"""JSON-over-HTTP helper shared by the embedding and classifier clients.

Standard library only: each POST goes through ``urllib.request`` on a
connection of its own, through the proxies named by ``HTTP(S)_PROXY``
and ``NO_PROXY``, and HTTPS is verified against the system trust store.
The HTTP stack (``urllib.request``, ``http.client``, ``ssl``) is
imported on the first POST, so offline commands never load it.

Auth: when the ``BUDGETRAG_API_KEY`` environment variable is set, it is
sent as ``Authorization: Bearer <token>``. Retries use exponential
backoff (base 0.5 s, factor 2) on transport failures, 429, and 5xx;
other 4xx responses, and a URL or key that cannot be sent, fail
immediately.
"""

from __future__ import annotations

import json
import os
import time

from .errors import RemoteSchemaError, RemoteServiceError

API_KEY_ENV = "BUDGETRAG_API_KEY"
DEFAULT_MAX_ATTEMPTS = 3
TIMEOUT_S = 60.0
BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0


def _send(url: str, body: bytes) -> tuple[int, bytes]:
    """One POST; returns the status and, for a 2xx response, the body."""
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    token = os.environ.get(API_KEY_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:  # a non-2xx status, or a redirect urllib will not follow
        exc.close()
        return exc.code, b""


def post_json(url: str, payload: dict, *, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> dict:
    """POST a JSON payload and return the decoded JSON response.

    Raises :class:`RemoteServiceError` after retries are exhausted (with
    the last HTTP status when there was one) and
    :class:`RemoteSchemaError` when a 2xx body is not valid JSON.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if not url.lower().startswith(("http://", "https://")):  # urllib would also open file: and ftp: URLs
        raise RemoteServiceError(f"{url!r} is not an http(s) URL")
    import http.client

    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    for attempt in range(max_attempts):
        if attempt:
            time.sleep(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1))
        try:
            status, raw = _send(url, body)
        except ValueError as exc:  # retrying cannot mend it, and the text of exc may quote the key
            raise RemoteServiceError(f"cannot send to {url}: malformed URL or {API_KEY_ENV}") from exc
        except (OSError, http.client.HTTPException) as exc:  # OSError covers URLError
            error = RemoteServiceError(f"request to {url} failed: {exc}", retryable=True)
            continue
        if 200 <= status < 300:
            try:
                return json.loads(raw)
            except ValueError as exc:
                raise RemoteSchemaError(f"response from {url} is not valid JSON: {exc}") from exc
        error = RemoteServiceError(f"{url} returned HTTP {status}", status=status,
                                   retryable=status == 429 or status >= 500)
        if not error.retryable:
            raise error
    raise error
