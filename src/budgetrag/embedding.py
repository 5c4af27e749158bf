"""Text-to-unit-vector embedders.

Two embedders are supported; the CLI constructs the one its
``--embedder`` flag names:

* ``HashingEmbedder(dim)`` -- a deterministic signed feature-hashing
  embedder (bag-of-words, FNV-1a 64-bit word hash). Dependency-free,
  identical output across runs and platforms; the offline default.
  ``hash_runs`` embeds runs of lower-cased words, one vector per run,
  with work per word, not per bucket: ``embed_many`` gives it one run
  per text, and build-index one run per chunk of a patient, cut by
  ``corpus.chunk_runs`` from one lower-cased split of the patient's text
  (``lower()`` never moves a whitespace boundary, so these are the words
  of the chunks' texts). A run's bucket sums, and their sum of
  squares, are integers, below 2**52 for a run of fewer than 2**26 words,
  so a float64 holds each exactly; ``math.sqrt`` of the sum and each
  division by it are correctly rounded, and the rounding to float32 is
  the only other step: a text's vector is bit-identical alone, in any
  batch, or as a run of its patient's words. build-index relies on this
  when it splits the patients into shares, embedded in separate
  processes: its index bytes do not depend on the number of shares.
* ``RemoteEmbedder(endpoint, model_name)`` -- an embeddings-API
  endpoint speaking the usual shape: request
  ``{"model": str, "input": [str]}``, response
  ``{"data": [{"index": int, "embedding": [number]}]}``. When the items
  carry ``index``, every one must, the indexes must be the ints 0..n-1,
  each once, and each vector belongs to the input at its index, in
  whatever order the items come; items without ``index`` are taken in
  the inputs' order.

All produced embeddings are ``array('f')`` rows (float32), unit-normalized
(L2 norm within 1e-5 of 1). ``embed_many`` returns a list of them, one per
text.
"""

from __future__ import annotations

import math
from array import array
from itertools import filterfalse
from typing import Iterable

from .errors import RemoteSchemaError, ZeroVectorError
from .remote import post_json
from .retrieval import DEFAULT_DIM, MAX_DIM

# FNV-1a 64-bit parameters.
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_FNV_MASK = (1 << 64) - 1

# dim -> word -> the word's bucket, fnv1a64(word) % dim, and sign, -1 when the hash's top bit is set.
# The vocabulary of a run is bounded.
_bucket_codes: dict[int, dict[str, tuple[int, int]]] = {}


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _FNV_MASK
    return h


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [2, {MAX_DIM}], got {dim}")


def embed_hashing(text: str, dim: int = DEFAULT_DIM) -> array:
    """Embed text with signed feature hashing.

    Lowercase-whitespace tokenize; each word lands in bucket
    ``fnv1a64(word) % dim`` with sign +1 when the hash's top bit is 0,
    else -1; counts accumulate and the vector is L2-normalized. Empty
    text maps to the first basis vector.
    """
    return hash_runs([text.lower().split()], dim)[0]


def hash_runs(runs: Iterable[list[str]], dim: int) -> list[array]:
    """The ``embed_hashing`` vector of each run of already lower-cased words.

    A run's work grows with its words, not with ``dim``: only the buckets its words reach are
    summed and written into a zeroed row.
    """
    _check_dim(dim)
    codes, rows, zero = _bucket_codes.setdefault(dim, {}), [], bytes(4 * dim)
    for words in runs:
        for word in filterfalse(codes.__contains__, words):
            h = fnv1a64(word.encode("utf-8"))
            codes[word] = (h % dim, -1 if h >> 63 else 1)
        sums: dict[int, int] = {}
        for bucket, sign in map(codes.__getitem__, words):
            sums[bucket] = sums.get(bucket, 0) + sign
        row = array("f", zero)
        squares = sum(s * s for s in sums.values())
        if not squares:  # a run with no words, or whose signs cancel, maps to the first basis vector
            row[0] = 1.0
        else:
            norm = math.sqrt(squares)
            for bucket, s in sums.items():
                row[bucket] = s / norm
        rows.append(row)
    return rows


def _normalize(values, *, context: str) -> array:
    """A service's vector, which must be a non-empty list of JSON numbers (a bool is none), unit-normalized."""
    if type(values) is not list or not values or not all(type(v) is int or type(v) is float for v in values):
        raise RemoteSchemaError(f"{context}: embedding must be a non-empty flat list of numbers")
    try:
        vec = list(map(float, values))
    except OverflowError:  # an int past the float range
        vec = [math.inf]
    if not all(map(math.isfinite, vec)):
        raise RemoteSchemaError(f"{context}: embedding contains non-finite values")
    norm = math.sqrt(math.fsum(v * v for v in vec))
    if norm == 0.0:
        raise ZeroVectorError(f"{context}: service returned an all-zero embedding")
    return array("f", [v / norm for v in vec])


def _extract_embeddings(response: dict, expected: int) -> list[array]:
    """The vectors of the response's ``data`` items, one per input: each at its ``index`` when the items carry
    one, else at its place in the list."""
    if "data" not in response:
        raise RemoteSchemaError("response is missing 'data'")
    data = response["data"]
    if not isinstance(data, list) or len(data) != expected:
        raise RemoteSchemaError(f"response 'data' must be a list of {expected} items")
    indexed = any(isinstance(item, dict) and "index" in item for item in data)
    out: list = [None] * expected
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "embedding" not in item:
            raise RemoteSchemaError(f"response is missing 'data[{i}].embedding'")
        at = item.get("index") if indexed else i
        if type(at) is not int or not 0 <= at < expected or out[at] is not None:  # a bool is not an index
            raise RemoteSchemaError(f"response 'data[{i}].index' must be a new int in [0, {expected}) when "
                                    f"any item has an index, got {at!r:.40}")
        out[at] = _normalize(item["embedding"], context=f"data[{i}].embedding")
    lengths = {len(vec) for vec in out}
    if len(lengths) > 1:
        raise RemoteSchemaError(f"response embeddings differ in length: {sorted(lengths)}")
    return out


class HashingEmbedder:
    """Deterministic offline embedder (the default pipeline choice)."""

    def __init__(self, dim: int = DEFAULT_DIM):
        _check_dim(dim)
        self.dim = dim

    @property
    def fingerprint(self) -> str:
        return f"hashing-fnv1a64:dim={self.dim}"

    def embed(self, text: str) -> array:
        return embed_hashing(text, self.dim)

    def embed_many(self, texts: list[str]) -> list[array]:
        return hash_runs((text.lower().split() for text in texts), self.dim)


class RemoteEmbedder:
    """Embeddings-API client; sends each ``embed_many`` as one request, and none for no texts."""

    def __init__(self, endpoint: str | None, model_name: str | None, dim: int = DEFAULT_DIM):
        if not endpoint:
            raise ValueError("remote embedder requires an endpoint")
        self.endpoint = endpoint
        self.model_name = model_name
        self.dim = dim  # the index width when no text is embedded; the service chooses its vectors' width

    @property
    def fingerprint(self) -> str:
        return f"remote:{self.model_name or 'unknown'}"

    def embed(self, text: str) -> array:
        return self._request([text])[0]

    def embed_many(self, texts: list[str]) -> list[array]:
        return self._request(texts) if texts else []

    def _request(self, texts: list[str]) -> list[array]:
        """One order-preserving request. ``embed`` reaches this without going
        through ``embed_many``, so a wrapper counting calls to either method
        sees each call once."""
        payload = {"model": self.model_name, "input": list(texts)}
        response = post_json(self.endpoint, payload)
        return _extract_embeddings(response, expected=len(texts))
