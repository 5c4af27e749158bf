"""Text-to-unit-vector embedders.

Two embedders are supported; the CLI constructs the one its
``--embedder`` flag names:

* ``HashingEmbedder(dim)`` -- a deterministic signed feature-hashing
  embedder (bag-of-words, FNV-1a 64-bit word hash). Dependency-free,
  identical output across runs and platforms; the offline default. A batch of
  texts is embedded in one numpy pass: every word of the batch is
  mapped to its cached word hash, and one ``np.bincount`` over
  ``row * dim + bucket`` with the signs as weights sums all rows at
  once. Each bucket sum, and each row's sum of squares, is an integer
  below 2**52 for a text of fewer than 2**26 words, so float64 holds it
  exactly whatever the order of summation: a text's vector is
  bit-identical alone or in any batch. build-index relies on this when
  it splits the patients into shares, embedded in separate processes:
  its index bytes do not depend on the number of shares.
* ``RemoteEmbedder(endpoint, model_name)`` -- an embeddings-API
  endpoint speaking the usual shape: request
  ``{"model": str, "input": [str]}``, response
  ``{"data": [{"embedding": [number]}]}``.

All produced embeddings are float32 and unit-normalized (L2 norm within
1e-5 of 1). ``embed_many`` returns one ``(len(texts), dim)`` matrix.
"""

from __future__ import annotations

from itertools import filterfalse

import numpy as np

from .errors import RemoteSchemaError, ZeroVectorError
from .remote import post_json
from .retrieval import DEFAULT_DIM, MAX_DIM

# FNV-1a 64-bit parameters.
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_FNV_MASK = (1 << 64) - 1

# Word -> 64-bit hash memo. The hash is dimension-independent, so one
# cache serves every embedder; vocabulary in a run is bounded.
_hash_cache: dict[str, int] = {}


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _FNV_MASK
    return h


def embed_hashing(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed text with signed feature hashing.

    Lowercase-whitespace tokenize; each word lands in bucket
    ``fnv1a64(word) % dim`` with sign +1 when the hash's top bit is 0,
    else -1; counts accumulate and the vector is L2-normalized. Empty
    text maps to the first basis vector.
    """
    return _hash_rows([text], dim)[0]


def _hash_rows(texts: list[str], dim: int) -> np.ndarray:
    """``embed_hashing`` of each text, as the rows of one float32 matrix."""
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [2, {MAX_DIM}], got {dim}")
    lengths, word_hashes = [], []
    for text in texts:  # one text's words at a time: the batch keeps only their hashes
        words = text.lower().split()
        for word in filterfalse(_hash_cache.__contains__, words):
            _hash_cache[word] = fnv1a64(word.encode("utf-8"))
        word_hashes += map(_hash_cache.__getitem__, words)
        lengths.append(len(words))
    hashes = np.array(word_hashes, dtype=np.uint64)
    cells = np.repeat(np.arange(len(texts)) * dim, lengths) + (hashes % np.uint64(dim)).astype(np.intp)
    signs = 1.0 - 2.0 * (hashes >> np.uint64(63))  # -1 where the top bit is set
    acc = np.bincount(cells, weights=signs, minlength=len(texts) * dim).reshape(len(texts), dim)
    acc[~acc.any(axis=1), 0] = 1.0  # a text with no words maps to the first basis vector
    return (acc / np.linalg.norm(acc, axis=1, keepdims=True)).astype(np.float32)


def _normalize(values, *, context: str) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise RemoteSchemaError(f"{context}: embedding must be a non-empty flat list")
    if not np.all(np.isfinite(vec)):
        raise RemoteSchemaError(f"{context}: embedding contains non-finite values")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVectorError(f"{context}: service returned an all-zero embedding")
    return (vec / norm).astype(np.float32)


def _extract_embeddings(response: dict, expected: int) -> np.ndarray:
    if "data" not in response:
        raise RemoteSchemaError("response is missing 'data'")
    data = response["data"]
    if not isinstance(data, list) or len(data) != expected:
        raise RemoteSchemaError(f"response 'data' must be a list of {expected} items")
    out = []
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "embedding" not in item:
            raise RemoteSchemaError(f"response is missing 'data[{i}].embedding'")
        out.append(_normalize(item["embedding"], context=f"data[{i}].embedding"))
    lengths = {len(vec) for vec in out}
    if len(lengths) > 1:
        raise RemoteSchemaError(f"response embeddings differ in length: {sorted(lengths)}")
    return np.stack(out)


class HashingEmbedder:
    """Deterministic offline embedder (the default pipeline choice)."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if not 2 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be in [2, {MAX_DIM}], got {dim}")
        self.dim = dim

    @property
    def fingerprint(self) -> str:
        return f"hashing-fnv1a64:dim={self.dim}"

    def embed(self, text: str) -> np.ndarray:
        return embed_hashing(text, self.dim)

    def embed_many(self, texts: list[str]) -> np.ndarray:
        return _hash_rows(texts, self.dim)


class RemoteEmbedder:
    """Embeddings-API client; sends each ``embed_many`` as one request, and none for no texts."""

    def __init__(self, endpoint: str | None, model_name: str | None, dim: int = DEFAULT_DIM):
        if not endpoint:
            raise ValueError("remote embedder requires an endpoint")
        self.endpoint = endpoint
        self.model_name = model_name
        self.dim = dim  # the width of no texts' empty matrix; the service chooses its vectors' width

    @property
    def fingerprint(self) -> str:
        return f"remote:{self.model_name or 'unknown'}"

    def embed(self, text: str) -> np.ndarray:
        return self._request([text])[0]

    def embed_many(self, texts: list[str]) -> np.ndarray:
        return self._request(texts) if texts else np.empty((0, self.dim), np.float32)

    def _request(self, texts: list[str]) -> np.ndarray:
        """One order-preserving request. ``embed`` reaches this without going
        through ``embed_many``, so a wrapper counting calls to either method
        sees each call once."""
        payload = {"model": self.model_name, "input": list(texts)}
        response = post_json(self.endpoint, payload)
        return _extract_embeddings(response, expected=len(texts))
