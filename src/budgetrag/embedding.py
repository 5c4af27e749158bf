"""Text-to-unit-vector embedders.

Two kinds are supported:

* ``hashing`` -- a deterministic signed feature-hashing embedder
  (bag-of-words, FNV-1a 64-bit word hash). Dependency-free, identical
  output across runs and platforms; the offline default.
* ``remote`` -- an embeddings-API endpoint speaking the usual shape:
  request ``{"model": str, "input": [str]}``, response
  ``{"data": [{"embedding": [number]}]}``.

All produced embeddings are float32 and unit-normalized (L2 norm within
1e-5 of 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import RemoteSchemaError, ZeroVectorError
from .remote import post_json

DEFAULT_DIM = 256

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


def _word_hash(word: str) -> int:
    h = _hash_cache.get(word)
    if h is None:
        h = fnv1a64(word.encode("utf-8"))
        _hash_cache[word] = h
    return h


@dataclass(frozen=True)
class EmbedderConfig:
    """Configuration for building an embedder."""

    kind: str = "hashing"  # "hashing" | "remote"
    dim: int = DEFAULT_DIM
    endpoint: str | None = None
    model_name: str | None = None

    def __post_init__(self):
        if self.kind not in ("hashing", "remote"):
            raise ValueError(f"unknown embedder kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote embedder requires an endpoint")
        if self.kind == "hashing" and self.dim < 2:
            raise ValueError(f"hashing dim must be >= 2, got {self.dim}")


def embed_hashing(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed text with signed feature hashing.

    Lowercase-whitespace tokenize; each word lands in bucket
    ``fnv1a64(word) % dim`` with sign +1 when the hash's top bit is 0,
    else -1; counts accumulate and the vector is L2-normalized. Empty
    text maps to the first basis vector.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    acc = np.zeros(dim, dtype=np.float64)
    for word, count in Counter(text.lower().split()).items():
        h = _word_hash(word)
        sign = 1.0 if (h >> 63) == 0 else -1.0
        acc[h % dim] += sign * count
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        out = np.zeros(dim, dtype=np.float32)
        out[0] = 1.0
        return out
    return (acc / norm).astype(np.float32)


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


def _extract_embeddings(response: dict, expected: int) -> list[np.ndarray]:
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
    return out


class _Embedder:
    """``embed`` keeps its last text and vector: ``retrieve`` embeds the same
    query once per patient, and this makes it one embedding per run. The
    kept vector is read-only, so no caller can change it for the next."""

    _last: tuple[str, np.ndarray] | None = None

    def embed(self, text: str) -> np.ndarray:
        if self._last is None or self._last[0] != text:
            vec = self._embed_one(text)
            vec.flags.writeable = False
            self._last = (text, vec)
        return self._last[1]


class HashingEmbedder(_Embedder):
    """Deterministic offline embedder (the default pipeline choice)."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        self.dim = dim

    @property
    def fingerprint(self) -> str:
        return f"hashing-fnv1a64:dim={self.dim}"

    def _embed_one(self, text: str) -> np.ndarray:
        return embed_hashing(text, self.dim)

    def embed_many(self, texts: list[str]) -> list[np.ndarray]:
        return [embed_hashing(t, self.dim) for t in texts]


class RemoteEmbedder(_Embedder):
    """Embeddings-API client; batches each ``embed_many`` into one request."""

    def __init__(self, cfg: EmbedderConfig):
        if cfg.kind != "remote":
            raise ValueError("RemoteEmbedder requires kind='remote'")
        self.cfg = cfg

    @property
    def fingerprint(self) -> str:
        return f"remote:{self.cfg.model_name or 'unknown'}"

    def _embed_one(self, text: str) -> np.ndarray:
        return self._request([text])[0]

    def embed_many(self, texts: list[str]) -> list[np.ndarray]:
        return self._request(texts) if texts else []

    def _request(self, texts: list[str]) -> list[np.ndarray]:
        """One order-preserving request. ``embed`` reaches this without going
        through ``embed_many``, so a wrapper counting calls to either method
        sees each call once."""
        payload = {"model": self.cfg.model_name, "input": list(texts)}
        response = post_json(self.cfg.endpoint, payload)
        return _extract_embeddings(response, expected=len(texts))


def build_embedder(cfg: EmbedderConfig):
    if cfg.kind == "hashing":
        return HashingEmbedder(cfg.dim)
    return RemoteEmbedder(cfg)


# Function forms of the embedder methods, kept for callers of the old function API.
def embed_remote(text: str, cfg: EmbedderConfig) -> np.ndarray:
    return RemoteEmbedder(cfg).embed(text)


def embed_batch(texts: list[str], cfg: EmbedderConfig) -> list[np.ndarray]:
    return build_embedder(cfg).embed_many(texts)
