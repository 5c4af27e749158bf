"""Flat exact-similarity vector store over chunk embeddings.

Similarity is the dot product of unit vectors (cosine). Search is an
exact full scan; hits are ordered by descending score, ties broken by
ascending chunk position, then patient id. The index persists to a
little-endian binary file (format version 2):

    header:  magic "BRAGIDX1" | u32 version=2 | u32 dim | u64 count
             | u64 total file length | u32 CRC-32C of the 32 bytes before it
    body:    count x (u32 pid_len, pid utf-8, u32 position, dim x f32)
             | u32 fp_len, embedder fingerprint utf-8
    trailer: u32 CRC-32C of the body

Because the header records the file length under its own checksum, a
file cut short is told apart from a corrupted one. ``from_bytes``
checks, in order: the magic (``IndexFormatError``), the version
(``IndexVersionError``), that the header is complete
(``IndexTruncatedError``), the header checksum (``IndexChecksumError``),
the file length against the recorded one (shorter:
``IndexTruncatedError``; longer: ``IndexFormatError`` for trailing
bytes), the body checksum (``IndexChecksumError``), and only then parses
the body, where any inconsistency is an ``IndexFormatError``. Version 1
files (no length, no header checksum) are rejected with a hint to
rebuild them with ``build-index``.

Loading is bit-exact: vector bytes and entry order round-trip
unchanged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateChunkError,
    IndexChecksumError,
    IndexFormatError,
    IndexTruncatedError,
    IndexVersionError,
    InvalidVectorError,
)

MAGIC = b"BRAGIDX1"
FORMAT_VERSION = 2
# magic, version, dim, count, total file length; its CRC-32C follows
_HEADER = struct.Struct("<8sIIQQ")
HEADER_SIZE = _HEADER.size + 4
UNIT_NORM_TOL = 1e-5

# CRC-32C (Castagnoli), reflected polynomial 0x82F63B78.
_CRC32C_TABLE = []
for _n in range(256):
    _c = _n
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _CRC32C_TABLE.append(_c)


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C checksum (crc32c(b"123456789") == 0xE3069283)."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = _CRC32C_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


@dataclass(frozen=True)
class SearchHit:
    patient_id: str
    position: int
    score: float

    @property
    def chunk_ref(self) -> tuple[str, int]:
        return (self.patient_id, self.position)


class VectorIndex:
    """Append-only flat index of unit-normalized chunk embeddings."""

    def __init__(self, dim: int, embedder_fingerprint: str = ""):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.embedder_fingerprint = embedder_fingerprint
        self.version = FORMAT_VERSION
        self._patient_ids: list[str] = []
        self._positions: list[int] = []
        self._vectors: list[np.ndarray] = []
        self._keys: set[tuple[str, int]] = set()
        # caches rebuilt lazily after adds
        self._matrix: np.ndarray | None = None
        self._pid_arr: np.ndarray | None = None
        self._pos_arr: np.ndarray | None = None
        self._rows_by_patient: dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def entries(self) -> list[tuple[tuple[str, int], np.ndarray]]:
        return [((p, pos), v) for p, pos, v in zip(self._patient_ids, self._positions, self._vectors)]

    def add(self, patient_id: str, position: int, vector: np.ndarray) -> None:
        """Append one chunk embedding; (patient_id, position) must be new."""
        vec = np.asarray(vector, dtype=np.float32)
        if vec.ndim != 1 or vec.shape[0] != self.dim:
            actual = vec.shape[0] if vec.ndim == 1 else vec.shape
            raise DimensionMismatchError(f"expected dim {self.dim}, got {actual}")
        if not np.all(np.isfinite(vec)):
            raise InvalidVectorError(f"vector for ({patient_id!r}, {position}) has non-finite values")
        norm = float(np.linalg.norm(vec.astype(np.float64)))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise InvalidVectorError(
                f"vector for ({patient_id!r}, {position}) is not unit-normalized (norm={norm:.6g})"
            )
        key = (patient_id, int(position))
        if key in self._keys:
            raise DuplicateChunkError(f"duplicate chunk_ref ({patient_id!r}, {position})")
        self._keys.add(key)
        self._patient_ids.append(patient_id)
        self._positions.append(int(position))
        self._vectors.append(vec)
        self._matrix = None
        self._pid_arr = None
        self._pos_arr = None
        self._rows_by_patient = None

    def _build_caches(self) -> None:
        if self._matrix is None:
            if self._vectors:
                self._matrix = np.vstack(self._vectors)
            else:
                self._matrix = np.zeros((0, self.dim), dtype=np.float32)
            self._pid_arr = np.array(self._patient_ids, dtype=object)
            self._pos_arr = np.array(self._positions, dtype=np.int64)
            rows: dict[str, list[int]] = {}
            for row, pid in enumerate(self._patient_ids):
                rows.setdefault(pid, []).append(row)
            self._rows_by_patient = {pid: np.array(r, dtype=np.int64) for pid, r in rows.items()}

    def search(self, query: np.ndarray, k: int, filter_patient: str | None = None) -> list[SearchHit]:
        """Exact top-k by cosine similarity.

        Ties are broken by ascending position, then patient id. With
        fewer than k matching entries, all of them are returned.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1 or q.shape[0] != self.dim:
            actual = q.shape[0] if q.ndim == 1 else q.shape
            raise DimensionMismatchError(f"query dim {actual} does not match index dim {self.dim}")
        if k == 0 or not self._vectors:
            return []
        self._build_caches()
        if filter_patient is not None:
            rows = self._rows_by_patient.get(filter_patient)
            if rows is None:
                return []
            matrix = self._matrix[rows].astype(np.float64)
            positions = self._pos_arr[rows]
            pids = self._pid_arr[rows]
        else:
            matrix = self._matrix.astype(np.float64)
            positions = self._pos_arr
            pids = self._pid_arr
        scores = matrix @ q
        # lexsort: last key is primary
        pid_sortable = pids.astype(str)
        order = np.lexsort((pid_sortable, positions, -scores))[:k]
        return [
            SearchHit(patient_id=str(pids[i]), position=int(positions[i]), score=float(scores[i]))
            for i in order
        ]

    # --- persistence ---------------------------------------------------

    def to_bytes(self) -> bytes:
        parts = []
        for pid, pos, vec in zip(self._patient_ids, self._positions, self._vectors):
            pid_b = pid.encode("utf-8")
            parts.append(struct.pack("<I", len(pid_b)))
            parts.append(pid_b)
            parts.append(struct.pack("<I", pos))
            parts.append(np.ascontiguousarray(vec, dtype="<f4").tobytes())
        fp_b = self.embedder_fingerprint.encode("utf-8")
        parts.append(struct.pack("<I", len(fp_b)))
        parts.append(fp_b)
        body = b"".join(parts)
        header = _HEADER.pack(MAGIC, self.version, self.dim, len(self), HEADER_SIZE + len(body) + 4)
        return b"".join([
            header, struct.pack("<I", crc32c(header)), body, struct.pack("<I", crc32c(body)),
        ])

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "VectorIndex":
        head = blob[:len(MAGIC)]
        if head != MAGIC[:len(head)]:
            raise IndexFormatError(f"bad magic {head!r}, expected {MAGIC!r}")
        if len(blob) >= len(MAGIC) + 4:
            (version,) = struct.unpack_from("<I", blob, len(MAGIC))
            if version != FORMAT_VERSION:
                raise IndexVersionError(
                    f"unsupported index version {version} (this build reads version "
                    f"{FORMAT_VERSION}); re-run build-index to rebuild the index"
                )
        if len(blob) < HEADER_SIZE:
            raise IndexTruncatedError(
                f"file truncated: {len(blob)} bytes, shorter than the {HEADER_SIZE}-byte header"
            )
        _, _, dim, count, length = _HEADER.unpack_from(blob)
        _verify_crc(blob, 0, _HEADER.size, "header")
        if length < HEADER_SIZE + 8 or dim < 1:
            raise IndexFormatError(f"inconsistent header: dim {dim}, file length {length}")
        if len(blob) < length:
            raise IndexTruncatedError(
                f"file truncated: {len(blob)} bytes, header records {length}"
            )
        if len(blob) > length:
            raise IndexFormatError(f"{len(blob) - length} trailing bytes past the recorded file length")
        _verify_crc(blob, HEADER_SIZE, length - 4, "body")

        cursor = _Cursor(blob, HEADER_SIZE, length - 4)
        index = cls(dim=dim)
        for i in range(count):
            (pid_len,) = struct.unpack("<I", cursor.take(4, f"entry {i} id length"))
            pid = cursor.take(pid_len, f"entry {i} id").decode("utf-8", errors="replace")
            (pos,) = struct.unpack("<I", cursor.take(4, f"entry {i} position"))
            vec = np.frombuffer(cursor.take(4 * dim, f"entry {i} vector"), dtype="<f4").copy()
            key = (pid, pos)
            if key in index._keys:
                raise IndexFormatError(f"duplicate chunk_ref {key!r} in file")
            index._keys.add(key)
            index._patient_ids.append(pid)
            index._positions.append(pos)
            index._vectors.append(vec)
        (fp_len,) = struct.unpack("<I", cursor.take(4, "fingerprint length"))
        index.embedder_fingerprint = cursor.take(fp_len, "fingerprint").decode("utf-8", errors="replace")
        if cursor.offset != cursor.end:
            raise IndexFormatError(
                f"inconsistent structure: {cursor.end - cursor.offset} unparsed bytes before the checksum"
            )
        return index

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        return cls.from_bytes(Path(path).read_bytes())


def _verify_crc(blob: bytes, start: int, end: int, what: str) -> None:
    """Check the CRC-32C stored in the four bytes after blob[start:end]."""
    (stored,) = struct.unpack_from("<I", blob, end)
    actual = crc32c(blob[start:end])
    if actual != stored:
        raise IndexChecksumError(
            f"{what} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )


class _Cursor:
    """Byte reader over blob[offset:end] whose overruns raise IndexFormatError.

    It reads only checksum-verified bytes, so an overrun means the
    structure is inconsistent, not that the file was cut off.
    """

    def __init__(self, blob: bytes, offset: int, end: int):
        self.blob = blob
        self.offset = offset
        self.end = end

    def take(self, n: int, what: str) -> bytes:
        stop = self.offset + n
        if stop > self.end:
            raise IndexFormatError(
                f"inconsistent structure while reading {what} "
                f"(need {n} bytes at offset {self.offset}, have {self.end - self.offset})"
            )
        out = self.blob[self.offset:stop]
        self.offset = stop
        return out
