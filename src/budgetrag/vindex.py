"""Flat exact-similarity vector store over chunk embeddings.

Similarity is the dot product of unit vectors (cosine). Hits are ordered
by descending score, ties broken by ascending chunk position, then
patient id.

A search scores every row against its query in one pass,
``score_rows``: row i's float64 score is the dot product of the row,
widened to float64, with the query, computed row by row, so it does not
depend on which or how many rows are scored with it. With the scores,
the pass sorts each patient's rows by descending score, ties by
position, into that patient's hits. The index keeps the scores and those
per-patient rankings for the query's bytes: a later search with an
equal query, filtered to one patient or not, reads them without scoring
again, and a search with another query replaces them. Adding rows drops
them. So ``retrieve`` ranks all patients with one scoring pass.

In memory the index is one float32 matrix of rows, an int64 array of
chunk positions and the list of patient ids, row for row, plus a map
from each patient id to its row numbers for the rankings and duplicate
checks. Rows enter only through ``add_many``, which checks a batch of
(patient_id, position) keys, across patients, and their rows before it
stores any; ``add`` and ``from_bytes`` call it too. A batch into an
empty index becomes its storage, without a copy when the batch is a
C-ordered float32 matrix; later batches grow the storage by doubling, so
rows are appended in amortized constant time per row; rows past
``len(index)`` are spare capacity.

The index persists to a little-endian binary file (format version 2):

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
bytes), the body checksum (``IndexChecksumError``), then parses the
body, where any inconsistency (more entries than the body can hold, a
field past its end) is an ``IndexFormatError``, and last
checks its rows with ``add_many``: a repeated key or a row that is not a
finite unit vector is an ``IndexFormatError`` as well. Version 1
files (no length, no header checksum) are rejected with a hint to
rebuild them with ``build-index``. ``to_bytes`` joins the file once, the
vectors straight from a byte view of the matrix, then packs the header and
checksums in place. ``from_bytes`` reads the fields inline, without a
call per field, and copies each vector field once, into one buffer that
``add_many`` keeps as the index's matrix: a load holds the file and one
copy of the vectors.

CRC-32C (Castagnoli, RFC 3720) is computed block-parallel, the
``crc32_combine`` method of zlib: the buffer is cut into
``CRC_BLOCK``-byte blocks, numpy advances one CRC register per block
column by column with the byte table, and the registers are folded in
order with a linear "advance over ``CRC_BLOCK`` zero bytes" operator,
applied as four 256-entry lookups. Inputs shorter than two blocks and
the tail after the last whole block go through the byte-table loop. The
numpy tables are built on first use, not at import.

Loading is bit-exact: vector bytes and entry order round-trip
unchanged.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import struct
from pathlib import Path
from typing import NamedTuple

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
_U32 = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + 4
UNIT_NORM_TOL = 1e-5

# CRC-32C (Castagnoli), reflected polynomial 0x82F63B78.
_CRC32C_TABLE = []
for _n in range(256):
    _c = _n
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _CRC32C_TABLE.append(_c)

CRC_BLOCK = 512


def crc32c(data, crc: int = 0) -> int:
    """CRC-32C of a bytes-like object (crc32c(b"123456789") == 0xE3069283).

    ``crc`` continues an earlier checksum: crc32c(a + b) == crc32c(b, crc32c(a)).
    """
    view = memoryview(data).cast("B")
    crc ^= 0xFFFFFFFF
    done = 0
    if len(view) >= 2 * CRC_BLOCK:
        done = len(view) - len(view) % CRC_BLOCK
        crc = _crc32c_blocks(view[:done], crc)
    table = _CRC32C_TABLE
    for byte in view[done:]:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _crc32c_blocks(view: memoryview, register: int) -> int:
    """Advance the raw CRC register over whole CRC_BLOCK-byte blocks."""
    table, (z0, z1, z2, z3) = _crc32c_block_tables()
    blocks = len(view) // CRC_BLOCK
    columns = np.frombuffer(view, dtype=np.uint8).reshape(blocks, CRC_BLOCK).T  # a view, not a copy
    registers = np.zeros(blocks, dtype=np.uint32)
    registers[0] = register  # the others start at 0 and are folded in below
    for column in columns:
        registers = table[(registers ^ column) & 0xFF] ^ (registers >> 8)
    register, *rest = registers.tolist()
    for block_register in rest:
        register = (z0[register & 0xFF] ^ z1[(register >> 8) & 0xFF]
                    ^ z2[(register >> 16) & 0xFF] ^ z3[register >> 24] ^ block_register)
    return register


@functools.cache
def _crc32c_block_tables() -> tuple[np.ndarray, tuple[list[int], ...]]:
    """The byte table as a numpy array, and the operator that advances a
    raw register over CRC_BLOCK zero bytes as four 256-entry tables, one
    per register byte (the operator is linear over GF(2))."""
    table = np.array(_CRC32C_TABLE, dtype=np.uint32)
    images = np.left_shift(np.uint32(1), np.arange(32, dtype=np.uint32))  # one register per bit
    for _ in range(CRC_BLOCK):
        images = table[images & 0xFF] ^ (images >> 8)
    has_bit = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
    lanes = tuple(
        np.bitwise_xor.reduce(np.where(has_bit, images[8 * j:8 * j + 8], np.uint32(0)), axis=1).tolist()
        for j in range(4)
    )
    return table, lanes


def _is_int(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_)))


def _length_prefixed(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


class SearchHit(NamedTuple):
    patient_id: str
    position: int
    score: float


SCORE_BLOCK = 1 << 13  # rows times dim per float64 block of score_rows: 64 KiB, so scoring adds little peak RSS


def score_rows(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The float64 score of each float32 row of ``matrix`` against the float64 ``query``.

    Row i scores ``np.dot(matrix[i].astype(np.float64), query)``. ``matmul`` over a
    stack of one-row matrices calls that dot product once per row, so a row's score
    is the same whichever rows are scored with it, where one matrix-vector product
    rounds differently over 6,400 rows than over 2. The rows are widened a block
    at a time, so no float64 copy of the whole matrix is made.
    """
    q = np.ascontiguousarray(query)[:, None]
    step = max(1, SCORE_BLOCK // matrix.shape[1])
    scores = np.empty(len(matrix), dtype=np.float64)
    for start in range(0, len(matrix), step):
        block = matrix[start:start + step].astype(np.float64)
        scores[start:start + len(block)] = np.matmul(block[:, None, :], q)[:, 0, 0]
    return scores


class _Ranking(NamedTuple):
    """One query's score for every row, and each patient's hits in rank order."""

    query: bytes  # the float64 query's bytes
    scores: np.ndarray
    by_patient: dict[str, list[SearchHit]]


class VectorIndex:
    """Append-only flat index of unit-normalized chunk embeddings."""

    def __init__(self, dim: int, embedder_fingerprint: str = ""):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.embedder_fingerprint = embedder_fingerprint
        self._patient_ids: list[str] = []
        # row i of the first len(self) rows belongs to _patient_ids[i]
        self._matrix = np.empty((0, dim), dtype=np.float32)
        self._positions = np.empty(0, dtype=np.int64)
        self._rows: dict[str, list[int]] = {}
        self._ranked: _Ranking | None = None  # the last query's ranking, dropped when rows are added

    def __len__(self) -> int:
        return len(self._patient_ids)

    def add(self, patient_id: str, position: int, vector: np.ndarray) -> None:
        """Append one chunk embedding; (patient_id, position) must be new."""
        self.add_many([(patient_id, position)], [vector])

    def add_many(self, keys, matrix: np.ndarray) -> None:
        """Append chunk embeddings: row i of ``matrix`` under ``keys[i]``, a (patient_id, position) pair.

        The keys may span patients. Every key and row is checked (dimension,
        finite, unit norm, key new to the batch and to the index) before
        anything is stored, so a rejected batch leaves the index unchanged.
        A position must be an int (a bool is not one) in [0, 2**32),
        checked before numpy converts it: another type is a ``TypeError``,
        another value a ``ValueError``. A batch into an empty index becomes
        its storage, uncopied when ``matrix`` is a C-ordered float32 array,
        so the caller must not change it afterwards; the index never writes
        into it, since that storage is full and any later rows go to a new one.
        """
        pids, pos = [pid for pid, _ in keys], [position for _, position in keys]
        for position in pos:
            if not _is_int(position):
                raise TypeError(f"positions must be ints, got {position!r}")
            if not 0 <= position <= 0xFFFFFFFF:
                raise ValueError(f"positions must fit in a u32, got {position}")
        try:
            mat = np.asarray(matrix, dtype=np.float32)
        except ValueError as exc:  # a list of vectors of unequal length
            raise DimensionMismatchError(f"expected dim {self.dim}: {exc}") from exc
        if mat.ndim != 2 or mat.shape[1] != self.dim:
            actual = mat.shape[1] if mat.ndim == 2 else mat.shape
            raise DimensionMismatchError(f"expected dim {self.dim}, got {actual}")
        if len(pos) != len(mat):
            raise ValueError(f"{len(pos)} keys for {len(mat)} vectors")
        norms = np.sqrt(np.einsum("ij,ij->i", mat, mat, dtype=np.float64))  # no float64 copy of the matrix
        bad = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)  # NaN compares false: non-finite rows are bad too
        if bad.any():
            i = int(np.argmax(bad))
            if not np.isfinite(mat[i]).all():
                raise InvalidVectorError(f"vector for {(pids[i], pos[i])!r} has non-finite values")
            raise InvalidVectorError(f"vector for {(pids[i], pos[i])!r} is not unit-normalized (norm={norms[i]:.6g})")
        taken = {(pid, p) for pid in self._rows.keys() & set(pids)  # each patient once
                 for p in self._positions[self._rows[pid]].tolist()}
        for key in zip(pids, pos):
            if key in taken:
                raise DuplicateChunkError(f"duplicate chunk_ref {key!r}")
            taken.add(key)

        start, stop = len(self), len(self) + len(pos)
        if not start:  # the batch itself becomes the storage
            self._matrix, self._positions = np.require(mat, requirements="C"), np.array(pos, dtype=np.int64)
        else:
            if stop > len(self._positions):  # grow by doubling, copying the stored rows once
                capacity = max(stop, 2 * start)
                matrix, positions = np.empty((capacity, self.dim), np.float32), np.empty(capacity, np.int64)
                matrix[:start], positions[:start] = self._matrix[:start], self._positions[:start]
                self._matrix, self._positions = matrix, positions
            self._matrix[start:stop] = mat
            self._positions[start:stop] = pos
        self._patient_ids.extend(pids)
        for row, pid in enumerate(pids, start):
            self._rows.setdefault(pid, []).append(row)
        self._ranked = None

    def search(self, query: np.ndarray, k: int, filter_patient: str | None = None) -> list[SearchHit]:
        """Exact top-k by cosine similarity.

        Ties are broken by ascending position, then patient id. With
        fewer than k matching entries, all of them are returned. ``k``
        must be an int (a bool is not one) and at least 0.
        """
        if not _is_int(k):
            raise TypeError(f"k must be an int, got {k!r}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1 or q.shape[0] != self.dim:
            actual = q.shape[0] if q.ndim == 1 else q.shape
            raise DimensionMismatchError(f"query dim {actual} does not match index dim {self.dim}")
        ranking = self._ranking(q)
        if filter_patient is not None:
            return ranking.by_patient.get(filter_patient, [])[:k]
        scores, positions = ranking.scores, self._positions[:len(self)]
        # lexsort: last key is primary
        order = np.lexsort((np.array(self._patient_ids), positions, -scores))[:k]
        return [SearchHit(self._patient_ids[i], int(positions[i]), float(scores[i])) for i in order]

    def _ranking(self, q: np.ndarray) -> _Ranking:
        """Every row scored against ``q`` in one pass, and each patient's hits in rank order.

        The ranking is kept for the next search with an equal query, until rows are added.
        """
        key = q.tobytes()
        if self._ranked is not None and self._ranked.query == key:
            return self._ranked
        n = len(self)
        scores = score_rows(self._matrix[:n], q)
        grouped = np.fromiter(itertools.chain.from_iterable(self._rows.values()), np.int64, n)  # rows by patient
        sizes = [len(rows) for rows in self._rows.values()]
        # within each patient: descending score, ties by ascending position
        order = grouped[np.lexsort((self._positions[grouped], -scores[grouped],
                                    np.repeat(np.arange(len(sizes)), sizes)))]
        hits = list(map(SearchHit, [pid for pid, rows in self._rows.items() for _ in rows],
                        self._positions[order].tolist(), scores[order].tolist()))
        bounds = list(itertools.accumulate(sizes, initial=0))
        self._ranked = _Ranking(key, scores, {pid: hits[a:b] for pid, a, b in zip(self._rows, bounds, bounds[1:])})
        return self._ranked

    # --- persistence ---------------------------------------------------

    def to_bytes(self) -> bytearray:
        n, row = len(self), 4 * self.dim
        # a byte view of the matrix (a copy only on a big-endian host); join copies it once, into the file
        vectors = memoryview(self._matrix[:n].astype("<f4", copy=False).reshape(-1).view(np.uint8))
        pid_fields = {pid: _length_prefixed(pid) for pid in self._rows}
        parts = [bytes(HEADER_SIZE)]  # the header and its checksum, packed in place once the length is known
        for pid, pos, start in zip(self._patient_ids, self._positions[:n].tolist(), range(0, n * row, row)):
            parts += (pid_fields[pid], _U32.pack(pos), vectors[start:start + row])
        parts += (_length_prefixed(self.embedder_fingerprint), bytes(4))
        blob = bytearray().join(parts)
        _HEADER.pack_into(blob, 0, MAGIC, FORMAT_VERSION, self.dim, n, len(blob))
        _U32.pack_into(blob, _HEADER.size, crc32c(memoryview(blob)[:_HEADER.size]))
        _U32.pack_into(blob, len(blob) - 4, crc32c(memoryview(blob)[HEADER_SIZE:-4]))
        return blob

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "VectorIndex":
        head = blob[:len(MAGIC)]
        if head != MAGIC[:len(head)]:
            raise IndexFormatError(f"bad magic {head!r}, expected {MAGIC!r}")
        if len(blob) >= len(MAGIC) + 4:
            (version,) = _U32.unpack_from(blob, len(MAGIC))
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

        row, end = 4 * dim, length - 4
        if count > (end - HEADER_SIZE - 4) // (8 + row):  # an entry holds two u32 fields and its vector at least
            raise IndexFormatError(f"inconsistent header: {count} entries of dim {dim} in {length} bytes")
        # Fields are read inline: a call per field would cost a fifth of a load. Only checksum-verified
        # bytes are parsed, so a field past the body's end means the structure is inconsistent.
        view, unpack = memoryview(blob), _U32.unpack_from
        keys, vectors, offset = [], bytearray(count * row), HEADER_SIZE
        try:
            for start in range(0, count * row, row):
                pos_start = offset + 4 + unpack(blob, offset)[0]
                stop = pos_start + 4 + row
                if stop > end:
                    raise IndexFormatError(f"inconsistent structure: entry {len(keys)} at offset {offset} "
                                           f"runs {stop - end} bytes past the end of the body")
                keys.append((str(view[offset + 4:pos_start], "utf-8"), unpack(blob, pos_start)[0]))
                vectors[start:start + row] = view[pos_start + 4:stop]
                offset = stop
            fp_end = offset + 4 + unpack(blob, offset)[0]  # offset <= end, so the length field is in the file
            if fp_end != end:
                raise IndexFormatError(f"inconsistent structure: the fingerprint at offset {offset} "
                                       f"ends at {fp_end}, the body at {end}")
            fingerprint = str(view[offset + 4:end], "utf-8")
        except UnicodeDecodeError as exc:
            what = f"entry {len(keys)} id" if len(keys) < count else "fingerprint"
            raise IndexFormatError(f"{what} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
        index = cls(dim=dim, embedder_fingerprint=fingerprint)
        try:  # the vectors' one copy out of the file becomes the index's storage
            index.add_many(keys, np.frombuffer(vectors, dtype="<f4").reshape(count, dim))
        except (DuplicateChunkError, InvalidVectorError) as exc:
            raise IndexFormatError(f"{exc} in file") from exc
        return index

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        return cls.from_bytes(Path(path).read_bytes())


def _verify_crc(blob: bytes, start: int, end: int, what: str) -> None:
    """Check the CRC-32C stored in the four bytes after blob[start:end]."""
    (stored,) = _U32.unpack_from(blob, end)
    actual = crc32c(memoryview(blob)[start:end])
    if actual != stored:
        raise IndexChecksumError(
            f"{what} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )

