"""Flat exact-similarity vector store over chunk embeddings.

Similarity is the dot product of unit vectors (cosine). Hits are ordered
by descending score, ties broken by ascending chunk position, then
patient id.

A search scores only the rows it can return, ``score_rows``: one
patient's rows when it is filtered to that patient, every row otherwise.
Row i's score is the ``math.fsum`` of the row's products with the
query's nonzero coordinates, each a float32 value times a float64 one.
A zero coordinate adds an exact zero, and ``fsum`` is correctly rounded,
so a score is one defined number: it depends neither on BLAS nor on
which or how many rows are scored with it. The search sorts the scored
rows by descending score, ties by position, then patient id, and returns
the first k. The index keeps nothing of a query, so ``retrieve``, with
one filtered search per patient, scores each row once.

In memory the index is one flat ``array('f')`` of rows, an ``array('I')``
of chunk positions and the list of patient ids, row for row, plus a map
from each patient id to its row numbers for the duplicate checks. Rows
enter only through ``add_many``, which checks a batch of (patient_id,
position) keys, across patients, and their rows before it stores any;
``add`` and ``from_bytes`` call it too. It copies the batch's rows once,
into one array that becomes the storage of an empty index and is
appended to any other's.

The index persists to a little-endian binary file (format version 3):

    header:  magic "BRAGIDX1" | u32 version=3 | u32 dim | u64 count
             | u64 total file length | u32 CRC-32 of the 32 bytes before it
    body:    count x (u32 pid_len, pid utf-8, u32 position, dim x f32)
             | u32 fp_len, embedder fingerprint utf-8
    trailer: u32 CRC-32 of the body

Both checksums are the IEEE CRC-32 of ``zlib.crc32`` (the function keeps
its old name, ``crc32c``). Because the header records the file length
under its own checksum, a file cut short is told apart from a corrupted
one. ``from_bytes`` checks, in order: the magic (``IndexFormatError``),
the version (``IndexVersionError``), that the header is complete
(``IndexTruncatedError``), the header checksum (``IndexChecksumError``),
the file length against the recorded one (shorter:
``IndexTruncatedError``; longer: ``IndexFormatError`` for trailing
bytes), the body checksum (``IndexChecksumError``), then parses the
body, where any inconsistency (more entries than the body can hold, a
field past its end) is an ``IndexFormatError``, and last
checks its rows with ``add_many``: a repeated key or a row that is not a
finite unit vector is an ``IndexFormatError`` as well. Files of an
earlier version (version 2 had the same layout under CRC-32C checksums,
version 1 no length and no header checksum) are rejected with a hint to
rebuild them with ``build-index``. ``save`` writes the file in pieces:
the header, whose length is known beforehand, the body about
``SAVE_PIECE`` bytes at a time, each piece joined from a byte view of
the storage and checksummed on from the last, then the trailer, so it
holds one piece of the file besides the index. ``from_bytes`` reads the
fields inline, without a call per field, and hands ``add_many`` each
vector as a view of the file, which it copies once, into the index's
storage: a load holds the file and one copy of the vectors. The file's
floats are little-endian; a big-endian host swaps their bytes on the way
in and out.

Loading is bit-exact: vector bytes and entry order round-trip
unchanged.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import NamedTuple

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
FORMAT_VERSION = 3
# magic, version, dim, count, total file length; its CRC-32 follows
_HEADER = struct.Struct("<8sIIQQ")
_U32 = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + 4
UNIT_NORM_TOL = 1e-5
_LITTLE_ENDIAN = sys.byteorder == "little"

SAVE_PIECE = 1 << 18  # body bytes that save joins and checksums at a time


def crc32c(data, crc: int = 0) -> int:
    """The IEEE CRC-32 of zlib (crc32c(b"123456789") == 0xCBF43926), kept under its old name until
    a benchmark change can rename it.

    ``crc`` continues an earlier checksum: crc32c(a + b) == crc32c(b, crc32c(a)).
    """
    return zlib.crc32(data, crc)


def _is_int(value) -> bool:
    """An integer, a numpy one say, and not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _length_prefixed(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _byteswapped(floats) -> array:
    """A copy of the float32 values of a buffer, each one's bytes reversed: a big-endian host's
    conversion to and from the file's little-endian floats."""
    swapped = array("f")
    swapped.frombytes(memoryview(floats).cast("B"))
    swapped.byteswap()
    return swapped


class SearchHit(NamedTuple):
    patient_id: str
    position: int
    score: float


def score_rows(vectors: array, query, rows) -> list[float]:
    """The score against the float64 ``query`` of each row number in ``rows`` of the flat float32
    ``vectors``, cut into rows of ``len(query)``.

    Row i scores the ``math.fsum`` of its products with the query's nonzero coordinates. The
    rows are scored one at a time, each copied out of ``vectors`` and its nonzero coordinates
    gathered with one ``itemgetter``, so a pass holds one row besides its scores, for a sparse
    hashed query and a dense one alike.
    """
    dim = len(query)
    nonzero = list(itertools.compress(range(dim), query))  # once per search: no Python loop over the query
    if not nonzero:
        return [0.0] * len(rows)
    weights = list(filter(None, query))
    gather = operator.itemgetter(*nonzero) if len(nonzero) > 1 else lambda row: (row[nonzero[0]],)
    return [math.fsum(map(operator.mul, gather(vectors[i * dim:(i + 1) * dim]), weights)) for i in rows]


class VectorIndex:
    """Append-only flat index of unit-normalized chunk embeddings."""

    def __init__(self, dim: int, embedder_fingerprint: str = ""):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.embedder_fingerprint = embedder_fingerprint
        self._patient_ids: list[str] = []
        # row i, the floats [i * dim, (i + 1) * dim), belongs to _patient_ids[i]
        self._vectors = array("f")
        self._positions = array("I")  # u32
        self._rows: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._patient_ids)

    def add(self, patient_id: str, position: int, vector) -> None:
        """Append one chunk embedding; (patient_id, position) must be new."""
        self.add_many([(patient_id, position)], [vector])

    def add_many(self, keys, vectors) -> None:
        """Append chunk embeddings: ``vectors[i]`` under ``keys[i]``, a (patient_id, position) pair.

        The keys may span patients. A vector is a sequence of ``dim`` numbers. One that
        exposes float32 values as a buffer (an ``array('f')``, a float32 view or numpy
        array) is copied as it is; any other is rounded to float32 value by value. Every
        key and row is checked (dimension, finite, unit norm, key new to the batch and to
        the index) before anything is stored, so a rejected batch leaves the index
        unchanged. A position must be an int (a bool is not one) in [0, 2**32): another
        type is a ``TypeError``, another value a ``ValueError``. The rows are copied once,
        into one array, which becomes the storage of an empty index and extends any other's.
        """
        if len(keys) != len(vectors):
            raise ValueError(f"{len(keys)} keys for {len(vectors)} vectors")
        for _, position in keys:
            if not _is_int(position):
                raise TypeError(f"positions must be ints, got {position!r}")
            if not 0 <= position <= 0xFFFFFFFF:
                raise ValueError(f"positions must fit in a u32, got {position}")
        positions = array("I", [position for _, position in keys])
        dim = self.dim
        batch = array("f", [0.0]) * (dim * len(keys))
        with memoryview(batch) as out:
            for i, vector in enumerate(vectors):
                if len(vector) != dim:
                    raise DimensionMismatchError(f"expected dim {dim}, got {len(vector)}")
                row = slice(i * dim, (i + 1) * dim)
                try:
                    out[row] = vector
                except (TypeError, ValueError):  # not a float32 buffer
                    out[row] = array("f", vector)
                norm = math.hypot(*out[row])
                if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # NaN compares false: non-finite rows fail too
                    if not all(map(math.isfinite, out[row])):
                        raise InvalidVectorError(f"vector for {keys[i]!r} has non-finite values")
                    raise InvalidVectorError(f"vector for {keys[i]!r} is not unit-normalized (norm={norm:.6g})")
        start = len(self)
        grouped: dict[str, list[int]] = {}  # each patient's new row numbers
        for row, (pid, _) in enumerate(keys, start):
            grouped.setdefault(pid, []).append(row)
        for pid, rows in grouped.items():  # one patient at a time
            taken = set(map(self._positions.__getitem__, self._rows.get(pid, ())))
            for row in rows:
                position = positions[row - start]
                if position in taken:
                    raise DuplicateChunkError(f"duplicate chunk_ref {(pid, position)!r}")
                taken.add(position)

        if start:
            self._vectors += batch
        else:
            self._vectors = batch
        self._positions += positions
        self._patient_ids += [pid for pid, _ in keys]
        for pid, rows in grouped.items():
            if pid in self._rows:
                self._rows[pid] += rows
            else:
                self._rows[pid] = rows

    def search(self, query, k: int, filter_patient: str | None = None) -> list[SearchHit]:
        """Exact top-k by cosine similarity.

        Ties are broken by ascending position, then patient id. With
        fewer than k matching entries, all of them are returned. ``k``
        must be an int (a bool is not one) and at least 0; ``query`` a
        sequence of ``dim`` finite numbers.
        """
        if not _is_int(k):
            raise TypeError(f"k must be an int, got {k!r}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        q = array("d", query)
        if len(q) != self.dim:
            raise DimensionMismatchError(f"query dim {len(q)} does not match index dim {self.dim}")
        if not all(map(math.isfinite, q)):
            raise InvalidVectorError("query has non-finite values")
        rows = range(len(self)) if filter_patient is None else self._rows.get(filter_patient, [])
        scored = zip(map(operator.neg, score_rows(self._vectors, q, rows)), map(self._positions.__getitem__, rows),
                     map(self._patient_ids.__getitem__, rows))
        return [SearchHit(pid, position, -negated) for negated, position, pid in sorted(scored)[:k]]

    # --- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the file in order: the header, the body in pieces of about ``SAVE_PIECE`` bytes, each joined
        from a byte view of the storage and checksummed on from the one before, and the trailer. It holds one
        piece of the body besides the index."""
        n, row = len(self), 4 * self.dim
        # a byte view of the storage (a copy only on a big-endian host)
        vectors = memoryview(self._vectors if _LITTLE_ENDIAN else _byteswapped(self._vectors)).cast("B")
        pid_fields = {pid: _length_prefixed(pid) for pid in self._rows}
        fingerprint = _length_prefixed(self.embedder_fingerprint)
        length = (HEADER_SIZE + sum(len(pid_fields[pid]) * len(rows) for pid, rows in self._rows.items())
                  + n * (4 + row) + len(fingerprint) + 4)
        header = bytearray(HEADER_SIZE)
        _HEADER.pack_into(header, 0, MAGIC, FORMAT_VERSION, self.dim, n, length)
        _U32.pack_into(header, _HEADER.size, crc32c(memoryview(header)[:_HEADER.size]))
        with open(path, "wb") as fh:
            fh.write(header)
            crc, parts, size = 0, [], 0
            for pid, pos, start in zip(self._patient_ids, self._positions, range(0, n * row, row)):
                field = pid_fields[pid]
                parts += (field, _U32.pack(pos), vectors[start:start + row])
                size += len(field) + 4 + row
                if size >= SAVE_PIECE:
                    piece = b"".join(parts)
                    crc = crc32c(piece, crc)
                    fh.write(piece)
                    parts, size = [], 0
            parts.append(fingerprint)
            piece = b"".join(parts)
            fh.write(piece)
            fh.write(_U32.pack(crc32c(piece, crc)))

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
        keys, vectors, offset = [], [], HEADER_SIZE
        try:
            for _ in range(count):
                pos_start = offset + 4 + unpack(blob, offset)[0]
                stop = pos_start + 4 + row
                if stop > end:
                    raise IndexFormatError(f"inconsistent structure: entry {len(keys)} at offset {offset} "
                                           f"runs {stop - end} bytes past the end of the body")
                keys.append((str(view[offset + 4:pos_start], "utf-8"), unpack(blob, pos_start)[0]))
                raw = view[pos_start + 4:stop]
                vectors.append(raw.cast("f") if _LITTLE_ENDIAN else _byteswapped(raw))
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
        try:  # the vectors' one copy out of the file is the index's storage
            index.add_many(keys, vectors)
        except (DuplicateChunkError, InvalidVectorError) as exc:
            raise IndexFormatError(f"{exc} in file") from exc
        return index

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        return cls.from_bytes(Path(path).read_bytes())


def _verify_crc(blob: bytes, start: int, end: int, what: str) -> None:
    """Check the CRC-32 stored in the four bytes after blob[start:end]."""
    (stored,) = _U32.unpack_from(blob, end)
    actual = crc32c(memoryview(blob)[start:end])
    if actual != stored:
        raise IndexChecksumError(
            f"{what} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )

