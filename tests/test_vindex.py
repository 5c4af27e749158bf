"""Vector index: exact search, tie rule, binary persistence."""

from __future__ import annotations

import hashlib
import struct
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest

from budgetrag import vindex
from budgetrag.corpus import chunk_text
from budgetrag.embedding import HashingEmbedder
from budgetrag.errors import (
    DimensionMismatchError,
    DuplicateChunkError,
    IndexChecksumError,
    IndexFormatError,
    IndexTruncatedError,
    IndexVersionError,
    InvalidVectorError,
)
from budgetrag.retrieval import DEFAULT_QUERY_TEXT
from budgetrag.synthetic import generate_corpus
from budgetrag.vindex import CRC_BLOCK, HEADER_SIZE, MAGIC, SearchHit, VectorIndex, crc32c

from .oracles import index_rows

# SHA-256 of pinned_index().to_bytes(), recorded before the index held its
# rows in one matrix: the in-memory layout must not change format v2 bytes.
PINNED_V2_SHA256 = "c10afa31014783885b3c1d6eb1a995c515b1aa3b0724ba47fa7413b1c5377b4f"


def unit(values) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    return (vec / np.linalg.norm(vec)).astype(np.float32)


def random_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def build_random_index(rng: np.random.Generator, n: int, dim: int) -> VectorIndex:
    index = VectorIndex(dim=dim, embedder_fingerprint=f"test:dim={dim}")
    rows = random_unit_rows(rng, n, dim)
    for i in range(n):
        index.add(f"p{rng.integers(0, max(2, n // 4)):05d}_{i}", int(rng.integers(0, 50)), rows[i])
    return index


def pinned_index() -> VectorIndex:
    """300 rows at dim 16 with patient ids of mixed utf-8 lengths: a 23 kB
    file, so its body checksum runs through the block path."""
    rng = np.random.default_rng(2505)
    rows = random_unit_rows(rng, 300, 16)
    index = VectorIndex(dim=16, embedder_fingerprint="hashing-fnv1a64:dim=16")
    for i in range(300):
        index.add(f"p{i // 4}" + "é" * (i % 3), i % 4, rows[i])
    return index


def crc32c_bitwise(data: bytes, crc: int = 0) -> int:
    """Independent oracle: CRC-32C one bit at a time, no table."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def brute_force_search(index: VectorIndex, query: np.ndarray, k: int, filter_patient=None):
    """Independent oracle: per-entry sums of the float64 products over every coordinate, in exact
    rational arithmetic and rounded once, tuple sort."""
    scored = []
    for (pid, pos), vec in index_rows(index):
        if filter_patient is not None and pid != filter_patient:
            continue
        products = vec.astype(np.float64) * np.asarray(query, dtype=np.float64)
        score = float(sum(map(Fraction, products.tolist())))
        scored.append(SearchHit(patient_id=pid, position=pos, score=score))
    scored.sort(key=lambda h: (-h.score, h.position, h.patient_id))
    return scored[:k]


class TestAdd:
    def test_add_to_empty(self):
        index = VectorIndex(dim=4)
        index.add("p1", 0, unit([1, 0, 0, 0]))
        assert len(index) == 1

    def test_wrong_dim_names_expected_and_actual(self):
        index = VectorIndex(dim=4)
        with pytest.raises(DimensionMismatchError, match="expected dim 4, got 3"):
            index.add("p1", 0, unit([1, 0, 0]))

    def test_duplicate_key(self):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        with pytest.raises(DuplicateChunkError):
            index.add("p1", 0, unit([0, 1]))

    def test_non_unit_vector_rejected(self):
        index = VectorIndex(dim=2)
        with pytest.raises(InvalidVectorError):
            index.add("p1", 0, np.array([2.0, 0.0], dtype=np.float32))

    def test_non_finite_vector_rejected(self):
        index = VectorIndex(dim=2)
        with pytest.raises(InvalidVectorError):
            index.add("p1", 0, np.array([np.nan, 1.0], dtype=np.float32))


class TestAddMany:
    def _index(self) -> VectorIndex:
        index = VectorIndex(dim=3)
        index.add_many([("p1", 0), ("p1", 1)], np.stack([unit([1, 0, 0]), unit([0, 1, 0])]))
        return index

    def test_equals_one_add_per_row(self):
        rng = np.random.default_rng(11)
        rows = random_unit_rows(rng, 7, 5)
        keys = list(zip("aaabbbb", [3, 0, 1, 0, 1, 2, 5]))
        bulk, single = VectorIndex(dim=5), VectorIndex(dim=5)
        bulk.add_many(keys[:3], rows[:3])
        bulk.add_many(keys[3:], rows[3:])
        for (pid, pos), row in zip(keys, rows):
            single.add(pid, pos, row)
        assert bulk.to_bytes() == single.to_bytes()
        query = random_unit_rows(rng, 1, 5)[0]
        assert bulk.search(query, k=7) == single.search(query, k=7)
        assert bulk.search(query, k=7, filter_patient="a") == single.search(query, k=7, filter_patient="a")

    def test_batch_across_patients_equals_one_add_per_row(self):
        rng = np.random.default_rng(12)
        rows = random_unit_rows(rng, 9, 4)
        # patients interleaved within a batch, and "a" and "c" continued by the next one
        keys = [("b", 0), ("a", 3), ("b", 1), ("c", 0), ("a", 0), ("a", 1), ("c", 2), ("b", 7), ("d", 0)]
        bulk, single = VectorIndex(dim=4), VectorIndex(dim=4)
        bulk.add_many(keys[:5], rows[:5])
        bulk.add_many(keys[5:], rows[5:])
        for (pid, pos), row in zip(keys, rows):
            single.add(pid, pos, row)
        assert [ref for ref, _ in index_rows(bulk)] == keys
        assert bulk.to_bytes() == single.to_bytes()
        query = random_unit_rows(rng, 1, 4)[0]
        assert bulk.search(query, k=9) == single.search(query, k=9)
        for pid in "abcd":
            assert bulk.search(query, k=9, filter_patient=pid) == single.search(query, k=9, filter_patient=pid)

    def test_one_batch_may_hold_position_0_of_two_patients(self):
        index = self._index()
        index.add_many([("p2", 0), ("p3", 0)], np.stack([unit([1, 0, 0]), unit([0, 0, 1])]))
        assert [ref for ref, _ in index_rows(index)] == [("p1", 0), ("p1", 1), ("p2", 0), ("p3", 0)]

    @pytest.mark.parametrize("keys,vectors,error,match", [
        ([("p2", 0)], [unit([1, 0])], DimensionMismatchError, "expected dim 3, got 2"),
        ([("p2", 0), ("p2", 1)], [unit([1, 0, 0]), unit([1, 0])], DimensionMismatchError, "expected dim 3"),
        ([("p2", 0), ("p2", 1)], [unit([1, 0, 0]), [np.nan, 1.0, 0.0]], InvalidVectorError,
         r"\('p2', 1\).*non-finite"),
        ([("p2", 0), ("p2", 1)], [unit([1, 0, 0]), [2.0, 0.0, 0.0]], InvalidVectorError, r"\('p2', 1\).*unit"),
        ([("p2", 4), ("p2", 4)], [unit([1, 0, 0]), unit([0, 0, 1])], DuplicateChunkError, r"\('p2', 4\)"),
        ([("p1", 2), ("p1", 1)], [unit([1, 0, 0]), unit([0, 0, 1])], DuplicateChunkError, r"\('p1', 1\)"),
        ([("p2", 0), ("p2", 1)], [unit([1, 0, 0])], ValueError, "2 keys for 1 vectors"),
        ([("p2", -1)], [unit([1, 0, 0])], ValueError, "u32"),
        ([("p2", 0), ("p3", 0), ("p2", 0)], [unit([1, 0, 0]), unit([0, 1, 0]), unit([0, 0, 1])],
         DuplicateChunkError, r"\('p2', 0\)"),
        ([("p3", 0), ("p1", 1)], [unit([1, 0, 0]), unit([0, 0, 1])], DuplicateChunkError, r"\('p1', 1\)"),
    ], ids=["wrong-dim", "ragged-rows", "non-finite", "non-unit", "duplicate-in-batch", "duplicate-of-existing",
            "count-mismatch", "negative-position", "duplicate-across-patients-in-batch",
            "duplicate-of-existing-across-patients"])
    def test_rejected_batch_leaves_index_unchanged(self, keys, vectors, error, match):
        index = self._index()
        before = index.to_bytes()
        with pytest.raises(error, match=match):
            index.add_many(keys, vectors)
        assert len(index) == 2
        assert index.to_bytes() == before
        assert index.search(unit([1, 0, 0]), k=1, filter_patient="p3") == []

    @pytest.mark.parametrize("position,error", [
        (1.5, TypeError), ("3", TypeError), (True, TypeError), (np.bool_(True), TypeError),
        (2**32, ValueError), (2**64, ValueError), (-1, ValueError),
    ], ids=["float", "string", "bool", "numpy-bool", "2**32", "2**64", "negative"])
    def test_position_that_is_not_a_u32_int_is_rejected(self, position, error):
        index = self._index()
        with pytest.raises(error, match="positions must"):
            index.add_many([("p2", 0), ("p2", position)], np.stack([unit([1, 0, 0]), unit([0, 0, 1])]))
        with pytest.raises(error, match="positions must"):
            index.add("p2", position, unit([1, 0, 0]))
        assert len(index) == 2

    def test_numpy_integer_positions_are_stored_as_ints(self):
        index = self._index()
        positions = np.array([0, 2**32 - 1], dtype=np.int64)
        index.add_many([("p2", positions[0]), ("p2", positions[1])], np.stack([unit([1, 0, 0]), unit([0, 0, 1])]))
        assert [ref for ref, _ in index_rows(index)][2:] == [("p2", 0), ("p2", 2**32 - 1)]
        assert all(type(pos) is int for (_, pos), _ in index_rows(index))

    def test_loaded_index_grows(self):
        loaded = VectorIndex.from_bytes(self._index().to_bytes())
        loaded.add_many([("p1", 2)], unit([0, 0, 1])[None, :])
        loaded.add("p2", 0, unit([1, 1, 0]))
        assert [ref for ref, _ in index_rows(loaded)] == [("p1", 0), ("p1", 1), ("p1", 2), ("p2", 0)]
        assert loaded.search(unit([0, 0, 1]), k=1, filter_patient="p1")[0].position == 2


class TestScoringAndStorage:
    # The benchmark's two offline shapes at its sizes:
    # (patients, notes, blocks per note, words per block, chunk words, dim)
    OFFLINE_SHAPES = {"long-records": (60, 5, 8, 512, 512, 256), "many-short-records": (3200, 1, 4, 32, 64, 64)}

    @staticmethod
    def _shape_index(shape, seed):
        patients, notes, blocks, block_words, max_words, dim = TestScoringAndStorage.OFFLINE_SHAPES[shape]
        corpus = generate_corpus(patients, notes_per_patient=notes, blocks_per_note=blocks,
                                 block_words=block_words, seed=seed)
        keys, texts = [], []
        for record in corpus.records:
            text = "\n\n".join(note["text"] for note in record["notes"])
            for chunk in chunk_text(text, max_words, patient_id=record["patient_id"]):
                keys.append((chunk.patient_id, chunk.position))
                texts.append(chunk.text)
        embedder = HashingEmbedder(dim)
        index = VectorIndex(dim=dim)
        index.add_many(keys, embedder.embed_many(texts))
        return index, embedder.embed(DEFAULT_QUERY_TEXT)

    @staticmethod
    def _spy(monkeypatch):
        calls = []

        def spy(vectors, query, rows):
            calls.append(list(rows))
            return score_rows(vectors, query, rows)

        score_rows = vindex.score_rows
        monkeypatch.setattr(vindex, "score_rows", spy)
        return calls

    @pytest.mark.parametrize("shape", ["long-records", "many-short-records"])
    def test_each_patients_ranking_equals_a_fresh_index_of_its_rows(self, shape, monkeypatch):
        """A score does not depend on which rows are scored with it: bit for bit, each patient's
        hits are those of an index that holds only that patient's rows, for the sparse hashed
        query and a dense one. One search per patient scores each row once per query."""
        index, query = self._shape_index(shape, seed=7000)
        by_patient = {}
        for key, vec in index_rows(index):
            by_patient.setdefault(key[0], []).append((key, vec))
        fresh = {}
        for pid, rows in by_patient.items():
            fresh[pid] = VectorIndex(dim=index.dim)
            fresh[pid].add_many([key for key, _ in rows], np.stack([vec for _, vec in rows]))
        calls = self._spy(monkeypatch)
        for q in (query, random_unit_rows(np.random.default_rng(26), 1, index.dim)[0].astype(np.float64)):
            scored = []
            for pid in by_patient:
                got = index.search(q, k=len(index), filter_patient=pid)
                scored += calls.pop()
                expected = fresh[pid].search(q, k=len(fresh[pid]))
                assert [(h.patient_id, h.position, h.score.hex()) for h in got] == \
                    [(h.patient_id, h.position, h.score.hex()) for h in expected], pid
            assert sorted(scored) == list(range(len(index)))  # each row scored once per query

    def test_a_search_scores_only_the_rows_it_can_return(self, monkeypatch):
        rng = np.random.default_rng(26)
        index = VectorIndex(dim=8)
        index.add_many([(f"p{i % 5}", i) for i in range(40)], random_unit_rows(rng, 40, 8))  # rows of p3: 3, 8, ..
        query = random_unit_rows(rng, 1, 8)[0]
        calls = self._spy(monkeypatch)
        first = index.search(query, k=40)
        assert index.search(query.astype(np.float64), k=5, filter_patient="p3") == \
            [hit for hit in first if hit.patient_id == "p3"][:5]
        assert index.search(query, k=5, filter_patient="absent") == []
        assert calls == [list(range(40)), list(range(3, 40, 5)), []]  # unfiltered every row, filtered the patient's
        index.add("p3", 99, query)
        hits = index.search(query, k=1, filter_patient="p3")
        assert calls[-1] == [*range(3, 40, 5), 40]  # a search after add sees the new row
        assert (hits[0].position, hits[0].score) == (99, pytest.approx(1.0))

    def test_the_index_keeps_its_own_copy_of_each_batch(self):
        # a batch is copied into the storage: the caller may change its rows afterwards
        rows = random_unit_rows(np.random.default_rng(1), 3, 4)
        kept = rows.copy()
        index = VectorIndex(dim=4)
        index.add_many([("p", 0), ("p", 1), ("p", 2)], rows)
        rows[:] = 0.5
        index.add_many([("q", 0), ("q", 1)], random_unit_rows(np.random.default_rng(2), 2, 4))
        index.add("q", 2, rows[0])
        assert [vec.tolist() for _, vec in index_rows(index)[:3]] == kept.tolist()

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # What a row's key costs besides its vector while rows enter the index (its id, tuples, maps
    # and add_many's checks), against 4 kB for a vector at dim 1024.
    KEY_BYTES = 512

    def test_a_batch_into_an_empty_index_allocates_its_storage_once(self):
        rows = random_unit_rows(np.random.default_rng(2), 500, 1024)
        keys = [(f"p{i // 2:03d}", i % 2) for i in range(500)]
        _, peak = self._peak(lambda: VectorIndex(dim=1024).add_many(keys, rows))
        assert peak <= rows.nbytes + self.KEY_BYTES * len(rows)

    def test_a_batch_of_short_rows_costs_its_vectors_and_190_bytes_a_row(self):
        # the many-short-records shape: 3,200 patients of 2 chunks at dim 64, as the embedder returns
        # them; add_many checks duplicates one patient at a time, without a set of every key
        texts = [" ".join(f"w{(i * 7 + j * j) % 301}" for j in range(64)) for i in range(6400)]
        rows = HashingEmbedder(64).embed_many(texts)
        keys = [(f"p{i // 2:04d}", i % 2) for i in range(6400)]
        index = VectorIndex(dim=64)
        _, peak = self._peak(lambda: index.add_many(keys, rows))
        assert len(index) == 6400
        assert peak <= 6400 * 64 * 4 + 190 * 6400

    def test_a_load_holds_the_file_and_one_copy_of_the_vectors(self, tmp_path):
        rows = random_unit_rows(np.random.default_rng(3), 500, 1024)
        index = VectorIndex(dim=1024, embedder_fingerprint="fp")
        index.add_many([(f"p{i // 2:03d}", i % 2) for i in range(500)], rows)
        index.save(tmp_path / "i.brag")
        loaded, peak = self._peak(lambda: VectorIndex.load(tmp_path / "i.brag"))
        assert peak <= (tmp_path / "i.brag").stat().st_size + rows.nbytes + self.KEY_BYTES * len(rows)
        assert loaded.to_bytes() == index.to_bytes()

    def test_a_dense_query_is_scored_without_a_copy_of_the_rows(self):
        # a remote service's vectors are dense: the pass holds one row and the scores, not a column per coordinate
        rows = random_unit_rows(np.random.default_rng(5), 2000, 256)
        vectors, query = array("f", rows.tobytes()), array("d", random_unit_rows(np.random.default_rng(6), 1, 256)[0])
        scores, peak = self._peak(lambda: vindex.score_rows(vectors, query, range(len(rows))))
        assert len(scores) == 2000
        assert peak <= 48 * len(rows) + 64 * 256

    def test_a_query_with_one_nonzero_coordinate_scores_that_column(self):
        rows = random_unit_rows(np.random.default_rng(4), 5, 3)
        vectors = array("f", rows.tobytes())
        assert vindex.score_rows(vectors, array("d", [0.0, -2.0, 0.0]), range(5)) == \
            [-2.0 * float(v) for v in rows[:, 1]]
        assert vindex.score_rows(vectors, array("d", [0.0, -2.0, 0.0]), [3, 1]) == \
            [-2.0 * float(rows[3, 1]), -2.0 * float(rows[1, 1])]
        assert vindex.score_rows(vectors, array("d", [0.0] * 3), [4, 0]) == [0.0] * 2


class TestSearch:
    def test_k_zero(self):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        assert index.search(unit([1, 0]), k=0) == []

    @pytest.mark.parametrize("k", [1.5, True, np.bool_(True), "1"], ids=["float", "bool", "numpy-bool", "string"])
    def test_k_that_is_not_an_int_is_rejected(self, k):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        with pytest.raises(TypeError, match="k must be an int"):
            index.search(unit([1, 0]), k=k)

    def test_k_numpy_int_and_negative(self):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        assert len(index.search(unit([1, 0]), k=np.int64(1))) == 1
        with pytest.raises(ValueError, match="k must be >= 0"):
            index.search(unit([1, 0]), k=-1)

    def test_exact_match_scores_one(self):
        index = VectorIndex(dim=3)
        target = unit([1, 2, 2])
        index.add("p1", 0, unit([0, 1, 0]))
        index.add("p1", 1, target)
        hits = index.search(target, k=1)
        assert (hits[0].patient_id, hits[0].position) == ("p1", 1)
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_tie_broken_by_position_then_patient(self):
        index = VectorIndex(dim=2)
        vec = unit([1, 0])
        index.add("pB", 3, vec)
        index.add("pA", 3, vec)
        index.add("pA", 1, vec)
        hits = index.search(vec, k=3)
        assert [(h.patient_id, h.position) for h in hits] == [("pA", 1), ("pA", 3), ("pB", 3)]

    def test_fewer_than_k_returns_all(self):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        assert len(index.search(unit([0, 1]), k=10)) == 1

    def test_non_finite_query_rejected(self):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        for query in ([np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(InvalidVectorError, match="query has non-finite values"):
                index.search(query, k=1)

    def test_query_dim_mismatch(self):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        with pytest.raises(DimensionMismatchError):
            index.search(unit([1, 0, 0]), k=1)

    def test_filter_patient(self):
        index = VectorIndex(dim=2)
        index.add("p1", 0, unit([1, 0]))
        index.add("p2", 0, unit([1, 0.01]))
        hits = index.search(unit([1, 0]), k=5, filter_patient="p2")
        assert [h.patient_id for h in hits] == ["p2"]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        index = build_random_index(rng, 200, 16)
        for _ in range(20):
            query = random_unit_rows(rng, 1, 16)[0]
            got = index.search(query, k=10)
            expected = brute_force_search(index, query, k=10)
            assert [(h.patient_id, h.position, h.score) for h in got] == \
                [(h.patient_id, h.position, h.score) for h in expected]

    def test_prefix_monotonicity(self):
        rng = np.random.default_rng(7)
        index = build_random_index(rng, 60, 8)
        query = random_unit_rows(rng, 1, 8)[0]
        for k in range(0, 12):
            assert index.search(query, k) == index.search(query, k + 1)[:k]

    def test_score_bounds(self):
        rng = np.random.default_rng(3)
        index = build_random_index(rng, 100, 8)
        query = random_unit_rows(rng, 1, 8)[0]
        for hit in index.search(query, k=100):
            assert -1.0 - 1e-6 <= hit.score <= 1.0 + 1e-6


class TestPersistence:
    def _small_index(self) -> VectorIndex:
        index = VectorIndex(dim=3, embedder_fingerprint="hashing-fnv1a64:dim=3")
        index.add("pat-α", 0, unit([1, 0, 0]))
        index.add("pat-α", 1, unit([1, 2, 3]))
        index.add("other", 7, unit([0, 0, 1]))
        return index

    def test_crc32c_known_vector(self):
        assert crc32c(b"123456789") == 0xE3069283

    @pytest.mark.parametrize("length", [
        0, 1, CRC_BLOCK - 1, CRC_BLOCK, CRC_BLOCK + 1,
        2 * CRC_BLOCK - 1, 2 * CRC_BLOCK, 2 * CRC_BLOCK + 1, 100_003,
    ])
    def test_crc32c_matches_bitwise_oracle(self, length):
        data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
        assert crc32c(data) == crc32c_bitwise(data)
        assert crc32c(data, 0x1234ABCD) == crc32c_bitwise(data, 0x1234ABCD)
        assert crc32c(memoryview(data)) == crc32c(bytearray(data)) == crc32c(data)

    def test_crc32c_chains(self):
        data = np.random.default_rng(5).integers(0, 256, 9 * CRC_BLOCK + 77, dtype=np.uint8).tobytes()
        for cut in (0, 1, CRC_BLOCK - 3, 2 * CRC_BLOCK + 5, 5 * CRC_BLOCK, len(data) - 1, len(data)):
            a, b = data[:cut], data[cut:]
            assert crc32c(a + b) == crc32c(b, crc32c(a)), cut

    def test_format_v2_bytes_are_pinned(self):
        blob = pinned_index().to_bytes()
        assert len(blob) > 2 * CRC_BLOCK
        assert hashlib.sha256(blob).hexdigest() == PINNED_V2_SHA256
        assert VectorIndex.from_bytes(blob).to_bytes() == blob

    def test_round_trip_bit_exact(self, tmp_path):
        index = self._small_index()
        path = tmp_path / "idx.brag"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert loaded.dim == index.dim
        assert loaded.embedder_fingerprint == index.embedder_fingerprint
        assert [ref for ref, _ in index_rows(loaded)] == [ref for ref, _ in index_rows(index)]
        for (_, vec_a), (_, vec_b) in zip(index_rows(loaded), index_rows(index)):
            assert vec_a.tobytes() == vec_b.tobytes()
        # canonical serialization is a fixed point
        assert loaded.to_bytes() == index.to_bytes()

    def test_a_big_endian_host_swaps_each_float_both_ways(self, monkeypatch):
        index = self._small_index()
        blob = index.to_bytes()
        monkeypatch.setattr(vindex, "_LITTLE_ENDIAN", False)  # this host's floats, read as a big-endian one's
        swapped = index.to_bytes()
        vector = HEADER_SIZE + 4 + len("pat-α".encode("utf-8")) + 4  # the first entry's vector field
        assert swapped[vector:vector + 12] == b"".join(blob[i:i + 4][::-1] for i in range(vector, vector + 12, 4))
        assert swapped[:HEADER_SIZE - 4] == blob[:HEADER_SIZE - 4] and len(swapped) == len(blob)
        assert VectorIndex.from_bytes(swapped).to_bytes() == swapped

    def test_bad_magic(self, tmp_path):
        blob = self._small_index().to_bytes()
        path = tmp_path / "bad.brag"
        path.write_bytes(b"NOTANIDX" + blob[8:])
        with pytest.raises(IndexFormatError, match="magic"):
            VectorIndex.load(path)

    def test_unsupported_version(self, tmp_path):
        blob = bytearray(self._small_index().to_bytes())
        blob[8:12] = struct.pack("<I", 99)
        # checksum still covers the patched bytes, so fix it up
        body = bytes(blob[:-4])
        path = tmp_path / "v99.brag"
        path.write_bytes(body + struct.pack("<I", crc32c(body)))
        with pytest.raises(IndexVersionError, match="99"):
            VectorIndex.load(path)

    def test_truncated_file(self, tmp_path):
        blob = self._small_index().to_bytes()
        path = tmp_path / "trunc.brag"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexTruncatedError):
            VectorIndex.load(path)

    def test_checksum_mismatch(self, tmp_path):
        blob = bytearray(self._small_index().to_bytes())
        blob[-10] ^= 0xFF  # flip a payload byte (inside the fingerprint), leave the trailer
        path = tmp_path / "corrupt.brag"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexChecksumError):
            VectorIndex.load(path)

    def test_flipped_vector_byte_is_checksum_mismatch(self, tmp_path):
        blob = bytearray(self._small_index().to_bytes())
        # first vector starts after the header, pid_len(4), pid and position(4)
        offset = HEADER_SIZE + 4 + len("pat-α".encode("utf-8")) + 4
        blob[offset] ^= 0x01
        path = tmp_path / "corrupt2.brag"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexChecksumError):
            VectorIndex.load(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        blob = self._small_index().to_bytes()
        path = tmp_path / "extra.brag"
        path.write_bytes(blob + b"xx")
        with pytest.raises((IndexFormatError, IndexChecksumError)):
            VectorIndex.load(path)

    def test_single_byte_flips_never_look_truncated_and_prefixes_always_do(self):
        small = self._small_index().to_bytes()
        multi_block = pinned_index().to_bytes()
        # every offset of the small file; for the multi-block one the header
        # and a seeded sample of the body and trailer
        sample = np.random.default_rng(0).choice(np.arange(HEADER_SIZE, len(multi_block)), 80, replace=False)
        for blob, offsets in ((small, range(len(small))),
                              (multi_block, [*range(HEADER_SIZE), *sample.tolist(), len(multi_block) - 1])):
            for offset in offsets:
                for mask in (0x01, 0x40, 0xFF):
                    corrupted = bytearray(blob)
                    corrupted[offset] ^= mask
                    with pytest.raises((IndexChecksumError, IndexFormatError, IndexVersionError)):
                        VectorIndex.from_bytes(bytes(corrupted))
            for length in range(len(blob)):
                with pytest.raises(IndexTruncatedError):
                    VectorIndex.from_bytes(blob[:length])

    @pytest.mark.parametrize("what", ["entry 0 id", "fingerprint"])
    def test_text_that_is_not_utf8_with_valid_checksum_is_format_error(self, what):
        index = VectorIndex(dim=3, embedder_fingerprint="fp")
        index.add("ab", 0, unit([1, 0, 0]))
        blob = bytearray(index.to_bytes())
        offset = HEADER_SIZE + 4 if what == "entry 0 id" else len(blob) - 4 - len(b"fp")
        blob[offset:offset + 2] = b"\xff\xfe"  # same length, so only the body checksum changes
        blob[-4:] = struct.pack("<I", crc32c(bytes(blob[HEADER_SIZE:-4])))
        with pytest.raises(IndexFormatError, match=f"^{what} is not UTF-8"):
            VectorIndex.from_bytes(bytes(blob))

    @pytest.mark.parametrize("field,delta,match", [
        ("entry 1 id length", 1000, r"^inconsistent structure: entry 1 at offset 57 runs 994 bytes past the end of the body$"),
        ("fingerprint length", 1, r"^inconsistent structure: the fingerprint at offset 78 ends at 85, the body at 84$"),
        ("fingerprint length", -1, r"^inconsistent structure: the fingerprint at offset 78 ends at 83, the body at 84$"),
    ], ids=["entry-past-the-body", "fingerprint-past-the-body", "fingerprint-short-of-the-body"])
    def test_field_that_misses_the_body_end_with_valid_checksum_is_format_error(self, field, delta, match):
        index = VectorIndex(dim=3, embedder_fingerprint="fp")
        index.add("p", 0, unit([1, 0, 0]))
        index.add("p", 1, unit([0, 1, 0]))
        blob = bytearray(index.to_bytes())
        offset = HEADER_SIZE + (4 + 1 + 4 + 12) if field == "entry 1 id length" else len(blob) - 4 - len(b"fp") - 4
        (value,) = struct.unpack_from("<I", blob, offset)
        struct.pack_into("<I", blob, offset, value + delta)
        blob[-4:] = struct.pack("<I", crc32c(bytes(blob[HEADER_SIZE:-4])))
        with pytest.raises(IndexFormatError, match=match):
            VectorIndex.from_bytes(bytes(blob))

    @pytest.mark.parametrize("fault,match", [
        ("repeated-key", r"^duplicate chunk_ref \('p', 0\) in file$"),
        ("nan-row", r"^vector for \('p', 1\) has non-finite values in file$"),
        ("norm-3-row", r"^vector for \('p', 1\) is not unit-normalized \(norm=3\) in file$"),
    ], ids=["repeated-key", "nan-row", "norm-3-row"])
    def test_entry_rejected_by_add_many_with_valid_checksum_is_format_error(self, fault, match):
        index = VectorIndex(dim=3, embedder_fingerprint="fp")
        index.add("p", 0, unit([1, 0, 0]))
        index.add("p", 1, unit([0, 1, 0]))
        blob = bytearray(index.to_bytes())
        position = HEADER_SIZE + (4 + 1 + 4 + 12) + 4 + 1  # the second entry's: after the first entry, its id
        if fault == "repeated-key":
            struct.pack_into("<I", blob, position, 0)
        else:
            struct.pack_into("<3f", blob, position + 4, *([np.nan, 0, 0] if fault == "nan-row" else [0, 3, 0]))
        blob[-4:] = struct.pack("<I", crc32c(bytes(blob[HEADER_SIZE:-4])))
        with pytest.raises(IndexFormatError, match=match):
            VectorIndex.from_bytes(bytes(blob))

    def test_impossible_header_with_valid_checksum_is_format_error(self):
        blob = self._small_index().to_bytes()
        for dim, length in ((0, len(blob)), (3, HEADER_SIZE)):
            header = bytearray(blob[:HEADER_SIZE - 4])
            struct.pack_into("<I", header, 12, dim)
            struct.pack_into("<Q", header, 24, length)
            crafted = bytes(header) + struct.pack("<I", crc32c(bytes(header))) + blob[HEADER_SIZE:]
            with pytest.raises(IndexFormatError, match="inconsistent header"):
                VectorIndex.from_bytes(crafted)

    def test_magic_constant(self):
        assert MAGIC == b"BRAGIDX1"
        assert self._small_index().to_bytes()[:8] == b"BRAGIDX1"

    def test_empty_index_round_trip(self, tmp_path):
        index = VectorIndex(dim=5, embedder_fingerprint="fp")
        path = tmp_path / "empty.brag"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == 0 and loaded.dim == 5 and loaded.embedder_fingerprint == "fp"
