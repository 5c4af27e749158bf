"""Hashing embedder determinism and the remote embeddings wire format."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrag.corpus import chunk_runs, chunk_text
from budgetrag.embedding import MAX_DIM, HashingEmbedder, RemoteEmbedder, embed_hashing, fnv1a64, hash_runs
from budgetrag.errors import RemoteSchemaError, RemoteServiceError, ZeroVectorError

from .oracles import hashing_embedding_reference


class TestFnv1a64:
    # published FNV-1a 64-bit vectors
    @pytest.mark.parametrize("data,expected", [
        (b"", 0xCBF29CE484222325),
        (b"a", 0xAF63DC4C8601EC8C),
        (b"foobar", 0x85944171F73967E8),
    ])
    def test_known_vectors(self, data, expected):
        assert fnv1a64(data) == expected


class TestHashingEmbedder:
    def test_empty_text_falls_back_to_first_basis_vector(self):
        assert embed_hashing("", dim=4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_deterministic(self):
        a = embed_hashing("post-operative course unremarkable", 256)
        b = embed_hashing("post-operative course unremarkable", 256)
        assert np.array_equal(a, b)

    def test_repeated_word_keeps_direction(self):
        assert np.array_equal(embed_hashing("alpha alpha", 16), embed_hashing("alpha", 16))

    def test_unit_norm(self):
        for text in ("one", "a b c d", "x " * 100):
            norm = np.linalg.norm(np.asarray(embed_hashing(text, 64), np.float64))
            assert abs(norm - 1.0) <= 1e-5

    def test_case_insensitive(self):
        assert np.array_equal(embed_hashing("Sepsis NOTED", 32), embed_hashing("sepsis noted", 32))

    def test_is_a_float32_array(self):
        vec = embed_hashing("anything", 8)
        assert vec.typecode == "f" and len(vec) == 8

    def test_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            embed_hashing("x", 1)

    def test_dim_above_max_dim_is_rejected(self):
        for make in (HashingEmbedder, lambda dim: embed_hashing("x", dim)):
            with pytest.raises(ValueError, match=rf"dim must be in \[2, {MAX_DIM}\], got {MAX_DIM + 1}"):
                make(MAX_DIM + 1)
        assert len(HashingEmbedder(MAX_DIM).embed("x")) == MAX_DIM

    @given(words=st.lists(st.sampled_from("alpha beta gamma delta".split()), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_bag_of_words_order_invariance(self, words):
        shuffled = list(reversed(words))
        assert np.array_equal(
            embed_hashing(" ".join(words), 32),
            embed_hashing(" ".join(shuffled), 32),
        )

    def test_embedder_object_fingerprint(self):
        embedder = HashingEmbedder(dim=128)
        assert "128" in embedder.fingerprint
        assert np.array_equal(embedder.embed("x"), embed_hashing("x", 128))


# Texts on which lower-casing, splitting or counting could go wrong: empty and
# whitespace-only texts, repeated words, case mappings that change length or
# depend on position ("İ", "ß", final "Σ"), and the non-ASCII whitespace that
# str.split breaks on (no-break space, U+2003, the C0 separator "\x1c", NEL).
ORACLE_TEXTS = [
    "",
    "   ",
    "\t\n \u00a0",
    "alpha",
    "alpha alpha beta ALPHA Beta",
    "İstanbul İ i̇",
    "STRASSE straße ß SS",
    "ΟΔΟΣ Σ σ ς ΣΑΣ",
    "wound\u00a0infection\u2003sepsis\x1cfever\x85ileus",
    "post-operative course unremarkable " * 40,
]


class TestHashingOracle:
    """The batched embedder against the per-word reference, compared bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 256, 4096])
    def test_batch_rows_equal_reference_and_one_row_call(self, dim):
        batch = HashingEmbedder(dim).embed_many(ORACLE_TEXTS)
        assert len(batch) == len(ORACLE_TEXTS)
        for row, text in zip(batch, ORACLE_TEXTS):
            assert row.typecode == "f"
            assert row.tobytes() == hashing_embedding_reference(text, dim).tobytes()
            assert row.tobytes() == embed_hashing(text, dim).tobytes()

    @given(texts=st.lists(st.text(alphabet="aAb İßΣς\u00a0\x1c\x85\t", max_size=12), max_size=8),
           dim=st.sampled_from([2, 4096]))
    @settings(max_examples=60, deadline=None)
    def test_any_mix_of_texts_matches_reference(self, texts, dim):
        batch = HashingEmbedder(dim).embed_many(texts)
        assert [row.tobytes() for row in batch] == [hashing_embedding_reference(t, dim).tobytes() for t in texts]


class TestRunsOfAPatientsWords:
    """build-index splits each patient's lower-cased text once and embeds its chunks as runs of those words."""

    def test_lower_never_moves_a_whitespace_boundary(self):
        # no code point lower-cases into or out of whitespace
        for char in map(chr, range(0x110000)):
            assert char.lower().split() == ([] if char.isspace() else [char.lower()]), hex(ord(char))
        # whitespace is neither cased nor case-ignorable, so a final sigma's context stops at it
        for space in filter(str.isspace, map(chr, range(0x110000))):
            assert ("AΣ" + space + "B").lower() == "aς" + space + "b"
            assert ("A" + space + "Σ").lower() == "a" + space + "σ"

    @pytest.mark.parametrize("max_words", [1, 3, 512])
    def test_runs_equal_the_chunks_texts(self, max_words):
        text = "\n\n".join(ORACLE_TEXTS)
        runs = chunk_runs(text.lower().split(), max_words)
        chunks = chunk_text(text, max_words)
        assert [" ".join(run) for run in runs] == [c.text.lower() for c in chunks]
        assert [row.tobytes() for row in hash_runs(runs, 64)] == \
            [row.tobytes() for row in HashingEmbedder(64).embed_many([c.text for c in chunks])]


class TestRemoteEmbedding:
    def test_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            RemoteEmbedder(None, "embed-small")

    def test_normalizes_service_vector(self, api_server):
        api_server.reset([(200, {"data": [{"embedding": [3.0, 4.0]}]})])
        vec = RemoteEmbedder(api_server.url, "embed-small").embed("hello")
        assert vec.tolist() == pytest.approx([0.6, 0.8])

    def test_request_shape_and_auth_header(self, api_server, monkeypatch):
        monkeypatch.setenv("BUDGETRAG_API_KEY", "sekret")
        api_server.reset([(200, {"data": [{"embedding": [1.0, 0.0]}]})])
        RemoteEmbedder(api_server.url, "embed-small").embed("some words")
        path, headers, body = api_server.requests[0]
        assert body == {"model": "embed-small", "input": ["some words"]}
        assert headers.get("Authorization") == "Bearer sekret"

    def test_server_error_retries_then_raises(self, api_server, monkeypatch):
        monkeypatch.setattr("budgetrag.remote.time.sleep", lambda s: None)
        api_server.reset([(500, {"oops": 1})])
        with pytest.raises(RemoteServiceError) as err:
            RemoteEmbedder(api_server.url, "embed-small").embed("x")
        assert err.value.status == 500
        assert err.value.retryable
        assert len(api_server.requests) == 3  # default attempts

    def test_retry_recovers_after_transient_500(self, api_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr("budgetrag.remote.time.sleep", sleeps.append)
        monkeypatch.setattr("budgetrag.remote.RNG", random.Random(3))
        api_server.reset([
            (500, {}),
            (500, {}),
            (200, {"data": [{"embedding": [0.0, 2.0]}]}),
        ])
        vec = RemoteEmbedder(api_server.url, "embed-small").embed("x")
        assert vec.tolist() == [0.0, 1.0]
        twin = random.Random(3)
        assert sleeps == [twin.uniform(0, 0.5), twin.uniform(0, 1.0)]  # full jitter, base 0.5, factor 2

    def test_client_error_is_not_retried(self, api_server):
        api_server.reset([(403, {"detail": "no"})])
        with pytest.raises(RemoteServiceError) as err:
            RemoteEmbedder(api_server.url, "embed-small").embed("x")
        assert err.value.status == 403
        assert not err.value.retryable
        assert len(api_server.requests) == 1

    def test_missing_data_field_is_schema_error(self, api_server):
        api_server.reset([(200, {"vectors": []})])
        with pytest.raises(RemoteSchemaError, match="data"):
            RemoteEmbedder(api_server.url, "embed-small").embed("x")

    def test_missing_embedding_path_named(self, api_server):
        api_server.reset([(200, {"data": [{"vector": [1.0]}]})])
        with pytest.raises(RemoteSchemaError, match=r"data\[0\].embedding"):
            RemoteEmbedder(api_server.url, "embed-small").embed("x")

    @pytest.mark.parametrize("values", [["0.6", "0.8"], [True, False], [1.0, None], [[0.6, 0.8]]],
                             ids=["strings", "bools", "null", "nested"])
    def test_component_that_is_not_a_json_number_is_schema_error(self, api_server, values):
        api_server.reset([(200, {"data": [{"embedding": values}]})])
        with pytest.raises(RemoteSchemaError, match=r"data\[0\]\.embedding"):
            RemoteEmbedder(api_server.url, "embed-small").embed("x")

    @pytest.mark.parametrize("values", [[float("nan"), 1.0], [10 ** 400, 1]], ids=["nan", "int-past-float-range"])
    def test_non_finite_component_is_schema_error(self, api_server, values):
        api_server.reset([(200, {"data": [{"embedding": values}]})])
        with pytest.raises(RemoteSchemaError, match=r"data\[0\]\.embedding: embedding contains non-finite values"):
            RemoteEmbedder(api_server.url, "embed-small").embed("x")

    def test_integer_components_are_numbers(self, api_server):
        api_server.reset([(200, {"data": [{"embedding": [3, 4]}]})])
        assert RemoteEmbedder(api_server.url, "embed-small").embed("x").tolist() == pytest.approx([0.6, 0.8])

    def test_zero_vector_rejected(self, api_server):
        api_server.reset([(200, {"data": [{"embedding": [0.0, 0.0]}]})])
        with pytest.raises(ZeroVectorError):
            RemoteEmbedder(api_server.url, "embed-small").embed("x")


class TestEmbedBatch:
    def test_empty_batch(self):
        assert HashingEmbedder(8).embed_many([]) == []

    def test_empty_remote_batch_sends_no_request(self, api_server):
        api_server.reset([(200, {"data": []})])
        assert RemoteEmbedder(api_server.url, "m", dim=8).embed_many([]) == []
        assert api_server.requests == []

    def test_hashing_batch_equals_map(self):
        batch = HashingEmbedder(16).embed_many(["a", "b"])
        assert np.array_equal(batch[0], embed_hashing("a", 16))
        assert np.array_equal(batch[1], embed_hashing("b", 16))

    def test_remote_batch_single_request_matches_per_item(self, api_server):
        embedder = RemoteEmbedder(api_server.url, "m")
        vectors = {"t1": [1.0, 0.0], "t2": [0.0, 5.0], "t3": [2.0, 2.0]}

        # per-item oracle: three single-text calls
        singles = []
        for text, vec in vectors.items():
            api_server.reset([(200, {"data": [{"embedding": vec}]})])
            singles.append(embedder.embed(text))

        # one batched request
        api_server.reset([(200, {"data": [{"embedding": v} for v in vectors.values()]})])
        batched = embedder.embed_many(list(vectors))
        assert len(api_server.requests) == 1
        assert api_server.requests[0][2]["input"] == list(vectors)
        for got, expected in zip(batched, singles):
            assert np.array_equal(got, expected)

    def test_items_are_placed_by_their_index(self, api_server):
        api_server.reset([(200, {"data": [{"index": 2, "embedding": [0.0, 1.0]}, {"index": 0, "embedding": [3.0, 4.0]},
                                          {"index": 1, "embedding": [1.0, 0.0]}]})])
        batch = RemoteEmbedder(api_server.url, "m").embed_many(["a", "b", "c"])
        assert [vec.tolist() for vec in batch] == [pytest.approx([0.6, 0.8]), [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("indexes", [[0, 0], [0, None], [True, 0], [0, 2], [-1, 1], [0.0, 1], ["0", 1]],
                             ids=["repeated", "missing", "bool", "past-the-end", "negative", "float", "string"])
    def test_indexes_other_than_each_input_once_are_schema_errors_naming_the_item(self, api_server, indexes):
        data = [{"embedding": [1.0, 0.0]} if at is None else {"index": at, "embedding": [1.0, 0.0]} for at in indexes]
        bad = next(i for i, at in enumerate(indexes) if type(at) is not int or at not in (0, 1) or at in indexes[:i])
        api_server.reset([(200, {"data": data})])
        with pytest.raises(RemoteSchemaError, match=rf"'data\[{bad}\]\.index' must be a new int in \[0, 2\)"):
            RemoteEmbedder(api_server.url, "m").embed_many(["a", "b"])

    def test_batch_error_names_element_index(self, api_server):
        api_server.reset([(200, {"data": [{"embedding": [1.0, 0.0]}, {"bad": 1}]})])
        with pytest.raises(RemoteSchemaError, match=r"data\[1\]"):
            RemoteEmbedder(api_server.url, "m").embed_many(["a", "b"])

