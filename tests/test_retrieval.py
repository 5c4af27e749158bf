"""Context assembly: budget packing, order preservation, whole-text mode."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrag.corpus import Chunk, ClinicalNote, PatientRecord, chunk_text, concat_text, window_notes, word_count
from budgetrag.embedding import HashingEmbedder
from budgetrag.errors import BudgetRagError, MissingPatientError
from budgetrag.retrieval import (
    MODE_LONG,
    MODE_RAG,
    AssembledContext,
    RetrievalConfig,
    assemble_rag_from_chunks,
    context_stats,
    context_to_json,
    long_context,
    read_contexts,
    write_contexts,
)
from budgetrag.vindex import VectorIndex

UTC = timezone.utc


def axis_vector(dim, axis, value=1.0):
    vec = np.zeros(dim, dtype=np.float32)
    vec[axis] = value
    return vec


def make_chunk(pid, position, words):
    return Chunk(patient_id=pid, position=position, word_count=words,
                 text=" ".join(f"c{position}w{i}" for i in range(words)))


def scripted_index(pid, similarities):
    """Index whose entry scores against query [1,0,0,0] equal `similarities`."""
    index = VectorIndex(dim=4)
    for position, sim in similarities.items():
        # unit vector whose first component is the desired cosine vs e0
        rest = float(np.sqrt(max(0.0, 1.0 - sim * sim)))
        vec = np.array([sim, rest, 0.0, 0.0], dtype=np.float64)
        index.add(pid, position, (vec / np.linalg.norm(vec)).astype(np.float32))
    return index


QUERY_E0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)  # the query vector scripted_index scores against


def whole_text(record, window_days=30):
    """The LONG context of a raw record, as ingest and retrieve --mode long build it."""
    text = concat_text(window_notes(record, window_days))
    return long_context(record.patient_id, text, word_count(text))


class TestAssembleRag:
    def test_everything_fits(self):
        chunks = [make_chunk("p1", 0, 512), make_chunk("p1", 1, 512), make_chunk("p1", 2, 6)]
        index = scripted_index("p1", {0: 0.9, 1: 0.8, 2: 0.7})
        ctx = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig(budget_words=4000))
        assert ctx.mode == MODE_RAG
        assert ctx.selected_positions == (0, 1, 2)
        assert ctx.word_count == 1030
        assert ctx.total_words == 1030

    def test_greedy_skip_keeps_scanning_past_oversized_chunks(self):
        # ranking by similarity: pos3 (512w), pos0 (512w), pos7 (512w),
        # pos2 (512w), pos5 (6w); budget 1030 fits the first two, skips
        # the other 512s, then accepts the small chunk further down
        chunks = [
            make_chunk("p1", 0, 512),
            make_chunk("p1", 2, 512),
            make_chunk("p1", 3, 512),
            make_chunk("p1", 5, 6),
            make_chunk("p1", 7, 512),
        ]
        index = scripted_index("p1", {3: 0.95, 0: 0.90, 7: 0.85, 2: 0.80, 5: 0.75})
        ctx = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig(budget_words=1030))
        assert ctx.selected_positions == (0, 3, 5)  # ascending narrative order
        assert ctx.word_count == 512 + 512 + 6
        # rank order is preserved in the candidate trace
        assert [pos for pos, _ in ctx.candidate_scores] == [3, 0, 7, 2, 5]

    def test_nothing_fits(self):
        chunks = [make_chunk("p1", 0, 10), make_chunk("p1", 1, 10)]
        index = scripted_index("p1", {0: 0.9, 1: 0.8})
        ctx = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig(budget_words=1))
        assert ctx.selected_positions == ()
        assert ctx.word_count == 0
        assert ctx.text == ""

    def test_text_joined_in_position_order(self):
        chunks = [make_chunk("p1", 0, 2), make_chunk("p1", 1, 2)]
        index = scripted_index("p1", {1: 0.9, 0: 0.5})
        ctx = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig(budget_words=10))
        assert ctx.text == chunks[0].text + "\n\n" + chunks[1].text

    def test_empty_chunk_patient_gives_empty_context(self):
        ctx = assemble_rag_from_chunks("p1", [], VectorIndex(dim=4), QUERY_E0, RetrievalConfig())
        assert ctx.word_count == 0 and ctx.text == "" and ctx.mode == MODE_RAG

    def test_indexed_patient_with_no_chunks_is_error(self):
        # the index holds p1's entries: a patient without chunks is searched like any other
        index = scripted_index("p1", {0: 0.9, 1: 0.8})
        with pytest.raises(BudgetRagError, match=r"^the index and the chunks of patient 'p1' differ: "
                                                 r"index entry \('p1', 0\) has no matching chunk; "
                                                 r"index entry \('p1', 1\) has no matching chunk$"):
            assemble_rag_from_chunks("p1", [], index, QUERY_E0, RetrievalConfig())

    def test_patient_absent_from_index_is_error(self):
        chunks = [make_chunk("p1", 0, 5)]
        index = scripted_index("other", {0: 0.5})
        with pytest.raises(MissingPatientError):
            assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig())

    def test_index_position_without_chunk_is_error(self):
        chunks = [make_chunk("p1", 0, 5)]
        index = scripted_index("p1", {0: 0.9, 4: 0.8})
        with pytest.raises(BudgetRagError, match="no matching chunk"):
            assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig())

    def test_leftover_budget_is_filled_from_any_rank(self):
        # 69 chunks of 512 words rank first; the 10-word chunk ranked 70th fills what they leave
        chunks = [make_chunk("p1", i, 512) for i in range(69)] + [make_chunk("p1", 69, 10)]
        index = scripted_index("p1", {i: 0.9 - i * 0.01 for i in range(70)})
        ctx = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig(budget_words=522))
        assert ctx.selected_positions == (0, 69)
        assert len(ctx.candidate_scores) == 70

    def test_low_ranked_index_position_without_chunk_is_error(self):
        # the unmatched entry at position 65 ranks 66th, below the best 64
        chunks = [make_chunk("p1", i, 5) for i in range(65)]
        index = scripted_index("p1", {i: 0.9 - i * 0.01 for i in range(66)})
        with pytest.raises(BudgetRagError, match=r"\('p1', 65\) has no matching chunk"):
            assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig())

    def test_chunk_without_index_entry_is_error(self):
        # the patient has chunks 0-3 and the index holds 0-1: chunks 2 and 3 would be silently dropped
        chunks = [make_chunk("p1", i, 5) for i in range(4)]
        index = scripted_index("p1", {0: 0.9, 1: 0.8})
        with pytest.raises(BudgetRagError, match=r"^the index and the chunks of patient 'p1' differ: "
                                                 r"chunk \('p1', 2\) is not indexed; "
                                                 r"chunk \('p1', 3\) is not indexed$"):
            assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig())

    def test_both_directions_in_one_error(self):
        chunks = [make_chunk("p1", 0, 5), make_chunk("p1", 2, 5)]
        index = scripted_index("p1", {0: 0.9, 1: 0.8})
        with pytest.raises(BudgetRagError, match=r"^the index and the chunks of patient 'p1' differ: "
                                                 r"index entry \('p1', 1\) has no matching chunk; "
                                                 r"chunk \('p1', 2\) is not indexed$"):
            assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig())

    @pytest.mark.parametrize("positions", [(0, 1, 2), (2, 0, 1), (0, 5, 9), (9, 5, 0)], ids=str)
    def test_chunks_are_matched_by_position_in_any_numbering_and_order(self, positions):
        chunks = [make_chunk("p1", position, 5) for position in positions]
        index = scripted_index("p1", {position: 0.9 - 0.1 * rank for rank, position in enumerate(sorted(positions))})
        ctx = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, RetrievalConfig(budget_words=10))
        assert ctx.selected_positions == tuple(sorted(positions)[:2])
        by_position = {c.position: c for c in chunks}
        assert ctx.text == "\n\n".join(by_position[p].text for p in sorted(positions)[:2])

    def test_record_level_entry_point(self):
        # a record chunked as ingest and build-index chunk it, ranked against a query embedded once
        notes = tuple(
            ClinicalNote(note_type="OR PostOp",
                         timestamp=datetime(2024, 3, 10, tzinfo=UTC) + timedelta(hours=i),
                         text=" ".join(f"n{i}w{j}" for j in range(40)))
            for i in range(3)
        )
        record = PatientRecord(patient_id="p9", label=0, notes=notes)
        chunks = chunk_text(concat_text(window_notes(record, 30)), 32, patient_id="p9")
        embedder = HashingEmbedder(dim=64)
        index = VectorIndex(dim=64)
        for chunk in chunks:
            index.add("p9", chunk.position, embedder.embed(chunk.text))
        ctx = assemble_rag_from_chunks("p9", chunks, index, embedder.embed("n0w3 n0w4"),
                                       RetrievalConfig(budget_words=64))
        assert ctx.mode == MODE_RAG
        assert ctx.word_count <= 64
        assert list(ctx.selected_positions) == sorted(ctx.selected_positions)


class TestAssembleLong:
    def _record(self, *texts, gap_hours=1):
        notes = tuple(
            ClinicalNote(note_type="OR PostOp",
                         timestamp=datetime(2024, 3, 10, tzinfo=UTC) + timedelta(hours=i * gap_hours),
                         text=text)
            for i, text in enumerate(texts)
        )
        return PatientRecord(patient_id="p1", label=0, notes=notes)

    def test_single_note(self):
        ctx = whole_text(self._record("A."))
        assert ctx.text == "A." and ctx.word_count == 1 and ctx.mode == MODE_LONG
        assert ctx.selected_positions == ()

    def test_window_excludes_old_notes(self):
        record = self._record("old note", "recent note", gap_hours=24 * 40)
        ctx = whole_text(record, window_days=30)
        assert ctx.text == "recent note"

    def test_word_count_totals(self):
        # whole-text word volume scales as patients x words-per-patient;
        # at the reported scale (2,293 patients x ~75,010 words) this is
        # the ~172M total used by the cost model
        assert 2293 * 75010 == pytest.approx(172e6, rel=0.002)
        ctx = whole_text(self._record("a b c", "d e"))
        assert ctx.word_count == 5 and ctx.total_words == 5


class TestContextStats:
    def test_rag_ratio(self):
        ctx = AssembledContext(patient_id="p", mode=MODE_RAG, text="x", word_count=1030,
                               selected_positions=(0,), total_words=10300)
        assert context_stats(ctx) == (1030, pytest.approx(0.1))

    def test_long_ratio_is_one(self):
        ctx = AssembledContext(patient_id="p", mode=MODE_LONG, text="x", word_count=7, total_words=7)
        assert context_stats(ctx) == (7, 1.0)

    def test_empty_patient_ratio_is_one(self):
        ctx = AssembledContext(patient_id="p", mode=MODE_RAG, text="", word_count=0, total_words=0)
        assert context_stats(ctx) == (0, 1.0)


class TestBudgetProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.integers(min_value=1, max_value=400),
        n_chunks=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=120, deadline=None)
    def test_budget_and_order_invariants(self, seed, budget, n_chunks):
        rng = np.random.default_rng(seed)
        chunks = [make_chunk("p1", i, int(rng.integers(1, 80))) for i in range(n_chunks)]
        index = scripted_index("p1", {i: float(rng.uniform(-1, 1)) for i in range(n_chunks)})
        cfg = RetrievalConfig(budget_words=budget)
        ctx = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, cfg)
        assert ctx.word_count <= budget
        assert list(ctx.selected_positions) == sorted(set(ctx.selected_positions))
        assert set(ctx.selected_positions) <= {c.position for c in chunks}
        # determinism
        again = assemble_rag_from_chunks("p1", chunks, index, QUERY_E0, cfg)
        assert again == ctx


class TestContextExport:
    def test_export_schema(self):
        ctx = AssembledContext(patient_id="p1", mode=MODE_RAG, text="t", word_count=1,
                               selected_positions=(2, 5), candidate_scores=((5, 0.9),),
                               total_words=3)
        assert context_to_json(ctx) == {
            "patient_id": "p1",
            "mode": "RAG",
            "word_count": 1,
            "total_words": 3,
            "selected_positions": [2, 5],
            "text": "t",
        }

    def test_round_trip_file(self, tmp_path):
        contexts = [
            AssembledContext(patient_id="p1", mode=MODE_RAG, text="alpha beta", word_count=2,
                             selected_positions=(0,)),
            AssembledContext(patient_id="p2", mode=MODE_LONG, text="gamma", word_count=1),
        ]
        path = tmp_path / "ctx.jsonl"
        write_contexts(path, contexts)
        loaded = read_contexts(path)
        assert [c.patient_id for c in loaded] == ["p1", "p2"]
        assert loaded[0].text == "alpha beta"
        assert loaded[0].selected_positions == (0,)
        # file is line-delimited JSON with the documented keys
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert set(first) == {"patient_id", "mode", "word_count", "total_words", "selected_positions", "text"}

    def test_read_back_contexts_equal_the_assembled_ones(self, tmp_path):
        chunks = [make_chunk("p1", 0, 40), make_chunk("p1", 1, 30), make_chunk("p1", 2, 20)]
        rag = assemble_rag_from_chunks("p1", chunks, scripted_index("p1", {0: 0.2, 1: 0.9, 2: 0.5}),
                                       QUERY_E0, RetrievalConfig(budget_words=55))
        note = ClinicalNote(note_type="Progress Note", timestamp=datetime(2024, 1, 1, tzinfo=UTC), text="gamma delta")
        long = whole_text(PatientRecord(patient_id="p2", label=0, notes=(note,)))
        assert (rag.word_count, rag.total_words) == (50, 90)
        path = tmp_path / "ctx.jsonl"
        write_contexts(path, [rag, long])
        # the file keeps every field but the ranking behind a RAG selection
        assert read_contexts(path) == [rag._replace(candidate_scores=()), long]
        assert [context_stats(c) for c in read_contexts(path)] == [(50, 50 / 90), (2, 1.0)]
