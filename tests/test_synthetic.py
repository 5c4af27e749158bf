"""Synthetic corpus generator: table-driven filler draws, argument checks, vocabulary disjointness."""

from __future__ import annotations

import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrag.classifier import mock_response
from budgetrag import synthetic
from budgetrag.retrieval import DEFAULT_COMPLICATION_KEYWORDS, DEFAULT_QUERY_TEXT
from budgetrag.synthetic import FILLER_VOCAB, _planted_sentence, generate_corpus, main, write_corpus

from .oracles import synthetic_corpus_reference

# The perfbench workload shapes.
BENCHMARK_SHAPES = {
    "long-records": dict(n_patients=60, notes_per_patient=5, blocks_per_note=8, block_words=512),
    "many-short-records": dict(n_patients=3200, notes_per_patient=1, blocks_per_note=4, block_words=32),
    "remote-stub": dict(n_patients=100, notes_per_patient=2, blocks_per_note=5, block_words=64),
}

# SHA-256 of write_corpus output for each shape at seed 7000, as written by the generator that drew
# every filler word through random.choice / random.randint. Unlike the oracle, these do not depend on
# how the running CPython implements choice and randint.
PINNED_CORPUS_SHA256 = {
    "long-records": "184b80e4cea6a85ef6b7f943d52c09aaf1df5a69cb124b71516db321b8674305",
    "many-short-records": "9722cac015472835022999aa89725df07c69b1ff091399064e58d33c20d55e74",
    "remote-stub": "a813c6957b3eb649ccdf3fa6955765a9ffa50bade430a9567c0fec755250c629",
}

_SEPSIS_SENTENCE_WORDS = len(_planted_sentence(["sepsis"]))


def _assert_matches_reference(**kwargs):
    corpus = generate_corpus(**kwargs)
    expected = synthetic_corpus_reference(**kwargs)
    assert corpus.records == expected.records
    assert corpus.planted == expected.planted


class TestMatchesPerWordReference:
    @pytest.mark.parametrize("seed", [7000, 7001])
    @pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
    def test_benchmark_shapes(self, shape, seed):
        _assert_matches_reference(**BENCHMARK_SHAPES[shape], seed=seed)

    @pytest.mark.parametrize("kwargs", [
        dict(positive_fraction=0.0),
        dict(positive_fraction=1.0),
        dict(positive_fraction=1.0, min_planted=0),
        dict(positive_fraction=1.0, keywords=("sepsis", "wound dehiscence", "acute kidney injury", "ileus")),
        dict(positive_fraction=1.0, keywords=("sepsis",), min_planted=1, max_planted=1,
             block_words=_SEPSIS_SENTENCE_WORDS),
    ], ids=["no-positives", "all-positive", "min-planted-0", "custom-keywords", "block-fits-sentence-exactly"])
    def test_edge_arguments(self, kwargs):
        _assert_matches_reference(n_patients=40, seed=3, **kwargs)

    @settings(max_examples=60, deadline=None)
    @given(n_patients=st.integers(0, 6), positive_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           notes_per_patient=st.integers(1, 3), blocks_per_note=st.integers(1, 4), block_words=st.integers(12, 40),
           min_planted=st.integers(0, 3), extra_planted=st.integers(0, 2), seed=st.integers(0, 2**32))
    def test_small_shapes(self, extra_planted, **kwargs):
        kwargs["max_planted"] = kwargs["min_planted"] + extra_planted
        if kwargs["max_planted"] == 0 and round(kwargs["n_patients"] * kwargs["positive_fraction"]):
            with pytest.raises(ValueError, match="^max_planted must be >= 1 when "):  # a positive with nothing planted
                generate_corpus(**kwargs)
            return
        try:
            expected = synthetic_corpus_reference(**kwargs)
        except ValueError:  # a sentence longer than a block, or more sentences than blocks
            with pytest.raises(ValueError):
                generate_corpus(**kwargs)
            return
        corpus = generate_corpus(**kwargs)
        assert (corpus.records, corpus.planted) == (expected.records, expected.planted)

    @pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
    def test_pinned_corpus_bytes(self, shape, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl", generate_corpus(**BENCHMARK_SHAPES[shape], seed=7000))
        assert hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest() == PINNED_CORPUS_SHA256[shape]


class TestBadArguments:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(n_patients=-3), "n_patients must be >= 0, got -3"),
        (dict(notes_per_patient=0), "notes_per_patient must be >= 1, got 0"),
        (dict(blocks_per_note=0), "blocks_per_note must be >= 1, got 0"),
        (dict(block_words=0), "block_words must be >= 1, got 0"),
        (dict(min_planted=-1), "min_planted must be >= 0, got -1"),
        (dict(min_planted=3, max_planted=2), "min_planted=3 exceeds max_planted=2"),
        (dict(positive_fraction=1.5), r"positive_fraction must be within \[0, 1\], got 1.5"),
        (dict(n_patients=4, positive_fraction=1.0, keywords=()),
         "keywords must not be empty when 4 positive patients are drawn"),
        (dict(n_patients=4, min_planted=0, max_planted=0),
         "max_planted must be >= 1 when 2 positive patients are drawn, got 0"),
    ])
    def test_rejected_with_its_name(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_corpus(**kwargs)

    def test_nothing_to_plant_is_fine_without_positives(self):
        corpus = generate_corpus(3, positive_fraction=0.0, keywords=(), min_planted=0, max_planted=0)
        assert corpus.planted == {"p0000": [], "p0001": [], "p0002": []}

    def test_more_sentences_than_blocks_names_both_counts(self):
        with pytest.raises(ValueError, match=r"^4 planted sentences drawn for p0000 do not fit in "
                                             r"notes_per_patient x blocks_per_note = 3 blocks$"):
            generate_corpus(1, positive_fraction=1.0, notes_per_patient=1, blocks_per_note=3,
                            min_planted=4, max_planted=4)

    @pytest.mark.parametrize("argv,message", [
        (["--block-words", "8"], "block_words=8 cannot hold a "),
        (["--patients", "-3"], "n_patients must be >= 0, got -3"),
    ])
    def test_command_reports_a_usage_error(self, tmp_path, capsys, argv, message):
        _assert_usage_error(tmp_path, capsys, argv, message)

    @pytest.mark.parametrize("defaults,message", [
        ({"keywords": ()}, "keywords must not be empty when 2 positive patients are drawn"),
        ({"min_planted": 0, "max_planted": 0}, "max_planted must be >= 1 when 2 positive patients are drawn, got 0"),
    ])
    def test_command_reports_nothing_to_plant_as_a_usage_error(self, tmp_path, capsys, monkeypatch, defaults, message):
        # the command has no flag for these, so the library call it makes is given them
        monkeypatch.setattr(synthetic, "generate_corpus", functools.partial(synthetic.generate_corpus, **defaults))
        _assert_usage_error(tmp_path, capsys, ["--patients", "4"], message)


def _assert_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(["--out", str(tmp_path / "corpus.jsonl"), *argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error_lines = [line for line in captured.err.splitlines() if ": error: " in line]
    assert len(error_lines) == 1 and message in error_lines[0]
    assert "Traceback" not in captured.err
    assert not (tmp_path / "corpus.jsonl").exists()


class TestFillerVocabulary:
    def test_disjoint_from_query_and_keywords(self):
        words = {w.strip(",.") for w in DEFAULT_QUERY_TEXT.lower().split()}
        words |= {w for phrase in DEFAULT_COMPLICATION_KEYWORDS for w in phrase.lower().split()}
        assert not set(FILLER_VOCAB) & words

    def test_negative_corpus_is_labelled_negative_by_the_mock(self):
        corpus = generate_corpus(50, positive_fraction=0.0, seed=11)
        for record in corpus.records:
            text = " ".join(note["text"] for note in record["notes"])
            assert json.loads(mock_response(text))["complication"] == 0, record["patient_id"]
