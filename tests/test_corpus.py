"""Corpus loading, windowing, concatenation, and chunking."""

from __future__ import annotations

import json
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrag import manifest
from budgetrag.corpus import (
    DEFAULT_NOTE_TYPES,
    ClinicalNote,
    PatientRecord,
    chunk_text,
    concat_text,
    load_corpus,
    read_lines,
    window_notes,
)
from budgetrag.errors import CorpusFormatError
from budgetrag.manifest import check_types, read_jsonl

UTC = timezone.utc


def note(text, *, ts="2024-03-10T08:00:00+00:00", note_type="OR PostOp"):
    return ClinicalNote(note_type=note_type, timestamp=datetime.fromisoformat(ts), text=text)


def record(*notes, patient_id="p1", label=0, anchor=None):
    return PatientRecord(patient_id=patient_id, label=label, notes=tuple(notes), anchor_date=anchor)


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def raw_patient(patient_id="p1", label=1, notes=None, anchor_date=None):
    return {
        "patient_id": patient_id,
        "label": label,
        "anchor_date": anchor_date,
        "notes": notes if notes is not None else [
            {"note_type": "OR PreOp", "timestamp": "2024-03-09T10:00:00Z", "text": "pre-op assessment"},
        ],
    }


class TestLoadCorpus:
    def test_whitelist_filters_note_types(self, tmp_path):
        rows = [raw_patient(notes=[
            {"note_type": "OR PreOp", "timestamp": "2024-03-09T10:00:00Z", "text": "kept"},
            {"note_type": "Discharge Summary", "timestamp": "2024-03-10T10:00:00Z", "text": "dropped"},
        ])]
        records = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        assert len(records) == 1
        assert [n.text for n in records[0].notes] == ["kept"]

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path) == []

    def test_notes_resorted_by_timestamp(self, tmp_path):
        rows = [raw_patient(notes=[
            {"note_type": "OR PostOp", "timestamp": "2024-03-11T10:00:00Z", "text": "later"},
            {"note_type": "OR PreOp", "timestamp": "2024-03-09T10:00:00Z", "text": "earlier"},
        ])]
        records = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        assert [n.text for n in records[0].notes] == ["earlier", "later"]

    def test_blank_notes_are_dropped(self, tmp_path):
        rows = [raw_patient(notes=[
            {"note_type": "OR PreOp", "timestamp": "2024-03-09T10:00:00Z", "text": "  \n\t "},
        ])]
        records = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        assert not records[0].notes

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(raw_patient()) + "\nnot json\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_missing_required_field(self, tmp_path):
        row = raw_patient()
        del row["label"]
        with pytest.raises(CorpusFormatError, match="label"):
            load_corpus(write_jsonl(tmp_path / "c.jsonl", [row]))

    def test_unknown_fields_ignored(self, tmp_path):
        row = raw_patient()
        row["mrn_alias"] = "xyz"
        row["notes"][0]["author"] = "dr who"
        records = load_corpus(write_jsonl(tmp_path / "c.jsonl", [row]))
        assert records[0].patient_id == "p1"

    def test_bad_label_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="label"):
            load_corpus(write_jsonl(tmp_path / "c.jsonl", [raw_patient(label=2)]))

    def test_duplicate_patient_id_rejected(self, tmp_path):
        rows = [raw_patient(), raw_patient()]
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))

    def test_timestamp_without_offset_rejected(self, tmp_path):
        rows = [raw_patient(notes=[
            {"note_type": "OR PreOp", "timestamp": "2024-03-09T10:00:00", "text": "x"},
        ])]
        with pytest.raises(CorpusFormatError, match="offset"):
            load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))

    @pytest.mark.parametrize("field,row", [
        ("anchor_date", raw_patient(anchor_date=5)),
        ("anchor_date", raw_patient(anchor_date="2024-03-10")),
        ("timestamp", raw_patient(notes=[{"note_type": "OR PreOp", "timestamp": "yesterday", "text": "x"}])),
    ])
    def test_bad_timestamp_names_its_field(self, tmp_path, field, row):
        path = write_jsonl(tmp_path / "c.jsonl", [raw_patient(patient_id="p0"), row])
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: raw corpus line 2: '{field}' "):
            load_corpus(path)

    @pytest.mark.parametrize("text,utc", [
        ("2024-03-10T08:00:00Z", datetime(2024, 3, 10, 8, tzinfo=UTC)),
        ("2024-03-10t08:00:00z", datetime(2024, 3, 10, 8, tzinfo=UTC)),
        ("2024-03-10 08:00:00+00:00", datetime(2024, 3, 10, 8, tzinfo=UTC)),
        ("2024-03-10T08:00:00.5Z", datetime(2024, 3, 10, 8, 0, 0, 500000, tzinfo=UTC)),  # 3.10's fromisoformat: no
        ("2024-03-10T08:00:00.1234567-05:30", datetime(2024, 3, 10, 13, 30, 0, 123456, tzinfo=UTC)),
        ("2024-03-10T08:00:00-00:00", datetime(2024, 3, 10, 8, tzinfo=UTC)),
        ("2024-03-10X08:00:00Z", None),  # 3.10's fromisoformat: yes
        ("2024-03-10T08Z", None),  # 3.10's: yes
        ("2024-03-10T08:00Z", None),
        ("20240310T080000Z", None),  # 3.11's: yes
        ("2024-W10-1T08:00:00Z", None),  # 3.11's: yes, as 2024-03-04
        ("2024-03-10T08:00:00", None),
        ("2024-03-10T08:00:00+0100", None),
        ("2024-03-10T08:00:00+24:00", None),
        ("2024-03-10T08:00:00+05:60", None),
        ("2024-03-10T08:00:00.Z", None),
        ("2024-03-10T08:00:60Z", None),  # a leap second, which datetime cannot hold
        ("2024-02-30T08:00:00Z", None),
        ("２０２４-03-10T08:00:00Z", None),  # full-width digits
    ])
    def test_timestamps_are_rfc3339_date_times(self, tmp_path, text, utc):
        """The same texts are accepted, the same way, whichever supported Python runs."""
        path = write_jsonl(tmp_path / "c.jsonl", [raw_patient(notes=[
            {"note_type": "OR PreOp", "timestamp": text, "text": "x"}])])
        if utc is None:
            with pytest.raises(CorpusFormatError, match=f"line 1: 'timestamp' .*{re.escape(repr(text))}"):
                load_corpus(path)
        else:
            timestamp = load_corpus(path)[0].notes[0].timestamp
            assert (timestamp, timestamp.tzinfo) == (utc, UTC)

    def test_whitelist_file(self, tmp_path):
        wl = tmp_path / "types.txt"
        wl.write_text("OR PreOp\n\nBrief Op Note\n", encoding="utf-8")
        assert frozenset(read_lines(wl)) == frozenset({"OR PreOp", "Brief Op Note"})

    def test_default_whitelist_has_sixteen_types(self):
        assert len(DEFAULT_NOTE_TYPES) == 16


class TestWindowNotes:
    def test_trailing_window(self):
        anchor = datetime(2024, 3, 10, tzinfo=UTC)
        rec = record(
            note("minus40", ts="2024-01-30T00:00:00+00:00"),
            note("minus10", ts="2024-02-29T00:00:00+00:00"),
            note("day0", ts="2024-03-10T00:00:00+00:00"),
            anchor=anchor,
        )
        kept = window_notes(rec, 30)
        assert [n.text for n in kept.notes] == ["minus10", "day0"]

    def test_all_inside_window_is_identity(self):
        rec = record(note("a"), note("b", ts="2024-03-10T09:00:00+00:00"))
        assert window_notes(rec, 30) == rec

    def test_anchor_defaults_to_latest_note(self):
        # notes at T and T-31d, window 30 -> only the note at T remains
        t = datetime(2024, 3, 31, 12, 0, tzinfo=UTC)
        rec = record(
            note("old", ts=(t - timedelta(days=31)).isoformat()),
            note("new", ts=t.isoformat()),
        )
        kept = window_notes(rec, 30)
        assert [n.text for n in kept.notes] == ["new"]

    def test_empty_record_unchanged(self):
        rec = record()
        assert window_notes(rec, 30) is rec

    def test_huge_window_is_identity(self):
        rec = record(note("a", ts="1999-01-01T00:00:00+00:00"), note("b"))
        assert window_notes(rec, 10**6).notes == rec.notes

    @given(days=st.integers(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_shrinking_window_never_adds_notes(self, days):
        rec = record(*[
            note(f"n{i}", ts=(datetime(2024, 3, 10, tzinfo=UTC) - timedelta(days=3 * i)).isoformat())
            for i in range(10)
        ])
        smaller = {n.text for n in window_notes(rec, days).notes}
        larger = {n.text for n in window_notes(rec, days + 7).notes}
        assert smaller <= larger


class TestConcatText:
    def test_two_notes(self):
        assert concat_text(record(note("A."), note("B.", ts="2024-03-10T09:00:00+00:00"))) == "A.\n\nB."

    def test_single_note_unchanged(self):
        assert concat_text(record(note("only text"))) == "only text"

    def test_zero_notes(self):
        assert concat_text(record()) == ""


class TestChunkText:
    def test_1030_words(self):
        text = " ".join(f"w{i}" for i in range(1030))
        chunks = chunk_text(text, 512)
        assert [c.word_count for c in chunks] == [512, 512, 6]
        assert [c.position for c in chunks] == [0, 1, 2]

    def test_exact_boundary(self):
        chunks = chunk_text(" ".join(["x"] * 512), 512)
        assert len(chunks) == 1 and chunks[0].position == 0

    def test_one_over_boundary(self):
        chunks = chunk_text(" ".join(["x"] * 513), 512)
        assert [c.word_count for c in chunks] == [512, 1]

    def test_empty_text(self):
        assert chunk_text("", 512) == []
        assert chunk_text("   \n\t  ", 512) == []

    def test_word_count_matches_text(self):
        for chunk in chunk_text("a b c d e f g", 3):
            assert chunk.word_count == len(chunk.text.split())

    @given(
        words=st.lists(st.text(alphabet="abcXYZ0189", min_size=1, max_size=8), max_size=200),
        max_words=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_word_sequence(self, words, max_words):
        text = " ".join(words)
        chunks = chunk_text(text, max_words)
        rejoined = " ".join(c.text for c in chunks)
        assert rejoined.split() == text.split()
        assert all(1 <= c.word_count <= max_words for c in chunks)


def test_deterministic_load_and_concat(tmp_path):
    rows = [raw_patient(notes=[
        {"note_type": "OR PreOp", "timestamp": "2024-03-09T10:00:00Z", "text": "alpha beta"},
        {"note_type": "OR PostOp", "timestamp": "2024-03-10T10:00:00Z", "text": "gamma"},
    ])]
    path = write_jsonl(tmp_path / "c.jsonl", rows)
    first = concat_text(load_corpus(path)[0])
    second = concat_text(load_corpus(path)[0])
    assert first == second == "alpha beta\n\ngamma"


def _odd(obj):
    if obj["x"] % 2 == 0:
        raise ValueError(f"'x' must be odd, got {obj['x']}")


@pytest.mark.parametrize("line,parse,message,cause", [
    (b"\xff{}", dict, "not UTF-8: invalid start byte at byte 0", UnicodeDecodeError),
    (b'{"x": "\\ud800"}', dict, "not valid Unicode: a lone surrogate escape", UnicodeEncodeError),
    (b'{"x": }', dict, "invalid JSON: Expecting value", json.JSONDecodeError),
    (b"[1, 2]", dict, "expected a JSON object", None),
    (b"{}", lambda obj: obj["x"], "missing field 'x'", KeyError),
    (b'{"x": "4"}', lambda obj: check_types(obj, {"x": int}), "'x' must be int, got '4'", TypeError),
    (b'{"x": 4}', _odd, "'x' must be odd, got 4", ValueError),
], ids=["not-utf8", "lone-surrogate", "invalid-json", "not-an-object", "missing-field", "wrong-type",
        "parse-value-error"])
def test_read_jsonl_names_path_what_and_line_of_each_fault(tmp_path, line, parse, message, cause):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"x": 1}\n\n' + line + b"\n")  # the blank line is skipped, but counted
    with pytest.raises(CorpusFormatError) as err:
        read_jsonl(path, "test rows", parse)
    assert str(err.value) == f"{path}: test rows line 3: {message}"
    assert type(err.value.__cause__) is cause if cause else err.value.__cause__ is None


@pytest.mark.parametrize("text", ["plain words", "caf\u00e9", "\u2028", "\x7f", "tab\tand\nnewline", "\x01", "\x1f",
                                  "a\\u0041", "\\u", "\\", 'a "quote"', "\U0001f600", "\ud800", ""],
                         ids=["ascii", "latin-1", "line-separator", "del", "short-escapes", "control", "unit-separator",
                              "backslash-u-escape", "backslash-u", "backslash", "quote", "astral", "lone-surrogate",
                              "empty"])
def test_write_jsonl_writes_the_unescaped_encoders_line(tmp_path, text):
    """write_jsonl tries the ASCII encoder first; its lines equal those of json.JSONEncoder(ensure_ascii=False)."""
    rows = [{"text": text, text: [text, 1.5, None, True]}, {"patient_id": "p1", "n": 2}]
    expected = "".join(json.JSONEncoder(ensure_ascii=False).encode(row) + "\n" for row in rows)
    path = tmp_path / "rows.jsonl"
    if "\ud800" in text:  # no UTF-8 file can hold it, with either encoder
        with pytest.raises(UnicodeEncodeError):
            expected.encode("utf-8")
        with pytest.raises(UnicodeEncodeError):
            manifest.write_jsonl(path, rows)
        return
    manifest.write_jsonl(path, rows)
    assert path.read_bytes() == expected.encode("utf-8")
