"""Patient record ingestion, note filtering, and word chunking.

The corpus file is UTF-8 JSONL, one patient per line:

    {"patient_id": str, "label": 0|1, "anchor_date": RFC3339|null,
     "notes": [{"note_type": str, "timestamp": RFC3339, "text": str}]}

It is read through :func:`manifest.read_jsonl`, like every JSON-lines
file of the pipeline, so a malformed line raises the same
:class:`CorpusFormatError` naming its line, and a repeated patient is
caught by the same :func:`manifest.check_unique`. Notes are kept only
when their type is on the admissible-type whitelist and their text is
non-empty after trimming. A "word" everywhere in this
package is a maximal run of non-whitespace characters (``str.split``),
which keeps counting reproducible across tokenizers and languages.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CorpusFormatError
from .manifest import check_types, check_unique, read_jsonl

# Admissible peri-operative note types (the default whitelist).
DEFAULT_NOTE_TYPES = frozenset({
    "IP Operative Report",
    "Addendum IP Operative Report",
    "OP Operative Report",
    "Addendum OP Operative Report",
    "Brief Op Note",
    "Perioperative Record",
    "OR PreOp",
    "OR PreOp Anesthesia",
    "Pre-Op Medical Assessment",
    "OR PostOp",
    "Anesthesia Procedure Notes",
    "Anesthesia Preprocedural Evaluation",
    "Anesthesia Postprocedural Evaluation",
    "OR Nursing",
    "Anesthesia Transfer of Care",
    "Anesthesia PACU Discharge",
})

DEFAULT_MAX_CHUNK_WORDS = 512
NOTE_SEPARATOR = "\n\n"


class ClinicalNote(NamedTuple):
    """One timestamped clinical note."""

    note_type: str
    timestamp: datetime  # always timezone-aware UTC
    text: str


class PatientRecord(NamedTuple):
    """A labeled patient with chronologically ordered notes."""

    patient_id: str
    label: int  # 1 = complication, 0 = none
    notes: tuple[ClinicalNote, ...]
    anchor_date: datetime | None = None


class Chunk(NamedTuple):
    """A contiguous span of at most ``max_words`` whitespace words.

    ``position`` is the zero-based ordinal of the chunk within the
    patient's concatenated text. Joining all chunk texts of a patient in
    position order with single spaces reproduces the source word
    sequence.
    """

    patient_id: str
    position: int
    word_count: int
    text: str


# RFC 3339 section 5.6 date-time: the T may be a space (its note) and either letter lower-case; the
# seconds' fraction may have any length, kept to the microsecond. Ranges are left to datetime.
_DATE_TIME = re.compile(r"(\d{4})-(\d\d)-(\d\d)[Tt ](\d\d):(\d\d):(\d\d)(?:\.(\d+))?"
                        r"(?:[Zz]|([+-])([01]\d|2[0-3]):([0-5]\d))", re.ASCII)


def parse_rfc3339(value: str, field: str) -> datetime:
    """Parse the RFC 3339 timestamp in ``field`` into an aware UTC datetime.

    The text must match RFC 3339's ``date-time`` whichever Python runs,
    not ``fromisoformat``'s wider and version-dependent forms. Timestamps
    without a UTC offset are rejected. Each error names ``field``.
    """
    if not isinstance(value, str):
        raise TypeError(f"{field!r} must be an RFC 3339 string, got {value!r:.40}")
    match = _DATE_TIME.fullmatch(value.strip())
    if match is None:
        raise ValueError(f"{field!r} is not an RFC 3339 date-time with a UTC offset "
                         f"(YYYY-MM-DDThh:mm:ss[.fraction], then Z or +hh:mm or -hh:mm): {value!r}")
    *fields, fraction, sign, offset_hours, offset_minutes = match.groups()
    offset = timedelta(hours=int(offset_hours or 0), minutes=int(offset_minutes or 0))
    try:
        parsed = datetime(*map(int, fields), int((fraction or "")[:6].ljust(6, "0")),
                          tzinfo=timezone(-offset if sign == "-" else offset))
    except ValueError as exc:  # a field out of range, e.g. month 13, February 30 or the leap second 60
        raise ValueError(f"{field!r} is not a valid RFC 3339 timestamp: {value!r}") from exc
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError as exc:  # e.g. 0001-01-01T00:00:00+01:00
        raise ValueError(f"{field!r} lies outside the years 1-9999 in UTC: {value!r}") from exc


def read_lines(path: str | Path) -> tuple[str, ...]:
    """Read a UTF-8 list file (a whitelist, keywords): one entry per line,
    stripped, blank lines dropped. A file with no entries is an error."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    entries = tuple(line.strip() for line in lines if line.strip())
    if not entries:
        raise CorpusFormatError(f"{path} contains no entries")
    return entries


_RECORD_FIELDS = {"patient_id": str, "label": int, "notes": list}
_NOTE_FIELDS = {"note_type": str, "timestamp": str, "text": str}


def _parse_note(obj) -> ClinicalNote:
    if type(obj) is not dict:
        raise TypeError(f"each note must be an object, got {obj!r:.40}")
    check_types(obj, _NOTE_FIELDS)
    timestamp = parse_rfc3339(obj["timestamp"], "timestamp")
    return ClinicalNote(note_type=obj["note_type"], timestamp=timestamp, text=obj["text"])


def _parse_record(obj: dict, whitelist: frozenset[str]) -> PatientRecord:
    check_types(obj, _RECORD_FIELDS)
    if not obj["patient_id"]:
        raise ValueError("'patient_id' must be non-empty")
    if obj["label"] not in (0, 1):
        raise ValueError(f"'label' must be 0 or 1, got {obj['label']}")
    anchor = obj.get("anchor_date")
    notes = [note for note in map(_parse_note, obj["notes"]) if note.note_type in whitelist and note.text.strip()]
    notes.sort(key=lambda n: n.timestamp)  # stable: equal timestamps keep file order
    return PatientRecord(
        patient_id=obj["patient_id"],
        label=obj["label"],
        notes=tuple(notes),
        anchor_date=None if anchor is None else parse_rfc3339(anchor, "anchor_date"),
    )


def load_corpus(path: str | Path, note_whitelist: Iterable[str] | None = None) -> list[PatientRecord]:
    """Load patient records from a JSONL corpus file.

    Only whitelisted, non-blank notes are retained; notes are sorted by
    timestamp. Patients whose notes were all filtered out are still
    returned, with no notes, so cohort counts match the input.
    Unknown fields are ignored; a malformed line raises
    :class:`CorpusFormatError` naming the line number, and a patient
    repeated in the file raises it naming the patient.
    """
    whitelist = frozenset(note_whitelist) if note_whitelist is not None else DEFAULT_NOTE_TYPES
    records = read_jsonl(path, "raw corpus", lambda obj: _parse_record(obj, whitelist))
    check_unique([record.patient_id for record in records], f"{path}: raw corpus")
    return records


def window_notes(record: PatientRecord, window_days: int) -> PatientRecord:
    """Keep only notes inside the trailing time window.

    The window is ``[anchor - window_days, anchor]`` where the anchor is
    ``record.anchor_date`` when present, otherwise the latest note
    timestamp. A record with no notes is returned unchanged.
    """
    if window_days <= 0:
        raise ValueError(f"window_days must be positive, got {window_days}")
    if not record.notes:
        return record
    anchor = record.anchor_date or max(n.timestamp for n in record.notes)
    try:
        start = anchor - timedelta(days=window_days)
    except OverflowError:  # window wider than the representable range
        start = datetime.min.replace(tzinfo=timezone.utc)
    kept = tuple(n for n in record.notes if start <= n.timestamp <= anchor)
    return record._replace(notes=kept)


def concat_text(record: PatientRecord) -> str:
    """Join note texts in timestamp order with a blank-line separator."""
    return NOTE_SEPARATOR.join(n.text for n in record.notes)


def word_count(text: str) -> int:
    return len(text.split())


def chunk_runs(words: list[str], max_words: int) -> list[list[str]]:
    """Cut words into consecutive runs of exactly ``max_words`` words, the words of each chunk.

    The final run may be shorter; no word is dropped.
    """
    if max_words < 1:
        raise ValueError(f"max_words must be >= 1, got {max_words}")
    return [words[start:start + max_words] for start in range(0, len(words), max_words)]


def chunk_text(text: str, max_words: int = DEFAULT_MAX_CHUNK_WORDS, *, patient_id: str = "") -> list[Chunk]:
    """Split text into consecutive runs of exactly ``max_words`` words (``chunk_runs``).

    The final chunk may be shorter; no word is split or dropped. Empty
    or whitespace-only text yields an empty list.
    """
    return [Chunk(patient_id=patient_id, position=position, word_count=len(piece), text=" ".join(piece))
            for position, piece in enumerate(chunk_runs(text.split(), max_words))]
