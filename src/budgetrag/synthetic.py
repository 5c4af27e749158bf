"""Deterministic synthetic corpus generator.

Builds labeled fake patients whose notes are benign clinical filler;
positive patients additionally carry planted complication sentences.
The filler vocabulary is disjoint from the default retrieval-query and
keyword vocabulary, so retrieval quality is measurable: a planted
sentence is found iff its chunk is ranked into the budget.

Note texts are built from fixed-size word blocks so that planted
sentences never straddle chunk boundaries when the chunk size equals
the block size. Everything is driven by a seeded ``random.Random``;
identical arguments produce byte-identical corpora.

Filler words are drawn from ``rng.random()`` and ``rng.getrandbits(k)``
alone, with no ``random.choice`` or ``randint`` frames per word: each
draw reads a table of its values padded with None to ``2**k`` entries
(``k`` the bit length of the value count) at ``getrandbits(k)``, and
draws again while it reads None. These are exactly the draws that
``choice`` and ``randint`` make, so corpora are byte-identical to those
of earlier versions, and they depend only on ``random()`` and
``getrandbits``, which CPython keeps stable across versions.

Run ``python -m budgetrag.synthetic --patients 60 --out corpus.jsonl``
to write a demo corpus.
"""

from __future__ import annotations

import argparse
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

from .corpus import DEFAULT_NOTE_TYPES
from .manifest import write_jsonl
from .retrieval import DEFAULT_COMPLICATION_KEYWORDS

# Benign filler; must stay free of every word used by the default
# retrieval query and keyword phrases (tests/test_synthetic.py enforces the disjointness).
FILLER_VOCAB = (
    "patient", "remains", "stable", "overnight", "tolerating", "regular",
    "diet", "ambulating", "hallway", "without", "assistance", "vital",
    "values", "within", "normal", "limits", "afebrile", "pain",
    "controlled", "with", "oral", "medication", "incision", "clean",
    "dry", "intact", "minimal", "erythema", "absent", "drainage",
    "bowel", "sounds", "present", "voiding", "spontaneously", "plan",
    "continue", "current", "management", "physical", "therapy",
    "consulted", "anticipate", "return", "home", "tomorrow", "morning",
    "family", "bedside", "updated", "labs", "reviewed", "hemoglobin",
    "platelets", "electrolytes", "unremarkable", "chest", "clear",
    "auscultation", "heart", "rate", "rhythm", "extremities", "warm",
    "perfused", "neurologically", "appropriate", "resting",
    "comfortably", "reports", "improving", "appetite", "encouraged",
    "incentive", "spirometry", "hourly", "while", "awake", "drains",
    "peripheral", "access", "maintained", "fluids", "advanced",
    "telemetry", "monitoring", "discontinued", "dressing", "changed",
    "ice", "applied", "elevating", "extremity", "walker", "steady",
    "gait", "nutrition", "counseled", "glucose", "checks", "routine",
)

_BASE_TIME = datetime(2024, 3, 10, 8, 0, 0, tzinfo=timezone.utc)
_NOTE_TYPES = sorted(DEFAULT_NOTE_TYPES)


class SyntheticCorpus(NamedTuple):
    records: list[dict]
    planted: dict[str, list[str]]  # patient_id -> sentences


def _padded(values) -> tuple[int, tuple]:
    """``(k, table)``: ``k = len(values).bit_length()`` and ``values`` padded with None to ``2**k``
    entries, so a draw is ``table[getrandbits(k)]``, repeated while it is None."""
    values = tuple(values)
    k = len(values).bit_length()
    return k, values + (None,) * (2 ** k - len(values))


# One table per draw of the filler: rng.randint(50, 199), rng.randint(95, 135),
# rng.randint(55, 90) and rng.choice(FILLER_VOCAB), as strings.
_NUMBER_BITS, _NUMBERS = _padded(str(v) for v in range(50, 200))
_SYSTOLIC_BITS, _SYSTOLIC = _padded(str(v) for v in range(95, 136))
_DIASTOLIC_BITS, _DIASTOLIC = _padded(str(v) for v in range(55, 91))
_VOCAB_BITS, _VOCAB = _padded(FILLER_VOCAB)


def _draw(getrandbits, k: int, table: tuple) -> str:
    value = table[getrandbits(k)]
    while value is None:
        value = table[getrandbits(k)]
    return value


def _filler_block(rng: random.Random, block_words: int) -> list[str]:
    uniform, getrandbits = rng.random, rng.getrandbits
    words = []
    for _ in range(block_words):
        roll = uniform()  # sprinkle numeric observations for vocabulary spread
        if roll < 0.08:
            words.append(_draw(getrandbits, _NUMBER_BITS, _NUMBERS))
        elif roll < 0.12:
            systolic = _draw(getrandbits, _SYSTOLIC_BITS, _SYSTOLIC)
            words.append(f"{systolic}/{_draw(getrandbits, _DIASTOLIC_BITS, _DIASTOLIC)}")
        else:
            words.append(_draw(getrandbits, _VOCAB_BITS, _VOCAB))
    return words


def _planted_sentence(phrases: list[str]) -> list[str]:
    """A clinical-looking sentence carrying the given keyword phrases.

    Each phrase is mentioned twice so a chunk containing the sentence
    shares enough vocabulary with the complication-seeking query to
    rank clearly above filler chunks.
    """
    first = [w for i, p in enumerate(phrases) for w in (["and"] if i else []) + p.split()]
    second = [w for i, p in enumerate(phrases) for w in (["with"] if i else []) + p.split()]
    return (
        ["Postoperative", "complications", "documented:"] + first
        + ["noted", "on", "rounds,", "ongoing"] + second
        + ["requiring", "urgent", "intervention."]
    )


def _sample_phrase_groups(rng: random.Random, keywords: tuple[str, ...],
                          n_groups: int) -> list[list[str]]:
    """Partition shuffled keywords into groups of total word mass >= 4."""
    available = list(keywords)
    rng.shuffle(available)
    groups: list[list[str]] = []
    while len(groups) < n_groups and available:
        group: list[str] = []
        mass = 0
        while available and mass < 4 and len(group) < 3:
            phrase = available.pop()
            group.append(phrase)
            mass += len(phrase.split())
        if mass >= 4:
            groups.append(group)
        elif not groups:
            groups.append(group)  # tiny keyword lists still plant something
    return groups


def generate_corpus(
    n_patients: int = 60,
    *,
    positive_fraction: float = 0.5,
    notes_per_patient: int = 2,
    blocks_per_note: int = 5,
    block_words: int = 64,
    min_planted: int = 2,
    max_planted: int = 4,
    keywords: tuple[str, ...] = DEFAULT_COMPLICATION_KEYWORDS,
    seed: int = 0,
) -> SyntheticCorpus:
    """Generate a labeled corpus of ``n_patients`` fake patients.

    Each patient has ``notes_per_patient`` notes of
    ``blocks_per_note * block_words`` words. Positive patients get
    ``min_planted``..``max_planted`` planted sentences, each built from
    distinct keyword phrases and placed in a distinct block. A bad
    argument is a ``ValueError`` naming it, raised before any draw (empty
    ``keywords`` or ``max_planted=0`` are bad once a positive patient is
    drawn); so is a drawn sentence longer than a block, or more drawn
    sentences than the patient has blocks.
    """
    if not 0.0 <= positive_fraction <= 1.0:
        raise ValueError(f"positive_fraction must be within [0, 1], got {positive_fraction}")
    for name, value, low in (("n_patients", n_patients, 0), ("notes_per_patient", notes_per_patient, 1),
                             ("blocks_per_note", blocks_per_note, 1), ("block_words", block_words, 1),
                             ("min_planted", min_planted, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if min_planted > max_planted:
        raise ValueError(f"min_planted={min_planted} exceeds max_planted={max_planted}")
    n_positive = round(n_patients * positive_fraction)
    if n_positive and not keywords:  # a positive patient must carry a planted sentence
        raise ValueError(f"keywords must not be empty when {n_positive} positive patients are drawn")
    if n_positive and max_planted < 1:
        raise ValueError(f"max_planted must be >= 1 when {n_positive} positive patients are drawn, "
                         f"got {max_planted}")
    rng = random.Random(seed)
    labels = [1] * n_positive + [0] * (n_patients - n_positive)
    rng.shuffle(labels)

    corpus = SyntheticCorpus([], {})
    total_blocks = notes_per_patient * blocks_per_note
    for i in range(n_patients):
        patient_id = f"p{i:04d}"
        label = labels[i]
        blocks = [_filler_block(rng, block_words) for _ in range(total_blocks)]
        sentences: list[str] = []
        if label == 1:
            groups = _sample_phrase_groups(rng, keywords, rng.randint(min_planted, max_planted))
            if len(groups) > total_blocks:
                raise ValueError(f"{len(groups)} planted sentences drawn for {patient_id} do not fit in "
                                 f"notes_per_patient x blocks_per_note = {total_blocks} blocks")
            target_blocks = rng.sample(range(total_blocks), k=len(groups))
            for block_idx, phrases in zip(target_blocks, groups):
                sentence = _planted_sentence(phrases)
                if len(sentence) > block_words:
                    raise ValueError(
                        f"block_words={block_words} cannot hold a {len(sentence)}-word sentence"
                    )
                offset = rng.randint(0, block_words - len(sentence))
                # in-place replacement keeps the block at block_words words
                blocks[block_idx][offset:offset + len(sentence)] = sentence
                sentences.append(" ".join(sentence))

        notes = []
        for note_idx in range(notes_per_patient):
            note_blocks = blocks[note_idx * blocks_per_note:(note_idx + 1) * blocks_per_note]
            text = " ".join([word for block in note_blocks for word in block])
            timestamp = _BASE_TIME + timedelta(hours=6 * note_idx, minutes=i % 60)
            notes.append({
                "note_type": _NOTE_TYPES[(i + note_idx) % len(_NOTE_TYPES)],
                "timestamp": timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "text": text,
            })
        corpus.records.append({
            "patient_id": patient_id,
            "label": label,
            "anchor_date": None,
            "notes": notes,
        })
        corpus.planted[patient_id] = sentences
    return corpus


def write_corpus(path: str | Path, corpus: SyntheticCorpus) -> None:
    write_jsonl(path, corpus.records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a deterministic synthetic demo corpus.")
    parser.add_argument("--patients", type=int, default=60)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--notes-per-patient", type=int, default=2)
    parser.add_argument("--blocks-per-note", type=int, default=5)
    parser.add_argument("--block-words", type=int, default=64)
    args = parser.parse_args(argv)
    try:
        corpus = generate_corpus(
            args.patients,
            notes_per_patient=args.notes_per_patient,
            blocks_per_note=args.blocks_per_note,
            block_words=args.block_words,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    write_corpus(args.out, corpus)
    words = args.notes_per_patient * args.blocks_per_note * args.block_words
    print(f"wrote {args.patients} patients ({words} words each) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
