"""Context assembly for both ingestion modes.

RAG mode ranks the patient's chunks against the vector of a
complication-seeking query, which the caller embeds once for all
patients, and packs ranked chunks into a hard word budget; accepted
chunks are re-sorted into their original narrative order. LONG mode
takes the whole windowed text. The ranking covers every indexed chunk
of the patient, and budget filling is greedy in rank order with skip: a
chunk that does not fit the remaining budget is skipped and scanning
continues down the ranking. Chunks are never truncated.

The ranking is the index's: each patient's ``VectorIndex.search``,
filtered to that patient, scores only the patient's rows, so a run over
all patients scores each row once. Every patient is searched, one with
no chunks too, and the hits are matched to the patient's chunks by
position. An index entry without a chunk, or a chunk without an index
entry, is a data error that names the patient and the positions; a
patient with chunks and no index entry at all is a
``MissingPatientError``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .corpus import Chunk
from .errors import BudgetRagError, MissingPatientError
from .manifest import check_types, read_jsonl, write_jsonl

if TYPE_CHECKING:  # annotations only: LONG contexts need no index
    from .vindex import VectorIndex

MODE_RAG = "RAG"
MODE_LONG = "LONG"

DEFAULT_BUDGET_WORDS = 4000
# The hashing embedder's vector width, here and not in embedding, so every command bounds --dim without
# importing the embedders.
DEFAULT_DIM = 256
MAX_DIM = 65_536  # a row of MAX_DIM float32 values is 256 KiB

# The complication vocabulary: the default query names it, the mock classifier flags it, synthetic corpora plant it.
DEFAULT_COMPLICATION_KEYWORDS = (
    "anastomotic leak",
    "wound dehiscence",
    "surgical site infection",
    "postoperative hemorrhage",
    "sepsis",
    "reoperation",
    "pulmonary embolism",
    "deep vein thrombosis",
    "intra-abdominal abscess",
    "respiratory failure",
    "acute kidney injury",
    "unplanned readmission",
)

# Shipped default retrieval query; overridable via --query.
# Logged with every run through the manifest.
DEFAULT_QUERY_TEXT = ("Evidence of post-operative complications such as "
                      f"{', '.join(DEFAULT_COMPLICATION_KEYWORDS[:-1])}, or {DEFAULT_COMPLICATION_KEYWORDS[-1]}.")


class _RetrievalConfigFields(NamedTuple):
    budget_words: int = DEFAULT_BUDGET_WORDS


class RetrievalConfig(_RetrievalConfigFields):
    # A validating record: a NamedTuple of the fields, and a subclass whose __new__ checks them.
    # _replace and _make build through tuple.__new__ and skip the check, so no code calls them on it.
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.budget_words < 1:
            raise ValueError(f"budget_words must be >= 1, got {self.budget_words}")
        return self


class AssembledContext(NamedTuple):
    """The text handed to the classifier for one patient."""

    patient_id: str
    mode: str  # MODE_RAG | MODE_LONG
    text: str
    word_count: int
    selected_positions: tuple[int, ...] = ()
    candidate_scores: tuple[tuple[int, float], ...] = ()  # (position, score) in rank order
    total_words: int = 0


def assemble_rag_from_chunks(patient_id: str, chunks: list[Chunk], index: VectorIndex, query,
                             cfg: RetrievalConfig) -> AssembledContext:
    """Assemble a budgeted context from pre-computed chunks, ranked against the unit vector ``query``.

    The chunks must be the same ones whose embeddings were added to the
    index: the patient's index entries and chunks must hold the same
    positions, or the data error names the patient and the positions
    that differ. A patient with no chunks and no index entries gets an
    empty context.
    """
    total_words = sum(c.word_count for c in chunks)
    hits = index.search(query, k=len(index), filter_patient=patient_id)
    if chunks and not hits:
        raise MissingPatientError(f"patient {patient_id!r} has chunks but none are indexed")

    by_position = {c.position: c for c in chunks}
    ranked = [by_position.get(hit.position) for hit in hits]
    if None in ranked or len(by_position) != len(hits):  # index positions are distinct, so this compares the sets
        indexed = {hit.position for hit in hits}
        differ = [f"index entry {(patient_id, position)!r} has no matching chunk"
                  for position in sorted(indexed - by_position.keys())]
        differ += [f"chunk {(patient_id, position)!r} is not indexed"
                   for position in sorted(by_position.keys() - indexed)]
        raise BudgetRagError(f"the index and the chunks of patient {patient_id!r} differ: {'; '.join(differ)}")
    remaining = cfg.budget_words
    accepted: list[Chunk] = []
    for chunk in ranked:
        if chunk.word_count <= remaining:
            accepted.append(chunk)
            remaining -= chunk.word_count
    accepted.sort(key=lambda c: c.position)
    return AssembledContext(patient_id=patient_id, mode=MODE_RAG, text="\n\n".join(c.text for c in accepted),
                            word_count=sum(c.word_count for c in accepted),
                            selected_positions=tuple(c.position for c in accepted),
                            candidate_scores=tuple((h.position, h.score) for h in hits), total_words=total_words)


def long_context(patient_id: str, text: str, words: int) -> AssembledContext:
    """The whole-text context of an already windowed text of ``words`` words."""
    return AssembledContext(patient_id=patient_id, mode=MODE_LONG, text=text,
                            word_count=words, total_words=words)


def context_stats(ctx: AssembledContext) -> tuple[int, float]:
    """Return (word_count, selected_ratio).

    The ratio is selected words over the patient's total words; LONG
    contexts and zero-word patients are defined as 1.0.
    """
    if ctx.mode == MODE_LONG or ctx.total_words == 0:
        return ctx.word_count, 1.0
    return ctx.word_count, ctx.word_count / ctx.total_words


# --- audit export ------------------------------------------------------
# A contexts line holds these fields of AssembledContext, in this order;
# candidate_scores, the ranking a RAG context was selected from, is not
# written.

_CONTEXT_FIELDS = {"patient_id": str, "mode": str, "word_count": int, "total_words": int,
                   "selected_positions": list, "text": str}


def context_to_json(ctx: AssembledContext) -> dict:
    row = {key: getattr(ctx, key) for key in _CONTEXT_FIELDS}
    row["selected_positions"] = list(ctx.selected_positions)
    return row


def write_contexts(path: str | Path, contexts: list[AssembledContext]) -> None:
    write_jsonl(path, (context_to_json(ctx) for ctx in contexts))


def check_mode(obj: dict) -> None:
    """Raise ``ValueError`` unless the ``mode`` of a JSON-lines row is one this package writes."""
    if obj["mode"] not in (MODE_RAG, MODE_LONG):
        raise ValueError(f"'mode' must be {MODE_RAG!r} or {MODE_LONG!r}, got {obj['mode']!r:.40}")


def _context_row(obj: dict) -> AssembledContext:
    check_types(obj, _CONTEXT_FIELDS)
    check_mode(obj)
    for key in ("word_count", "total_words"):
        if obj[key] < 0:
            raise ValueError(f"{key!r} must be >= 0, got {obj[key]!r:.40}")
    positions = obj["selected_positions"]
    if any(type(position) is not int for position in positions):
        raise TypeError(f"'selected_positions' must be a list of int, got {positions!r:.40}")
    return AssembledContext(obj["patient_id"], obj["mode"], obj["text"], obj["word_count"], tuple(positions),
                            total_words=obj["total_words"])


def read_contexts(path: str | Path) -> list[AssembledContext]:
    return read_jsonl(path, "contexts file", _context_row)
