"""Output checks and quality figures for one pipeline run.

Expected texts are rebuilt from the raw corpus the benchmark generated,
not read back from the processed corpus, so a change to the processed
format cannot hide a wrong context. Any violation raises
:class:`CheckFailed`; it fails the run and is never recorded as a metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from budgetrag.classifier import mock_response
from stub import FAIL_EVERY

NOTE_SEPARATOR = "\n\n"


class CheckFailed(Exception):
    """The pipeline produced an output that violates a benchmark check."""


@dataclass(frozen=True)
class Quality:
    patients: int
    planted_found: int
    planted_total: int
    auroc_rag: float
    failed_lines: int


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def expected_texts(raw_corpus) -> dict[str, str]:
    """Patient id -> whole windowed text, as ingest should produce it.

    Synthetic notes all carry admissible types and fall inside one
    30-day window, so every note is kept, in timestamp order.
    """
    texts = {}
    for record in _read_jsonl(raw_corpus):
        notes = sorted(record["notes"], key=lambda n: n["timestamp"])
        texts[record["patient_id"]] = NOTE_SEPARATOR.join(n["text"] for n in notes)
    return texts


def _by_patient(rows: list[dict], what: str) -> dict[str, dict]:
    out = {}
    for row in rows:
        pid = row["patient_id"]
        if pid in out:
            raise CheckFailed(f"{what}: patient {pid!r} appears more than once")
        out[pid] = row
    return out


def _same_patients(found: dict, expected: dict, what: str) -> None:
    if found.keys() != expected.keys():
        missing = sorted(expected.keys() - found.keys())[:5]
        extra = sorted(found.keys() - expected.keys())[:5]
        raise CheckFailed(f"{what}: missing patients {missing}, unexpected patients {extra}")


def check_rag_contexts(rows, texts: dict[str, str], max_words: int, budget: int) -> dict[str, dict]:
    """Budget, order and text of every RAG context."""
    contexts = _by_patient(rows, "RAG contexts")
    _same_patients(contexts, texts, "RAG contexts")
    for pid, ctx in contexts.items():
        words = texts[pid].split()
        chunks = [" ".join(words[i:i + max_words]) for i in range(0, len(words), max_words)]
        positions = ctx["selected_positions"]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise CheckFailed(f"RAG context {pid!r}: positions {positions} are not ascending")
        if any(not 0 <= p < len(chunks) for p in positions):
            raise CheckFailed(f"RAG context {pid!r}: positions {positions} outside {len(chunks)} chunks")
        if ctx["word_count"] > budget:
            raise CheckFailed(f"RAG context {pid!r}: {ctx['word_count']} words exceed the budget {budget}")
        if ctx["text"] != NOTE_SEPARATOR.join(chunks[p] for p in positions):
            raise CheckFailed(f"RAG context {pid!r}: text differs from its selected chunks")
        if ctx["word_count"] != len(ctx["text"].split()):
            raise CheckFailed(f"RAG context {pid!r}: word_count does not match its text")
    return contexts


def check_long_contexts(rows, texts: dict[str, str]) -> dict[str, dict]:
    """Every LONG context is the patient's whole record text."""
    contexts = _by_patient(rows, "LONG contexts")
    _same_patients(contexts, texts, "LONG contexts")
    for pid, ctx in contexts.items():
        if ctx["text"] != texts[pid]:
            raise CheckFailed(f"LONG context {pid!r}: text differs from the record text")
    return contexts


def check_outcomes(rows, contexts: dict[str, dict], arm: str) -> int:
    """One line per patient; verdicts match the mock on the same context.

    Returns the number of failed outcome lines; the caller fails the run
    on any, since every workload is built so that no classification fails.
    """
    outcomes = _by_patient(rows, f"{arm} outcomes")
    _same_patients(outcomes, contexts, f"{arm} outcomes")
    failed = 0
    for pid, row in outcomes.items():
        if row.get("failed"):
            failed += 1
            continue
        verdict = json.loads(mock_response(contexts[pid]["text"]))
        if (row["label"], row["severity"]) != (verdict["complication"], verdict["severity"]):
            raise CheckFailed(f"{arm} outcome {pid!r}: verdict differs from the mock on its context")
    return failed


def check_run(files: dict[str, Path], max_words: int, budget: int) -> Quality:
    """Check every artifact of one chain; return its quality figures."""
    texts = expected_texts(files["raw"])
    rag = check_rag_contexts(_read_jsonl(files["contexts_rag"]), texts, max_words, budget)
    long = check_long_contexts(_read_jsonl(files["contexts_long"]), texts)
    failed = check_outcomes(_read_jsonl(files["outcomes_rag"]), rag, "RAG")
    failed += check_outcomes(_read_jsonl(files["outcomes_long"]), long, "LONG")
    m_rag = json.loads(Path(files["metrics_rag"]).read_text(encoding="utf-8"))
    m_long = json.loads(Path(files["metrics_long"]).read_text(encoding="utf-8"))
    delong = json.loads(Path(files["delong"]).read_text(encoding="utf-8"))
    for name, payload in (("m_rag", m_rag), ("m_long", m_long), ("delong", delong)):
        if payload["patients"] != len(texts):
            raise CheckFailed(f"{name}: {payload['patients']} patients, expected {len(texts)}")
    planted = json.loads(Path(files["planted"]).read_text(encoding="utf-8"))
    found = sum(s in rag[pid]["text"] for pid, sentences in planted.items() for s in sentences)
    total = sum(len(sentences) for sentences in planted.values())
    return Quality(
        patients=len(texts),
        planted_found=found,
        planted_total=total,
        auroc_rag=float(m_rag["auroc"]),
        failed_lines=failed,
    )


def check_stub(stats: dict, patients: int) -> None:
    """Remote request counts: every embedding request served, one served
    chat request per patient per arm, one 503 injected per ``FAIL_EVERY``
    distinct chat bodies, and every one of them retried to success. The
    number of embedding requests is left free, so batching them stays a
    legal change."""
    embed = stats["paths"].get("/embeddings", {"requests": 0, "status": {}})
    chat = stats["paths"].get("/chat/completions", {"requests": 0, "status": {}})
    if not embed["requests"] or embed["status"].get("200") != embed["requests"]:
        raise CheckFailed(f"stub: embedding requests {embed} were not all served")
    if chat["status"].get("200") != 2 * patients:
        raise CheckFailed(f"stub: chat requests {chat}, expected {2 * patients} served")
    served = sum(p["status"].get("200", 0) for p in stats["paths"].values())
    if stats["http_requests"] != served + stats["status_503"]:
        raise CheckFailed(f"stub: {stats['http_requests']} requests != {served} served + "
                          f"{stats['status_503']} injected 503s")
    expected_503 = stats["chat_bodies"] // FAIL_EVERY
    if stats["status_503"] != expected_503 or len(stats["failed_bodies"]) != expected_503:
        raise CheckFailed(f"stub: {stats['status_503']} 503s on {len(stats['failed_bodies'])} bodies, "
                          f"expected {expected_503} for {stats['chat_bodies']} distinct chat bodies")
    if stats["unrecovered_bodies"]:
        raise CheckFailed(f"stub: {stats['unrecovered_bodies']} injected 503s were not retried to success")
