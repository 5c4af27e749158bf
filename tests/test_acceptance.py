"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <nn> <name>: PASS/FAIL`` line and
enforces its stated tolerance and runtime budget. Randomized criteria
use frozen seeds so results are reproducible run to run.

Criterion 01 treats every published figure as what it is: a value
rounded to two decimals, so each stands for an interval of half-width
0.005. F1 rises with both precision and recall, so the F1 values that a
row's rounded P and R allow run from ``f1_score(P - 0.005, R - 0.005)``
to ``f1_score(P + 0.005, R + 0.005)``; a row is consistent when that
range meets ``[F1 - 0.005, F1 + 0.005]``. All six rows are. Rows five and
six share P and R but publish 0.60 and 0.61: the range they allow,
[0.5977, 0.6091], meets both. The check still discriminates: the
arithmetic and geometric means pass one row of six, F2 and F0.5 none,
and every row fails with its published F1 moved by 0.02.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from budgetrag.classifier import ClassificationOutcome, ClassifierConfig, classify
from budgetrag.corpus import chunk_text
from budgetrag.costmodel import cost_usd, reduction, summarize_usage
from budgetrag.embedding import HashingEmbedder
from budgetrag.errors import (
    IndexChecksumError,
    IndexFormatError,
    IndexTruncatedError,
)
from budgetrag.metrics import ScoredCohort, auroc, delong_test, f1_score, roc_points
from budgetrag.retrieval import (
    DEFAULT_QUERY_TEXT,
    MODE_LONG,
    AssembledContext,
    RetrievalConfig,
    assemble_rag_from_chunks,
)
from budgetrag.synthetic import generate_corpus, write_corpus
from budgetrag.vindex import VectorIndex

from .oracles import auc_pair_enumeration, bootstrap_p_value, delong_reference, trapezoid_area


class _Criterion:
    """Collects the verdict line and enforces the runtime budget."""

    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget_seconds = budget_seconds
        self.started = time.perf_counter()

    def finish(self, ok: bool, detail: str = "") -> float:
        elapsed = time.perf_counter() - self.started
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} "
              f"[{elapsed:.1f}s / {self.budget_seconds:.0f}s]{suffix}")
        assert elapsed < self.budget_seconds, \
            f"criterion {self.number} exceeded its {self.budget_seconds}s runtime budget"
        return elapsed


# --- 01: F1 consistency with the published reference table ---------------

REFERENCE_ROWS = [
    # (experiment, precision, recall, published F1)
    ("gpt4o-rag", 0.53, 0.71, 0.61),
    ("gpt4o-long", 0.46, 0.90, 0.61),
    ("llama-rag", 0.51, 0.73, 0.60),
    ("llama-long", 0.48, 0.86, 0.61),
    ("mistral-rag", 0.44, 0.96, 0.60),
    ("mistral-long", 0.44, 0.96, 0.61),
]


ROUNDING_HALF_UNIT = 0.005  # published figures carry two decimals


def test_criterion_01_f1_consistency():
    crit = _Criterion(1, "f1-consistency", 1.0)
    h = ROUNDING_HALF_UNIT
    lines = []
    ok_rows = 0
    for name, precision, recall, published in REFERENCE_ROWS:
        # F1 is increasing in P and R, so the rounded inputs bound it here
        low = f1_score(precision - h, recall - h)
        high = f1_score(precision + h, recall + h)
        ok = low <= published + h and high >= published - h
        ok_rows += ok
        status = "ok" if ok else "OUTSIDE"
        lines.append(f"{name}: P={precision} R={recall} -> F1 in [{low:.4f}, {high:.4f}] "
                     f"vs published {published} +/- {h} ({status})")
    all_ok = ok_rows == len(REFERENCE_ROWS)
    crit.finish(all_ok, f"{ok_rows}/6 rows consistent up to rounding")
    assert all_ok, (
        "the F1 range allowed by each row's rounded precision and recall must meet "
        "its published F1 rounding interval:\n  " + "\n  ".join(lines)
    )


# --- 02: cost arithmetic ---------------------------------------------------


def _usage(pid: str, words: int, mode: str) -> ClassificationOutcome:
    return ClassificationOutcome(patient_id=pid, mode=mode, label=0, severity=1, score=0.4,
                                 raw_response="{}", prompt_words=words, latency_ms=0)


def test_criterion_02_cost_arithmetic():
    crit = _Criterion(2, "cost-arithmetic", 1.0)
    long = [_usage("p1", 86_000_000, "LONG"), _usage("p2", 86_000_000, "LONG")]
    rag = [_usage("p1", 6_600_000, "RAG"), _usage("p2", 6_600_000, "RAG")]
    summary = summarize_usage(long, rag)
    cost_long, cost_rag = cost_usd(summary.total_words_long, 2.50), cost_usd(summary.total_words_rag, 2.50)
    savings = reduction(summary.total_words_rag, summary.total_words_long)
    ok = (
        summary.total_words_long == 172_000_000
        and summary.total_words_rag == 13_200_000
        and cost_long == 430.0
        and cost_rag == 33.0
        and abs(savings - 0.923) <= 0.002
        and savings > 0.90
    )
    crit.finish(ok, f"${cost_long:.2f} vs ${cost_rag:.2f}, savings {savings:.3f}")
    assert cost_long == 430.0
    assert cost_rag == 33.0
    assert savings == pytest.approx(0.923, abs=0.002)


# --- 03: latency improvement ------------------------------------------------


def test_criterion_03_latency_improvement():
    crit = _Criterion(3, "latency-improvement", 1.0)
    slow = reduction(0.90, 1.11)
    fast = reduction(0.45, 0.58)
    ok = abs(slow - 0.189) <= 0.005 and abs(fast - 0.224) <= 0.005
    crit.finish(ok, f"improvements {slow:.3f} and {fast:.3f}")
    assert slow == pytest.approx(0.189, abs=0.005)
    assert fast == pytest.approx(0.224, abs=0.005)


# --- 04: retrieval exactness -------------------------------------------------


def test_criterion_04_retrieval_exactness():
    crit = _Criterion(4, "retrieval-exactness", 60.0)
    rng = np.random.default_rng(40404)
    dim = 256
    trials = 1000
    for trial in range(trials):
        n = int(rng.integers(5000, 10001)) if trial % 100 == 0 else int(rng.integers(2, 601))
        rows = rng.standard_normal((n, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows.astype(np.float32)
        if trial % 3 == 0 and n >= 4:
            rows[n // 2] = rows[0]  # force exact score ties
            rows[n // 2 + 1] = rows[0]
        index = VectorIndex(dim=dim)
        for i in range(n):
            index.add(f"p{i % 17:03d}", i, rows[i])
        query = rng.standard_normal(dim)
        query /= np.linalg.norm(query)
        k = int(rng.integers(1, 32))
        hits = index.search(query, k=k)

        # brute-force oracle: per-entry float64 dots, tuple sort
        scores = [float(np.dot(rows[i].astype(np.float64), query)) for i in range(n)]
        order = sorted(range(n), key=lambda i: (-scores[i], i, f"p{i % 17:03d}"))
        expected = [(f"p{i % 17:03d}", i) for i in order[:k]]
        got = [(h.patient_id, h.position) for h in hits]
        assert got == expected, f"trial {trial}: top-{k} mismatch"
        for h, i in zip(hits, order[:k]):
            assert abs(h.score - scores[i]) <= 1e-9
    crit.finish(True, f"{trials} randomized trials, dim {dim}")


# --- 05: budget invariant ----------------------------------------------------


def test_criterion_05_budget_invariant():
    crit = _Criterion(5, "budget-invariant", 60.0)
    rng = np.random.default_rng(50505)
    dim = 8
    runs = 10_000
    for _ in range(runs):
        n_chunks = int(rng.integers(1, 26))
        word_counts = rng.integers(1, 90, size=n_chunks)
        chunks = [
            chunk_text(" ".join(["w"] * int(wc)), max_words=int(wc), patient_id="p1")[0]
            for wc in word_counts
        ]
        chunks = [type(c)(patient_id="p1", position=i, word_count=c.word_count, text=c.text)
                  for i, c in enumerate(chunks)]
        vectors = rng.standard_normal((n_chunks, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        index = VectorIndex(dim=dim)
        for i in range(n_chunks):
            index.add("p1", i, vectors[i].astype(np.float32))
        query = rng.standard_normal(dim)
        query /= np.linalg.norm(query)
        cfg = RetrievalConfig(budget_words=int(rng.integers(1, 3001)))
        ctx = assemble_rag_from_chunks("p1", chunks, index, query.astype(np.float32), cfg)
        assert ctx.word_count <= cfg.budget_words
        positions = list(ctx.selected_positions)
        assert positions == sorted(positions)
        assert len(positions) == len(set(positions))
    crit.finish(True, f"{runs} randomized assembly runs")


# --- 06: AUC oracle equivalence ----------------------------------------------


def test_criterion_06_auc_oracle_equivalence():
    crit = _Criterion(6, "auc-oracle-equivalence", 30.0)
    rng = np.random.default_rng(60606)
    cohorts = 500
    for trial in range(cohorts):
        size = int(rng.integers(4, 201))
        while True:
            labels = (rng.random(size) < rng.uniform(0.2, 0.8)).astype(int)
            if 0 < labels.sum() < size:
                break
        if trial % 2 == 0:
            scores = rng.integers(0, 8, size=size) / 7.0  # tie-prone
        else:
            scores = rng.random(size)
        cohort = ScoredCohort(tuple(labels.tolist()), tuple(scores.tolist()))
        mann_whitney = auroc(cohort)
        assert abs(mann_whitney - auc_pair_enumeration(labels, scores)) <= 1e-12
        assert abs(trapezoid_area(roc_points(cohort)) - mann_whitney) <= 1e-9
    crit.finish(True, f"{cohorts} random cohorts")


# --- 07: DeLong correctness ---------------------------------------------------


def test_criterion_07_delong_correctness():
    crit = _Criterion(7, "delong-correctness", 300.0)
    rng = np.random.default_rng(20240817)
    max_ref = 0.0
    max_boot = 0.0
    for trial in range(100):
        size = int(rng.integers(30, 201))
        while True:
            latent = rng.standard_normal(size)
            labels = (latent > 0).astype(int)
            if 2 <= labels.sum() <= size - 2:
                break
        noise = float(rng.uniform(0.4, 1.2))
        scores_a = latent + noise * rng.standard_normal(size)
        scores_b = latent + noise * rng.standard_normal(size)
        ids = tuple(f"p{i:04d}" for i in range(size))
        cohort_a = ScoredCohort(tuple(labels.tolist()), tuple(scores_a.tolist()), ids)
        cohort_b = ScoredCohort(tuple(labels.tolist()), tuple(scores_b.tolist()), ids)

        result = delong_test(cohort_a, cohort_b)
        _, _, _, _, p_ref = delong_reference(labels.tolist(), scores_a.tolist(), scores_b.tolist())
        max_ref = max(max_ref, abs(result.p_value - p_ref))
        assert abs(result.p_value - p_ref) <= 1e-10

        p_boot = bootstrap_p_value(labels.tolist(), scores_a.tolist(), scores_b.tolist(),
                                   n_resamples=10_000, seed=trial)
        max_boot = max(max_boot, abs(result.p_value - p_boot))
        assert abs(result.p_value - p_boot) <= 0.05

        if trial % 20 == 0:
            assert delong_test(cohort_a, cohort_a).p_value == 1.0
    crit.finish(True, f"max |p - p_ref| {max_ref:.1e}, max |p - p_boot| {max_boot:.3f}")


# --- 08: end-to-end synthetic experiment --------------------------------------


def test_criterion_08_end_to_end_synthetic():
    crit = _Criterion(8, "end-to-end-synthetic", 120.0)
    corpus = generate_corpus(
        200,
        notes_per_patient=5,
        blocks_per_note=8,
        block_words=512,  # 20,480 words per patient, chunk-aligned
        min_planted=2,
        max_planted=4,
        seed=77,
    )
    embedder = HashingEmbedder(dim=4096)
    index = VectorIndex(dim=4096, embedder_fingerprint=embedder.fingerprint)
    chunk_map, text_map, label_map = {}, {}, {}
    for record in corpus.records:
        pid = record["patient_id"]
        text = "\n\n".join(n["text"] for n in record["notes"])
        chunks = chunk_text(text, 512, patient_id=pid)
        assert sum(c.word_count for c in chunks) >= 20_000
        chunk_map[pid], text_map[pid], label_map[pid] = chunks, text, record["label"]
        for chunk, vector in zip(chunks, embedder.embed_many([c.text for c in chunks])):
            index.add(pid, chunk.position, vector)

    cfg = RetrievalConfig(budget_words=4000)
    query = embedder.embed(DEFAULT_QUERY_TEXT)
    planted_total = planted_found = 0
    labels, scores_rag, scores_long = [], [], []
    ids = tuple(sorted(chunk_map))
    for pid in ids:
        ctx_rag = assemble_rag_from_chunks(pid, chunk_map[pid], index, query, cfg)
        assert ctx_rag.word_count <= 4000
        normalized = " ".join(ctx_rag.text.split())
        for sentence in corpus.planted[pid]:
            planted_total += 1
            planted_found += sentence in normalized
        words = len(text_map[pid].split())
        ctx_long = AssembledContext(patient_id=pid, mode=MODE_LONG, text=text_map[pid],
                                    word_count=words, total_words=words)
        labels.append(label_map[pid])
        scores_rag.append(classify(ctx_rag, ClassifierConfig()).score)
        scores_long.append(classify(ctx_long, ClassifierConfig()).score)

    rate = planted_found / planted_total
    cohort_rag = ScoredCohort(tuple(labels), tuple(scores_rag), ids)
    cohort_long = ScoredCohort(tuple(labels), tuple(scores_long), ids)
    auroc_rag, auroc_long = auroc(cohort_rag), auroc(cohort_long)
    p_value = delong_test(cohort_rag, cohort_long).p_value
    crit.finish(
        rate >= 0.95 and abs(auroc_rag - auroc_long) <= 0.02 and p_value > 0.05,
        f"recovery {rate:.3f}, AUROC {auroc_rag:.3f} vs {auroc_long:.3f}, p {p_value:.3f}",
    )
    assert rate >= 0.95
    assert abs(auroc_rag - auroc_long) <= 0.02
    assert p_value > 0.05


# --- 09: persistence round-trip ------------------------------------------------


def test_criterion_09_persistence_round_trip(tmp_path):
    crit = _Criterion(9, "persistence-round-trip", 30.0)
    rng = np.random.default_rng(90909)
    for trial in range(100):
        dim = int(rng.integers(1, 48))
        count = int(rng.integers(0, 40))
        index = VectorIndex(dim=dim, embedder_fingerprint=f"fp-{trial}")
        for i in range(count):
            vec = rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            index.add(f"patient-{rng.integers(0, 8)}-{i}", i, vec.astype(np.float32))
        blob = index.to_bytes()
        path = tmp_path / f"idx{trial}.brag"
        index.save(path)
        assert path.read_bytes() == blob
        loaded = VectorIndex.load(path)
        assert loaded.to_bytes() == blob  # byte-exact round trip

    reference = VectorIndex(dim=4, embedder_fingerprint="fp")
    vec = np.zeros(4, dtype=np.float32)
    vec[1] = 1.0
    reference.add("p", 0, vec)
    blob = reference.to_bytes()

    with pytest.raises(IndexFormatError):
        VectorIndex.from_bytes(b"WRONGMAG" + blob[8:])
    with pytest.raises(IndexTruncatedError):
        VectorIndex.from_bytes(blob[: len(blob) - 9])
    corrupted = bytearray(blob)
    corrupted[-8] ^= 0x40  # inside the fingerprint length field
    with pytest.raises(IndexChecksumError):
        VectorIndex.from_bytes(bytes(corrupted))
    crit.finish(True, "100 round trips, 3 distinct corruption errors")


# --- 10: determinism -----------------------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    from budgetrag.cli import main

    crit = _Criterion(10, "pipeline-determinism", 120.0)

    def run_pipeline(root):
        root.mkdir()
        write_corpus(root / "corpus.jsonl", generate_corpus(60, seed=0))
        steps = [
            ["ingest", "--corpus", root / "corpus.jsonl", "--out", root / "proc.jsonl",
             "--max-words", "64"],
            ["build-index", "--corpus", root / "proc.jsonl", "--out", root / "index.brag"],
            ["retrieve", "--corpus", root / "proc.jsonl", "--index", root / "index.brag",
             "--mode", "rag", "--budget-words", "256", "--out", root / "ctx_rag.jsonl"],
            ["retrieve", "--corpus", root / "proc.jsonl", "--mode", "long",
             "--out", root / "ctx_long.jsonl"],
            ["classify", "--contexts", root / "ctx_rag.jsonl", "--out", root / "out_rag.jsonl",
             "--parallelism", "4"],
            ["classify", "--contexts", root / "ctx_long.jsonl", "--out", root / "out_long.jsonl"],
            ["evaluate", "--outcomes", root / "out_rag.jsonl", "--corpus", root / "proc.jsonl",
             "--out", root / "m_rag.json", "--roc-out", root / "roc_rag.csv"],
            ["evaluate", "--outcomes", root / "out_long.jsonl", "--corpus", root / "proc.jsonl",
             "--out", root / "m_long.json", "--roc-out", root / "roc_long.csv"],
            ["delong", "--outcomes-a", root / "out_rag.jsonl", "--outcomes-b", root / "out_long.jsonl",
             "--corpus", root / "proc.jsonl", "--out", root / "delong.json"],
        ]
        for step in steps:
            code = main([str(a) for a in step] + ["--deterministic"])
            assert code == 0, f"step {step[0]} failed with exit {code}"

    first, second = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(first)
    run_pipeline(second)
    compared = []
    for name in ("out_rag.jsonl", "out_long.jsonl", "m_rag.json", "m_long.json",
                 "proc.jsonl", "index.brag", "ctx_rag.jsonl", "roc_rag.csv", "delong.json",
                 "out_rag.jsonl.manifest.json", "m_rag.json.manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
        compared.append(name)
    crit.finish(True, f"{len(compared)} artifacts byte-identical")
