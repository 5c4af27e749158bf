"""Independent reference implementations used to cross-check metrics,
the hashing embedder, the vector index and the synthetic corpus generator.

These deliberately avoid the main code paths: direct O(m*n) pair loops,
the trapezoid rule over ROC points, explicit covariance sums (also in
exact rational arithmetic over placements from running counts), scipy's
normal tail, a vectorized paired bootstrap, a per-word loop for feature
hashing, and per-word ``random.choice`` / ``randint`` calls for filler
text. They exist so the package's rank-based, batched and
table-driven implementations are verified against a different
computational route.
"""

from __future__ import annotations

import random
from collections import Counter
from datetime import timedelta
from fractions import Fraction

import numpy as np
from scipy import stats

from budgetrag.embedding import fnv1a64
from budgetrag.retrieval import DEFAULT_COMPLICATION_KEYWORDS
from budgetrag.synthetic import (_BASE_TIME, _NOTE_TYPES, FILLER_VOCAB, SyntheticCorpus, _planted_sentence,
                                 _sample_phrase_groups)


def index_rows(index) -> list[tuple[tuple[str, int], np.ndarray]]:
    """Each ((patient_id, position), vector) row of a ``VectorIndex`` in insertion order, read
    straight from its private arrays, not through its search or serialization. The vectors are
    a copy, so the index may grow while they are held."""
    matrix = np.array(index._vectors, dtype=np.float32).reshape(len(index), index.dim)
    return list(zip(zip(index._patient_ids, index._positions.tolist()), matrix))


def psi(x: float, y: float) -> float:
    if x > y:
        return 1.0
    if x == y:
        return 0.5
    return 0.0


def trapezoid_area(points: list[tuple[float, float]]) -> float:
    """Area under a piecewise-linear curve by the trapezoid rule: the ROC-area oracle."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_pair_enumeration(labels, scores) -> float:
    """AUC by brute force over all positive/negative pairs."""
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    total = 0.0
    for x in pos:
        for y in neg:
            total += psi(x, y)
    return total / (len(pos) * len(neg))


def average_precision_bruteforce(labels, scores) -> float:
    """AP with precision recomputed from scratch at every positive rank.

    Ranking is descending score with ties kept in list order, matching
    the package's documented deterministic tie rule.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    positive_ranks = [rank for rank, idx in enumerate(order, start=1) if labels[idx] == 1]
    m = sum(labels)
    total = 0.0
    for rank in positive_ranks:
        hits = sum(1 for r2, idx in enumerate(order[:rank], start=1) if labels[idx] == 1)
        total += hits / rank
    return total / m


def roc_points_bruteforce(labels, scores) -> list[tuple[float, float]]:
    """ROC points by direct counting: (0, 0), then (#neg >= t / n, #pos >= t / m) per distinct score t, descending."""
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    points = [(0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        points.append((sum(1 for y in neg if y >= t) / len(neg), sum(1 for x in pos if x >= t) / len(pos)))
    return points


def _cov(u, v) -> float:
    """Unbiased sample covariance by explicit summation."""
    n = len(u)
    mu, mv = sum(u) / n, sum(v) / n
    return sum((a - mu) * (b - mv) for a, b in zip(u, v)) / (n - 1)


def delong_reference(labels, scores_a, scores_b):
    """DeLong paired test via direct placement-value computation.

    Returns (auc_a, auc_b, variance, z, p). The normal tail comes from
    scipy, independent of the package's erfc-based CDF.
    """
    pos_idx = [i for i, l in enumerate(labels) if l == 1]
    neg_idx = [i for i, l in enumerate(labels) if l == 0]
    m, n = len(pos_idx), len(neg_idx)

    def placements(scores):
        xs = [scores[i] for i in pos_idx]
        ys = [scores[j] for j in neg_idx]
        v10 = [sum(psi(x, y) for y in ys) / n for x in xs]
        v01 = [sum(psi(x, y) for x in xs) / m for y in ys]
        auc = sum(v10) / m
        return auc, v10, v01

    auc_a, v10_a, v01_a = placements(scores_a)
    auc_b, v10_b, v01_b = placements(scores_b)
    var = (
        (_cov(v10_a, v10_a) + _cov(v10_b, v10_b) - 2 * _cov(v10_a, v10_b)) / m
        + (_cov(v01_a, v01_a) + _cov(v01_b, v01_b) - 2 * _cov(v01_a, v01_b)) / n
    )
    var = max(var, 0.0)
    diff = auc_a - auc_b
    if var == 0.0:
        z = 0.0 if diff == 0.0 else float("inf") if diff > 0 else float("-inf")
        p = 1.0 if diff == 0.0 else 0.0
    else:
        z = diff / var ** 0.5
        p = 2.0 * stats.norm.sf(abs(z))
    return auc_a, auc_b, var, z, p


def _placements_exact(values, others) -> list[Fraction]:
    """Share of ``others`` below each value, a tie counting 1/2, from a running count over the distinct scores."""
    counts = Counter(others)
    below, running = {}, 0
    for score in sorted(counts.keys() | set(values)):
        below[score] = running
        running += counts[score]
    return [Fraction(2 * below[v] + counts[v], 2 * len(others)) for v in values]


def delong_variance_exact(labels, scores_a, scores_b) -> Fraction:
    """The DeLong variance of the AUC difference as an exact rational; nothing is rounded.

    The placements are exact fractions (V10 per positive, and 1 - V01
    per negative, which has the same variance), and the covariances are
    ``_cov``'s explicit sums carried out in rational arithmetic.
    """
    pos_idx = [i for i, l in enumerate(labels) if l == 1]
    neg_idx = [i for i, l in enumerate(labels) if l == 0]
    m, n = len(pos_idx), len(neg_idx)

    def placements(scores):
        xs = [scores[i] for i in pos_idx]
        ys = [scores[j] for j in neg_idx]
        return _placements_exact(xs, ys), _placements_exact(ys, xs)

    v10_a, w01_a = placements(scores_a)
    v10_b, w01_b = placements(scores_b)
    return ((_cov(v10_a, v10_a) + _cov(v10_b, v10_b) - 2 * _cov(v10_a, v10_b)) / m
            + (_cov(w01_a, w01_a) + _cov(w01_b, w01_b) - 2 * _cov(w01_a, w01_b)) / n)


def _auc_rows(labels_rows: np.ndarray, scores_rows: np.ndarray) -> np.ndarray:
    """Row-wise midrank AUC for resampled cohorts; degenerate rows -> nan."""
    ranks = stats.rankdata(scores_rows, method="average", axis=1)
    m = labels_rows.sum(axis=1)
    n = labels_rows.shape[1] - m
    pos_rank_sum = (ranks * labels_rows).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        auc = (pos_rank_sum - m * (m + 1) / 2.0) / (m * n)
    auc[(m == 0) | (n == 0)] = np.nan
    return auc


def bootstrap_p_value(labels, scores_a, scores_b, n_resamples=10_000, seed=0) -> float:
    """Paired-bootstrap two-sided p for the AUC difference.

    Resamples patients with replacement (same indices for both models),
    estimates the standard error of the AUC difference, and applies the
    normal approximation to the observed difference.
    """
    labels = np.asarray(labels)
    sa = np.asarray(scores_a, dtype=np.float64)
    sb = np.asarray(scores_b, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(labels)
    idx = rng.integers(0, n, size=(n_resamples, n))
    lab_rows = labels[idx]
    diffs = _auc_rows(lab_rows, sa[idx]) - _auc_rows(lab_rows, sb[idx])
    diffs = diffs[~np.isnan(diffs)]
    se = float(np.std(diffs, ddof=1))
    observed = auc_pair_enumeration(labels, sa) - auc_pair_enumeration(labels, sb)
    if se == 0.0:
        return 1.0 if observed == 0.0 else 0.0
    z = observed / se
    return float(2.0 * stats.norm.sf(abs(z)))


def hashing_embedding_reference(text: str, dim: int) -> np.ndarray:
    """Signed feature hashing of one text, one scalar update per distinct word.

    Bucket ``fnv1a64(word) % dim``, sign -1 when the hash's top bit is set,
    weight the word's count; the float64 sum is L2-normalized and cast to
    float32. A text with no words maps to the first basis vector.
    """
    acc = np.zeros(dim, dtype=np.float64)
    for word, count in Counter(text.lower().split()).items():
        h = fnv1a64(word.encode("utf-8"))
        acc[h % dim] += (1.0 if (h >> 63) == 0 else -1.0) * count
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        acc[0], norm = 1.0, 1.0
    return (acc / norm).astype(np.float32)


def _filler_word_reference(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.08:
        return str(rng.randint(50, 199))
    if roll < 0.12:
        return f"{rng.randint(95, 135)}/{rng.randint(55, 90)}"
    return rng.choice(FILLER_VOCAB)


def synthetic_corpus_reference(n_patients: int = 60, *, positive_fraction: float = 0.5, notes_per_patient: int = 2,
                               blocks_per_note: int = 5, block_words: int = 64, min_planted: int = 2,
                               max_planted: int = 4, keywords: tuple[str, ...] = DEFAULT_COMPLICATION_KEYWORDS,
                               seed: int = 0) -> SyntheticCorpus:
    """``generate_corpus`` with each filler word drawn by ``rng.choice`` / ``rng.randint``, one call per draw."""
    rng = random.Random(seed)
    n_positive = round(n_patients * positive_fraction)
    labels = [1] * n_positive + [0] * (n_patients - n_positive)
    rng.shuffle(labels)
    corpus = SyntheticCorpus([], {})
    total_blocks = notes_per_patient * blocks_per_note
    for i, label in enumerate(labels):
        patient_id = f"p{i:04d}"
        blocks = [[_filler_word_reference(rng) for _ in range(block_words)] for _ in range(total_blocks)]
        sentences = []
        if label == 1:
            groups = _sample_phrase_groups(rng, keywords, rng.randint(min_planted, max_planted))
            for block_idx, phrases in zip(rng.sample(range(total_blocks), k=len(groups)), groups):
                sentence = _planted_sentence(phrases)
                offset = rng.randint(0, block_words - len(sentence))
                blocks[block_idx][offset:offset + len(sentence)] = sentence
                sentences.append(" ".join(sentence))
        notes = []
        for note_idx in range(notes_per_patient):
            words = (w for block in blocks[note_idx * blocks_per_note:(note_idx + 1) * blocks_per_note] for w in block)
            timestamp = _BASE_TIME + timedelta(hours=6 * note_idx, minutes=i % 60)
            notes.append({"note_type": _NOTE_TYPES[(i + note_idx) % len(_NOTE_TYPES)],
                          "timestamp": timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"), "text": " ".join(words)})
        corpus.records.append({"patient_id": patient_id, "label": label, "anchor_date": None, "notes": notes})
        corpus.planted[patient_id] = sentences
    return corpus
