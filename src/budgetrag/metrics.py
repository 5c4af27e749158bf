"""Evaluation metrics and the paired AUC test.

AUROC uses the Mann-Whitney form with midranks, so a tied
positive/negative pair counts 1/2. PR AUC is average precision (mean of
precision at the ranks of the positives under descending-score order),
not the trapezoid over PR points. Cohorts are canonically ordered by
patient id, and every rank comes from one stable descending ranking
(``_ranked``), so ties keep patient-id order, mirroring the index's
deterministic tie rule. The average precision terms are added one by
one in that rank order (``np.cumsum``): ``np.sum`` adds pairwise and
builtin ``sum`` compensates on Python >= 3.12, and either would change
the last bits of the result.

The paired test follows the standard DeLong construction: placement
values V10/V01 per observation, their sample covariances (unbiased
1/(m-1), 1/(n-1)), and a normal test on the AUC difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, PairingError, UndefinedMetricError


@dataclass(frozen=True)
class ScoredCohort:
    """Parallel label/score lists, one entry per patient."""

    labels: tuple[int, ...]
    scores: tuple[float, ...]
    patient_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.scores):
            raise ValueError(f"{len(self.labels)} labels vs {len(self.scores)} scores")
        if self.patient_ids is not None and len(self.patient_ids) != len(self.labels):
            raise ValueError("patient_ids length does not match labels")
        if any(l not in (0, 1) for l in self.labels):
            raise ValueError("labels must be 0 or 1")
        if not np.isfinite(np.asarray(self.scores, dtype=np.float64)).all():
            raise ValueError("scores must be finite")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def positives(self) -> int:
        return sum(self.labels)

    @property
    def negatives(self) -> int:
        return len(self.labels) - self.positives


@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricBundle:
    auroc: float
    pr_auc: float
    confusion: ConfusionMetrics
    threshold: float


@dataclass(frozen=True)
class DeLongResult:
    auc_a: float
    auc_b: float
    variance_of_difference: float
    z_statistic: float
    p_value: float


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based midranks; tied values share the average of their ranks."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # a tie group spans sorted positions [end - count, end)
    return (0.5 * (2 * ends - counts - 1) + 1.0)[group]


def _split(cohort: ScoredCohort) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(cohort.labels)
    scores = np.asarray(cohort.scores, dtype=np.float64)
    return scores[labels == 1], scores[labels == 0]


def auroc(cohort: ScoredCohort) -> float:
    """Mann-Whitney AUC with midrank tie handling.

    Equals sum over positive/negative pairs of (1 if s+ > s-, 0.5 if
    equal, else 0) divided by m*n.
    """
    m, n = cohort.positives, cohort.negatives
    if m < 1 or n < 1:
        raise UndefinedMetricError(f"AUROC undefined: {m} positives, {n} negatives")
    return _placements(cohort)[0]


def confusion_metrics(cohort: ScoredCohort, threshold: float = 0.5) -> ConfusionMetrics:
    """Threshold the scores (predict 1 iff score >= threshold)."""
    positive = np.asarray(cohort.labels) == 1
    predicted = np.asarray(cohort.scores, dtype=np.float64) >= threshold
    tp = int(np.count_nonzero(positive & predicted))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(positive)) - tp
    tn = len(cohort) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = f1_score(precision, recall)
    return ConfusionMetrics(tp=tp, fp=fp, tn=tn, fn=fn, precision=precision, recall=recall, f1=f1)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ranked(cohort: ScoredCohort) -> tuple[np.ndarray, np.ndarray]:
    """Positive flags and scores in descending-score order; ties keep cohort (patient id) order."""
    scores = np.asarray(cohort.scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    return np.asarray(cohort.labels)[order] == 1, scores[order]


def pr_auc(cohort: ScoredCohort) -> float:
    """Average precision over the deterministic descending-score ranking."""
    m = cohort.positives
    if m < 1 or cohort.negatives < 1:
        raise UndefinedMetricError(
            f"PR AUC undefined: {m} positives, {cohort.negatives} negatives"
        )
    positive, _ = _ranked(cohort)
    precisions = np.arange(1, m + 1) / (np.flatnonzero(positive) + 1)
    return float(np.cumsum(precisions)[-1] / m)  # added in rank order; see the module docstring


def roc_points(cohort: ScoredCohort) -> list[tuple[float, float]]:
    """ROC staircase from (0,0) to (1,1), one step per distinct score.

    The trapezoidal area over these points equals the Mann-Whitney AUC.
    """
    pos, neg = _split(cohort)
    m, n = len(pos), len(neg)
    if m < 1 or n < 1:
        raise UndefinedMetricError(f"ROC undefined: {m} positives, {n} negatives")
    positive, scores = _ranked(cohort)
    group_end = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))  # last index of each tie group
    tp = np.cumsum(positive)[group_end]
    fp = group_end + 1 - tp
    return [(0.0, 0.0), *zip((fp / n).tolist(), (tp / m).tolist())]


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Built from the one-sided upper tail so that
    ``normal_cdf(-x) == 1 - normal_cdf(x)`` holds exactly.
    """
    tail = 0.5 * math.erfc(abs(x) / math.sqrt(2.0))
    return tail if x < 0 else 1.0 - tail


def _placements(cohort: ScoredCohort) -> tuple[float, np.ndarray, np.ndarray]:
    """AUC and the DeLong placement vectors (V10 over positives, V01 over negatives)."""
    pos, neg = _split(cohort)
    m, n = len(pos), len(neg)
    tz = _midranks(np.concatenate([pos, neg]))
    tx = _midranks(pos)
    ty = _midranks(neg)
    v10 = (tz[:m] - tx) / n
    v01 = 1.0 - (tz[m:] - ty) / m
    auc = float((tz[:m].sum() - m * (m + 1) / 2.0) / (m * n))
    return auc, v10, v01


def _check_paired(cohort_a: ScoredCohort, cohort_b: ScoredCohort) -> None:
    if cohort_a.patient_ids is not None and cohort_b.patient_ids is not None \
            and cohort_a.patient_ids != cohort_b.patient_ids:
        only_a = sorted(set(cohort_a.patient_ids) - set(cohort_b.patient_ids))
        only_b = sorted(set(cohort_b.patient_ids) - set(cohort_a.patient_ids))
        if only_a or only_b:
            raise PairingError(
                f"cohorts cover different patients "
                f"(only in a: {only_a[:10]}, only in b: {only_b[:10]})"
            )
        raise PairingError("cohorts are not aligned by patient id order")
    if len(cohort_a) != len(cohort_b):
        raise PairingError(f"cohorts have different sizes: {len(cohort_a)} vs {len(cohort_b)}")
    if cohort_a.labels != cohort_b.labels:
        raise PairingError("cohorts have different ground-truth labels")


def delong_test(cohort_a: ScoredCohort, cohort_b: ScoredCohort) -> DeLongResult:
    """Paired DeLong test for the difference of two correlated AUCs.

    var = (S10_aa + S10_bb - 2*S10_ab)/m + (S01_aa + S01_bb - 2*S01_ab)/n,
    z = (AUC_a - AUC_b)/sqrt(var), p = 2*(1 - Phi(|z|)). A degenerate
    zero variance with equal AUCs yields z = 0, p = 1; with different
    AUCs (a perfect arm against an arm of tied scores, say) z is
    undefined and ``UndefinedMetricError`` names both AUCs.
    """
    _check_paired(cohort_a, cohort_b)
    m, n = cohort_a.positives, cohort_a.negatives
    if m < 2 or n < 2:
        raise InsufficientDataError(
            f"DeLong test needs >= 2 positives and >= 2 negatives, got {m} and {n}"
        )
    auc_a, v10_a, v01_a = _placements(cohort_a)
    auc_b, v10_b, v01_b = _placements(cohort_b)
    s10 = np.cov(np.vstack([v10_a, v10_b]))
    s01 = np.cov(np.vstack([v01_a, v01_b]))
    var = float((s10[0, 0] + s10[1, 1] - 2.0 * s10[0, 1]) / m
                + (s01[0, 0] + s01[1, 1] - 2.0 * s01[0, 1]) / n)
    var = max(var, 0.0)
    diff = auc_a - auc_b
    if var > 0.0:
        z = diff / math.sqrt(var)
        p = 2.0 * (1.0 - normal_cdf(abs(z)))
    elif diff == 0.0:
        z, p = 0.0, 1.0
    else:
        raise UndefinedMetricError(
            f"DeLong test undefined: AUCs {auc_a!r} and {auc_b!r} differ but their difference has variance 0"
        )
    return DeLongResult(
        auc_a=auc_a,
        auc_b=auc_b,
        variance_of_difference=var,
        z_statistic=z,
        p_value=p,
    )


def evaluate_cohort(cohort: ScoredCohort, threshold: float = 0.5) -> MetricBundle:
    """The full per-mode metric bundle."""
    return MetricBundle(
        auroc=auroc(cohort),
        pr_auc=pr_auc(cohort),
        confusion=confusion_metrics(cohort, threshold),
        threshold=threshold,
    )
