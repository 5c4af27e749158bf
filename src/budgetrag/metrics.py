"""Evaluation metrics and the paired AUC test, on the standard library.

AUROC uses the Mann-Whitney form with midranks, so a tied
positive/negative pair counts 1/2. PR AUC is average precision (mean of
precision at the ranks of the positives under descending-score order),
not the trapezoid over PR points. Cohorts are canonically ordered by
patient id. PR AUC and the ROC points come from one stable descending
ranking (``_ranked``), so ties keep patient-id order, mirroring the
index's deterministic tie rule; AUROC and the DeLong placements do not
depend on the order of ties.

Every count is an int, so nearly every result is one int/int true
division, which Python rounds correctly: precision, recall, the ROC
points and AUROC, whose numerator is the sum of the positives' doubled
placements (twice the Mann-Whitney U). Average precision is the one
float sum. Its terms are added one by one in rank order, in an explicit
loop: builtin ``sum`` compensates on Python >= 3.12 and a pairwise sum
adds in another order, and either would change the last bits of the
result.

The paired test follows the standard DeLong construction: placement
values V10/V01 per observation, their sample covariances (unbiased
1/(m-1), 1/(n-1)), and a normal test on the AUC difference. The
placements are kept doubled, as the ints K10 = 2n*V10 and
K01 = 2m*(1 - V01), so the variance of the AUC difference is a ratio of
integer sums. It is computed exactly and rounded once, so it is the
float nearest the true value and cannot come out negative.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import groupby
from typing import NamedTuple

from .errors import InsufficientDataError, PairingError, UndefinedMetricError


class _ScoredCohortFields(NamedTuple):
    labels: tuple[int, ...]
    scores: tuple[float, ...]
    patient_ids: tuple[str, ...] | None = None


class ScoredCohort(_ScoredCohortFields):
    """Parallel label/score lists, one entry per patient; its length is the patient count."""

    # Validated in __new__, like retrieval.RetrievalConfig: _replace and _make skip the check, so no code calls them.
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.labels) != len(self.scores):
            raise ValueError(f"{len(self.labels)} labels vs {len(self.scores)} scores")
        if self.patient_ids is not None and len(self.patient_ids) != len(self.labels):
            raise ValueError("patient_ids length does not match labels")
        if any(l not in (0, 1) for l in self.labels):
            raise ValueError("labels must be 0 or 1")
        if not all(map(math.isfinite, self.scores)):
            raise ValueError("scores must be finite")
        return self

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def positives(self) -> int:
        return sum(self.labels)

    @property
    def negatives(self) -> int:
        return len(self.labels) - self.positives


class ConfusionMetrics(NamedTuple):
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float


class MetricBundle(NamedTuple):
    auroc: float
    pr_auc: float
    confusion: ConfusionMetrics
    threshold: float


class DeLongResult(NamedTuple):
    auc_a: float
    auc_b: float
    variance_of_difference: float
    z_statistic: float
    p_value: float


def _placements(cohort: ScoredCohort) -> list[int]:
    """Doubled DeLong placements, one int per patient in cohort order.

    Each patient gets twice the patients of the other class scored below
    it plus those tied with it, counted by binary search over that
    class's sorted scores: K10 = 2n*V10 for a positive and
    K01 = 2m*(1 - V01) for a negative.
    """
    by_label = ([], [])
    for label, score in zip(cohort.labels, cohort.scores):
        by_label[label].append(score)
    for scores in by_label:
        scores.sort()
    other = by_label[::-1]  # indexed by label: the other class's sorted scores
    return [bisect_left(other[label], score) + bisect_right(other[label], score)
            for label, score in zip(cohort.labels, cohort.scores)]


def _auc(cohort: ScoredCohort, placements: list[int]) -> float:
    """The Mann-Whitney AUC: the positives' doubled placements over 2*m*n, one correctly rounded division."""
    doubled_wins = sum(k for k, label in zip(placements, cohort.labels) if label)
    return doubled_wins / (2 * cohort.positives * cohort.negatives)


def auroc(cohort: ScoredCohort) -> float:
    """Mann-Whitney AUC with midrank tie handling.

    Equals sum over positive/negative pairs of (1 if s+ > s-, 0.5 if
    equal, else 0) divided by m*n.
    """
    m, n = cohort.positives, cohort.negatives
    if m < 1 or n < 1:
        raise UndefinedMetricError(f"AUROC undefined: {m} positives, {n} negatives")
    return _auc(cohort, _placements(cohort))


def confusion_metrics(cohort: ScoredCohort, threshold: float = 0.5) -> ConfusionMetrics:
    """Threshold the scores (predict 1 iff score >= threshold)."""
    predicted = [label for label, score in zip(cohort.labels, cohort.scores) if score >= threshold]
    tp = sum(predicted)
    fp = len(predicted) - tp
    fn = cohort.positives - tp
    tn = len(cohort) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = f1_score(precision, recall)
    return ConfusionMetrics(tp=tp, fp=fp, tn=tn, fn=fn, precision=precision, recall=recall, f1=f1)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ranked(cohort: ScoredCohort) -> list[int]:
    """Patient indices in descending-score order; ties keep cohort (patient id) order."""
    return sorted(range(len(cohort)), key=cohort.scores.__getitem__, reverse=True)


def pr_auc(cohort: ScoredCohort) -> float:
    """Average precision over the deterministic descending-score ranking."""
    m = cohort.positives
    if m < 1 or cohort.negatives < 1:
        raise UndefinedMetricError(
            f"PR AUC undefined: {m} positives, {cohort.negatives} negatives"
        )
    labels = cohort.labels
    hits, total = 0, 0.0
    for rank, i in enumerate(_ranked(cohort), start=1):
        if labels[i]:
            hits += 1
            total += hits / rank  # added in rank order; see the module docstring
    return total / m


def roc_points(cohort: ScoredCohort) -> list[tuple[float, float]]:
    """ROC staircase from (0,0) to (1,1), one step per distinct score.

    The trapezoidal area over these points equals the Mann-Whitney AUC.
    """
    m, n = cohort.positives, cohort.negatives
    if m < 1 or n < 1:
        raise UndefinedMetricError(f"ROC undefined: {m} positives, {n} negatives")
    labels, points = cohort.labels, [(0.0, 0.0)]
    tp = fp = 0
    for _, group in groupby(_ranked(cohort), key=cohort.scores.__getitem__):
        for i in group:
            if labels[i]:
                tp += 1
            else:
                fp += 1
        points.append((fp / n, tp / m))
    return points


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Built from the one-sided upper tail so that
    ``normal_cdf(-x) == 1 - normal_cdf(x)`` holds exactly. For x < 0 it
    returns that tail, ``erfc(|x|/sqrt(2))/2``, itself: no ``1 - ...``
    cancels, so it keeps its relative precision far into the tail.
    """
    tail = 0.5 * math.erfc(abs(x) / math.sqrt(2.0))
    return tail if x < 0 else 1.0 - tail


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


def _sample_variance(values: list[int]) -> Fraction:
    """Unbiased sample variance of ints, exactly: (k*sum(v^2) - sum(v)^2) / (k*(k-1))."""
    from fractions import Fraction  # it loads decimal too, which no other command needs

    k = len(values)
    return Fraction(k * sum(v * v for v in values) - sum(values) ** 2, k * (k - 1))


def delong_test(cohort_a: ScoredCohort, cohort_b: ScoredCohort) -> DeLongResult:
    """Paired DeLong test for the difference of two correlated AUCs.

    var = (S10_aa + S10_bb - 2*S10_ab)/m + (S01_aa + S01_bb - 2*S01_ab)/n,
    z = (AUC_a - AUC_b)/sqrt(var), p = 2*Phi(-|z|). A degenerate
    zero variance with equal AUCs yields z = 0, p = 1; with different
    AUCs (a perfect arm against an arm of tied scores, say) z is
    undefined and ``UndefinedMetricError`` names both AUCs.

    Each bracket is the sample variance of the paired placement
    differences, so in doubled placements
    var = Var(K10a - K10b)/(4n^2 m) + Var(K01a - K01b)/(4m^2 n), summed
    exactly and rounded once.
    """
    _check_paired(cohort_a, cohort_b)
    m, n = cohort_a.positives, cohort_a.negatives
    if m < 2 or n < 2:
        raise InsufficientDataError(
            f"DeLong test needs >= 2 positives and >= 2 negatives, got {m} and {n}"
        )
    k_a, k_b = _placements(cohort_a), _placements(cohort_b)
    auc_a, auc_b = _auc(cohort_a, k_a), _auc(cohort_b, k_b)
    differences = ([], [])  # per label: K01 differences over negatives, K10 differences over positives
    for label, ka, kb in zip(cohort_a.labels, k_a, k_b):
        differences[label].append(ka - kb)
    var = float(_sample_variance(differences[1]) / (4 * n * n * m)
                + _sample_variance(differences[0]) / (4 * m * m * n))
    diff = auc_a - auc_b
    if var > 0.0:
        z = diff / math.sqrt(var)
        p = 2.0 * normal_cdf(-abs(z))  # the tail itself: 1 - normal_cdf(|z|) is 0.0 from |z| ~ 8.3 on
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
