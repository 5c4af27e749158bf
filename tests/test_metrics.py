"""Metric suite: AUROC, confusion metrics, PR AUC, ROC points, DeLong, normal CDF."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrag.errors import InsufficientDataError, PairingError, UndefinedMetricError
from budgetrag.metrics import (
    ScoredCohort,
    auroc,
    confusion_metrics,
    delong_test,
    evaluate_cohort,
    f1_score,
    normal_cdf,
    pr_auc,
    roc_points,
)

from .oracles import (auc_pair_enumeration, average_precision_bruteforce, delong_reference, delong_variance_exact,
                      roc_points_bruteforce, trapezoid_area)


def cohort(labels, scores, ids=None):
    return ScoredCohort(labels=tuple(labels), scores=tuple(scores),
                        patient_ids=tuple(ids) if ids else None)


def random_cohort(rng, size, tie_prone=False):
    while True:
        labels = (rng.random(size) < 0.5).astype(int)
        if 0 < labels.sum() < size:
            break
    if tie_prone:
        scores = rng.integers(0, 6, size=size) / 5.0
    else:
        scores = rng.random(size)
    return cohort(labels.tolist(), scores.tolist())


class TestScoredCohort:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_is_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cohort([1, 0, 1], [0.2, bad, 0.4])


class TestBitExact:
    """The metrics equal their oracles with ``==``: summation order is part of the result."""

    def test_metrics_equal_oracles_exactly(self):
        rng = np.random.default_rng(31)
        cohorts = []
        for tie_prone in (False, True):
            sizes = [2, 3, 500, *rng.integers(2, 501, size=12)]
            cohorts += [random_cohort(rng, int(size), tie_prone) for size in sizes]
        cohorts.append(random_cohort(rng, 2000))
        for c in cohorts:
            labels, scores = c.labels, c.scores
            assert auroc(c) == auc_pair_enumeration(labels, scores)
            assert pr_auc(c) == average_precision_bruteforce(labels, scores)
            assert roc_points(c) == roc_points_bruteforce(labels, scores)
            for threshold in (0.0, 0.3, 0.5, 1.0):
                got = confusion_metrics(c, threshold)
                pairs = list(zip(labels, (s >= threshold for s in scores)))
                assert (got.tp, got.fp, got.tn, got.fn) == tuple(
                    pairs.count(p) for p in ((1, True), (0, True), (0, False), (1, False)))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(cohort([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.2])) == 1.0

    def test_all_ties(self):
        assert auroc(cohort([1, 0], [0.5, 0.5])) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc(cohort([1, 1], [0.2, 0.3]))

    def test_matches_pair_enumeration_on_random_cohorts(self):
        rng = np.random.default_rng(11)
        for tie_prone in (False, True):
            for _ in range(25):
                c = random_cohort(rng, 50, tie_prone)
                assert auroc(c) == pytest.approx(
                    auc_pair_enumeration(c.labels, c.scores), abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        c = random_cohort(rng, 30, tie_prone=True)
        transformed = cohort(c.labels, [3.0 * s + 1.0 for s in c.scores])
        cubed = cohort(c.labels, [s ** 3 for s in c.scores])
        assert auroc(transformed) == pytest.approx(auroc(c), abs=1e-12)
        assert auroc(cubed) == pytest.approx(auroc(c), abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_complement_law(self, seed):
        rng = np.random.default_rng(seed)
        c = random_cohort(rng, 24, tie_prone=True)
        flipped = cohort([1 - l for l in c.labels], [-s for s in c.scores])
        assert auroc(flipped) == pytest.approx(auroc(c), abs=1e-12)


class TestConfusionMetrics:
    def test_f1_from_published_rag_operating_point(self):
        # precision 0.53 / recall 0.71 recombine to ~0.607 (reads 0.61)
        assert f1_score(0.53, 0.71) == pytest.approx(0.607, abs=5e-4)
        assert round(f1_score(0.53, 0.71), 2) == 0.61

    def test_f1_from_published_high_recall_operating_point(self):
        # precision 0.44 / recall 0.96 recombine to ~0.603 (reads 0.60)
        assert f1_score(0.44, 0.96) == pytest.approx(0.603, abs=5e-4)
        assert round(f1_score(0.44, 0.96), 2) == 0.60

    def test_zero_predicted_positives(self):
        result = confusion_metrics(cohort([1, 0], [0.1, 0.2]), threshold=0.5)
        assert result.tp == 0 and result.fp == 0
        assert result.precision == 0.0 and result.f1 == 0.0

    def test_threshold_is_inclusive(self):
        result = confusion_metrics(cohort([1, 0], [0.5, 0.49]), threshold=0.5)
        assert result.tp == 1 and result.fp == 0 and result.tn == 1

    def test_counts(self):
        result = confusion_metrics(cohort([1, 1, 0, 0], [0.9, 0.2, 0.8, 0.1]))
        assert (result.tp, result.fn, result.fp, result.tn) == (1, 1, 1, 1)
        assert result.precision == 0.5 and result.recall == 0.5 and result.f1 == 0.5

    def test_f1_identity_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = random_cohort(rng, 30)
            r = confusion_metrics(c)
            if r.precision + r.recall > 0:
                expected = 2 * r.precision * r.recall / (r.precision + r.recall)
            else:
                expected = 0.0
            assert r.f1 == pytest.approx(expected, abs=1e-12)


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc(cohort([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.2])) == 1.0

    def test_all_ties_alternating_ids_equal_prevalence(self):
        # all scores equal and m == n: under the stable patient-id tie
        # order (n, p, n, p, ...) every positive sits at an even rank k
        # with precision (k/2)/k, so AP equals the 0.5 prevalence
        labels, ids = [], []
        for i in range(10):
            labels += [0, 1]
            ids += [f"p{2 * i:03d}", f"p{2 * i + 1:03d}"]
        c = cohort(labels, [0.7] * 20, ids)
        assert pr_auc(c) == pytest.approx(0.5, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pr_auc(cohort([0, 0], [0.2, 0.3]))

    def test_matches_bruteforce_average_precision(self):
        rng = np.random.default_rng(23)
        for tie_prone in (False, True):
            for _ in range(25):
                c = random_cohort(rng, 50, tie_prone)
                assert pr_auc(c) == pytest.approx(
                    average_precision_bruteforce(c.labels, c.scores), abs=1e-12)


class TestRocPoints:
    def test_perfect_separation_passes_through_corner(self):
        points = roc_points(cohort([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.2]))
        assert points[0] == (0.0, 0.0)
        assert (0.0, 1.0) in points
        assert points[-1] == (1.0, 1.0)

    def test_all_ties_is_diagonal(self):
        assert roc_points(cohort([1, 0], [0.5, 0.5])) == [(0.0, 0.0), (1.0, 1.0)]

    def test_monotone_staircase(self):
        rng = np.random.default_rng(3)
        c = random_cohort(rng, 60, tie_prone=True)
        points = roc_points(c)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_trapezoid_area_equals_auroc(self):
        rng = np.random.default_rng(17)
        for tie_prone in (False, True):
            for _ in range(25):
                c = random_cohort(rng, 80, tie_prone)
                assert trapezoid_area(roc_points(c)) == pytest.approx(auroc(c), abs=1e-9)

    def test_roc_csv_round_trip(self, tmp_path):
        from budgetrag.report import ROC_HEADER, read_roc_csv, write_csv

        # ties within and across classes; thirds and sevenths have no short decimal form
        c = cohort([1, 0, 1, 0, 0, 1, 0, 0, 0, 0], [0.9, 0.9, 0.7, 0.7, 0.7, 0.4, 0.4, 0.2, 0.1, 0.1])
        points = roc_points(c)
        assert len(points) == 6
        write_csv(tmp_path / "roc.csv", ROC_HEADER, points)
        assert read_roc_csv(tmp_path / "roc.csv") == points


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_value_at_1_96(self):
        # frozen from mpmath.ncdf(1.96) at 50 digits
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-6)

    def test_matches_high_precision_oracle_on_grid(self):
        mpmath.mp.dps = 50
        for x in np.linspace(-8, 8, 161):
            expected = float(mpmath.ncdf(mpmath.mpf(float(x))))
            assert normal_cdf(float(x)) == pytest.approx(expected, abs=1e-7)

    @given(x=st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_exact_symmetry(self, x):
        assert normal_cdf(-x) + normal_cdf(x) == 1.0


class TestDeLong:
    def _paired(self, rng, size=40, noise=0.6):
        while True:
            latent = rng.standard_normal(size)
            labels = (latent > 0).astype(int)
            if 2 <= labels.sum() <= size - 2:
                break
        ids = tuple(f"p{i:03d}" for i in range(size))
        score_a = latent + noise * rng.standard_normal(size)
        score_b = latent + noise * rng.standard_normal(size)
        return (
            cohort(labels.tolist(), score_a.tolist(), ids),
            cohort(labels.tolist(), score_b.tolist(), ids),
        )

    def test_self_comparison_is_exactly_one(self):
        rng = np.random.default_rng(1)
        a, _ = self._paired(rng)
        result = delong_test(a, a)
        assert result.p_value == 1.0
        assert result.z_statistic == 0.0
        assert result.variance_of_difference == 0.0
        assert result.auc_a == result.auc_b

    def test_zero_variance_with_different_aucs_is_undefined(self):
        labels = [1, 1, 0, 0]
        perfect, tied = cohort(labels, [0.9, 0.8, 0.2, 0.1]), cohort(labels, [0.5] * 4)
        with pytest.raises(UndefinedMetricError, match=r"AUCs 1\.0 and 0\.5 differ"):
            delong_test(perfect, tied)
        assert delong_test(tied, tied).p_value == 1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        a, b = self._paired(rng)
        fwd = delong_test(a, b)
        rev = delong_test(b, a)
        assert rev.z_statistic == pytest.approx(-fwd.z_statistic, abs=1e-12)
        assert rev.p_value == pytest.approx(fwd.p_value, abs=1e-12)
        assert rev.variance_of_difference == fwd.variance_of_difference

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            a, b = self._paired(rng, size=int(rng.integers(20, 80)))
            result = delong_test(a, b)
            auc_a, auc_b, var, z, p = delong_reference(a.labels, a.scores, b.scores)
            assert result.auc_a == pytest.approx(auc_a, abs=1e-12)
            assert result.auc_b == pytest.approx(auc_b, abs=1e-12)
            assert result.variance_of_difference == pytest.approx(var, abs=1e-12)
            assert result.p_value == pytest.approx(p, abs=1e-10)

    def test_variance_is_the_exact_value_rounded_once(self):
        rng = np.random.default_rng(9)
        for size in (4, 5, 9, 40, 200, 1000, 3200):
            for tie_prone in (False, True):
                a, b = self._paired(rng, size=size)
                if tie_prone:  # scores on a 0.1 grid: ties within and across classes
                    a, b = (cohort(c.labels, [round(math.tanh(s), 1) for s in c.scores], c.patient_ids)
                            for c in (a, b))
                exact = delong_variance_exact(a.labels, a.scores, b.scores)
                assert delong_test(a, b).variance_of_difference == float(exact)

    @pytest.mark.parametrize("z", [5.0, 8.0, 9.0, 12.0])
    def test_p_value_tail_matches_high_precision_oracle(self, z):
        # 2 * (1 - normal_cdf(z)) cancels: 1.33e-15 at z = 8, and 0.0 from z ~ 8.3 on
        mpmath.mp.dps = 50
        expected = float(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)))
        assert 2.0 * normal_cdf(-z) == pytest.approx(expected, rel=1e-13)

    def test_far_tail_p_value_is_not_zero(self):
        # 500 patients, one arm nearly perfect and the other noisy: |z| lies past 8.3
        rng = np.random.default_rng(12)
        a, b = self._paired(rng, size=500, noise=0.05)
        b = cohort(b.labels, (np.array(b.scores) + rng.standard_normal(500)).tolist(), b.patient_ids)
        result = delong_test(a, b)
        assert abs(result.z_statistic) > 8.5
        mpmath.mp.dps = 50
        expected = float(mpmath.erfc(abs(mpmath.mpf(result.z_statistic)) / mpmath.sqrt(2)))
        assert result.p_value > 0.0
        assert result.p_value == pytest.approx(expected, rel=1e-12)

    def test_variance_nonnegative_and_p_in_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = self._paired(rng, size=30)
            result = delong_test(a, b)
            assert result.variance_of_difference >= 0.0
            assert 0.0 <= result.p_value <= 1.0

    def test_unpaired_length_mismatch(self):
        a = cohort([1, 0, 1], [0.1, 0.2, 0.3])
        b = cohort([1, 0], [0.1, 0.2])
        with pytest.raises(PairingError):
            delong_test(a, b)

    def test_unpaired_label_mismatch(self):
        a = cohort([1, 0, 1, 0], [0.1, 0.2, 0.3, 0.4])
        b = cohort([1, 1, 0, 0], [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(PairingError):
            delong_test(a, b)

    def test_unpaired_ids_named(self):
        a = cohort([1, 0], [0.1, 0.2], ids=["p1", "p2"])
        b = cohort([1, 0], [0.1, 0.2], ids=["p1", "p9"])
        with pytest.raises(PairingError, match="p9"):
            delong_test(a, b)

    def test_insufficient_data(self):
        a = cohort([1, 0, 0, 0], [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InsufficientDataError):
            delong_test(a, a)

    def test_transform_invariance(self):
        rng = np.random.default_rng(8)
        a, b = self._paired(rng)
        result = delong_test(a, b)
        a2 = cohort(a.labels, [math.tanh(s) for s in a.scores], a.patient_ids)
        b2 = cohort(b.labels, [math.tanh(s) for s in b.scores], b.patient_ids)
        result2 = delong_test(a2, b2)
        assert result2.p_value == pytest.approx(result.p_value, abs=1e-12)
        assert result2.auc_a == pytest.approx(result.auc_a, abs=1e-12)


class TestEvaluateCohort:
    def test_bundle_fields_consistent(self):
        c = cohort([1, 1, 0, 0, 1, 0], [0.9, 0.6, 0.55, 0.2, 0.4, 0.1])
        bundle = evaluate_cohort(c)
        assert bundle.auroc == auroc(c)
        assert bundle.pr_auc == pr_auc(c)
        assert bundle.confusion == confusion_metrics(c, 0.5)
        assert bundle.threshold == 0.5
