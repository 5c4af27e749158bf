"""Cost accounting and linear projections."""

from __future__ import annotations

import pytest

from budgetrag.classifier import ClassificationOutcome
from budgetrag.costmodel import COST_HEADER, TIME_HEADER, PriceSheet, cost_usd, project, project_time, summarize_usage
from budgetrag.errors import PatientSetMismatchError
from budgetrag.report import write_csv


def outcome(pid, words, mode="RAG"):
    return ClassificationOutcome(patient_id=pid, mode=mode, label=0, severity=1,
                                 score=0.4, raw_response="{}", prompt_words=words, latency_ms=0)


PRICES = PriceSheet(usd_per_million_tokens=2.50,
                    seconds_per_patient_rag=0.90,
                    seconds_per_patient_long=1.11)


class TestSummarizeUsage:
    def test_reference_totals_are_exact(self):
        long = [outcome("p1", 100_000_000, "LONG"), outcome("p2", 72_000_000, "LONG")]
        rag = [outcome("p1", 7_000_000), outcome("p2", 6_200_000)]
        summary = summarize_usage(long, rag, PRICES)
        assert summary.total_words_long == 172_000_000
        assert summary.total_words_rag == 13_200_000
        assert summary.cost_long_usd == 430.0
        assert summary.cost_rag_usd == 33.0
        assert summary.savings_fraction == pytest.approx(0.923, abs=0.002)
        assert summary.savings_fraction > 0.90
        assert summary.patients == 2

    def test_patient_set_mismatch_lists_difference(self):
        with pytest.raises(PatientSetMismatchError, match=r"only long: \['p1'\], only rag: \['p2'\]"):
            summarize_usage([outcome("p1", 10, "LONG")], [outcome("p2", 5)], PRICES)

    def test_permutation_invariance(self):
        long = [outcome(f"p{i}", 100 * i, "LONG") for i in range(1, 6)]
        rag = [outcome(f"p{i}", 10 * i) for i in range(1, 6)]
        forward = summarize_usage(long, rag, PRICES)
        backward = summarize_usage(list(reversed(long)), list(reversed(rag)), PRICES)
        assert forward == backward

    def test_zero_cost_long(self):
        summary = summarize_usage([outcome("p1", 0, "LONG")], [outcome("p1", 0)], PRICES)
        assert summary.savings_fraction == 0.0


class TestProjectCost:
    """The cost table: ``project`` of each arm's dollars per patient."""

    def test_zero_patients_is_free(self):
        assert project(cost_usd(7_000.0, PRICES), cost_usd(75_010.0, PRICES), [0]) == [(0, 0.0, 0.0)]

    def test_reference_extrapolation(self):
        # LONG per-patient rate 172e6 / 2293 ~= 75,010 words; at 100k patients
        # this projects to ~$18,753
        rate = 172e6 / 2293
        (count, _, long_usd), = project(0.0, cost_usd(rate, PRICES), [100_000])
        assert count == 100_000
        assert long_usd == pytest.approx(18752.73, abs=0.01)
        assert round(long_usd) == 18753

    def test_doubling_count_doubles_cost(self):
        (_, rag_1k, long_1k), (_, rag_2k, long_2k) = project(cost_usd(50.0, PRICES), cost_usd(500.0, PRICES),
                                                             [1000, 2000])
        assert (rag_2k, long_2k) == (2 * rag_1k, 2 * long_1k)

    def test_the_time_table_is_the_same_projection(self):
        prices = PriceSheet(2.5, 0.45, 0.58)
        assert project_time(prices, [0, 7, 1000]).rows == project(0.45, 0.58, [0, 7, 1000])


class TestProjectTime:
    def test_reference_improvement_rates(self):
        mistral = project_time(PriceSheet(2.5, 0.90, 1.11), [100])
        assert mistral.improvement_fraction == pytest.approx(0.189, abs=0.005)
        llama = project_time(PriceSheet(2.5, 0.45, 0.58), [100])
        assert llama.improvement_fraction == pytest.approx(0.224, abs=0.005)

    def test_linear_rows(self):
        projection = project_time(PriceSheet(2.5, 0.45, 0.58), [1000])
        count, rag_s, long_s = projection.rows[0]
        assert (count, rag_s) == (1000, pytest.approx(450.0))
        assert long_s == pytest.approx(580.0)

    def test_passes_through_origin(self):
        projection = project_time(PRICES, [0])
        assert projection.rows[0] == (0, 0.0, 0.0)


class TestCsvAndConfig:
    def test_cost_csv_format(self, tmp_path):
        path = tmp_path / "cost.csv"
        write_csv(path, COST_HEADER, project(0.0005, 0.0025, [0, 1000]))
        assert path.read_text(encoding="utf-8") == "patients,cost_rag_usd,cost_long_usd\n0,0.0,0.0\n1000,0.5,2.5\n"

    def test_time_csv_format(self, tmp_path):
        path = tmp_path / "time.csv"
        write_csv(path, TIME_HEADER, [(10, 9.0, 11.1)])
        assert path.read_text(encoding="utf-8").splitlines() == [
            "patients,seconds_rag,seconds_long", "10,9.0,11.1"]

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            PriceSheet(usd_per_million_tokens=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_price_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            PriceSheet(seconds_per_patient_long=value)

    @pytest.mark.parametrize("value", [True, False, "2.5", None])
    def test_price_that_is_not_a_number_rejected(self, value):
        with pytest.raises(TypeError, match="usd_per_million_tokens must be a number"):
            PriceSheet(usd_per_million_tokens=value)
