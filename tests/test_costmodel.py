"""Cost accounting and linear projections."""

from __future__ import annotations

import pytest

from budgetrag.classifier import ClassificationOutcome
from budgetrag.cli import main
from budgetrag.costmodel import COST_HEADER, TIME_HEADER, cost_usd, project, reduction, summarize_usage
from budgetrag.errors import PairingError
from budgetrag.report import write_csv


def outcome(pid, words, mode="RAG", latency_ms=0):
    return ClassificationOutcome(patient_id=pid, mode=mode, label=0, severity=1,
                                 score=0.4, raw_response="{}", prompt_words=words, latency_ms=latency_ms)


PRICE = 2.50  # USD per million tokens


class TestSummarizeUsage:
    def test_reference_totals_are_exact(self):
        long = [outcome("p1", 100_000_000, "LONG"), outcome("p2", 72_000_000, "LONG")]
        rag = [outcome("p1", 7_000_000), outcome("p2", 6_200_000)]
        summary = summarize_usage(long, rag)
        assert summary.total_words_long == 172_000_000
        assert summary.total_words_rag == 13_200_000
        assert cost_usd(summary.total_words_long, PRICE) == 430.0
        assert cost_usd(summary.total_words_rag, PRICE) == 33.0
        savings = reduction(summary.total_words_rag, summary.total_words_long)
        assert savings == pytest.approx(0.923, abs=0.002)
        assert savings > 0.90
        assert summary.patients == 2

    def test_patient_set_mismatch_lists_difference(self):
        with pytest.raises(PairingError, match=r"only long: \['p1'\], only rag: \['p2'\]"):
            summarize_usage([outcome("p1", 10, "LONG")], [outcome("p2", 5)])

    def test_permutation_invariance(self):
        long = [outcome(f"p{i}", 100 * i, "LONG", 7 * i) for i in range(1, 6)]
        rag = [outcome(f"p{i}", 10 * i, latency_ms=3 * i) for i in range(1, 6)]
        forward = summarize_usage(long, rag)
        backward = summarize_usage(list(reversed(long)), list(reversed(rag)))
        assert forward == backward

    def test_zero_cost_long(self):
        summary = summarize_usage([outcome("p1", 0, "LONG")], [outcome("p1", 0)])
        assert reduction(summary.total_words_rag, summary.total_words_long) == 0.0


class TestProjectCost:
    """The cost table: ``project`` of each arm's dollars per patient."""

    def test_zero_patients_is_free(self):
        assert project(cost_usd(7_000.0, PRICE), cost_usd(75_010.0, PRICE), [0]) == [(0, 0.0, 0.0)]

    def test_reference_extrapolation(self):
        # LONG per-patient rate 172e6 / 2293 ~= 75,010 words; at 100k patients
        # this projects to ~$18,753
        rate = 172e6 / 2293
        (count, _, long_usd), = project(0.0, cost_usd(rate, PRICE), [100_000])
        assert count == 100_000
        assert long_usd == pytest.approx(18752.73, abs=0.01)
        assert round(long_usd) == 18753

    def test_doubling_count_doubles_cost(self):
        (_, rag_1k, long_1k), (_, rag_2k, long_2k) = project(cost_usd(50.0, PRICE), cost_usd(500.0, PRICE),
                                                             [1000, 2000])
        assert (rag_2k, long_2k) == (2 * rag_1k, 2 * long_1k)


class TestProjectTime:
    """The time table: ``project`` of each arm's seconds per patient, and the improvement between them."""

    def test_reference_improvement_rates(self):
        assert reduction(0.90, 1.11) == pytest.approx(0.189, abs=0.005)
        assert reduction(0.45, 0.58) == pytest.approx(0.224, abs=0.005)

    def test_linear_rows(self):
        (count, rag_s, long_s), = project(0.45, 0.58, [1000])
        assert (count, rag_s) == (1000, pytest.approx(450.0))
        assert long_s == pytest.approx(580.0)

    def test_passes_through_origin(self):
        assert project(0.90, 1.11, [0]) == [(0, 0.0, 0.0)]


class TestCsvAndConfig:
    """The two tables' CSV bytes, and the price, which enters only through project's --price-per-million."""

    def test_cost_csv_format(self, tmp_path):
        path = tmp_path / "cost.csv"
        write_csv(path, COST_HEADER, project(0.0005, 0.0025, [0, 1000]))
        assert path.read_text(encoding="utf-8") == "patients,cost_rag_usd,cost_long_usd\n0,0.0,0.0\n1000,0.5,2.5\n"

    def test_time_csv_format(self, tmp_path):
        path = tmp_path / "time.csv"
        write_csv(path, TIME_HEADER, [(10, 9.0, 11.1)])
        assert path.read_text(encoding="utf-8").splitlines() == [
            "patients,seconds_rag,seconds_long", "10,9.0,11.1"]

    @staticmethod
    def _project_with_price(tmp_path, capsys, price: str) -> str:
        """The usage error message of a project run with ``--price-per-million price``, which writes nothing."""
        assert main(["project", "--outcomes-rag", str(tmp_path / "rag.jsonl"), "--outcomes-long",
                     str(tmp_path / "long.jsonl"), "--out", str(tmp_path / "p"), "--price-per-million", price]) == 1
        assert not any(tmp_path.iterdir())
        return capsys.readouterr().err

    def test_negative_price_rejected(self, tmp_path, capsys):
        assert "must be >= 0.0, got -1.0" in self._project_with_price(tmp_path, capsys, "-1")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_price_rejected(self, tmp_path, capsys, value):
        assert "must be finite" in self._project_with_price(tmp_path, capsys, str(value))

    @pytest.mark.parametrize("value", ["True", "False", "2,5", "None"])
    def test_price_that_is_not_a_number_rejected(self, tmp_path, capsys, value):
        assert "--price-per-million: invalid float value" in self._project_with_price(tmp_path, capsys, value)
