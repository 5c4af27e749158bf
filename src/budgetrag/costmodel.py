"""Token accounting, dollar costs, and cohort-size projections.

Counts are whitespace words standing in for provider tokens; every
output labels the unit "tokens (word-approximated)" so the
approximation is visible. The project command takes the per-patient
tokens of each arm from :func:`summarize_usage` over the two arms'
outcomes, and its seconds from their mean latency. :func:`project` turns
a per-patient figure of each arm into the rows of the cost or the time
table, exactly linear and through the origin.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .classifier import ClassificationOutcome
from .errors import PatientSetMismatchError

UNIT_LABEL = "tokens (word-approximated)"
COST_HEADER = "patients,cost_rag_usd,cost_long_usd"  # the columns of project's rows of dollars per patient
TIME_HEADER = "patients,seconds_rag,seconds_long"  # the columns of project_time's rows


class _PriceSheetFields(NamedTuple):
    usd_per_million_tokens: float = 2.50
    seconds_per_patient_rag: float = 0.90
    seconds_per_patient_long: float = 1.11


class PriceSheet(_PriceSheetFields):
    # Validated in __new__, like retrieval.RetrievalConfig: _replace and _make skip the check, so no code calls them.
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        return self


class UsageSummary(NamedTuple):
    patients: int
    total_words_long: int
    total_words_rag: int
    cost_long_usd: float
    cost_rag_usd: float
    savings_fraction: float


def cost_usd(total_words: int | float, prices: PriceSheet) -> float:
    return total_words / 1e6 * prices.usd_per_million_tokens


def summarize_usage(outcomes_long: list[ClassificationOutcome], outcomes_rag: list[ClassificationOutcome],
                    prices: PriceSheet) -> UsageSummary:
    """Aggregate prompt word counts per mode into dollar totals.

    Both outcome lists must cover the same patient set; the summary is
    invariant to patient order.
    """
    ids_long = {o.patient_id for o in outcomes_long}
    ids_rag = {o.patient_id for o in outcomes_rag}
    if ids_long != ids_rag:
        only_long = sorted(ids_long - ids_rag)
        only_rag = sorted(ids_rag - ids_long)
        raise PatientSetMismatchError(
            f"outcome sets differ: {len(only_long)} only in long, {len(only_rag)} only in rag "
            f"(only long: {only_long[:5]}, only rag: {only_rag[:5]})"
        )
    total_long = sum(o.prompt_words for o in outcomes_long)
    total_rag = sum(o.prompt_words for o in outcomes_rag)
    cost_long = cost_usd(total_long, prices)
    cost_rag = cost_usd(total_rag, prices)
    savings = 1.0 - cost_rag / cost_long if cost_long > 0 else 0.0
    return UsageSummary(patients=len(ids_long), total_words_long=total_long, total_words_rag=total_rag,
                        cost_long_usd=cost_long, cost_rag_usd=cost_rag, savings_fraction=savings)


def project(per_patient_rag: float, per_patient_long: float,
            patient_counts: list[int]) -> list[tuple[int, float, float]]:
    """Linear projection of a per-patient figure of each arm: (count, count * rag, count * long) per count."""
    return [(count, count * per_patient_rag, count * per_patient_long) for count in patient_counts]


class TimeProjection(NamedTuple):
    rows: list[tuple[int, float, float]]  # (count, seconds_rag, seconds_long)
    improvement_fraction: float  # 1 - rag/long


def project_time(prices: PriceSheet, patient_counts: list[int]) -> TimeProjection:
    """Linear runtime projection per mode from the per-patient rates."""
    rag, long = prices.seconds_per_patient_rag, prices.seconds_per_patient_long
    return TimeProjection(project(rag, long, patient_counts), 1.0 - rag / long if long > 0 else 0.0)
