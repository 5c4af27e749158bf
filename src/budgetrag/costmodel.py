"""Token and latency accounting, dollar costs, and cohort-size projections.

Counts are whitespace words standing in for provider tokens; every
output labels the unit "tokens (word-approximated)" so the
approximation is visible. :func:`summarize_usage` totals each arm's
prompt words and latency over the patients both arms cover; the project
command divides those totals by the patient count. :func:`reduction`
gives the token saving and the latency improvement, so neither depends
on the price, and :func:`project` turns a per-patient figure of each arm
into the rows of the cost or the time table, exactly linear and through
the origin.
"""

from __future__ import annotations

from typing import NamedTuple

from .classifier import ClassificationOutcome
from .errors import PairingError

UNIT_LABEL = "tokens (word-approximated)"
USD_PER_MILLION_TOKENS = 2.50  # the price project uses without --price-per-million
COST_HEADER = "patients,cost_rag_usd,cost_long_usd"  # the columns of the cost table's rows
TIME_HEADER = "patients,seconds_rag,seconds_long"  # the columns of the time table's rows


class UsageSummary(NamedTuple):
    patients: int
    total_words_long: int
    total_words_rag: int
    total_latency_ms_long: int
    total_latency_ms_rag: int


def cost_usd(total_words: int | float, usd_per_million: float) -> float:
    return total_words / 1e6 * usd_per_million


def reduction(rag: float, long: float) -> float:
    """The share of ``long`` that RAG saves, ``1 - rag/long``; 0.0 when ``long`` is 0."""
    return 1.0 - rag / long if long > 0 else 0.0


def summarize_usage(outcomes_long: list[ClassificationOutcome],
                    outcomes_rag: list[ClassificationOutcome]) -> UsageSummary:
    """Total prompt words and latency per arm; the arms must cover the same patients, in any order."""
    ids_long = {o.patient_id for o in outcomes_long}
    ids_rag = {o.patient_id for o in outcomes_rag}
    if ids_long != ids_rag:
        only_long = sorted(ids_long - ids_rag)
        only_rag = sorted(ids_rag - ids_long)
        raise PairingError(
            f"outcome sets differ: {len(only_long)} only in long, {len(only_rag)} only in rag "
            f"(only long: {only_long[:5]}, only rag: {only_rag[:5]})"
        )
    return UsageSummary(len(ids_long),
                        sum(o.prompt_words for o in outcomes_long), sum(o.prompt_words for o in outcomes_rag),
                        sum(o.latency_ms for o in outcomes_long), sum(o.latency_ms for o in outcomes_rag))


def project(per_patient_rag: float, per_patient_long: float,
            patient_counts: list[int]) -> list[tuple[int, float, float]]:
    """Linear projection of a per-patient figure of each arm: (count, count * rag, count * long) per count."""
    return [(count, count * per_patient_rag, count * per_patient_long) for count in patient_counts]
