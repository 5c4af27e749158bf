"""Record semantics: immutable named tuples, and validation at construction.

Every record of the package is a ``typing.NamedTuple``. The three that
validate their fields (``RetrievalConfig``, ``ClassifierConfig``,
``ScoredCohort``) raise the same error type and message however they
are built, positionally or by keyword. No record takes a
new value for a field or a new attribute, and a ``ScoredCohort``'s
length is its patient count.
"""

from __future__ import annotations

import math
import re
from datetime import datetime, timezone

import pytest

from budgetrag.classifier import (BatchResult, ClassificationOutcome, ClassifierConfig, FailedClassification,
                                  ParsedResponse)
from budgetrag.corpus import Chunk, ClinicalNote, PatientRecord
from budgetrag.costmodel import UsageSummary
from budgetrag.metrics import ConfusionMetrics, DeLongResult, MetricBundle, ScoredCohort
from budgetrag.retrieval import AssembledContext, RetrievalConfig
from budgetrag.synthetic import SyntheticCorpus
from budgetrag.vindex import SearchHit

_CONFUSION = ConfusionMetrics(tp=1, fp=0, tn=1, fn=0, precision=1.0, recall=1.0, f1=1.0)
RECORDS = [
    ClinicalNote("OR PostOp", datetime(2024, 3, 10, tzinfo=timezone.utc), "text"),
    PatientRecord("p1", 0, ()),
    Chunk("p1", 0, 1, "text"),
    RetrievalConfig(),
    AssembledContext("p1", "RAG", "text", 1),
    ClassifierConfig(),
    ClassificationOutcome("p1", "RAG", 1, 4, 0.8, "{}", 10, 0),
    FailedClassification("p1", "RAG", "ResponseParseError", "no JSON"),
    BatchResult([], []),
    ParsedResponse(1, 4),
    ScoredCohort((0, 1), (0.2, 0.8)),
    _CONFUSION,
    MetricBundle(1.0, 1.0, _CONFUSION, 0.5),
    DeLongResult(1.0, 1.0, 0.0, 0.0, 1.0),
    UsageSummary(1, 10, 5, 900, 450),
    SyntheticCorpus([], {}),
    SearchHit("p1", 0, 1.0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_no_field_or_attribute_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


@pytest.mark.parametrize("build,error,message", [
    (lambda: RetrievalConfig(budget_words=0), ValueError, "budget_words must be >= 1, got 0"),
    (lambda: RetrievalConfig(-5), ValueError, "budget_words must be >= 1, got -5"),
    (lambda: ClassifierConfig(kind="llm"), ValueError, "unknown classifier kind 'llm'"),
    (lambda: ClassifierConfig(kind="remote", model_name="m"), ValueError,
     "remote classifier requires endpoint and model_name"),
    (lambda: ClassifierConfig(prompt_template="no placeholder"), ValueError,
     "prompt_template must contain a {context} placeholder"),
    (lambda: ClassifierConfig(max_retries=0), ValueError, "max_retries must be >= 1, got 0"),
    (lambda: ClassifierConfig(temperature=math.inf), ValueError, "temperature must be finite, got inf"),
    (lambda: ScoredCohort((1, 0), (0.5,)), ValueError, "2 labels vs 1 scores"),
    (lambda: ScoredCohort(labels=(1,), scores=(0.5,), patient_ids=("a", "b")), ValueError,
     "patient_ids length does not match labels"),
    (lambda: ScoredCohort((1, 2), (0.5, 0.5)), ValueError, "labels must be 0 or 1"),
    (lambda: ScoredCohort((1, 0), (0.5, math.nan)), ValueError, "scores must be finite"),
])
def test_validating_record_rejects_bad_fields_at_construction(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_scored_cohort_length_is_its_patient_count():
    cohort = ScoredCohort((0, 1, 1, 0, 1), (0.1, 0.9, 0.8, 0.3, 0.7), ("a", "b", "c", "d", "e"))
    assert len(cohort) == 5
    assert (cohort.positives, cohort.negatives) == (3, 2)
    assert not ScoredCohort((), ())
