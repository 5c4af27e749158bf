"""Exception hierarchy shared across the pipeline.

Every error carries a ``category`` that the CLI maps to an exit code:
``"usage"`` -> 1 (a bad flag value or flag combination), ``"data"`` -> 2
(validation / file-format problems), ``"remote"`` -> 3 (embedding or
chat endpoint failures).
"""

from __future__ import annotations


class BudgetRagError(Exception):
    """Base class for all pipeline errors."""

    category = "data"


# --- JSON-lines files -------------------------------------------------------

class CorpusFormatError(BudgetRagError):
    """Malformed line in any JSON-lines file: the raw or processed corpus, contexts or outcomes.

    Raised by ``manifest.read_jsonl`` for a line that is not UTF-8, not a
    JSON object, or lacks or mistypes a field (a bad timestamp too), and
    by ``manifest.check_unique`` for a patient repeated in one file.
    """


# --- vector index -----------------------------------------------------------

class DimensionMismatchError(BudgetRagError):
    """Vector length does not match the index dimension."""


class DuplicateChunkError(BudgetRagError):
    """A (patient_id, position) key was added twice."""


class InvalidVectorError(BudgetRagError):
    """Vector is not finite or not unit-normalized."""


class IndexFormatError(BudgetRagError):
    """Index file is malformed but not truncated or corrupted.

    Covers wrong magic bytes, trailing bytes past the recorded length,
    and a checksum-valid structure that is inconsistent (impossible
    header values, an entry overrunning the body, unparsed bytes,
    duplicate entries, rows that are not finite unit vectors).
    """


class IndexVersionError(BudgetRagError):
    """Index file has an unsupported format version."""


class IndexTruncatedError(BudgetRagError):
    """Index file is shorter than the length its header records, or than the header."""


class IndexChecksumError(BudgetRagError):
    """Index file checksum does not match its content."""


# --- retrieval --------------------------------------------------------------

class MissingPatientError(BudgetRagError):
    """Patient has chunks but none are present in the index."""


# --- classifier -------------------------------------------------------------

class ResponseParseError(BudgetRagError):
    """Model response did not contain a usable JSON verdict."""


# --- remote services --------------------------------------------------------

class RemoteServiceError(BudgetRagError):
    """Transport failure or non-2xx response, possibly after retries."""

    category = "remote"

    def __init__(self, message: str, status: int | None = None, retryable: bool = False):
        super().__init__(message)
        self.status = status
        self.retryable = retryable


class RemoteSchemaError(BudgetRagError):
    """Remote response was 2xx but missing an expected field."""

    category = "remote"


class ZeroVectorError(BudgetRagError):
    """Remote embedding service returned an all-zero vector."""

    category = "remote"


# --- metrics ----------------------------------------------------------------

class UndefinedMetricError(BudgetRagError):
    """Metric is undefined for the cohort (e.g. a single-class cohort)."""


class PairingError(BudgetRagError):
    """Two cohorts, or the two arms that project compares, are not paired (length, label, or patient-id mismatch)."""


class InsufficientDataError(BudgetRagError):
    """Too few positives or negatives for the requested statistic."""


# --- CLI --------------------------------------------------------------------

class FingerprintMismatchError(BudgetRagError):
    """An input file's hash does not match its recorded manifest fingerprint."""


class UsageError(BudgetRagError):
    """A bad command-line flag value or flag combination."""

    category = "usage"
