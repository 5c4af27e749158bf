"""Binary complication classification of assembled contexts.

Two backends share one contract:

* ``remote`` -- a chat-completions endpoint: request
  ``{"model", "temperature", "messages": [{"role": "user", "content"}]}``,
  response text at ``choices[0].message.content``.
* ``mock`` -- a deterministic offline stand-in that emits the same JSON
  verdict a well-behaved model would, driven by a configurable
  complication-keyword list.

The model's verdict is a JSON object ``{"complication": 0|1,
"severity": 1..5}``; it may be wrapped in prose or markdown fences. The
ranking score used for ROC curves is derived deterministically from the
verdict: ``severity/5`` for label 1, else ``(1 - severity/5) * 0.5``.
"""

from __future__ import annotations

import json
import math
import time
from typing import NamedTuple, get_type_hints

from .corpus import word_count
from .errors import BudgetRagError, ResponseParseError
from .manifest import check_types, check_unique, read_jsonl, write_jsonl
from .remote import DEFAULT_MAX_ATTEMPTS, post_json
from .retrieval import DEFAULT_COMPLICATION_KEYWORDS, AssembledContext, check_mode

# Only the {context} placeholder is substituted (plain replace, so the
# JSON braces below need no escaping).
DEFAULT_PROMPT_TEMPLATE = (
    "You are reviewing a surgical patient's clinical notes.\n"
    "Decide whether the notes document a post-operative complication.\n"
    "Answer with one JSON object and nothing else, in the form\n"
    '{"complication": 0 or 1, "severity": <integer 1-5>}\n'
    "where severity grades the worst complication found (1 = none or minimal).\n"
    "\n"
    "Notes:\n"
    "{context}\n"
)


class _ClassifierConfigFields(NamedTuple):
    kind: str = "mock"  # "mock" | "remote"
    endpoint: str | None = None
    model_name: str = "mock"
    temperature: float = 0.0
    max_retries: int = DEFAULT_MAX_ATTEMPTS
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    keywords: tuple[str, ...] = DEFAULT_COMPLICATION_KEYWORDS


class ClassifierConfig(_ClassifierConfigFields):
    # Validated in __new__, like retrieval.RetrievalConfig: _replace and _make skip the check, so no code calls them.
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("mock", "remote"):
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.kind == "remote" and not (self.endpoint and self.model_name):
            raise ValueError("remote classifier requires endpoint and model_name")
        if "{context}" not in self.prompt_template:
            raise ValueError("prompt_template must contain a {context} placeholder")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if not math.isfinite(self.temperature):  # it is sent in a JSON body, which has no nan or inf
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        return self


class ClassificationOutcome(NamedTuple):
    patient_id: str
    mode: str
    label: int
    severity: int
    score: float
    raw_response: str
    prompt_words: int
    latency_ms: int
    severity_defaulted: bool = False


class FailedClassification(NamedTuple):
    patient_id: str
    mode: str
    error: str
    message: str


class BatchResult(NamedTuple):
    outcomes: list[ClassificationOutcome]
    failures: list[FailedClassification]


class ParsedResponse(NamedTuple):
    label: int
    severity: int
    severity_defaulted: bool = False


def rank_score(label: int, severity: int) -> float:
    """Deterministic ROC ranking score from a (label, severity) verdict."""
    if label == 1:
        return severity / 5.0
    return (1.0 - severity / 5.0) * 0.5


def parse_response(raw: str) -> ParsedResponse:
    """Extract the first parseable JSON verdict from model output.

    Tolerates surrounding prose and markdown fences. ``complication``
    must be 0 or 1; a missing or invalid ``severity`` falls back to 3
    with ``severity_defaulted`` set.
    """
    decoder = json.JSONDecoder()
    start = -1
    while (start := raw.find("{", start + 1)) >= 0:  # try a JSON object at each "{" in turn
        try:
            obj, _ = decoder.raw_decode(raw, start)
        except json.JSONDecodeError:
            continue
        except (ValueError, RecursionError) as exc:  # a number of over 4300 digits, or nesting too deep
            raise ResponseParseError(f"reply is not JSON that can be read: {exc}") from exc
        if "complication" not in obj:
            continue
        label = obj["complication"]
        if label not in (0, 1):
            raise ResponseParseError(f"'complication' must be 0 or 1, got {label!r}")
        severity = obj.get("severity")
        if isinstance(severity, bool) or not isinstance(severity, int) or not 1 <= severity <= 5:
            return ParsedResponse(int(label), 3, True)
        return ParsedResponse(int(label), severity, False)
    raise ResponseParseError("no JSON object with a 'complication' field found")


def mock_response(context_text: str, keywords: tuple[str, ...] = DEFAULT_COMPLICATION_KEYWORDS) -> str:
    """Deterministic fake model reply driven by keyword spotting.

    Label is 1 iff any keyword phrase occurs (case-insensitive);
    severity is ``min(5, 1 + distinct hits)``.
    """
    lowered = context_text.lower()
    hits = sum(1 for kw in keywords if kw.lower() in lowered)
    label = 1 if hits > 0 else 0
    severity = min(5, 1 + hits)
    return json.dumps({"complication": label, "severity": severity})


def render_prompt(template: str, context_text: str) -> str:
    return template.replace("{context}", context_text)


def _remote_response(prompt: str, cfg: ClassifierConfig) -> str:
    payload = {
        "model": cfg.model_name,
        "temperature": cfg.temperature,
        "messages": [{"role": "user", "content": prompt}],
    }
    response = post_json(cfg.endpoint, payload, max_attempts=cfg.max_retries)
    try:
        content = response["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ResponseParseError(f"response is missing choices[0].message.content: {exc}") from exc
    if not isinstance(content, str):
        raise ResponseParseError("choices[0].message.content is not a string")
    try:
        content.encode("utf-8")  # JSON's \u escapes can decode to a lone surrogate, which no outcomes file can hold
    except UnicodeEncodeError as exc:
        raise ResponseParseError("choices[0].message.content is not valid Unicode: a lone surrogate escape") from exc
    return content


def classify(ctx: AssembledContext, cfg: ClassifierConfig) -> ClassificationOutcome:
    """Classify one assembled context (empty context allowed).

    The mock path is pure, so its latency is recorded as 0 ms to keep
    offline runs byte-reproducible; remote latency is measured wall
    clock.
    """
    prompt = render_prompt(cfg.prompt_template, ctx.text)
    if cfg.kind == "mock":
        raw = mock_response(ctx.text, cfg.keywords)
        latency_ms = 0
    else:
        started = time.perf_counter()
        raw = _remote_response(prompt, cfg)
        latency_ms = int((time.perf_counter() - started) * 1000)
    parsed = parse_response(raw)
    return ClassificationOutcome(
        patient_id=ctx.patient_id,
        mode=ctx.mode,
        label=parsed.label,
        severity=parsed.severity,
        score=rank_score(parsed.label, parsed.severity),
        raw_response=raw,
        prompt_words=word_count(prompt),  # also the sum over its lines: every line break is whitespace to split
        latency_ms=latency_ms,
        severity_defaulted=parsed.severity_defaulted,
    )


def classify_batch(contexts: list[AssembledContext], cfg: ClassifierConfig, parallelism: int = 1) -> BatchResult:
    """Classify a batch, recording per-item failures without aborting.

    Results preserve input order regardless of ``parallelism``.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")

    def one(ctx: AssembledContext):
        try:
            return classify(ctx, cfg)
        except BudgetRagError as exc:
            return FailedClassification(
                patient_id=ctx.patient_id,
                mode=ctx.mode,
                error=type(exc).__name__,
                message=str(exc),
            )

    if parallelism == 1 or len(contexts) <= 1:
        results = [one(ctx) for ctx in contexts]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(one, contexts))

    return BatchResult([r for r in results if isinstance(r, ClassificationOutcome)],
                       [r for r in results if isinstance(r, FailedClassification)])


# --- outcomes persistence ----------------------------------------------
# An outcome line holds the fields of ClassificationOutcome, in their
# declared order; a failure line holds those of FailedClassification
# with "failed": true after the mode.

_OUTCOME_FIELDS = get_type_hints(ClassificationOutcome)
_FAILURE_FIELDS = get_type_hints(FailedClassification)


def _failure_to_json(failure: FailedClassification) -> dict:
    return {
        "patient_id": failure.patient_id,
        "mode": failure.mode,
        "failed": True,
        "error": failure.error,
        "message": failure.message,
    }


def write_outcomes(path, batch: BatchResult) -> None:
    """Write outcomes JSONL; failures become lines with ``"failed": true``."""
    outcomes = ({key: getattr(o, key) for key in _OUTCOME_FIELDS} for o in batch.outcomes)
    write_jsonl(path, [*outcomes, *map(_failure_to_json, batch.failures)])


def _outcome_row(obj: dict) -> ClassificationOutcome | FailedClassification:
    if "failed" in obj:  # written only as "failed": true
        check_types(obj, _FAILURE_FIELDS)
        check_mode(obj)
        return FailedClassification(*[obj[key] for key in _FAILURE_FIELDS])
    check_types(obj, _OUTCOME_FIELDS)
    check_mode(obj)
    if not math.isfinite(obj["score"]):  # json reads NaN and Infinity
        raise ValueError(f"'score' must be finite, got {obj['score']!r}")
    for key in ("prompt_words", "latency_ms"):  # summed and averaged as floats by project
        if not 0 <= obj[key] < 2 ** 53:
            raise ValueError(f"{key!r} must be in [0, 2**53), got {obj[key]!r:.40}")
    return ClassificationOutcome(*[obj[key] for key in _OUTCOME_FIELDS])


def read_outcomes(path) -> tuple[list[ClassificationOutcome], list[FailedClassification]]:
    """The outcome and the failure lines of an outcomes file, which holds each patient once."""
    rows = read_jsonl(path, "outcomes file", _outcome_row)
    check_unique([r.patient_id for r in rows], f"{path}: outcomes")
    return (
        [r for r in rows if isinstance(r, ClassificationOutcome)],
        [r for r in rows if isinstance(r, FailedClassification)],
    )
