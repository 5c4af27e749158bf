"""Budgeted retrieval-augmented classification of long clinical records.

Splits multi-note patient records into 512-word chunks, indexes chunk
embeddings in a flat exact-search vector store, assembles budget-capped
contexts (or the whole windowed text), classifies through a pluggable
chat-completion backend, and compares the two ingestion modes with a
full metric and DeLong statistical suite plus cost/runtime projections.

The names below are imported from their submodule on first use (PEP
562), so importing the package, or a numpy-free submodule of it, does
not load numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "corpus": ("Chunk", "ClinicalNote", "PatientRecord", "chunk_text", "concat_text", "load_corpus",
                   "window_notes"),
        "embedding": ("EmbedderConfig", "HashingEmbedder", "build_embedder", "embed_hashing"),
        "vindex": ("SearchHit", "VectorIndex"),
        "retrieval": ("AssembledContext", "RetrievalConfig", "context_stats"),
        "classifier": ("ClassificationOutcome", "ClassifierConfig", "classify", "classify_batch", "parse_response"),
        "metrics": ("DeLongResult", "MetricBundle", "ScoredCohort", "auroc", "confusion_metrics", "delong_test",
                    "evaluate_cohort", "normal_cdf", "pr_auc", "roc_points"),
        "costmodel": ("PriceSheet", "UsageSummary", "project_cost", "project_time", "summarize_usage"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
