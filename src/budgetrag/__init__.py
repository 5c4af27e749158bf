"""Budgeted retrieval-augmented classification of long clinical records.

Splits multi-note patient records into 512-word chunks, indexes chunk
embeddings in a flat exact-search vector store, assembles budget-capped
contexts (or the whole windowed text), classifies through a pluggable
chat-completion backend, and compares the two ingestion modes with a
full metric and DeLong statistical suite plus cost/runtime projections.

Each name is imported from its submodule (``budgetrag.vindex``,
``budgetrag.metrics``, ...); the package itself imports none of them,
so importing it, or a numpy-free submodule of it, does not load numpy.
"""

__version__ = "0.1.0"
