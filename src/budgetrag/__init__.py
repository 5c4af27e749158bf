"""Budgeted retrieval-augmented classification of long clinical records.

Splits multi-note patient records into 512-word chunks, indexes chunk
embeddings in a flat exact-search vector store, assembles budget-capped
contexts (or the whole windowed text), classifies through a pluggable
chat-completion backend, and compares the two ingestion modes with a
full metric and DeLong statistical suite plus cost/runtime projections.

The package runs on the standard library alone. Each name is imported
from its submodule (``budgetrag.vindex``, ``budgetrag.metrics``, ...);
the package itself imports none of them, so importing it loads no
submodule.
"""

__version__ = "0.1.0"
