"""Span tracing of the ``budgetrag`` layers, installed from outside.

:func:`install` replaces public functions and methods with wrappers that
record a span per call: name, start, end, parent span and command. Each
name is patched where the caller looks it up (``post_json`` in both the
embedding and classifier modules, ``crc32c`` in ``vindex``, the corpus
functions in the ``cli`` namespace, methods on their classes), so no code
under ``src/`` changes. Counts are attached to the span of the call that
did the work. Spans stay in memory until the command ends.

:func:`layer_metrics` turns the spans of one pipeline chain into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Thread-safe in-memory span recorder for one command process.

    The first span opened is the root. A span opened on a thread with no
    open span of its own (a classifier worker thread) takes the root as
    its parent.
    """

    def __init__(self, command: str):
        self.command = command
        self.spans: list[dict] = []
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
            if self.root is None:
                self.root = span_id
        record = {
            "id": span_id,
            "name": name,
            "parent": stack[-1] if stack else (self.root if self.root != span_id else None),
            "command": self.command,
            "attrs": attrs if attrs is not None else {},
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn, name: str, before=None, after=None):
        """Trace ``fn``. ``before(*args, **kwargs)`` and ``after(result,
        *args, **kwargs)`` return count attributes; both run outside the
        span's ``start``..``end``. The whole wrapper call, hooks and span
        bookkeeping included, is kept as ``outer_start``..``outer_end``,
        which :func:`self_times` takes out of the parent's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_start = time.perf_counter()
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, attrs) as record:
                result = fn(*args, **kwargs)
            if after:
                attrs.update(after(result, *args, **kwargs))
            record["outer_start"] = outer_start
            record["outer_end"] = time.perf_counter()
            return result

        return wrapper


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def install(tracer: Tracer) -> None:
    """Wrap every traced ``budgetrag`` name; call before ``cli.main``."""
    from budgetrag import classifier, cli, embedding, manifest, metrics, retrieval, vindex

    def patch(owner, attr, name, before=None, after=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, before, after))

    def patch_classmethod(cls, attr, name, before=None):
        func = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(tracer.wrap(func, name, before)))

    patch(embedding, "post_json", "remote.post_json.embed")
    patch(classifier, "post_json", "remote.post_json.chat")
    patch(vindex, "crc32c", "vindex.crc32c", before=lambda data, *a, **k: {"bytes": len(data)})
    patch(manifest, "sha256_file", "manifest.sha256_file",
          before=lambda path, *a, **k: {"bytes": os.path.getsize(path)})

    patch(cli, "load_corpus", "corpus.load_corpus", after=lambda res, *a, **k: {"records": len(res)})
    patch(cli, "window_notes", "corpus.window_notes")
    patch(cli, "concat_text", "corpus.concat_text")
    patch(cli, "chunk_text", "corpus.chunk_text", after=lambda res, *a, **k: {"chunks": len(res)})

    index_cls = vindex.VectorIndex
    patch(index_cls, "add", "vindex.add")
    patch(index_cls, "search", "vindex.search")
    patch(index_cls, "save", "vindex.save",
          after=lambda res, self, path, *a, **k: {"bytes": os.path.getsize(path)})
    patch_classmethod(index_cls, "load", "vindex.load",
                      before=lambda cls, path, *a, **k: {"bytes": os.path.getsize(path)})

    for cls in (embedding.HashingEmbedder, embedding.RemoteEmbedder):
        patch(cls, "embed", "embedding.embed",
              before=lambda self, text: {"texts": 1, "digests": [_digest(text)]})
        patch(cls, "embed_many", "embedding.embed_many",
              before=lambda self, texts: {"texts": len(texts), "digests": [_digest(t) for t in texts]})

    def assembled(ctx, patient_id, chunks, index, embedder, cfg):
        return {
            "candidates": len(ctx.candidate_scores),
            "selected": len(ctx.selected_positions),
            "words": ctx.word_count,
            "budget": cfg.budget_words,
        }

    patch(retrieval, "assemble_rag_from_chunks", "retrieval.assemble_rag", after=assembled)
    patch(retrieval, "write_contexts", "retrieval.write_contexts")
    patch(retrieval, "read_contexts", "retrieval.read_contexts")

    patch(classifier, "classify_batch", "classifier.classify_batch",
          after=lambda res, *a, **k: {"failures": len(res.failures)})
    patch(classifier, "classify", "classifier.classify",
          after=lambda res, *a, **k: {"severity_defaulted": int(res.severity_defaulted)})
    patch(classifier, "parse_response", "classifier.parse_response")
    patch(classifier, "write_outcomes", "classifier.write_outcomes")
    patch(classifier, "read_outcomes", "classifier.read_outcomes")

    patch(metrics, "evaluate_cohort", "metrics.evaluate_cohort")
    patch(metrics, "roc_points", "metrics.roc_points")
    patch(metrics, "delong_test", "metrics.delong_test")


# --- analysis ---------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """(command, span id) -> duration minus the time its children cover.

    A child covers its whole wrapper call (``outer_start``..``outer_end``
    when recorded), so tracing cost is nobody's self time. Children of one
    span may overlap (worker threads); overlapping time is subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["command"], s["parent"])].append(
                (s.get("outer_start", s["start"]), s.get("outer_end", s["end"])))
    return {
        (s["command"], s["id"]): (s["end"] - s["start"])
        - _covered(children[(s["command"], s["id"])], s["start"], s["end"])
        for s in spans
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _under(span: dict, ancestor_name: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        node = by_id[(span["command"], parent)]
        if node["name"] == ancestor_name:
            return True
        parent = node["parent"]
    return False


def layer_metrics(spans: list[dict], *, patients: int, artifact_bytes: dict[str, int],
                  stub: dict | None, src_lines: int) -> dict[str, float]:
    """Per-layer figures of one traced chain (all its command processes)."""
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
    by_id = {(s["command"], s["id"]): s for s in spans}
    own = self_times(spans)

    def calls(*names):
        return sum(len(named[n]) for n in names)

    def busy(*names):
        return sum(s["end"] - s["start"] for n in names for s in named[n])

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in named[name])

    mb = 1e6
    crc_bytes = attr("vindex.crc32c", "bytes")
    crc_in_load = sum(s["attrs"]["bytes"] for s in named["vindex.crc32c"] if _under(s, "vindex.load", by_id))
    embed_names = ("embedding.embed", "embedding.embed_many")
    texts = sum(attr(n, "texts") for n in embed_names)
    digests = {d for n in embed_names for s in named[n] for d in s["attrs"]["digests"]}
    post_names = ("remote.post_json.embed", "remote.post_json.chat")
    post_ms = [1000 * (s["end"] - s["start"]) for n in post_names for s in named[n]]
    stub = stub or {"http_requests": 0, "status_503": 0, "request_bytes": 0}
    assembled = named["retrieval.assemble_rag"]
    budget_use = [s["attrs"]["words"] / s["attrs"]["budget"] for s in assembled]
    failures = attr("classifier.classify_batch", "failures")

    out = {
        "vindex.crc32c_mb": crc_bytes / mb,
        "vindex.crc32c_mb_per_s": _ratio(crc_bytes / mb, busy("vindex.crc32c")),
        "vindex.crc_passes_per_load": _ratio(crc_in_load, attr("vindex.load", "bytes")),
        "vindex.save_s": busy("vindex.save"),
        "vindex.load_s": busy("vindex.load"),
        "vindex.add_rows": calls("vindex.add"),
        "vindex.add_us_per_row": 1e6 * _ratio(busy("vindex.add"), calls("vindex.add")),
        "vindex.search_calls": calls("vindex.search"),
        "vindex.searches_per_s": _ratio(calls("vindex.search"), busy("vindex.search")),
        "embedding.embed_calls": calls(*embed_names),
        "embedding.texts": texts,
        "embedding.distinct_text_ratio": _ratio(len(digests), texts),
        "embedding.busy_s": busy(*embed_names),
        "embedding.texts_per_s": _ratio(texts, busy(*embed_names)),
        "remote.post_calls": calls(*post_names),
        "remote.post_wait_s": busy(*post_names),
        "remote.post_p50_ms": _percentile(post_ms, 0.50),
        "remote.post_p99_ms": _percentile(post_ms, 0.99),
        "remote.embed_requests": calls("remote.post_json.embed"),
        "remote.chat_requests": calls("remote.post_json.chat"),
        "remote.http_requests": stub["http_requests"],
        "remote.retries": stub["http_requests"] - calls(*post_names) if stub["http_requests"] else 0,
        "remote.status_503": stub["status_503"],
        "remote.request_mb": stub["request_bytes"] / mb,
        "classifier.classify_calls": calls("classifier.classify"),
        "classifier.classify_busy_s": busy("classifier.classify"),
        "classifier.parse_calls": calls("classifier.parse_response"),
        "classifier.verdicts_per_s": _ratio(calls("classifier.parse_response"), busy("classifier.parse_response")),
        "classifier.failures": failures,
        "classifier.failed_fraction": _ratio(failures, 2 * patients),
        "classifier.severity_defaulted": attr("classifier.classify", "severity_defaulted"),
        "classifier.write_outcomes_s": busy("classifier.write_outcomes"),
        "classifier.read_outcomes_s": busy("classifier.read_outcomes"),
        "manifest.sha256_calls": calls("manifest.sha256_file"),
        "manifest.sha256_mb": attr("manifest.sha256_file", "bytes") / mb,
        "manifest.sha256_s": busy("manifest.sha256_file"),
        "corpus.load_corpus_s": busy("corpus.load_corpus"),
        "corpus.records": attr("corpus.load_corpus", "records"),
        "corpus.chunk_text_s": busy("corpus.chunk_text"),
        "corpus.chunks": attr("corpus.chunk_text", "chunks"),
        "retrieval.assemble_calls": len(assembled),
        "retrieval.assemble_self_s": sum(own[(s["command"], s["id"])] for s in assembled),
        "retrieval.candidates_scanned": attr("retrieval.assemble_rag", "candidates"),
        "retrieval.chunks_selected": attr("retrieval.assemble_rag", "selected"),
        "retrieval.selected_words_per_patient": _ratio(attr("retrieval.assemble_rag", "words"), len(assembled)),
        "retrieval.budget_use_p50": _percentile(budget_use, 0.50),
        "retrieval.budget_use_p95": _percentile(budget_use, 0.95),
        "retrieval.write_contexts_s": busy("retrieval.write_contexts"),
        "retrieval.read_contexts_s": busy("retrieval.read_contexts"),
        "metrics.evaluate_cohort_s": busy("metrics.evaluate_cohort"),
        "metrics.roc_points_s": busy("metrics.roc_points"),
        "metrics.delong_test_s": busy("metrics.delong_test"),
        "repo.src_lines": src_lines,
    }
    for s in spans:
        if s["parent"] is None:  # the command's root span, "cli.<step>"
            out[f"{s['name']}.self_s"] = own[(s["command"], s["id"])]
    for key, nbytes in artifact_bytes.items():
        out[f"artifact.{key}_mb"] = nbytes / mb
    return out
