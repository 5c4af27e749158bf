"""Command-line pipeline driver.

Stages: ingest -> build-index -> retrieve -> classify -> evaluate /
delong / project / report. Each subcommand declares which of its flags
name input files (``add_input``). ``main`` takes the start time,
validates and fingerprints those files in declaration order (a file
that an input's sidecar manifest records must match the fingerprint
recorded there), runs the command, and writes the one run manifest
(``<out>.manifest.json``) from the fields the command returns. Output
flags are declared too (``add_output``): the command writes under
staged names, and ``write_manifest`` moves the outputs into place after
writing their manifest, so a failed command leaves no output behind.

Every command is a fresh process that pays for each import at start-up.
The package runs on the standard library alone, and ``embedding`` and
``vindex`` are imported only inside build-index and retrieve --mode rag,
``metrics`` only inside evaluate and delong, ``fractions`` (with
``decimal``) only by delong's exact variance, ``costmodel`` only inside
project, ``report`` (whose ``write_csv`` writes every CSV) only inside
project, report and evaluate --roc-out, the HTTP stack only by a remote
embedder or classifier, and ``pickle`` and ``signal`` only by build-index
with the hashing embedder. The records are ``typing.NamedTuple``s, which
need no ``inspect`` (about 14 ms with what it imports), so no command
loads it.

Before anything is read or staged, ``main`` rejects a run in which a
file it would write (an output, or the run manifest) is also an input,
an input's sidecar manifest, or another file it writes: that run would
destroy the file.

build-index with the hashing embedder cuts the processed rows into
contiguous shares of patients, one per usable CPU
(``os.sched_getaffinity``) and at most one per patient, and embeds each
with ``_embed_share``: the first in this process, the others in workers
it forks (``_fork_share``). A worker holds its rows from the fork,
pickles its share down a pipe of its own, exits if this process dies,
and leaves through ``os._exit``, never through this process's clean-up.
This process reads the pipes in share order and reaps each worker: one
that fails, raising or killed, is a data error naming its share's
patients, and the workers not yet read are then killed. A share splits
each patient's lower-cased text once and embeds its chunks as runs of
those words, with no chunk text built. Each share enters the index with
one ``add_many`` call, in patient order: this process adds its own while
the workers finish theirs. A host with one usable CPU and a platform
without fork keep one share. The remote embedder runs in this process.
It sends the chunk texts in batches of ``EMBED_BATCH`` across patients,
the first batch alone, then up to ``EMBED_IN_FLIGHT`` at once, each
request on a daemon thread of its own (``_in_flight``), so the service's
round trips overlap. Each batch enters the index in batch order,
whichever response arrives first, and the index takes the first batch's
width, since the service chooses it. The first batch that fails stops
new requests, and the command ends without waiting for those still open.
The rows, and so the index bytes, depend neither on the batches, nor on
the shares, nor on the order of the responses.
retrieve --mode rag embeds ``--query`` once per run and ranks every
patient's chunks against that one vector, with one search per patient
that scores only that patient's rows, so each row is scored once.
project reads the two arms' outcome files and projects each arm's mean
prompt words and latency per patient (``costmodel.summarize_usage``)
over ``--counts`` patients; the token saving it records does not depend
on ``--price-per-million``.

Exit codes, each failure reported as one JSON object on stderr:
0 success; 1 usage error (a bad flag value or flag combination);
2 data error (a file that cannot be read or written, a malformed or
tampered input file, or inputs on which a result is undefined);
3 remote-service error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import math
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import TYPE_CHECKING

from . import classifier as clf
from . import manifest, remote, retrieval
from .corpus import (DEFAULT_MAX_CHUNK_WORDS, Chunk, chunk_runs, chunk_text, concat_text, load_corpus, read_lines,
                     window_notes, word_count)
from .errors import BudgetRagError, DimensionMismatchError, UndefinedMetricError, UsageError

if TYPE_CHECKING:
    from .embedding import HashingEmbedder, RemoteEmbedder
    from .metrics import ScoredCohort
    from .vindex import VectorIndex

_EXIT_CODES = {"usage": 1, "data": 2, "remote": 3}
EMBED_BATCH = 64  # chunks per remote embed_many call: bounds a request's inputs
EMBED_IN_FLIGHT = 4  # remote embed_many calls build-index keeps open at once; below socketserver's listen backlog, 5


class _Parser(argparse.ArgumentParser):
    """argparse whose failures are usage errors, and whose flags can name input and output files."""

    def error(self, message):
        raise UsageError(message)

    def add_input(self, *flags, **kwargs):
        """Add a flag naming an input file, which main validates and records in declaration order."""
        action = self.add_argument(*flags, **kwargs)
        self.set_defaults(inputs=self.get_default("inputs") + (action.dest,))

    def add_output(self, *flags, suffixes=("",), **kwargs):
        """Add a flag naming an output file, or with ``suffixes`` an output prefix: the command
        writes its value plus each suffix."""
        action = self.add_argument(*flags, **kwargs)
        self.set_defaults(outputs=self.get_default("outputs") + ((action.dest, suffixes),))


def _at_least(low, kind=int, high=math.inf):
    """argparse type for a number flag in [low, high]; a value outside, or a float nan or inf, is a usage error."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):  # an int is finite, and isfinite overflows on a long one
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value" errors
    return parse


_finite = _at_least(-math.inf, float)  # any finite float


def _counts(text: str) -> list[int]:
    """argparse type for comma-separated patient counts, each >= 0, at least one."""
    counts = [_at_least(0)(count) for count in text.split(",") if count.strip()]
    if not counts:
        raise argparse.ArgumentTypeError(f"no patient count given in {text!r}")
    return counts


_counts.__name__ = "counts"


# --- processed corpus file ----------------------------------------------
# One JSON object per patient, holding the windowed text once:
# {"patient_id", "label", "max_words", "word_count", "text"}
# Chunks are derived on read with chunk_text(text, max_words), so
# build-index and retrieve see the same chunks. A file from an older
# ingest, with a "chunks" list and no "max_words", is rejected.

_PROCESSED_FIELDS = {"patient_id": str, "label": int, "max_words": int, "word_count": int, "text": str}


def _processed_row(obj: dict) -> dict:
    if "max_words" not in obj and "chunks" in obj:
        raise ValueError("per-chunk rows from an older ingest; re-run ingest")
    manifest.check_types(obj, _PROCESSED_FIELDS)
    if obj["label"] not in (0, 1):
        raise ValueError(f"'label' must be 0 or 1, got {obj['label']}")
    if obj["max_words"] < 1:
        raise ValueError(f"'max_words' must be >= 1, got {obj['max_words']}")
    if obj["word_count"] < 0:
        raise ValueError(f"'word_count' must be >= 0, got {obj['word_count']!r:.40}")
    return obj


def _read_processed(path) -> list[dict]:
    rows = manifest.read_jsonl(path, "processed corpus", _processed_row)
    manifest.check_unique([row["patient_id"] for row in rows], f"{path}: processed corpus")
    return rows


def _chunks(row: dict) -> list[Chunk]:
    return chunk_text(row["text"], row["max_words"], patient_id=row["patient_id"])


def _labels_by_patient(corpus_path) -> dict[str, int]:
    return {row["patient_id"]: row["label"] for row in _read_processed(corpus_path)}


# --- side files: list files, prompt template, report inputs -------------


def _parse_file(path, parse):
    """``parse(path)``; a missing field or bad value in the file, or JSON nested too deep, is a data error naming it."""
    try:
        return parse(path)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise BudgetRagError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _prompt_template(path) -> str:
    template = Path(path).read_text(encoding="utf-8")
    if "{context}" not in template:
        raise ValueError("prompt template has no {context} placeholder")
    return template


def _figure(data: dict, key: str, low=0, high=1, kinds=(int, float)):
    """``data[key]``, which must be a finite JSON number of one of ``kinds`` (a bool is none) in [low, high]."""
    value = data[key]
    if type(value) not in kinds or not low <= value <= high or abs(value) > sys.float_info.max:  # nan fails too
        raise ValueError(f"{key!r} must be a finite {' or '.join(k.__name__ for k in kinds)} in [{low}, {high}], "
                         f"got {value!r:.40}")
    return value


def _metrics_row(path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {"patients": _figure(data, "patients", high=math.inf, kinds=(int,)),
            **{key: _figure(data, key) for key in ("auroc", "precision", "recall", "f1", "pr_auc")}}


def _delong_summary(path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {key: _figure(data, key, low, high) for key, low, high in (
        ("auc_a", 0, 1), ("auc_b", 0, 1), ("variance_of_difference", 0, math.inf),
        ("z_statistic", -math.inf, math.inf), ("p_value", 0, 1))}


def _embedder_from_args(args, index: VectorIndex | None = None) -> HashingEmbedder | RemoteEmbedder:
    from .embedding import HashingEmbedder, RemoteEmbedder

    dim = args.dim or (index.dim if index is not None else retrieval.DEFAULT_DIM)  # --dim is at least 2
    if args.embedder == "remote":
        embedder = RemoteEmbedder(args.endpoint, args.model, dim)
    else:
        try:
            embedder = HashingEmbedder(dim)
        except ValueError as exc:  # --dim is checked, so this dim is an index's, e.g. a remote embedder's
            raise BudgetRagError(f"the hashing embedder cannot search an index of dim {dim} "
                                 f"built by {index.embedder_fingerprint!r}: {exc}") from exc
    if index is not None and index.embedder_fingerprint and \
            embedder.fingerprint != index.embedder_fingerprint:
        raise BudgetRagError(
            f"index was built with embedder {index.embedder_fingerprint!r} "
            f"but this run uses {embedder.fingerprint!r}"
        )
    return embedder


def _cohort_from_outcomes(outcomes, labels: dict[str, int], path) -> ScoredCohort:
    from .metrics import ScoredCohort

    missing = sorted({o.patient_id for o in outcomes} - labels.keys())
    if missing:
        raise BudgetRagError(f"{path}: outcomes reference patients absent from the corpus: {missing[:10]}")
    ordered = sorted(outcomes, key=lambda o: o.patient_id)
    return ScoredCohort(
        labels=tuple(labels[o.patient_id] for o in ordered),
        scores=tuple(o.score for o in ordered),
        patient_ids=tuple(o.patient_id for o in ordered),
    )


# --- commands -------------------------------------------------------------
# Each returns its write_manifest fields: config, and where they apply
# embedder, classifier and extra.


def cmd_ingest(args) -> dict:
    whitelist = _parse_file(args.whitelist, read_lines) if args.whitelist else None
    rows = []
    for record in load_corpus(args.corpus, whitelist):
        windowed = window_notes(record, args.window_days)
        rows.append({
            "patient_id": record.patient_id,
            "label": record.label,
            "max_words": args.max_words,
            "word_count": sum(word_count(note.text) for note in windowed.notes),  # NOTE_SEPARATOR is whitespace
            "text": concat_text(windowed),
        })
    manifest.write_jsonl(args.out, rows)
    return {"config": {
        "window_days": args.window_days,
        "max_words": args.max_words,
        "whitelist": args.whitelist or "default (16 admissible note types)",
    }}


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 without ``os.sched_getaffinity``, which every platform without fork lacks."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _embed_share(rows: list[dict], dim: int) -> tuple[list, array]:
    """Hash the chunks of ``rows`` at ``dim``, as runs (``chunk_runs``) of one lower-cased split of each text;
    return their (patient_id, position) keys and their vectors end to end in one ``array('f')``."""
    from .embedding import hash_runs

    keys, vectors = [], array("f")
    for row in rows:
        runs = chunk_runs(row["text"].lower().split(), row["max_words"])
        for vector in hash_runs(runs, dim):
            vectors += vector
        keys += [(row["patient_id"], position) for position in range(len(runs))]
    return keys, vectors


def _rows(vectors: array, dim: int) -> list[memoryview]:
    """Views of the ``dim``-wide rows of ``vectors``, in order."""
    view = memoryview(vectors)
    return [view[start:start + dim] for start in range(0, len(vectors), dim)]


def _fork_share(rows: list[dict], dim: int) -> tuple[int, int, str, str]:
    """Fork a worker that pickles ``_embed_share(rows, dim)`` down a pipe; return its pid, the pipe's read end
    and the share's first and last patient. The worker leaves through ``os._exit``, never this process's clean-up:
    status 0 once its share is written, else 1, as when this process (pid taken before the fork) is gone."""
    import pickle

    def exit_when_orphaned(parent=os.getpid()):
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read, rows[0]["patient_id"], rows[-1]["patient_id"]
    try:
        os.close(read)
        threading.Thread(target=exit_when_orphaned, daemon=True).start()
        with open(write, "wb") as pipe:
            pickle.dump(_embed_share(rows, dim), pipe, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    finally:  # anything raised ends the worker here, with no traceback
        os._exit(1)


def _hashed_index(args, rows: list[dict]) -> VectorIndex:
    """The hashing embedder's index of the chunks of ``rows`` (emptied as it goes), one ``add_many`` per contiguous
    share of patients in order: one share per usable CPU, the first embedded here, the others by forked workers."""
    import pickle
    import signal

    from .vindex import VectorIndex

    embedder = _embedder_from_args(args)
    index = VectorIndex(dim=embedder.dim, embedder_fingerprint=embedder.fingerprint)
    shares = max(1, min(_usable_cpus(), len(rows)))
    cuts = [len(rows) * i // shares for i in range(shares + 1)]
    workers = []  # the forked shares not yet read, in share order
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            workers.append(_fork_share(rows[start:stop], index.dim))
        del rows[cuts[1]:]  # the workers hold these since their fork
        keys, vectors = _embed_share(rows, index.dim)
        rows.clear()
        index.add_many(keys, _rows(vectors, index.dim))  # while the workers finish their shares
        del keys, vectors
        while workers:
            pid, read, first, last = workers.pop(0)
            with open(read, "rb") as pipe:
                share = pipe.read()  # to the end, which a worker that fails, raising or killed, cuts short
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise BudgetRagError(f"patients {first} to {last} were not embedded: the worker {ended}")
            keys, vectors = pickle.loads(share)
            index.add_many(keys, _rows(vectors, index.dim))
            del share, keys, vectors
    finally:  # after a failure, the workers not yet read: killed, as one may hold another's pipe open
        for pid, read, _, _ in workers:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return index


def _in_flight(call, items, limit: int):
    """Yield ``(item, call(item))`` for each of ``items``, in their order.

    The first call runs on this thread, alone: a service that refuses every request fails once, and the
    first request's one-off work (the HTTP stack's import) is this thread's. Then up to ``limit`` calls run
    at once, each on a daemon thread of its own, and at most ``limit`` results are held. The first call that
    raises stops new calls, and its exception is raised here: the calls still running are waited for
    neither here nor when the process exits."""
    import queue

    finished, held, items = queue.SimpleQueue(), {}, iter(items)

    def run(number, item):
        try:
            finished.put((number, item, call(item), None))
        except BaseException as exc:  # raised again by the consumer, as if the call had been its own
            finished.put((number, item, None, exc))

    def take(block: bool) -> None:
        number, item, result, exc = finished.get(block)
        if exc is not None:
            raise exc
        held[number] = item, result

    if (first := next(items, None)) is not None:
        yield first, call(first)
    sent = 0
    for taken in itertools.count():
        while not finished.empty():  # a call that failed since the last look stops new calls
            take(False)
        while sent < taken + limit and (item := next(items, None)) is not None:
            threading.Thread(target=run, args=(sent, item), daemon=True).start()
            sent += 1
        while taken < sent and taken not in held:
            take(True)
        if taken == sent:
            return
        yield held.pop(taken)


def _remote_index(args, rows: list[dict]) -> VectorIndex:
    """The remote embedder's index of the chunks of ``rows`` (emptied as it goes), sent in batches of
    ``EMBED_BATCH`` chunks across patients, ``EMBED_IN_FLIGHT`` requests at once. Each batch enters the index
    in batch order, whichever response comes first, and the first batch's width, chosen by the service, is its."""
    from .vindex import VectorIndex

    embedder = _embedder_from_args(args)

    def patients():  # popped, so that each row is let go once its chunks are cut
        rows.reverse()
        while rows:
            yield rows.pop()

    chunks = (chunk for row in patients() for chunk in _chunks(row))
    batches = iter(lambda: list(itertools.islice(chunks, EMBED_BATCH)), [])
    index = None
    for batch, vectors in _in_flight(lambda batch: embedder.embed_many([c.text for c in batch]), batches,
                                     EMBED_IN_FLIGHT):
        if index is None:
            index = VectorIndex(dim=len(vectors[0]), embedder_fingerprint=embedder.fingerprint)
        elif len(vectors[0]) != index.dim:  # a remote service chooses the width per response
            raise DimensionMismatchError(f"vectors of width {index.dim}, then {len(vectors[0])}")
        index.add_many([(c.patient_id, c.position) for c in batch], vectors)
    return VectorIndex(dim=embedder.dim, embedder_fingerprint=embedder.fingerprint) if index is None else index


def cmd_build_index(args) -> dict:
    remote_embedder = args.embedder == "remote"
    if remote_embedder and not args.endpoint:  # before any row is read or a worker forked
        raise UsageError("--embedder remote requires --endpoint")
    index = (_remote_index if remote_embedder else _hashed_index)(args, _read_processed(args.corpus))
    index.save(args.out)
    return {
        "config": {"embedder": args.embedder, "dim": index.dim, "model": args.model if remote_embedder else None},
        "embedder": index.embedder_fingerprint,
        "extra": {"entries": len(index)},
    }


def cmd_retrieve(args) -> dict:
    rag = args.mode == "rag"
    if rag and args.embedder == "remote" and not args.endpoint:  # before any row is read
        raise UsageError("--embedder remote requires --endpoint")
    if rag and not args.index:
        raise UsageError("--mode rag requires --index")
    if not rag and args.index:
        raise UsageError("--mode long takes no --index")
    rows = _read_processed(args.corpus)
    embedder_fp = None
    if rag:
        from .vindex import VectorIndex

        index = VectorIndex.load(args.index)
        embedder = _embedder_from_args(args, index)
        embedder_fp = embedder.fingerprint
        cfg = retrieval.RetrievalConfig(budget_words=args.budget_words)
        query = embedder.embed(args.query)
        contexts = [retrieval.assemble_rag_from_chunks(row["patient_id"], _chunks(row), index, query, cfg)
                    for row in rows]
    else:  # the processed corpus is already windowed
        contexts = [retrieval.long_context(row["patient_id"], row["text"], row["word_count"]) for row in rows]
    retrieval.write_contexts(args.out, contexts)
    return {
        "config": {
            "mode": args.mode,
            "budget_words": args.budget_words if rag else None,
            "query": args.query if rag else None,
        },
        "embedder": embedder_fp,
    }


def cmd_classify(args) -> dict:
    if args.classifier == "remote" and not (args.endpoint and args.model):
        raise UsageError("--classifier remote requires --endpoint and --model")
    keywords = retrieval.DEFAULT_COMPLICATION_KEYWORDS
    if args.keywords:
        keywords = _parse_file(args.keywords, read_lines)
    template = clf.DEFAULT_PROMPT_TEMPLATE
    if args.prompt_template:
        template = _parse_file(args.prompt_template, _prompt_template)
    cfg = clf.ClassifierConfig(
        kind=args.classifier,
        endpoint=args.endpoint,
        model_name=args.model or "mock",
        temperature=args.temperature,
        max_retries=args.max_retries,
        prompt_template=template,
        keywords=keywords,
    )
    contexts = retrieval.read_contexts(args.contexts)
    batch = clf.classify_batch(contexts, cfg, parallelism=args.parallelism)
    clf.write_outcomes(args.out, batch)
    return {
        "config": {
            "prompt_template": cfg.prompt_template,
            "keywords": list(cfg.keywords) if cfg.kind == "mock" else None,
            "parallelism": args.parallelism,
            "contexts": len(contexts),
            "failures": len(batch.failures),
        },
        "classifier": {
            "kind": cfg.kind,
            "model_name": cfg.model_name,
            "endpoint": cfg.endpoint,
            "temperature": cfg.temperature,
            "max_retries": cfg.max_retries,
        },
    }


def cmd_evaluate(args) -> dict:
    from . import metrics

    outcomes, failures = clf.read_outcomes(args.outcomes)
    if not outcomes:
        raise UndefinedMetricError("no successful outcomes to evaluate")
    labels = _labels_by_patient(args.corpus)
    cohort = _cohort_from_outcomes(outcomes, labels, args.outcomes)
    bundle = metrics.evaluate_cohort(cohort, threshold=args.threshold)
    modes = sorted({o.mode for o in outcomes})
    payload = {
        "mode": modes[0] if len(modes) == 1 else "mixed",
        "patients": len(cohort),
        "failed_outcomes": len(failures),
        "threshold": bundle.threshold,
        "auroc": bundle.auroc,
        "precision": bundle.confusion.precision,
        "recall": bundle.confusion.recall,
        "f1": bundle.confusion.f1,
        "pr_auc": bundle.pr_auc,
        "confusion": {
            "tp": bundle.confusion.tp,
            "fp": bundle.confusion.fp,
            "tn": bundle.confusion.tn,
            "fn": bundle.confusion.fn,
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if args.roc_out:
        from . import report

        report.write_csv(args.roc_out, report.ROC_HEADER, metrics.roc_points(cohort))
    return {"config": {"threshold": args.threshold}}


def cmd_delong(args) -> dict:
    from . import metrics

    labels = _labels_by_patient(args.corpus)
    outcomes_a, _ = clf.read_outcomes(args.outcomes_a)
    outcomes_b, _ = clf.read_outcomes(args.outcomes_b)
    cohort_a = _cohort_from_outcomes(outcomes_a, labels, args.outcomes_a)
    cohort_b = _cohort_from_outcomes(outcomes_b, labels, args.outcomes_b)
    result = metrics.delong_test(cohort_a, cohort_b)
    payload = {"patients": len(cohort_a), **result._asdict()}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return {"config": {}}


def _arm_outcomes(path, mode: str) -> list:
    """The successful outcomes of one arm's outcomes file, each line of which must be of ``mode``."""
    outcomes, failures = clf.read_outcomes(path)
    if stray := next((o for o in outcomes + failures if o.mode != mode), None):
        raise BudgetRagError(f"{path}: patient {stray.patient_id!r} has mode {stray.mode!r}, not {mode!r}")
    if not outcomes:
        raise UndefinedMetricError(f"{path}: no successful outcome to project from")
    return outcomes


def cmd_project(args) -> dict:
    from . import costmodel, report

    rag = _arm_outcomes(args.outcomes_rag, retrieval.MODE_RAG)
    long = _arm_outcomes(args.outcomes_long, retrieval.MODE_LONG)
    usage = costmodel.summarize_usage(long, rag)  # PairingError unless the patients are equal
    n = usage.patients
    price = costmodel.USD_PER_MILLION_TOKENS if args.price_per_million is None else args.price_per_million
    tokens = [usage.total_words_rag / n, usage.total_words_long / n]
    seconds = [usage.total_latency_ms_rag / n / 1000, usage.total_latency_ms_long / n / 1000]  # the mean latency
    savings, improvement = costmodel.reduction(*tokens), costmodel.reduction(*seconds)
    try:
        cost_rows = costmodel.project(costmodel.cost_usd(usage.total_words_rag, price) / n,
                                      costmodel.cost_usd(usage.total_words_long, price) / n, args.counts)
        time_rows = costmodel.project(*seconds, args.counts)
        figures = [savings, improvement, *(f for row in cost_rows + time_rows for f in row[1:])]
    except OverflowError:  # a count too large for a float
        figures = [math.inf]
    if not all(map(math.isfinite, figures)):
        raise UsageError("--counts and --price-per-million give a projected figure that is not finite")
    cost_path, time_path = _output_paths(args)
    report.write_csv(cost_path, costmodel.COST_HEADER, cost_rows)
    report.write_csv(time_path, costmodel.TIME_HEADER, time_rows)
    per_patient = {"rag": {"tokens": tokens[0], "seconds": seconds[0]},
                   "long": {"tokens": tokens[1], "seconds": seconds[1]}}
    return {"config": {"unit": costmodel.UNIT_LABEL, "usd_per_million_tokens": price, "counts": args.counts},
            "extra": {"patients": n, "per_patient": per_patient, "savings_fraction": savings,
                      "improvement_fraction": improvement}}


def cmd_report(args) -> dict:
    from . import report

    rows = []
    curves = []
    for label, color, metrics_path, roc_path in (
        ("RAG", report.COLOR_RAG, args.metrics_rag, args.roc_rag),
        ("Whole text", report.COLOR_LONG, args.metrics_long, args.roc_long),
    ):
        row = {"mode": label, **_parse_file(metrics_path, _metrics_row)}
        rows.append(row)
        curves.append((f"{label} (AUROC {row['auroc']:.3f})", color, _parse_file(roc_path, report.read_roc_csv)))
    delong_data = _parse_file(args.delong, _delong_summary) if args.delong else None
    svg_path, md_path = _output_paths(args)
    Path(svg_path).write_text(report.render_roc_svg(curves), encoding="utf-8")
    Path(md_path).write_text(report.render_markdown(rows, delong_data), encoding="utf-8")
    return {"config": {}}


# --- parser ----------------------------------------------------------------


def _add_embedder_flags(parser) -> None:
    parser.add_argument("--embedder", choices=["hashing", "remote"], default="hashing")
    parser.add_argument("--dim", type=_at_least(2, high=retrieval.MAX_DIM), default=None,
                        help="hashing dimension (default: the index's own, else the hashing embedder's default)")
    parser.add_argument("--endpoint", default=None)
    parser.add_argument("--model", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="budgetrag", description=__doc__.splitlines()[0],
                     epilog=__doc__[__doc__.index("Exit codes"):], formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, inputs=(), outputs=())
        p.add_argument("--deterministic", action="store_true",
                       help="zero timestamps so identical inputs give byte-identical outputs")
        return p

    p = add("ingest", cmd_ingest, "validate, window, and chunk a raw corpus")
    p.add_input("--corpus", required=True, help="raw corpus JSONL")
    p.add_output("--out", required=True, help="processed corpus JSONL")
    p.add_argument("--window-days", type=_at_least(1), default=30)
    p.add_argument("--max-words", type=_at_least(1), default=DEFAULT_MAX_CHUNK_WORDS)
    p.add_input("--whitelist", default=None, help="note-type whitelist file (one per line)")

    p = add("build-index", cmd_build_index, "embed chunks into a vector index file")
    p.add_input("--corpus", required=True, help="processed corpus JSONL")
    p.add_output("--out", required=True, help="index file")
    _add_embedder_flags(p)

    p = add("retrieve", cmd_retrieve, "assemble model contexts (RAG or whole text)")
    p.add_input("--corpus", required=True, help="processed corpus JSONL")
    p.add_argument("--mode", choices=["rag", "long"], required=True)
    p.add_input("--index", default=None, help="index file (required for rag)")
    p.add_output("--out", required=True, help="contexts JSONL")
    p.add_argument("--budget-words", type=_at_least(1), default=retrieval.DEFAULT_BUDGET_WORDS)
    p.add_argument("--query", default=retrieval.DEFAULT_QUERY_TEXT)
    _add_embedder_flags(p)

    p = add("classify", cmd_classify, "classify contexts into outcomes")
    p.add_input("--contexts", required=True)
    p.add_output("--out", required=True, help="outcomes JSONL")
    p.add_argument("--classifier", choices=["mock", "remote"], default="mock")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--temperature", type=_finite, default=0.0)
    p.add_argument("--max-retries", type=_at_least(1), default=remote.DEFAULT_MAX_ATTEMPTS,
                   help="attempts per remote request, the first included (1 means no retry)")
    p.add_argument("--parallelism", type=_at_least(1), default=1)
    p.add_input("--keywords", default=None, help="keyword list file for the mock (one phrase per line)")
    p.add_input("--prompt-template", default=None, help="prompt template file with {context}")

    p = add("evaluate", cmd_evaluate, "compute the metric bundle from outcomes")
    p.add_input("--outcomes", required=True)
    p.add_input("--corpus", required=True, help="processed corpus JSONL (ground-truth labels)")
    p.add_output("--out", required=True, help="metrics JSON")
    p.add_output("--roc-out", default=None, help="ROC points CSV")
    p.add_argument("--threshold", type=_finite, default=0.5)

    p = add("delong", cmd_delong, "paired DeLong test between two outcome files")
    p.add_input("--outcomes-a", required=True)
    p.add_input("--outcomes-b", required=True)
    p.add_input("--corpus", required=True, help="processed corpus JSONL (ground-truth labels)")
    p.add_output("--out", required=True, help="DeLong result JSON")

    p = add("project", cmd_project, "linear cost and runtime projections from the two arms' outcomes: "
                                     "per patient, the mean prompt words and the mean latency")
    p.add_input("--outcomes-rag", required=True, help="RAG outcomes JSONL")
    p.add_input("--outcomes-long", required=True, help="whole-text outcomes JSONL, of the same patients")
    p.add_output("--out", required=True, suffixes=("_cost.csv", "_time.csv"),
                 help="output prefix for _cost.csv and _time.csv")
    p.add_argument("--price-per-million", type=_at_least(0.0, float), default=None,
                   help="USD per million tokens (default: the cost model's)")
    p.add_argument("--counts", type=_counts, default="0,1000,10000,50000,100000",
                   help="comma-separated patient counts")

    p = add("report", cmd_report, "overlaid ROC SVG plus Markdown summary")
    p.add_input("--metrics-rag", required=True)
    p.add_input("--roc-rag", required=True)
    p.add_input("--metrics-long", required=True)
    p.add_input("--roc-long", required=True)
    p.add_input("--delong", default=None)
    p.add_output("--out", required=True, suffixes=(".svg", ".md"), help="output prefix for .svg and .md")

    return parser


def _output_paths(args) -> list[str]:
    """Every file the command writes, in declaration order."""
    return [f"{getattr(args, dest)}{suffix}" for dest, suffixes in args.outputs
            if getattr(args, dest) is not None for suffix in suffixes]


def _stage_outputs(args) -> dict[str, str]:
    """Point each output flag at a staged name; return final path -> staged path."""
    finals = _output_paths(args)
    for path in finals:
        if Path(path).is_dir():  # found now, not when the written outputs are moved into place
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for dest, _ in args.outputs:
        if getattr(args, dest) is not None:
            setattr(args, dest, manifest.staged_name(getattr(args, dest)))
    return dict(zip(finals, _output_paths(args)))


def _check_utf8(args) -> None:
    """A flag value holding a lone surrogate (Python's stand-in for an argv byte that is not UTF-8) is a usage error."""
    for dest, value in vars(args).items():
        if isinstance(value, str) and any("\ud800" <= char <= "\udfff" for char in value):
            raise UsageError(f"--{dest.replace('_', '-')} is not valid UTF-8: {value!r}")


def _check_no_overwrite(args) -> None:
    """A file the command writes that it also reads (an input or an input's sidecar manifest), or
    that another output or the run manifest also names, is a usage error naming both flags;
    paths are compared resolved."""

    def flag(dest):
        return "--" + dest.replace("_", "-")

    written = [(flag(dest), f"{getattr(args, dest)}{suffix}") for dest, suffixes in args.outputs
               if getattr(args, dest) is not None for suffix in suffixes]
    written.append(("the --out run manifest", manifest.manifest_path(args.out)))
    read = []
    for dest in args.inputs:
        if path := getattr(args, dest):
            read += [(flag(dest), path), (f"the {flag(dest)} manifest", manifest.manifest_path(path))]
    writers = {}
    for i, (name, path) in enumerate(written + read):
        resolved = Path(path).resolve()
        if resolved in writers:
            raise UsageError(f"{writers[resolved]} and {name} name the same file: {path}")
        if i < len(written):
            writers[resolved] = name


def main(argv=None) -> int:
    staged = {}
    try:
        args = build_parser().parse_args(argv)
        _check_utf8(args)
        _check_no_overwrite(args)
        started = manifest.utc_now(args.deterministic)
        inputs = manifest.validate_inputs([getattr(args, dest) for dest in args.inputs if getattr(args, dest)])
        out = args.out
        staged = _stage_outputs(args)
        manifest.write_manifest(out, command=args.command, inputs=inputs, outputs=staged, started_at=started,
                                deterministic=args.deterministic, **args.func(args))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (BudgetRagError, OSError) as exc:
        category = getattr(exc, "category", "data")  # a file that cannot be read or written is a data error
        payload = {"error": type(exc).__name__, "category": category, "message": str(exc)}
        print(json.dumps(payload, ensure_ascii=False), file=sys.stderr)
        return _EXIT_CODES[category]
    finally:  # what a failed command wrote; moved away already after a success
        for path in staged.values():
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # nothing was staged there
                Path(path).unlink()
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
