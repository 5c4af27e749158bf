"""Command-line pipeline driver.

Stages: ingest -> build-index -> retrieve -> classify -> evaluate /
delong / project / report. Each command validates its inputs against
the manifest chain, writes its artifacts, and records exactly one run
manifest (``<out>.manifest.json``).

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 remote-service error. Errors are emitted as one JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import classifier as clf
from . import costmodel, manifest, metrics, report, retrieval
from .corpus import (DEFAULT_MAX_CHUNK_WORDS, Chunk, chunk_text, concat_text, load_corpus, load_whitelist,
                     window_notes, word_count)
from .embedding import DEFAULT_DIM, EmbedderConfig, build_embedder
from .errors import BudgetRagError, UndefinedMetricError
from .vindex import VectorIndex

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REMOTE = 3


def _emit_error(kind: str, category: str, message: str, **details) -> None:
    payload = {"error": kind, "category": category, "message": message}
    payload.update(details)
    print(json.dumps(payload, ensure_ascii=False), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 + JSON stderr."""

    def error(self, message):
        _emit_error("UsageError", "usage", message)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int):
    """argparse type for an int flag with a lower bound; a smaller value is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value" errors
    return parse


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
    for key, kind in _PROCESSED_FIELDS.items():
        if not isinstance(obj[key], kind):
            raise TypeError(f"{key!r} must be {kind.__name__}, got {obj[key]!r:.40}")
    if obj["max_words"] < 1:
        raise ValueError(f"'max_words' must be >= 1, got {obj['max_words']}")
    return obj


def _read_processed(path) -> list[dict]:
    return manifest.read_jsonl(path, "processed corpus", _processed_row)


def _chunks(row: dict) -> list[Chunk]:
    return chunk_text(row["text"], row["max_words"], patient_id=row["patient_id"])


def _labels_by_patient(corpus_path) -> dict[str, int]:
    return {row["patient_id"]: row["label"] for row in _read_processed(corpus_path)}


def _embedder_from_args(args, index: VectorIndex | None = None) -> tuple[EmbedderConfig, object]:
    dim = args.dim
    if dim is None:
        dim = index.dim if index is not None else DEFAULT_DIM
    cfg = EmbedderConfig(
        kind=args.embedder,
        dim=dim,
        endpoint=args.endpoint,
        model_name=args.model,
    )
    embedder = build_embedder(cfg)
    if index is not None and index.embedder_fingerprint and \
            embedder.fingerprint != index.embedder_fingerprint:
        raise BudgetRagError(
            f"index was built with embedder {index.embedder_fingerprint!r} "
            f"but this run uses {embedder.fingerprint!r}"
        )
    return cfg, embedder


def _cohort_from_outcomes(outcomes, labels: dict[str, int]) -> metrics.ScoredCohort:
    missing = sorted({o.patient_id for o in outcomes} - labels.keys())
    if missing:
        raise BudgetRagError(f"outcomes reference patients absent from the corpus: {missing[:10]}")
    ordered = sorted(outcomes, key=lambda o: o.patient_id)
    return metrics.ScoredCohort(
        labels=tuple(labels[o.patient_id] for o in ordered),
        scores=tuple(o.score for o in ordered),
        patient_ids=tuple(o.patient_id for o in ordered),
    )


# --- commands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {Path(args.corpus).name: manifest.validate_input(args.corpus)}
    whitelist = load_whitelist(args.whitelist) if args.whitelist else None
    if args.whitelist:
        inputs[Path(args.whitelist).name] = manifest.validate_input(args.whitelist)
    rows = []
    for record in load_corpus(args.corpus, whitelist):
        text = concat_text(window_notes(record, args.window_days))
        rows.append({
            "patient_id": record.patient_id,
            "label": record.label,
            "max_words": args.max_words,
            "word_count": word_count(text),
            "text": text,
        })
    manifest.write_jsonl(args.out, rows)
    manifest.write_manifest(
        args.out,
        command="ingest",
        config={
            "window_days": args.window_days,
            "max_words": args.max_words,
            "whitelist": args.whitelist or "default (16 admissible note types)",
        },
        inputs=inputs,
        output_paths=[args.out],
        started_at=started,
        deterministic=args.deterministic,
    )
    return EXIT_OK


def cmd_build_index(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {Path(args.corpus).name: manifest.validate_input(args.corpus)}
    cfg, embedder = _embedder_from_args(args)
    rows = _read_processed(args.corpus)
    index = None  # remote embedders reveal their dimension with the first vector
    for row in rows:
        chunks = _chunks(row)
        if not chunks:
            continue
        vectors = embedder.embed_many([c.text for c in chunks])
        if index is None:
            index = VectorIndex(dim=vectors[0].shape[0], embedder_fingerprint=embedder.fingerprint)
        index.add_many(row["patient_id"], [c.position for c in chunks], vectors)
    if index is None:
        index = VectorIndex(dim=cfg.dim, embedder_fingerprint=embedder.fingerprint)
    index.save(args.out)
    manifest.write_manifest(
        args.out,
        command="build-index",
        config={"embedder": args.embedder, "dim": index.dim, "model": args.model},
        inputs=inputs,
        output_paths=[args.out],
        started_at=started,
        deterministic=args.deterministic,
        embedder=embedder.fingerprint,
        extra={"entries": len(index)},
    )
    return EXIT_OK


def cmd_retrieve(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {Path(args.corpus).name: manifest.validate_input(args.corpus)}
    rows = _read_processed(args.corpus)
    embedder_fp = None
    if args.mode == "rag":
        if not args.index:
            raise BudgetRagError("--index is required for --mode rag")
        inputs[Path(args.index).name] = manifest.validate_input(args.index)
        index = VectorIndex.load(args.index)
        _, embedder = _embedder_from_args(args, index)
        embedder_fp = embedder.fingerprint
        cfg = retrieval.RetrievalConfig(
            budget_words=args.budget_words,
            query_text=args.query,
            top_n_scan=args.top_n_scan,
        )
        contexts = [retrieval.assemble_rag_from_chunks(row["patient_id"], _chunks(row), index, embedder, cfg)
                    for row in rows]
    else:  # the processed corpus is already windowed
        contexts = [retrieval.long_context(row["patient_id"], row["text"], row["word_count"]) for row in rows]
    retrieval.write_contexts(args.out, contexts)
    manifest.write_manifest(
        args.out,
        command="retrieve",
        config={
            "mode": args.mode,
            "budget_words": args.budget_words if args.mode == "rag" else None,
            "top_n_scan": args.top_n_scan if args.mode == "rag" else None,
            "query": args.query if args.mode == "rag" else None,
        },
        inputs=inputs,
        output_paths=[args.out],
        started_at=started,
        deterministic=args.deterministic,
        embedder=embedder_fp,
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {Path(args.contexts).name: manifest.validate_input(args.contexts)}
    keywords = clf.DEFAULT_COMPLICATION_KEYWORDS
    if args.keywords:
        inputs[Path(args.keywords).name] = manifest.validate_input(args.keywords)
        lines = Path(args.keywords).read_text(encoding="utf-8").splitlines()
        keywords = tuple(line.strip() for line in lines if line.strip())
    template = clf.DEFAULT_PROMPT_TEMPLATE
    if args.prompt_template:
        inputs[Path(args.prompt_template).name] = manifest.validate_input(args.prompt_template)
        template = Path(args.prompt_template).read_text(encoding="utf-8")
    cfg = clf.ClassifierConfig(
        kind=args.classifier,
        endpoint=args.endpoint,
        model_name=args.model or ("mock" if args.classifier == "mock" else None),
        temperature=args.temperature,
        max_retries=args.max_retries,
        prompt_template=template,
        keywords=keywords,
    )
    contexts = retrieval.read_contexts(args.contexts)
    batch = clf.classify_batch(contexts, cfg, parallelism=args.parallelism, deterministic=args.deterministic)
    clf.write_outcomes(args.out, batch)
    manifest.write_manifest(
        args.out,
        command="classify",
        config=batch.manifest,
        inputs=inputs,
        output_paths=[args.out],
        started_at=started,
        deterministic=args.deterministic,
        classifier=batch.manifest["classifier"],
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {
        Path(args.outcomes).name: manifest.validate_input(args.outcomes),
        Path(args.corpus).name: manifest.validate_input(args.corpus),
    }
    outcomes, failures = clf.read_outcomes(args.outcomes)
    if not outcomes:
        raise UndefinedMetricError("no successful outcomes to evaluate")
    labels = _labels_by_patient(args.corpus)
    cohort = _cohort_from_outcomes(outcomes, labels)
    bundle = metrics.evaluate_cohort(cohort, threshold=args.threshold)
    points = metrics.roc_points(cohort)
    modes = sorted({o.mode for o in outcomes})
    payload = {
        "mode": modes[0] if len(modes) == 1 else "mixed",
        "patients": len(cohort),
        "failed_outcomes": len(failures),
        "threshold": bundle.threshold,
        "auroc": bundle.auroc,
        "precision": bundle.precision,
        "recall": bundle.recall,
        "f1": bundle.f1,
        "pr_auc": bundle.pr_auc,
        "confusion": {
            "tp": bundle.confusion.tp,
            "fp": bundle.confusion.fp,
            "tn": bundle.confusion.tn,
            "fn": bundle.confusion.fn,
        },
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    outputs = [args.out]
    if args.roc_out:
        with open(args.roc_out, "w", encoding="utf-8") as fh:
            fh.write("fpr,tpr\n")
            for fpr, tpr in points:
                fh.write(f"{fpr!r},{tpr!r}\n")
        outputs.append(args.roc_out)
    manifest.write_manifest(
        args.out,
        command="evaluate",
        config={"threshold": args.threshold},
        inputs=inputs,
        output_paths=outputs,
        started_at=started,
        deterministic=args.deterministic,
    )
    return EXIT_OK


def cmd_delong(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {
        Path(args.outcomes_a).name: manifest.validate_input(args.outcomes_a),
        Path(args.outcomes_b).name: manifest.validate_input(args.outcomes_b),
        Path(args.corpus).name: manifest.validate_input(args.corpus),
    }
    labels = _labels_by_patient(args.corpus)
    outcomes_a, _ = clf.read_outcomes(args.outcomes_a)
    outcomes_b, _ = clf.read_outcomes(args.outcomes_b)
    cohort_a = _cohort_from_outcomes(outcomes_a, labels)
    cohort_b = _cohort_from_outcomes(outcomes_b, labels)
    result = metrics.delong_test(cohort_a, cohort_b)
    payload = {
        "patients": len(cohort_a),
        "auc_a": result.auc_a,
        "auc_b": result.auc_b,
        "variance_of_difference": result.variance_of_difference,
        "z_statistic": result.z_statistic,
        "p_value": result.p_value,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    manifest.write_manifest(
        args.out,
        command="delong",
        config={},
        inputs=inputs,
        output_paths=[args.out],
        started_at=started,
        deterministic=args.deterministic,
    )
    return EXIT_OK


def cmd_project(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {}
    if args.prices:
        inputs[Path(args.prices).name] = manifest.validate_input(args.prices)
        prices = costmodel.PriceSheet.from_json(args.prices)
    else:
        prices = costmodel.PriceSheet()
    overrides = {}
    if args.price_per_million is not None:
        overrides["usd_per_million_tokens"] = args.price_per_million
    if args.seconds_rag is not None:
        overrides["seconds_per_patient_rag"] = args.seconds_rag
    if args.seconds_long is not None:
        overrides["seconds_per_patient_long"] = args.seconds_long
    if overrides:
        import dataclasses

        prices = dataclasses.replace(prices, **overrides)
    counts = [int(c) for c in args.counts.split(",") if c.strip() != ""]
    cost_rows = costmodel.project_cost(args.per_patient_tokens, prices, counts)
    time_projection = costmodel.project_time(prices, counts)
    cost_path = f"{args.out}_cost.csv"
    time_path = f"{args.out}_time.csv"
    costmodel.write_cost_csv(cost_path, cost_rows)
    costmodel.write_time_csv(time_path, time_projection.rows)
    manifest.write_manifest(
        args.out,
        command="project",
        config={
            "unit": costmodel.UNIT_LABEL,
            "per_patient_tokens": args.per_patient_tokens,
            "usd_per_million_tokens": prices.usd_per_million_tokens,
            "seconds_per_patient_rag": prices.seconds_per_patient_rag,
            "seconds_per_patient_long": prices.seconds_per_patient_long,
            "counts": counts,
            "improvement_fraction": time_projection.improvement_fraction,
        },
        inputs=inputs,
        output_paths=[cost_path, time_path],
        started_at=started,
        deterministic=args.deterministic,
    )
    return EXIT_OK


def cmd_report(args) -> int:
    started = manifest.utc_now(args.deterministic)
    inputs = {}
    rows = []
    curves = []
    for label, color, metrics_path, roc_path in (
        ("RAG", report.COLOR_RAG, args.metrics_rag, args.roc_rag),
        ("Whole text", report.COLOR_LONG, args.metrics_long, args.roc_long),
    ):
        inputs[Path(metrics_path).name] = manifest.validate_input(metrics_path)
        inputs[Path(roc_path).name] = manifest.validate_input(roc_path)
        data = json.loads(Path(metrics_path).read_text(encoding="utf-8"))
        rows.append({
            "mode": label,
            "patients": data["patients"],
            "auroc": data["auroc"],
            "precision": data["precision"],
            "recall": data["recall"],
            "f1": data["f1"],
            "pr_auc": data["pr_auc"],
        })
        curves.append((f"{label} (AUROC {data['auroc']:.3f})", color, report.read_roc_csv(roc_path)))
    delong_data = None
    if args.delong:
        inputs[Path(args.delong).name] = manifest.validate_input(args.delong)
        delong_data = json.loads(Path(args.delong).read_text(encoding="utf-8"))
    svg_path = f"{args.out}.svg"
    md_path = f"{args.out}.md"
    Path(svg_path).write_text(report.render_roc_svg(curves), encoding="utf-8")
    Path(md_path).write_text(report.render_markdown(rows, delong_data), encoding="utf-8")
    manifest.write_manifest(
        args.out,
        command="report",
        config={},
        inputs=inputs,
        output_paths=[svg_path, md_path],
        started_at=started,
        deterministic=args.deterministic,
    )
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def _add_embedder_flags(parser) -> None:
    parser.add_argument("--embedder", choices=["hashing", "remote"], default="hashing")
    parser.add_argument("--dim", type=_int_at_least(2), default=None,
                        help=f"hashing dimension (default {DEFAULT_DIM}, or the index's own)")
    parser.add_argument("--endpoint", default=None)
    parser.add_argument("--model", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="budgetrag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--deterministic", action="store_true",
                       help="zero timestamps so identical inputs give byte-identical outputs")
        return p

    p = add("ingest", cmd_ingest, "validate, window, and chunk a raw corpus")
    p.add_argument("--corpus", required=True, help="raw corpus JSONL")
    p.add_argument("--out", required=True, help="processed corpus JSONL")
    p.add_argument("--window-days", type=_int_at_least(1), default=30)
    p.add_argument("--max-words", type=_int_at_least(1), default=DEFAULT_MAX_CHUNK_WORDS)
    p.add_argument("--whitelist", default=None, help="note-type whitelist file (one per line)")

    p = add("build-index", cmd_build_index, "embed chunks into a vector index file")
    p.add_argument("--corpus", required=True, help="processed corpus JSONL")
    p.add_argument("--out", required=True, help="index file")
    _add_embedder_flags(p)

    p = add("retrieve", cmd_retrieve, "assemble model contexts (RAG or whole text)")
    p.add_argument("--corpus", required=True, help="processed corpus JSONL")
    p.add_argument("--mode", choices=["rag", "long"], required=True)
    p.add_argument("--index", default=None, help="index file (required for rag)")
    p.add_argument("--out", required=True, help="contexts JSONL")
    p.add_argument("--budget-words", type=_int_at_least(1), default=retrieval.DEFAULT_BUDGET_WORDS)
    p.add_argument("--top-n-scan", type=_int_at_least(1), default=retrieval.DEFAULT_TOP_N_SCAN)
    p.add_argument("--query", default=retrieval.DEFAULT_QUERY_TEXT)
    _add_embedder_flags(p)

    p = add("classify", cmd_classify, "classify contexts into outcomes")
    p.add_argument("--contexts", required=True)
    p.add_argument("--out", required=True, help="outcomes JSONL")
    p.add_argument("--classifier", choices=["mock", "remote"], default="mock")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--parallelism", type=_int_at_least(1), default=1)
    p.add_argument("--keywords", default=None, help="keyword list file for the mock (one phrase per line)")
    p.add_argument("--prompt-template", default=None, help="prompt template file with {context}")

    p = add("evaluate", cmd_evaluate, "compute the metric bundle from outcomes")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--corpus", required=True, help="processed corpus JSONL (ground-truth labels)")
    p.add_argument("--out", required=True, help="metrics JSON")
    p.add_argument("--roc-out", default=None, help="ROC points CSV")
    p.add_argument("--threshold", type=float, default=0.5)

    p = add("delong", cmd_delong, "paired DeLong test between two outcome files")
    p.add_argument("--outcomes-a", required=True)
    p.add_argument("--outcomes-b", required=True)
    p.add_argument("--corpus", required=True, help="processed corpus JSONL (ground-truth labels)")
    p.add_argument("--out", required=True, help="DeLong result JSON")

    p = add("project", cmd_project, "linear cost and runtime projections")
    p.add_argument("--out", required=True, help="output prefix for _cost.csv and _time.csv")
    p.add_argument("--prices", default=None, help="price sheet JSON")
    p.add_argument("--price-per-million", type=float, default=None)
    p.add_argument("--per-patient-tokens", type=float, required=True)
    p.add_argument("--seconds-rag", type=float, default=None)
    p.add_argument("--seconds-long", type=float, default=None)
    p.add_argument("--counts", default="0,1000,10000,50000,100000",
                   help="comma-separated patient counts")

    p = add("report", cmd_report, "overlaid ROC SVG plus Markdown summary")
    p.add_argument("--metrics-rag", required=True)
    p.add_argument("--metrics-long", required=True)
    p.add_argument("--roc-rag", required=True)
    p.add_argument("--roc-long", required=True)
    p.add_argument("--delong", default=None)
    p.add_argument("--out", required=True, help="output prefix for .svg and .md")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetRagError as exc:
        _emit_error(type(exc).__name__, exc.category, str(exc))
        return EXIT_DATA if exc.category == "data" else EXIT_REMOTE
    except FileNotFoundError as exc:
        _emit_error("FileNotFoundError", "data", str(exc))
        return EXIT_DATA


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
