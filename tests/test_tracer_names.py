"""The benchmark's tracer (``perfbench/tracer.py``) still finds every package name it wraps,
and still sees the calls the commands make through them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from budgetrag.synthetic import generate_corpus, write_corpus

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_this_package():
    code = "import sys; sys.path[:0] = sys.argv[1:]; from tracer import Tracer, install; install(Tracer('t'))"
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_traced_chain_has_a_span_for_every_layer(tmp_path):
    """A call site that imports its module lazily must still go through the patched attribute."""
    write_corpus(tmp_path / "corpus.jsonl", generate_corpus(20, seed=0))
    f = {name: str(tmp_path / name) for name in ("corpus.jsonl", "proc.jsonl", "index.brag", "ctx_rag.jsonl",
                                                 "ctx_long.jsonl", "out_rag.jsonl", "out_long.jsonl", "m.json",
                                                 "delong.json")}
    steps = [
        ("ingest", ["ingest", "--corpus", f["corpus.jsonl"], "--out", f["proc.jsonl"], "--max-words", "64"]),
        ("build-index", ["build-index", "--corpus", f["proc.jsonl"], "--out", f["index.brag"], "--dim", "64"]),
        ("retrieve-rag", ["retrieve", "--corpus", f["proc.jsonl"], "--mode", "rag", "--index", f["index.brag"],
                          "--budget-words", "64", "--out", f["ctx_rag.jsonl"]]),
        ("retrieve-long", ["retrieve", "--corpus", f["proc.jsonl"], "--mode", "long", "--out", f["ctx_long.jsonl"]]),
        ("classify-rag", ["classify", "--contexts", f["ctx_rag.jsonl"], "--out", f["out_rag.jsonl"]]),
        ("classify-long", ["classify", "--contexts", f["ctx_long.jsonl"], "--out", f["out_long.jsonl"]]),
        ("evaluate-rag", ["evaluate", "--outcomes", f["out_rag.jsonl"], "--corpus", f["proc.jsonl"],
                          "--out", f["m.json"]]),
        ("delong", ["delong", "--outcomes-a", f["out_rag.jsonl"], "--outcomes-b", f["out_long.jsonl"],
                    "--corpus", f["proc.jsonl"], "--out", f["delong.json"]]),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seen = set()
    for step, argv in steps:
        spans_path = tmp_path / f"{step}.spans.json"
        done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans_path), step,
                               "--", *argv], capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, (step, done.stderr)
        seen |= {(span["command"], span["name"]) for span in json.loads(spans_path.read_text(encoding="utf-8"))}
    assert {
        ("retrieve-rag", "retrieval.assemble_rag"),
        ("retrieve-rag", "vindex.load"),
        ("classify-rag", "classifier.classify_batch"),
        ("classify-long", "classifier.classify_batch"),
        ("evaluate-rag", "metrics.evaluate_cohort"),
        ("delong", "metrics.delong_test"),
    } <= seen
