"""Each command imports only the layers it runs, and the package root imports none.

Every CLI command is a fresh process, so a module it imports without
using (numpy is about 0.16 s, the HTTP stack about 0.03 s) is start-up
time paid on every run. The metrics are computed on the standard
library, so evaluate and delong load no numpy; only build-index and
retrieve --mode rag need it. Only delong's exact variance needs
``fractions`` (which loads ``decimal``), so evaluate loads neither.
``costmodel`` serves only the project command, and ``report`` only
project, report and evaluate --roc-out. The records are named tuples,
so neither an offline command nor the corpus generator loads
``dataclasses`` or the ``inspect`` it imports (about 14 ms together).
``import budgetrag`` loads no submodule: each name is imported from the
module that defines it.
The corpus generator takes the complication vocabulary from ``retrieval``,
so it loads neither the classifier nor the HTTP helper. build-index starts
a process pool only to fork workers for the hashing embedder on more than
one usable CPU: a run on one CPU, or with the remote embedder, loads
neither ``concurrent.futures.process`` nor ``multiprocessing``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import budgetrag
from budgetrag.synthetic import generate_corpus, write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_OFFLINE = ("numpy", "http.client", "urllib.request", "ssl", "email.utils", "concurrent.futures",
                  "budgetrag.costmodel", "budgetrag.report", "dataclasses", "inspect")

# In a fresh interpreter: run the statement, then print which of UNUSED_OFFLINE got loaded.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
{statement}
print(json.dumps({{"code": code, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}}))
"""


def _probe(statement: str, modules=UNUSED_OFFLINE) -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE.format(statement=statement), str(SRC), *modules],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_offline_commands_load_no_numpy_http_or_thread_pool(tmp_path):
    write_corpus(tmp_path / "corpus.jsonl", generate_corpus(6, seed=0))

    def probe(*argv, may_load=()):
        argv = [a.format(tmp=tmp_path) for a in argv]
        unused = [m for m in UNUSED_OFFLINE if m not in may_load]
        if argv[0] == "evaluate":
            unused += ["fractions", "decimal"]
        result = _probe(f"from budgetrag.cli import main; code = main({argv!r})", unused)
        assert result == {"code": 0, "loaded": []}, argv[0]

    probe("ingest", "--corpus", "{tmp}/corpus.jsonl", "--out", "{tmp}/proc.jsonl", "--max-words", "64")
    probe("retrieve", "--corpus", "{tmp}/proc.jsonl", "--mode", "long", "--out", "{tmp}/ctx.jsonl")
    probe("classify", "--contexts", "{tmp}/ctx.jsonl", "--out", "{tmp}/out.jsonl")
    probe("evaluate", "--outcomes", "{tmp}/out.jsonl", "--corpus", "{tmp}/proc.jsonl", "--out", "{tmp}/m.json")
    probe("delong", "--outcomes-a", "{tmp}/out.jsonl", "--outcomes-b", "{tmp}/out.jsonl",
          "--corpus", "{tmp}/proc.jsonl", "--out", "{tmp}/delong.json")
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 6
    assert json.loads((tmp_path / "m.json").read_text())["patients"] == 6
    assert json.loads((tmp_path / "delong.json").read_text())["p_value"] == 1.0
    # project and report load costmodel and report, and nothing else of UNUSED_OFFLINE; the whole-text
    # outcomes, relabelled, stand in for the RAG arm, and one ROC file for both arms
    rows = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
    (tmp_path / "out_rag.jsonl").write_text("".join(json.dumps({**row, "mode": "RAG"}) + "\n" for row in rows))
    probe("project", "--outcomes-rag", "{tmp}/out_rag.jsonl", "--outcomes-long", "{tmp}/out.jsonl",
          "--out", "{tmp}/proj", may_load=("budgetrag.costmodel", "budgetrag.report"))
    probe("evaluate", "--outcomes", "{tmp}/out.jsonl", "--corpus", "{tmp}/proc.jsonl", "--out", "{tmp}/m2.json",
          "--roc-out", "{tmp}/roc.csv", may_load=("budgetrag.report",))
    probe("report", "--metrics-rag", "{tmp}/m.json", "--roc-rag", "{tmp}/roc.csv", "--metrics-long", "{tmp}/m.json",
          "--roc-long", "{tmp}/roc.csv", "--delong", "{tmp}/delong.json", "--out", "{tmp}/report",
          may_load=("budgetrag.report",))
    assert json.loads((tmp_path / "proj.manifest.json").read_text())["savings_fraction"] == 0.0


def test_build_index_on_one_cpu_or_remote_loads_no_process_pool(tmp_path, api_server):
    write_corpus(tmp_path / "corpus.jsonl", generate_corpus(4, seed=0, notes_per_patient=1, blocks_per_note=4,
                                                            block_words=32))
    proc = str(tmp_path / "proc.jsonl")
    ingest = ["ingest", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", proc, "--max-words", "64"]
    assert _probe(f"from budgetrag.cli import main; code = main({ingest!r})") == {"code": 0, "loaded": []}
    # 4 patients of 128 words: 8 chunks; the remote service gives chunk g the direction (1, g)
    assert [json.loads(line)["word_count"] for line in open(proc, encoding="utf-8")] == [128] * 4
    api_server.reset([(200, {"data": [{"embedding": [1.0, float(g)]} for g in range(8)]})])
    remote = ["build-index", "--corpus", proc, "--out", str(tmp_path / "remote.brag"),
              "--embedder", "remote", "--endpoint", api_server.url, "--model", "m"]
    one_cpu = ["build-index", "--corpus", proc, "--out", str(tmp_path / "one-cpu.brag")]
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})" if hasattr(os, "sched_setaffinity") else "pass"
    pool = ("concurrent.futures.process", "multiprocessing")
    for statement in (f"from budgetrag.cli import main; code = main({remote!r})",
                      f"import os; {pin}; from budgetrag.cli import main; code = main({one_cpu!r})"):
        assert _probe(statement, pool) == {"code": 0, "loaded": []}, statement
    assert len(api_server.requests) == 1


def test_corpus_generator_loads_no_numpy_or_http():
    assert _probe("import budgetrag.synthetic; code = 0") == {"code": 0, "loaded": []}
    # the package root loads none of its submodules
    submodules = "sorted(m for m in sys.modules if m.startswith('budgetrag.'))"
    assert _probe(f"import budgetrag; code = {submodules}") == {"code": [], "loaded": []}


def test_corpus_generator_loads_no_classifier_or_remote():
    loaded = "[m for m in ('budgetrag.classifier', 'budgetrag.remote') if m in sys.modules]"
    assert _probe(f"import budgetrag.synthetic; code = {loaded}") == {"code": [], "loaded": []}


class TestPackageExports:
    """The package root holds ``__version__`` and its submodules, and no other name."""

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            budgetrag.no_such_name
        with pytest.raises(ImportError):
            exec("from budgetrag import no_such_name", {})

    def test_submodules_import_by_name(self):
        from budgetrag import classifier, cli, embedding, manifest, metrics, retrieval, vindex

        modules = (classifier, cli, embedding, manifest, metrics, retrieval, vindex)
        assert all(isinstance(m, types.ModuleType) for m in modules)
