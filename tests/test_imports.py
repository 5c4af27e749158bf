"""Each command imports only the layers it runs, and the package root imports none.

Every CLI command is a fresh process, so a module it imports without
using (numpy was about 0.1 s, the HTTP stack is about 0.03 s) is start-up
time paid on every run. The package runs on the standard library alone:
no command loads numpy, build-index with workers and retrieve --mode rag
included, and the demo chain writes its pinned bytes, and the remote
embedder its index and contexts, where ``import numpy`` fails. Only
build-index and retrieve --mode rag load ``embedding`` and ``vindex``.
Only delong's exact variance needs ``fractions`` (which loads
``decimal``), so evaluate loads neither.
``costmodel`` serves only the project command, and ``report`` only
project, report and evaluate --roc-out. The records are named tuples,
so neither an offline command nor the corpus generator loads
``dataclasses`` or the ``inspect`` it imports (about 14 ms together).
``import budgetrag`` loads no submodule: each name is imported from the
module that defines it.
The corpus generator takes the complication vocabulary from ``retrieval``,
so it loads neither the classifier nor the HTTP helper. build-index forks
the hashing embedder's workers itself, one pipe each, so a run on two
shares loads neither ``concurrent.futures`` nor ``multiprocessing``, and
a run on one CPU, or with the remote embedder, neither
``concurrent.futures.process`` nor ``multiprocessing``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import budgetrag
from budgetrag.synthetic import generate_corpus, write_corpus
from budgetrag.vindex import VectorIndex

from .oracles import index_rows
from .test_cli import PINNED_CHAIN_SHA256, demo_chain

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_OFFLINE = ("numpy", "http.client", "urllib.request", "ssl", "email.utils", "concurrent.futures",
                  "budgetrag.costmodel", "budgetrag.report", "budgetrag.embedding", "budgetrag.vindex",
                  "dataclasses", "inspect")

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
    # build-index on two shares, one of them in a forked worker, loads the embedders and the index, and
    # neither multiprocessing nor anything else of UNUSED_OFFLINE; retrieve --mode rag the embedders and the index
    index_layers = ("budgetrag.embedding", "budgetrag.vindex")
    two_shares = "from budgetrag import cli; cli._usable_cpus = lambda: 2; code = cli.main({argv!r})"
    build = ["build-index", "--corpus", f"{tmp_path}/proc.jsonl", "--out", f"{tmp_path}/index.brag"]
    unused = [m for m in UNUSED_OFFLINE if m not in index_layers] + ["multiprocessing"]
    assert _probe(two_shares.format(argv=build), unused) == {"code": 0, "loaded": []}
    probe("retrieve", "--corpus", "{tmp}/proc.jsonl", "--mode", "rag", "--index", "{tmp}/index.brag",
          "--out", "{tmp}/ctx_rag.jsonl", may_load=index_layers)
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
    unused = ("concurrent.futures.process", "multiprocessing", "numpy")
    for statement in (f"from budgetrag.cli import main; code = main({remote!r})",
                      f"import os; {pin}; from budgetrag.cli import main; code = main({one_cpu!r})"):
        assert _probe(statement, unused) == {"code": 0, "loaded": []}, statement
    assert len(api_server.requests) == 1


# In a fresh interpreter where ``import numpy`` raises ImportError, as it does in the build-index
# workers forked from it: run each argument list with build-index on two shares, print the exit codes.
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
from budgetrag import cli
cli._usable_cpus = lambda: 2
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[2])]))
"""


def _run_without_numpy(chain: list[list[str]]) -> list[int]:
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(SRC), json.dumps(chain)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_demo_chain_writes_its_pinned_bytes_without_numpy(tmp_path):
    write_corpus(tmp_path / "corpus.jsonl", generate_corpus(60, seed=0))
    chain = demo_chain(tmp_path)
    assert _run_without_numpy(chain) == [0] * len(chain)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert digests == PINNED_CHAIN_SHA256


def test_remote_embedder_runs_without_numpy(tmp_path, api_server):
    write_corpus(tmp_path / "corpus.jsonl", generate_corpus(4, seed=0, notes_per_patient=1, blocks_per_note=4,
                                                            block_words=32))
    proc, index = str(tmp_path / "proc.jsonl"), str(tmp_path / "index.brag")
    remote = ["--embedder", "remote", "--endpoint", api_server.url, "--model", "m"]
    # 4 patients of 128 words: 8 chunks, chunk g in the direction (1, g); the query in the direction (1, 7)
    api_server.reset([(200, {"data": [{"embedding": [1.0, float(g)]} for g in range(8)]}),
                      (200, {"data": [{"embedding": [1.0, 7.0]}]})])
    assert _run_without_numpy([
        ["ingest", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", proc, "--max-words", "64"],
        ["build-index", "--corpus", proc, "--out", index, *remote],
        ["retrieve", "--corpus", proc, "--mode", "rag", "--index", index, "--budget-words", "64",
         "--out", str(tmp_path / "ctx.jsonl"), *remote],
    ]) == [0, 0, 0]
    assert len(api_server.requests) == 2
    loaded = VectorIndex.load(index)
    assert [ref for ref, _ in index_rows(loaded)] == [(f"p{p:04d}", c) for p in range(4) for c in range(2)]
    # each patient keeps the one chunk nearer the query: its second, (1, 2p + 1)
    contexts = [json.loads(line) for line in (tmp_path / "ctx.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [ctx["selected_positions"] for ctx in contexts] == [[1]] * 4


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
