"""Each command imports only the layers it runs, and the package exports its names lazily.

Every CLI command is a fresh process, so a module it imports without
using (numpy is about 0.16 s, the HTTP stack about 0.03 s) is start-up
time paid on every run. ``costmodel`` and ``report`` serve only the
project, report and evaluate --roc-out commands.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import budgetrag
from budgetrag.synthetic import generate_corpus, write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_OFFLINE = ("numpy", "http.client", "urllib.request", "ssl", "email.utils", "concurrent.futures",
                  "budgetrag.costmodel", "budgetrag.report")

# In a fresh interpreter: run the statement, then print which of UNUSED_OFFLINE got loaded.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
{statement}
print(json.dumps({{"code": code, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}}))
"""


def _probe(statement: str) -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE.format(statement=statement), str(SRC), *UNUSED_OFFLINE],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_offline_commands_load_no_numpy_http_or_thread_pool(tmp_path):
    write_corpus(tmp_path / "corpus.jsonl", generate_corpus(6, seed=0))
    commands = [
        ["ingest", "--corpus", "corpus.jsonl", "--out", "proc.jsonl", "--max-words", "64"],
        ["retrieve", "--corpus", "proc.jsonl", "--mode", "long", "--out", "ctx.jsonl"],
        ["classify", "--contexts", "ctx.jsonl", "--out", "out.jsonl"],
    ]
    for argv in commands:
        argv = [str(tmp_path / a) if a.endswith(".jsonl") else a for a in argv]
        result = _probe(f"from budgetrag.cli import main; code = main({argv!r})")
        assert result == {"code": 0, "loaded": []}, argv[0]
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 6


def test_corpus_generator_loads_no_numpy_or_http():
    assert _probe("import budgetrag.synthetic; code = 0") == {"code": 0, "loaded": []}


class TestPackageExports:
    def test_each_name_is_its_submodules_object(self):
        assert len(budgetrag.__all__) == len(set(budgetrag.__all__)) == 36
        for name in budgetrag.__all__:
            value = getattr(budgetrag, name)
            assert value.__module__.startswith("budgetrag."), name
            assert getattr(importlib.import_module(value.__module__), name) is value, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from budgetrag import *", namespace)
        assert {name: namespace[name] for name in budgetrag.__all__} == \
            {name: getattr(budgetrag, name) for name in budgetrag.__all__}

    def test_dir_lists_every_name(self):
        assert set(budgetrag.__all__) <= set(dir(budgetrag))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            budgetrag.no_such_name
        with pytest.raises(ImportError):
            exec("from budgetrag import no_such_name", {})

    def test_submodules_import_by_name(self):
        from budgetrag import classifier, cli, embedding, manifest, metrics, retrieval, vindex

        modules = (classifier, cli, embedding, manifest, metrics, retrieval, vindex)
        assert all(isinstance(m, types.ModuleType) for m in modules)
        assert vindex.VectorIndex is budgetrag.VectorIndex
