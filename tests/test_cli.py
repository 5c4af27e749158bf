"""CLI pipeline: exit codes, artifacts, manifest chain, determinism."""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from budgetrag.cli import build_parser, main
from budgetrag.retrieval import DEFAULT_QUERY_TEXT
from budgetrag.synthetic import generate_corpus, write_corpus

from .oracles import index_rows

SRC = Path(__file__).resolve().parents[1] / "src"

# SHA-256 of every file the demo_dir chain leaves: the input corpus, 15 outputs and
# 11 manifests. A change to the CLI that alters any output byte, manifests included, fails here.
PINNED_CHAIN_SHA256 = {
    "corpus.jsonl": "da771358db123964b579301558224117bfa82a087887a2ed197168a387315217",
    "ctx_long.jsonl": "09d7d51da0e61b08ac01e29e73332c0ab338eb2b7f63c6187e26a2437b76a37f",
    "ctx_long.jsonl.manifest.json": "a0d043ba8256e1a9fc164a57f96c6773cfc1f566a737b6294e2e6a0730ab3e3e",
    "ctx_rag.jsonl": "30b031b62876c775c08a6cdd370a4fbcfa4ed46f1abe13384cbd19cb14be8e2e",
    "ctx_rag.jsonl.manifest.json": "76701d3138a882575dce04da33cf9702b2290331bb93397d17835ce3b94ca9cc",
    "delong.json": "3e35b7ad36a1d86efe90af6949a3f5e644880034f1d053e3dbd1568a3fa95b77",
    "delong.json.manifest.json": "b4b2f829db801d70e50967fefe47c01a6c05e47f67e0bafb1c40238c72a5d262",
    "index.brag": "983e64f03f7b8ac9682ce513cf3c88f87c9566bc158045c3e58940c3340af6cf",
    "index.brag.manifest.json": "6c6690933856733a16c4d2943a22e0fccc34d408b00045d01e99f5228a90eab0",
    "m_long.json": "9a71313ce4f5230e330b6dfabc38a6fcbac718cdf6805f517c4c09224bf054d1",
    "m_long.json.manifest.json": "271a76823972d92336a610273af8dfdaae5b4a0ed311125890d519070b39a3e1",
    "m_rag.json": "b329103a802d0961705549294edaec26c65b342bd6eea39eb8b6a3f0a8e9423d",
    "m_rag.json.manifest.json": "084d77a196c6e11fad573048fdff88b6518309d60a69d8bf8648101439a30084",
    "out_long.jsonl": "025a324c05091d41144ba7eff188486531797791fe3d8a8b043dedc4f7c2abf6",
    "out_long.jsonl.manifest.json": "d567af8ffa55f4ff28f125c0020cf3dcde7405c1dd41657a6006ebc99c6d81a3",
    "out_rag.jsonl": "e93b3886056ef1f00f70958d108eb1a78f2c0ca0da52af282641a574430c0d1b",
    "out_rag.jsonl.manifest.json": "697839b4aa75c54bd76b337c35acf9123cd36ecadd55d2918eb07231f1354804",
    "proc.jsonl": "37ac15570c7219cc71da3269e2eb8d4a1bc3a8d44675cd7e718665fe8a917841",
    "proc.jsonl.manifest.json": "af242c8bd47438c9b6fadf957bcb4aeee64244fe74c9a171e42060a155397b81",
    "proj.manifest.json": "4fa8b378ad67aa088e53758ae5145e4d3d9d6440ae5918d5aa72b433914a2174",
    "proj_cost.csv": "d998207472792f614877615e109621698df77c8fba502a1c5e90a8946b4fe10b",
    "proj_time.csv": "aee35efecec4a7af4a5e4b1b96524d38c578f9666956893aafe8da9ea0bf8aa6",
    "report.manifest.json": "aee4929313a19e7bad9f631b91e5160db8e3bf57724823d38789185fca1002f7",
    "report.md": "2752af3a0b6c6e3ffcb841d84843264b8df404723ab862cfeafeba6e5190315a",
    "report.svg": "20a3dcd06970b90a13c61673657450147bc2442b0a839d73970c80144cd38fa1",
    "roc_long.csv": "f353c14d9b074a35e9f0e264aff8dd233238381484b9c8d0cd8e2886d32ba672",
    "roc_rag.csv": "f353c14d9b074a35e9f0e264aff8dd233238381484b9c8d0cd8e2886d32ba672",
}


# Every command of the mock pipeline over the 60-patient corpus in {root}, each run --deterministic.
DEMO_CHAIN = [
    ["ingest", "--corpus", "{root}/corpus.jsonl", "--out", "{root}/proc.jsonl", "--max-words", "64"],
    ["build-index", "--corpus", "{root}/proc.jsonl", "--out", "{root}/index.brag", "--dim", "512"],
    ["retrieve", "--corpus", "{root}/proc.jsonl", "--index", "{root}/index.brag", "--mode", "rag",
     "--budget-words", "256", "--out", "{root}/ctx_rag.jsonl"],
    ["retrieve", "--corpus", "{root}/proc.jsonl", "--mode", "long", "--out", "{root}/ctx_long.jsonl"],
    ["classify", "--contexts", "{root}/ctx_rag.jsonl", "--out", "{root}/out_rag.jsonl"],
    ["classify", "--contexts", "{root}/ctx_long.jsonl", "--out", "{root}/out_long.jsonl"],
    ["evaluate", "--outcomes", "{root}/out_rag.jsonl", "--corpus", "{root}/proc.jsonl", "--out", "{root}/m_rag.json",
     "--roc-out", "{root}/roc_rag.csv"],
    ["evaluate", "--outcomes", "{root}/out_long.jsonl", "--corpus", "{root}/proc.jsonl",
     "--out", "{root}/m_long.json", "--roc-out", "{root}/roc_long.csv"],
    ["delong", "--outcomes-a", "{root}/out_rag.jsonl", "--outcomes-b", "{root}/out_long.jsonl",
     "--corpus", "{root}/proc.jsonl", "--out", "{root}/delong.json"],
    ["project", "--outcomes-rag", "{root}/out_rag.jsonl", "--outcomes-long", "{root}/out_long.jsonl",
     "--out", "{root}/proj"],
    ["report", "--metrics-rag", "{root}/m_rag.json", "--metrics-long", "{root}/m_long.json",
     "--roc-rag", "{root}/roc_rag.csv", "--roc-long", "{root}/roc_long.csv", "--delong", "{root}/delong.json",
     "--out", "{root}/report"],
]


def demo_chain(root) -> list[list[str]]:
    """DEMO_CHAIN's argument lists for the corpus in ``root``."""
    return [[arg.format(root=root) for arg in argv] + ["--deterministic"] for argv in DEMO_CHAIN]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """A 60-patient synthetic corpus run through the whole mock pipeline."""
    root = tmp_path_factory.mktemp("pipeline")
    write_corpus(root / "corpus.jsonl", generate_corpus(60, seed=0))
    for argv in demo_chain(root):
        run(0, *argv)
    return root


def run(expected_code, *argv):
    code = main([str(a) for a in argv])
    assert code == expected_code, f"expected exit {expected_code}, got {code} for {argv}"
    return code


class TestFullPipeline:
    def test_all_artifacts_exist(self, demo_dir):
        for name in (
            "proc.jsonl", "index.brag", "ctx_rag.jsonl", "ctx_long.jsonl",
            "out_rag.jsonl", "out_long.jsonl", "m_rag.json", "m_long.json",
            "roc_rag.csv", "roc_long.csv", "delong.json",
            "proj_cost.csv", "proj_time.csv", "report.svg", "report.md",
        ):
            assert (demo_dir / name).exists(), name

    def test_every_command_wrote_one_manifest(self, demo_dir):
        manifests = sorted(p.name for p in demo_dir.glob("*.manifest.json"))
        assert len(manifests) == 11  # one per command invocation

    def test_metrics_sane(self, demo_dir):
        rag = json.loads((demo_dir / "m_rag.json").read_text())
        long = json.loads((demo_dir / "m_long.json").read_text())
        assert rag["patients"] == long["patients"] == 60
        assert 0.9 <= rag["auroc"] <= 1.0
        assert long["auroc"] == 1.0  # mock sees every planted keyword in whole text
        delong = json.loads((demo_dir / "delong.json").read_text())
        assert delong["p_value"] > 0.05

    def test_delong_json_keys_in_result_order(self, demo_dir):
        delong = json.loads((demo_dir / "delong.json").read_text())
        assert list(delong) == ["patients", "auc_a", "auc_b", "variance_of_difference", "z_statistic", "p_value"]

    def test_rag_contexts_respect_budget(self, demo_dir):
        for line in (demo_dir / "ctx_rag.jsonl").read_text().splitlines():
            ctx = json.loads(line)
            assert ctx["word_count"] <= 256
            positions = ctx["selected_positions"]
            assert positions == sorted(positions)

    def test_report_contains_both_curves(self, demo_dir):
        svg = (demo_dir / "report.svg").read_text()
        assert svg.count("<polyline") == 2
        md = (demo_dir / "report.md").read_text()
        assert "| RAG |" in md and "| Whole text |" in md and "DeLong" in md

    def test_manifest_chain_fingerprints_match(self, demo_dir):
        from budgetrag.manifest import sha256_file

        manifest = json.loads((demo_dir / "out_rag.jsonl.manifest.json").read_text())
        assert manifest["inputs"]["ctx_rag.jsonl"] == sha256_file(demo_dir / "ctx_rag.jsonl")
        assert manifest["outputs"]["out_rag.jsonl"] == sha256_file(demo_dir / "out_rag.jsonl")
        assert manifest["command"] == "classify"

    def test_classify_manifest_records_the_run_once(self, demo_dir):
        manifest = json.loads((demo_dir / "out_rag.jsonl.manifest.json").read_text())
        assert manifest["classifier"] == {"kind": "mock", "model_name": "mock", "endpoint": None,
                                          "temperature": 0.0, "max_retries": 3}
        assert list(manifest["config"]) == ["prompt_template", "keywords", "parallelism", "contexts", "failures"]
        assert manifest["config"]["contexts"] == 60
        assert manifest["config"]["failures"] == 0

    @pytest.mark.parametrize("name,command,inputs,outputs", [
        ("proc.jsonl", "ingest", ["corpus.jsonl"], ["proc.jsonl"]),
        ("index.brag", "build-index", ["proc.jsonl"], ["index.brag"]),
        ("ctx_rag.jsonl", "retrieve", ["proc.jsonl", "index.brag"], ["ctx_rag.jsonl"]),
        ("ctx_long.jsonl", "retrieve", ["proc.jsonl"], ["ctx_long.jsonl"]),
        ("out_rag.jsonl", "classify", ["ctx_rag.jsonl"], ["out_rag.jsonl"]),
        ("out_long.jsonl", "classify", ["ctx_long.jsonl"], ["out_long.jsonl"]),
        ("m_rag.json", "evaluate", ["out_rag.jsonl", "proc.jsonl"], ["m_rag.json", "roc_rag.csv"]),
        ("m_long.json", "evaluate", ["out_long.jsonl", "proc.jsonl"], ["m_long.json", "roc_long.csv"]),
        ("delong.json", "delong", ["out_rag.jsonl", "out_long.jsonl", "proc.jsonl"], ["delong.json"]),
        ("proj", "project", ["out_rag.jsonl", "out_long.jsonl"], ["proj_cost.csv", "proj_time.csv"]),
        ("report", "report", ["m_rag.json", "roc_rag.csv", "m_long.json", "roc_long.csv", "delong.json"],
         ["report.svg", "report.md"]),
    ])
    def test_every_manifest_names_its_files(self, demo_dir, name, command, inputs, outputs):
        """Inputs in declared flag order, outputs as written, each with its file's fingerprint."""
        from budgetrag.manifest import sha256_file

        manifest = json.loads((demo_dir / f"{name}.manifest.json").read_text())
        assert manifest["command"] == command
        assert list(manifest["inputs"]) == inputs
        assert list(manifest["outputs"]) == outputs
        for recorded in (manifest["inputs"], manifest["outputs"]):
            for file_name, fingerprint in recorded.items():
                assert fingerprint == sha256_file(demo_dir / file_name), file_name

    def test_inputs_with_equal_file_names_are_each_recorded(self, demo_dir, tmp_path):
        import os

        from budgetrag.manifest import sha256_file

        for sub, source in (("a", "out_rag.jsonl"), ("b", "out_long.jsonl")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "out.jsonl").write_bytes((demo_dir / source).read_bytes())
        run(0, "delong", "--outcomes-a", tmp_path / "a" / "out.jsonl", "--outcomes-b", tmp_path / "b" / "out.jsonl",
            "--corpus", demo_dir / "proc.jsonl", "--out", tmp_path / "d.json")
        manifest = json.loads((tmp_path / "d.json.manifest.json").read_text())
        files = [tmp_path / "a" / "out.jsonl", tmp_path / "b" / "out.jsonl", demo_dir / "proc.jsonl"]
        assert manifest["inputs"] == {os.path.relpath(f, tmp_path): sha256_file(f) for f in files}
        assert len(set(manifest["inputs"].values())) == 3
        assert manifest["outputs"] == {"d.json": sha256_file(tmp_path / "d.json")}


class TestProject:
    """project takes every per-patient figure from the two arms' outcome files."""

    @staticmethod
    def _arm(demo_dir, tmp_path, source, edit=lambda rows: rows):
        """A copy of a demo outcomes file, without its manifest, whose rows ``edit`` changes."""
        rows = [json.loads(line) for line in (demo_dir / source).read_text(encoding="utf-8").splitlines()]
        path = tmp_path / source
        path.write_text("".join(json.dumps(row) + "\n" for row in edit(rows)), encoding="utf-8")
        return path

    def test_recorded_figures_come_from_the_outcome_files(self, demo_dir, tmp_path):
        from budgetrag.classifier import read_outcomes
        from budgetrag.costmodel import cost_usd, summarize_usage

        run(0, "project", "--outcomes-rag", demo_dir / "out_rag.jsonl", "--outcomes-long", demo_dir / "out_long.jsonl",
            "--out", tmp_path / "p", "--counts", "0,10", "--price-per-million", "5", "--deterministic")
        usage = summarize_usage(read_outcomes(demo_dir / "out_long.jsonl")[0],
                                read_outcomes(demo_dir / "out_rag.jsonl")[0])
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["config"] == {"unit": "tokens (word-approximated)", "usd_per_million_tokens": 5.0,
                                      "counts": [0, 10]}
        assert (manifest["patients"], manifest["savings_fraction"]) == (
            60, 1 - (usage.total_words_rag / 60) / (usage.total_words_long / 60))
        assert manifest["per_patient"] == {"rag": {"tokens": usage.total_words_rag / 60, "seconds": 0.0},
                                           "long": {"tokens": usage.total_words_long / 60, "seconds": 0.0}}
        assert 0 < manifest["per_patient"]["rag"]["tokens"] < manifest["per_patient"]["long"]["tokens"]
        assert manifest["improvement_fraction"] == 0.0  # the mock records 0 ms
        rag_usd, long_usd = (cost_usd(total, 5.0) / 60 for total in (usage.total_words_rag, usage.total_words_long))
        assert (tmp_path / "p_cost.csv").read_text() == (
            f"patients,cost_rag_usd,cost_long_usd\n0,0.0,0.0\n10,{10 * rag_usd!r},{10 * long_usd!r}\n")
        assert (tmp_path / "p_time.csv").read_text() == "patients,seconds_rag,seconds_long\n0,0.0,0.0\n10,0.0,0.0\n"

    def test_seconds_are_each_arms_mean_latency(self, demo_dir, tmp_path):
        def latency(*values):
            return lambda rows: [{**row, "latency_ms": values[i % len(values)]} for i, row in enumerate(rows)]

        rag = self._arm(demo_dir, tmp_path, "out_rag.jsonl", latency(400, 600))
        long = self._arm(demo_dir, tmp_path, "out_long.jsonl", latency(1000))
        run(0, "project", "--outcomes-rag", rag, "--outcomes-long", long, "--out", tmp_path / "p", "--counts", "100")
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert [manifest["per_patient"][arm]["seconds"] for arm in ("rag", "long")] == [0.5, 1.0]
        assert manifest["improvement_fraction"] == 0.5
        assert (tmp_path / "p_time.csv").read_text() == "patients,seconds_rag,seconds_long\n100,50.0,100.0\n"

    def test_the_token_saving_does_not_depend_on_the_price(self, demo_dir, tmp_path):
        savings = []
        for price in ("0", "2.5", "1e6"):
            run(0, "project", "--outcomes-rag", demo_dir / "out_rag.jsonl", "--outcomes-long",
                demo_dir / "out_long.jsonl", "--out", tmp_path / price, "--price-per-million", price)
            manifest = json.loads((tmp_path / f"{price}.manifest.json").read_text())
            tokens = manifest["per_patient"]
            assert manifest["savings_fraction"] == 1 - tokens["rag"]["tokens"] / tokens["long"]["tokens"]
            savings.append(manifest["savings_fraction"])
        assert savings[0] == savings[1] == savings[2] > 0.5

    @pytest.mark.parametrize("arm,edit,error,message", [
        ("out_rag.jsonl", lambda rows: [{**rows[0], "mode": "LONG"}, *rows[1:]], "BudgetRagError",
         "has mode 'LONG', not 'RAG'"),
        ("out_long.jsonl", lambda rows: rows + rows[4:5], "CorpusFormatError", "outcomes: duplicate patients"),
        ("out_rag.jsonl", lambda rows: [{"patient_id": rows[0]["patient_id"], "mode": "RAG", "failed": True,
                                         "error": "ResponseParseError", "message": "no verdict"}, *rows[1:]],
         "PairingError", "1 only in long, 0 only in rag"),
        ("out_long.jsonl", lambda rows: [{"patient_id": row["patient_id"], "mode": "LONG", "failed": True,
                                          "error": "ResponseParseError", "message": "no verdict"} for row in rows],
         "UndefinedMetricError", "no successful outcome to project from"),
    ], ids=["wrong-mode", "repeated-patient", "patients-differ", "no-successful-outcome"])
    def test_outcomes_that_cannot_be_projected_are_one_json_data_error(self, demo_dir, tmp_path, capsys,
                                                                      arm, edit, error, message):
        files = {name: self._arm(demo_dir, tmp_path, name, edit if name == arm else lambda rows: rows)
                 for name in ("out_rag.jsonl", "out_long.jsonl")}
        run(2, "project", "--outcomes-rag", files["out_rag.jsonl"], "--outcomes-long", files["out_long.jsonl"],
            "--out", tmp_path / "p")
        err, = map(json.loads, capsys.readouterr().err.splitlines())
        assert (err["error"], err["category"]) == (error, "data")
        assert message in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out_long.jsonl", "out_rag.jsonl"]


class TestOutcomesReaders:
    """Every command that reads an outcomes file takes each patient once, across outcome and failure lines."""

    @pytest.mark.parametrize("command", ["evaluate", "delong", "project"])
    def test_a_patient_with_an_outcome_and_a_failure_is_one_json_data_error(self, demo_dir, tmp_path, capsys,
                                                                           command):
        text = (demo_dir / "out_rag.jsonl").read_text(encoding="utf-8")
        failed = {"patient_id": json.loads(text.splitlines()[0])["patient_id"], "mode": "RAG", "failed": True,
                  "error": "ResponseParseError", "message": "no verdict"}
        bad = tmp_path / "out.jsonl"
        bad.write_text(text + json.dumps(failed) + "\n", encoding="utf-8")
        long, proc = demo_dir / "out_long.jsonl", demo_dir / "proc.jsonl"
        argv = {"evaluate": ["--outcomes", bad, "--corpus", proc, "--out", tmp_path / "m.json"],
                "delong": ["--outcomes-a", bad, "--outcomes-b", long, "--corpus", proc, "--out", tmp_path / "d.json"],
                "project": ["--outcomes-rag", bad, "--outcomes-long", long, "--out", tmp_path / "p"]}
        run(2, command, *argv[command])
        err, = map(json.loads, capsys.readouterr().err.splitlines())
        assert (err["error"], err["category"]) == ("CorpusFormatError", "data")
        assert err["message"].startswith(f"{bad}: outcomes: duplicate patients")
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class TestDeterminism:
    def test_pipeline_outputs_byte_identical(self, demo_dir, tmp_path):
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        write_corpus(rerun / "corpus.jsonl", generate_corpus(60, seed=0))
        run(0, "ingest", "--corpus", rerun / "corpus.jsonl", "--out", rerun / "proc.jsonl",
            "--max-words", "64", "--deterministic")
        run(0, "build-index", "--corpus", rerun / "proc.jsonl", "--out", rerun / "index.brag",
            "--dim", "512", "--deterministic")
        run(0, "retrieve", "--corpus", rerun / "proc.jsonl", "--index", rerun / "index.brag",
            "--mode", "rag", "--budget-words", "256", "--out", rerun / "ctx_rag.jsonl",
            "--deterministic")
        run(0, "classify", "--contexts", rerun / "ctx_rag.jsonl", "--out", rerun / "out_rag.jsonl",
            "--deterministic")
        run(0, "evaluate", "--outcomes", rerun / "out_rag.jsonl", "--corpus", rerun / "proc.jsonl",
            "--out", rerun / "m_rag.json", "--roc-out", rerun / "roc_rag.csv", "--deterministic")
        for name in ("proc.jsonl", "index.brag", "ctx_rag.jsonl", "out_rag.jsonl",
                     "m_rag.json", "roc_rag.csv"):
            assert (rerun / name).read_bytes() == (demo_dir / name).read_bytes(), name
        # manifests too, including zeroed timestamps
        manifest = json.loads((rerun / "out_rag.jsonl.manifest.json").read_text())
        assert manifest["started_at"] == manifest["finished_at"] == "1970-01-01T00:00:00Z"

    def test_chain_bytes_are_pinned(self, demo_dir):
        import hashlib

        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(demo_dir.iterdir())}
        assert digests == PINNED_CHAIN_SHA256


_PROJECT = ["project", "--outcomes-rag", "{demo}/out_rag.jsonl", "--outcomes-long", "{demo}/out_long.jsonl",
            "--out", "{tmp}/proj"]


def _with_field(source, key, value):
    """A side-file factory for the demo chain's JSON file ``source`` with ``key`` set to ``value``."""
    return lambda demo: json.dumps({**json.loads((demo / source).read_text()), key: value})  # nan as NaN


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["retrieve", "--mode", "sideways"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "usage"

    def test_unknown_command_is_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_lists_the_exit_codes_and_no_internals(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert out.startswith("usage: budgetrag ")
        assert all(code in out for code in ("0 success", "1 usage error", "2 data error", "3 remote-service error"))
        assert re.findall(r"\b_\w+|add_input", out) == []

    def test_single_class_evaluate_is_exit_2(self, demo_dir, tmp_path, capsys):
        outcomes = [json.loads(l) for l in (demo_dir / "out_rag.jsonl").read_text().splitlines()]
        labels = {json.loads(l)["patient_id"]: json.loads(l)["label"]
                  for l in (demo_dir / "proc.jsonl").read_text().splitlines()}
        positives_only = [o for o in outcomes if labels[o["patient_id"]] == 1]
        bad = tmp_path / "single_class.jsonl"
        bad.write_text("\n".join(json.dumps(o) for o in positives_only) + "\n")
        assert main(["evaluate", "--outcomes", str(bad), "--corpus", str(demo_dir / "proc.jsonl"),
                     "--out", str(tmp_path / "m.json")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UndefinedMetricError"

    def test_unpaired_delong_is_exit_2(self, demo_dir, tmp_path, capsys):
        lines = (demo_dir / "out_long.jsonl").read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-3]) + "\n")
        assert main(["delong", "--outcomes-a", str(demo_dir / "out_rag.jsonl"),
                     "--outcomes-b", str(truncated),
                     "--corpus", str(demo_dir / "proc.jsonl"),
                     "--out", str(tmp_path / "d.json")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "PairingError"
        # the dropped patients are named
        dropped = {json.loads(l)["patient_id"] for l in lines[-3:]}
        assert any(pid in err["message"] for pid in dropped)

    def test_delong_of_different_aucs_with_zero_variance_is_exit_2(self, demo_dir, tmp_path, capsys):
        # whole text scores AUC 1.0; every score tied scores 0.5, and neither arm varies
        tied = tmp_path / "tied.jsonl"
        tied.write_text("".join(json.dumps({**json.loads(line), "score": 0.5}) + "\n"
                                for line in (demo_dir / "out_long.jsonl").read_text().splitlines()))
        run(2, "delong", "--outcomes-a", demo_dir / "out_long.jsonl", "--outcomes-b", tied,
            "--corpus", demo_dir / "proc.jsonl", "--out", tmp_path / "delong.json")
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UndefinedMetricError"
        assert "AUCs 1.0 and 0.5 differ" in err["message"]
        assert list(tmp_path.iterdir()) == [tied]

    @pytest.mark.parametrize("command", ["evaluate", "delong"])
    def test_repeated_patient_in_outcomes_is_exit_2(self, demo_dir, tmp_path, capsys, command):
        lines = (demo_dir / "out_rag.jsonl").read_text().splitlines()
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("\n".join(lines + lines[4:5]) + "\n")
        corpus = ["--corpus", str(demo_dir / "proc.jsonl"), "--out", str(tmp_path / "o.json")]
        if command == "evaluate":
            argv = ["evaluate", "--outcomes", str(repeated), *corpus]
        else:
            argv = ["delong", "--outcomes-a", str(repeated), "--outcomes-b", str(demo_dir / "out_long.jsonl"), *corpus]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["category"] == "data"
        assert json.loads(lines[4])["patient_id"] in err["message"]
        assert err["message"].startswith(f"{repeated}: outcomes: ")

    def test_bad_line_in_second_outcomes_file_names_that_file(self, demo_dir, tmp_path, capsys):
        lines = (demo_dir / "out_long.jsonl").read_text().splitlines()
        bad_row = {**json.loads(lines[1]), "score": "0.5"}
        bad = tmp_path / "b.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(bad_row), *lines[2:]]) + "\n")
        assert main(["delong", "--outcomes-a", str(demo_dir / "out_rag.jsonl"), "--outcomes-b", str(bad),
                     "--corpus", str(demo_dir / "proc.jsonl"), "--out", str(tmp_path / "d.json")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CorpusFormatError"
        assert err["message"].startswith(f"{bad}: outcomes file line 2: ")

    def test_hashing_retrieve_over_a_dim_1_index_is_exit_2(self, demo_dir, tmp_path, capsys):
        from budgetrag.vindex import VectorIndex

        index = VectorIndex(dim=1, embedder_fingerprint="remote:one-wide")  # as a remote embedder can build
        index.add_many([("p0", 0)], np.ones((1, 1), np.float32))
        index.save(tmp_path / "i.brag")
        assert main(["retrieve", "--corpus", str(demo_dir / "proc.jsonl"), "--index", str(tmp_path / "i.brag"),
                     "--mode", "rag", "--out", str(tmp_path / "c.jsonl")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "data"
        assert "dim 1" in err["message"] and "'remote:one-wide'" in err["message"]
        assert list(tmp_path.iterdir()) == [tmp_path / "i.brag"]

    def test_missing_file_is_exit_2(self, tmp_path):
        assert main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_malformed_corpus_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"patient_id": "p1"}\n')
        assert main(["ingest", "--corpus", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "label" in err["message"]

    def test_remote_failure_is_exit_3(self, demo_dir, tmp_path, api_server, capsys, monkeypatch):
        monkeypatch.setattr("budgetrag.remote.time.sleep", lambda s: None)
        api_server.reset([(500, {})])
        assert main(["build-index", "--corpus", str(demo_dir / "proc.jsonl"),
                     "--out", str(tmp_path / "i.brag"),
                     "--embedder", "remote", "--endpoint", api_server.url,
                     "--model", "m"]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["category"] == "remote"

    def test_tampered_input_fingerprint_is_exit_2(self, demo_dir, tmp_path, capsys):
        workdir = tmp_path / "tamper"
        workdir.mkdir()
        for name in ("ctx_rag.jsonl", "ctx_rag.jsonl.manifest.json"):
            (workdir / name).write_bytes((demo_dir / name).read_bytes())
        with open(workdir / "ctx_rag.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(["classify", "--contexts", str(workdir / "ctx_rag.jsonl"),
                     "--out", str(workdir / "o.jsonl")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "FingerprintMismatchError"

    def test_index_of_an_older_corpus_is_exit_2(self, demo_dir, tmp_path, capsys):
        # the index was built from 64-word chunks; proc.jsonl is then re-ingested with 32-word chunks
        for name in ("corpus.jsonl", "index.brag", "index.brag.manifest.json"):
            (tmp_path / name).write_bytes((demo_dir / name).read_bytes())
        run(0, "ingest", "--corpus", tmp_path / "corpus.jsonl", "--out", tmp_path / "proc.jsonl",
            "--max-words", "32", "--deterministic")
        before = sorted(tmp_path.iterdir())
        run(2, "retrieve", "--corpus", tmp_path / "proc.jsonl", "--index", tmp_path / "index.brag",
            "--mode", "rag", "--out", tmp_path / "c.jsonl")
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FingerprintMismatchError"
        assert err["message"].startswith(f"{tmp_path / 'proc.jsonl'} differs from the file "
                                         f"{tmp_path / 'index.brag'} was built from")
        assert "re-run build-index" in err["message"]
        assert sorted(tmp_path.iterdir()) == before

    def test_tampered_secondary_output_is_exit_2(self, demo_dir, tmp_path, capsys):
        for name in ("m_rag.json", "m_rag.json.manifest.json", "roc_rag.csv"):
            (tmp_path / name).write_bytes((demo_dir / name).read_bytes())
        with open(tmp_path / "roc_rag.csv", "a", encoding="utf-8") as fh:
            fh.write("1.0,1.0\n")
        run(2, "report", "--metrics-rag", tmp_path / "m_rag.json", "--roc-rag", tmp_path / "roc_rag.csv",
            "--metrics-long", demo_dir / "m_long.json", "--roc-long", demo_dir / "roc_long.csv",
            "--out", tmp_path / "report")
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FingerprintMismatchError"
        assert "roc_rag.csv" in err["message"]
        assert not (tmp_path / "report.svg").exists()

    @pytest.mark.parametrize("argv,first,second", [
        (["retrieve", "--corpus", "{tmp}/proc.jsonl", "--mode", "long", "--out", "{tmp}/proc.jsonl"],
         "--out", "--corpus"),
        (["evaluate", "--outcomes", "{tmp}/out_rag.jsonl", "--corpus", "{tmp}/proc.jsonl",
          "--out", "{tmp}/m.json", "--roc-out", "{tmp}/m.json"], "--out", "--roc-out"),
        (["retrieve", "--corpus", "{tmp}/proc.jsonl", "--mode", "long",
          "--out", "{tmp}/sub/../proc.jsonl.manifest.json"], "--out", "the --corpus manifest"),
        (["evaluate", "--outcomes", "{tmp}/out_rag.jsonl", "--corpus", "{tmp}/proc.jsonl",
          "--out", "{tmp}/m", "--roc-out", "{tmp}/m.manifest.json"], "--roc-out", "the --out run manifest"),
    ])
    def test_output_naming_an_input_or_another_output_is_exit_1(self, demo_dir, tmp_path, capsys,
                                                                argv, first, second):
        for name in ("proc.jsonl", "proc.jsonl.manifest.json", "out_rag.jsonl", "out_rag.jsonl.manifest.json"):
            (tmp_path / name).write_bytes((demo_dir / name).read_bytes())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        run(1, *[a.format(tmp=tmp_path) for a in argv])
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UsageError"
        assert err["message"].startswith(f"{first} and {second} name the same file: ")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # nothing written or replaced

    # Each case's id is written beside it, so adding a case renames no other. These keep the ids pytest
    # gave them by position; a new case takes "<command>-<flag>-<value>".
    _OUT_OF_RANGE = {
        "--budget-words-0-argv0": ("--budget-words", "0", [
            "retrieve", "--corpus", "{demo}/proc.jsonl", "--index", "{demo}/index.brag", "--mode", "rag",
            "--out", "{tmp}/c.jsonl"]),
        # removed, not out of range: the word budget is retrieval's only knob
        "--top-n-scan-0-argv1": ("--top-n-scan", "0", [
            "retrieve", "--corpus", "{demo}/proc.jsonl", "--index", "{demo}/index.brag", "--mode", "rag",
            "--out", "{tmp}/c.jsonl"]),
        "--window-days-0-argv2": ("--window-days", "0", [
            "ingest", "--corpus", "{demo}/corpus.jsonl", "--out", "{tmp}/p.jsonl"]),
        "--max-words-0-argv3": ("--max-words", "0", [
            "ingest", "--corpus", "{demo}/corpus.jsonl", "--out", "{tmp}/p.jsonl"]),
        "--parallelism-0-argv4": ("--parallelism", "0", [
            "classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl"]),
        "--dim-1-argv5": ("--dim", "1", ["build-index", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/i.brag"]),
        "--max-retries-0-argv6": ("--max-retries", "0", [
            "classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl"]),
        # removed, not out of range: project takes each per-patient figure from the outcomes
        "--per-patient-tokens--1-argv7": ("--per-patient-tokens", "-1", _PROJECT),
        "--counts-1,x-argv8": ("--counts", "1,x", _PROJECT),
        "--classifier-remote-argv9": ("--classifier", "remote", [
            "classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl"]),
        "--embedder-remote-argv10": ("--embedder", "remote", [
            "build-index", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/i.brag"]),
        "--temperature-nan-argv11": ("--temperature", "nan", [
            "classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl"]),
        "--temperature-inf-argv12": ("--temperature", "inf", [
            "classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl"]),
        "--threshold-nan-argv13": ("--threshold", "nan", [
            "evaluate", "--outcomes", "{demo}/out_rag.jsonl", "--corpus", "{demo}/proc.jsonl",
            "--out", "{tmp}/m.json"]),
        "--threshold-inf-argv14": ("--threshold", "inf", [
            "evaluate", "--outcomes", "{demo}/out_rag.jsonl", "--corpus", "{demo}/proc.jsonl",
            "--out", "{tmp}/m.json"]),
        "--per-patient-tokens-inf-argv15": ("--per-patient-tokens", "inf", _PROJECT),  # removed
        "--seconds-rag-nan-argv16": ("--seconds-rag", "nan", _PROJECT),  # removed
        "--mode-rag-argv17": ("--mode", "rag", ["retrieve", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/c.jsonl"]),
        "--mode-long-argv18": ("--mode", "long", [
            "retrieve", "--corpus", "{demo}/proc.jsonl", "--index", "{demo}/index.brag", "--out", "{tmp}/c.jsonl"]),
        "--prices-x-argv19": ("--prices", "x", _PROJECT),  # the flag is gone
        "--dim-65537-argv20": ("--dim", "65537", [
            "build-index", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/i.brag"]),
        "--dim-1000000000-argv21": ("--dim", "1000000000", [
            "retrieve", "--corpus", "{demo}/proc.jsonl", "--index", "{demo}/index.brag", "--mode", "rag",
            "--out", "{tmp}/c.jsonl"]),
        "--seconds-long-1-argv22": ("--seconds-long", "1", _PROJECT),  # removed
        # with --mode rag: --mode long builds no embedder, so it asks for no --endpoint
        "--embedder-remote-argv23": ("--embedder", "remote", [
            "retrieve", "--corpus", "{demo}/proc.jsonl", "--index", "{demo}/index.brag", "--mode", "rag",
            "--out", "{tmp}/c.jsonl"]),
        "--counts--argv24": ("--counts", "", _PROJECT),  # no count at all
        "--counts-,,-argv25": ("--counts", ",,", _PROJECT),
    }

    @pytest.mark.parametrize("flag,value,argv", list(_OUT_OF_RANGE.values()), ids=list(_OUT_OF_RANGE))
    def test_out_of_range_flag_is_one_json_usage_error(self, demo_dir, tmp_path, capsys, flag, value, argv):
        args = [a.format(demo=demo_dir, tmp=tmp_path) for a in argv] + [flag, value]
        assert main(args) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "usage"
        assert flag in err["message"]
        assert not any(tmp_path.iterdir())

    # every int flag, with the rest of a command line that runs; classify starts one thread per
    # context up to --parallelism, so its contexts file has 3 lines
    _INT_FLAG_ARGV = {
        ("ingest", "--window-days"): ["ingest", "--corpus", "{demo}/corpus.jsonl", "--out", "{tmp}/p.jsonl"],
        ("ingest", "--max-words"): ["ingest", "--corpus", "{demo}/corpus.jsonl", "--out", "{tmp}/p.jsonl"],
        ("build-index", "--dim"): ["build-index", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/i.brag"],
        ("retrieve", "--budget-words"): ["retrieve", "--corpus", "{demo}/proc.jsonl", "--index", "{demo}/index.brag",
                                         "--mode", "rag", "--out", "{tmp}/c.jsonl"],
        ("retrieve", "--dim"): ["retrieve", "--corpus", "{demo}/proc.jsonl", "--index", "{demo}/index.brag",
                                "--mode", "rag", "--out", "{tmp}/c.jsonl"],
        ("classify", "--max-retries"): ["classify", "--contexts", "{tmp}/ctx.jsonl", "--out", "{tmp}/o.jsonl"],
        ("classify", "--parallelism"): ["classify", "--contexts", "{tmp}/ctx.jsonl", "--out", "{tmp}/o.jsonl"],
        ("project", "--counts"): _PROJECT,
    }

    @pytest.mark.parametrize("command,flag", list(_INT_FLAG_ARGV))
    def test_an_int_flag_of_400_digits_is_no_traceback(self, demo_dir, tmp_path, command, flag):
        sub, = (action for action in build_parser()._actions if action.dest == "command")
        assert set(self._INT_FLAG_ARGV) == {(name, action.option_strings[0]) for name, parser in sub.choices.items()
                                            for action in parser._actions
                                            if getattr(action.type, "__name__", "") in ("int", "counts")}
        lines = (demo_dir / "ctx_rag.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "ctx.jsonl").write_text("".join(lines[:3]), encoding="utf-8")
        argv = [a.format(demo=demo_dir, tmp=tmp_path) for a in self._INT_FLAG_ARGV[command, flag]]
        done = subprocess.run([sys.executable, "-m", "budgetrag.cli", *argv, flag, "1" + "0" * 400],
                              capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert "Traceback" not in done.stderr
        assert done.returncode in (0, 1, 2)
        errors = [json.loads(line) for line in done.stderr.splitlines()]
        assert len(errors) == (done.returncode != 0)

    @pytest.mark.parametrize("figures", [
        ["--price-per-million", "1e308", "--counts", "1000000"],  # the LONG arm's 687 words a patient
        ["--counts", "1" + "0" * 400],
    ], ids=["cost", "count-beyond-float"])
    def test_a_projected_figure_that_is_not_finite_is_a_usage_error(self, demo_dir, tmp_path, capsys, figures):
        run(1, *[a.format(demo=demo_dir, tmp=tmp_path) for a in _PROJECT], *figures)
        err, = map(json.loads, capsys.readouterr().err.splitlines())
        assert (err["error"], err["message"]) == (
            "UsageError", "--counts and --price-per-million give a projected figure that is not finite")
        assert not any(tmp_path.iterdir())

    @staticmethod
    def _without(path, key):
        data = json.loads(path.read_text())
        del data[key]
        return json.dumps(data)

    _REPORT_DELONG = ["report", "--metrics-rag", "{demo}/m_rag.json", "--metrics-long", "{demo}/m_long.json",
                      "--roc-rag", "{demo}/roc_rag.csv", "--roc-long", "{demo}/roc_long.csv", "--delong", "{bad}",
                      "--out", "{tmp}/report"]
    _REPORT_METRICS = ["report", "--metrics-rag", "{demo}/m_rag.json", "--metrics-long", "{bad}", "--roc-rag",
                       "{demo}/roc_rag.csv", "--roc-long", "{demo}/roc_long.csv", "--out", "{tmp}/report"]

    @pytest.mark.parametrize("name,content,argv", [
        ("template.txt", lambda demo: "Classify these notes.\n",
         ["classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl", "--prompt-template", "{bad}"]),
        ("metrics.json", lambda demo: TestExitCodes._without(demo / "m_rag.json", "auroc"),
         ["report", "--metrics-rag", "{bad}", "--metrics-long", "{demo}/m_long.json", "--roc-rag",
          "{demo}/roc_rag.csv", "--roc-long", "{demo}/roc_long.csv", "--out", "{tmp}/report"]),
        ("roc.csv", lambda demo: "fpr,tpr\n0.0,0.0\n0.5\n",
         ["report", "--metrics-rag", "{demo}/m_rag.json", "--metrics-long", "{demo}/m_long.json", "--roc-rag",
          "{demo}/roc_rag.csv", "--roc-long", "{bad}", "--out", "{tmp}/report"]),
        ("delong.json", lambda demo: TestExitCodes._without(demo / "delong.json", "p_value"),
         ["report", "--metrics-rag", "{demo}/m_rag.json", "--metrics-long", "{demo}/m_long.json", "--roc-rag",
          "{demo}/roc_rag.csv", "--roc-long", "{demo}/roc_long.csv", "--delong", "{bad}", "--out", "{tmp}/report"]),
        ("keywords.txt", lambda demo: b"\xff\xfe",
         ["classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl", "--keywords", "{bad}"]),
        ("keywords.txt", lambda demo: " \n\n",
         ["classify", "--contexts", "{demo}/ctx_rag.jsonl", "--out", "{tmp}/o.jsonl", "--keywords", "{bad}"]),
        ("types.txt", lambda demo: b"OR PreOp\n\xff\xfe\n",
         ["ingest", "--corpus", "{demo}/corpus.jsonl", "--out", "{tmp}/p.jsonl", "--whitelist", "{bad}"]),
        ("types.txt", lambda demo: "\n",
         ["ingest", "--corpus", "{demo}/corpus.jsonl", "--out", "{tmp}/p.jsonl", "--whitelist", "{bad}"]),
        ("roc.csv", lambda demo: "0.0,0.0\n0.5,0.5\n1.0,1.0\n",
         ["report", "--metrics-rag", "{demo}/m_rag.json", "--metrics-long", "{demo}/m_long.json", "--roc-rag",
          "{demo}/roc_rag.csv", "--roc-long", "{bad}", "--out", "{tmp}/report"]),
        ("roc.csv", lambda demo: "fpr,tpr\n0.0,0.0\nnan,0.5\n1.0,1.0\n",
         ["report", "--metrics-rag", "{demo}/m_rag.json", "--metrics-long", "{demo}/m_long.json", "--roc-rag",
          "{demo}/roc_rag.csv", "--roc-long", "{bad}", "--out", "{tmp}/report"]),
        ("roc.csv", lambda demo: "fpr,tpr\n0.0,0.0\n0.5,2.5\n1.0,1.0\n",
         ["report", "--metrics-rag", "{demo}/m_rag.json", "--metrics-long", "{demo}/m_long.json", "--roc-rag",
          "{demo}/roc_rag.csv", "--roc-long", "{bad}", "--out", "{tmp}/report"]),
        ("metrics.json", _with_field("m_long.json", "auroc", "0.9"), _REPORT_METRICS),
        ("metrics.json", _with_field("m_long.json", "precision", True), _REPORT_METRICS),
        ("metrics.json", _with_field("m_long.json", "recall", math.nan), _REPORT_METRICS),
        ("metrics.json", _with_field("m_long.json", "f1", 1.5), _REPORT_METRICS),
        ("metrics.json", _with_field("m_long.json", "patients", -1), _REPORT_METRICS),
        ("metrics.json", _with_field("m_long.json", "patients", 2.5), _REPORT_METRICS),
        ("delong.json", _with_field("delong.json", "variance_of_difference", -1), _REPORT_DELONG),
        ("delong.json", _with_field("delong.json", "z_statistic", math.inf), _REPORT_DELONG),
        ("delong.json", _with_field("delong.json", "p_value", 7), _REPORT_DELONG),
    ], ids=["template-without-context", "metrics-without-auroc", "roc-line-without-comma",
            "delong-without-p-value", "keywords-not-utf8", "keywords-empty", "whitelist-not-utf8",
            "whitelist-empty", "roc-without-header", "roc-nan-rate", "roc-rate-above-one",
            "metrics-auroc-string", "metrics-precision-bool", "metrics-recall-nan", "metrics-f1-above-one",
            "metrics-patients-negative", "metrics-patients-not-int", "delong-negative-variance",
            "delong-infinite-z", "delong-p-above-one"])
    def test_bad_side_file_is_one_json_data_error(self, demo_dir, tmp_path, capsys, name, content, argv):
        bad = tmp_path / name
        data = content(demo_dir)
        bad.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        assert main([a.format(bad=bad, demo=demo_dir, tmp=tmp_path) for a in argv]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "data"
        assert name in err["message"]
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("sidecar", ['{"outputs": ', '["not", "a", "manifest"]', '{"outputs": 7}',
                                         b'{"outputs": {"\xff": 1}}', '{"inputs": ["proc.jsonl"]}'],
                             ids=["truncated", "not-an-object", "outputs-not-an-object", "not-utf8",
                                  "inputs-not-an-object"])
    def test_corrupt_sidecar_manifest_is_one_json_data_error(self, demo_dir, tmp_path, capsys, sidecar):
        contexts = tmp_path / "c.jsonl"
        contexts.write_bytes((demo_dir / "ctx_rag.jsonl").read_bytes())
        manifest = tmp_path / "c.jsonl.manifest.json"
        manifest.write_bytes(sidecar if isinstance(sidecar, bytes) else sidecar.encode("utf-8"))
        assert main(["classify", "--contexts", str(contexts), "--out", str(tmp_path / "o.jsonl")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "data"
        assert manifest.name in err["message"]
        assert sorted(tmp_path.iterdir()) == [contexts, manifest]


    @pytest.mark.parametrize("source,argv", [
        ("corpus.jsonl", ["ingest", "--corpus", "{bad}", "--out", "{tmp}/p.jsonl"]),
        ("proc.jsonl", ["evaluate", "--outcomes", "{demo}/out_rag.jsonl", "--corpus", "{bad}",
                        "--out", "{tmp}/m.json"]),
        ("ctx_rag.jsonl", ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("out_rag.jsonl", ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl",
                           "--out", "{tmp}/m.json"]),
    ], ids=["raw-corpus", "processed-corpus", "contexts", "outcomes"])
    def test_line_not_utf8_is_one_json_data_error(self, demo_dir, tmp_path, capsys, source, argv):
        lines = (demo_dir / source).read_bytes().splitlines(keepends=True)
        bad = tmp_path / source
        bad.write_bytes(lines[0] + b'{"patient_id": "\xff"}\n' + b"".join(lines[1:]))
        assert main([a.format(bad=bad, demo=demo_dir, tmp=tmp_path) for a in argv]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "data"
        assert "line 2:" in err["message"]
        assert err["error"] == "CorpusFormatError"

    @pytest.mark.parametrize("flag", ["--corpus", "--out"])
    def test_directory_path_is_one_json_data_error(self, demo_dir, tmp_path, capsys, flag):
        paths = {"--corpus": demo_dir / "corpus.jsonl", "--out": tmp_path / "p.jsonl", flag: tmp_path}
        assert main(["ingest", *(str(a) for pair in paths.items() for a in pair)]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "data"
        assert str(tmp_path) in err["message"]


class TestFailedRunsLeaveNoOutput:
    @pytest.mark.parametrize("roc_out", ["roc", "missing/roc.csv"], ids=["a-directory", "in-a-missing-directory"])
    def test_evaluate_failing_at_its_second_output_leaves_neither(self, demo_dir, tmp_path, capsys, roc_out):
        (tmp_path / "roc").mkdir()
        assert main(["evaluate", "--outcomes", str(demo_dir / "out_rag.jsonl"), "--corpus", str(demo_dir / "proc.jsonl"),
                     "--out", str(tmp_path / "m.json"), "--roc-out", str(tmp_path / roc_out)]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert json.loads(err_lines[0])["category"] == "data"
        assert list(tmp_path.iterdir()) == [tmp_path / "roc"]
        assert list((tmp_path / "roc").iterdir()) == []

    def test_output_under_a_file_is_one_json_data_error(self, demo_dir, tmp_path, capsys):
        (tmp_path / "a-file").write_text("", encoding="utf-8")
        assert main(["retrieve", "--corpus", str(demo_dir / "proc.jsonl"), "--mode", "long",
                     "--out", str(tmp_path / "a-file" / "ctx.jsonl")]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert json.loads(err_lines[0])["error"] == "NotADirectoryError"
        assert list(tmp_path.iterdir()) == [tmp_path / "a-file"]

    def test_a_failed_rerun_keeps_the_earlier_outputs(self, demo_dir, tmp_path):
        argv = ["evaluate", "--outcomes", str(demo_dir / "out_rag.jsonl"), "--corpus", str(demo_dir / "proc.jsonl"),
                "--out", str(tmp_path / "m.json")]
        run(0, *argv, "--deterministic")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["m.json", "m.json.manifest.json"]
        run(2, *argv, "--threshold", "0.9", "--roc-out", tmp_path / "missing" / "roc.csv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestTextThatIsNotUnicode:
    """Text that no UTF-8 file can hold ends the command with one JSON error line and no file behind;
    in a remote chat reply, it fails only that patient."""

    def _error(self, capsys) -> dict:
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        return json.loads(err_lines[0])

    def test_number_of_over_4300_digits_in_the_raw_corpus_is_a_data_error(self, demo_dir, tmp_path, capsys):
        # json refuses to convert it, with a ValueError that is no JSONDecodeError
        first = (demo_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
        corpus = tmp_path / "corpus.jsonl"
        line = '{"patient_id": "p", "label": 1' + "0" * 5000 + ', "notes": []}'
        corpus.write_text(f"{first}\n{line}\n", encoding="utf-8")
        run(2, "ingest", "--corpus", corpus, "--out", tmp_path / "p.jsonl")
        err = self._error(capsys)
        assert err["error"] == "CorpusFormatError"
        assert err["message"].startswith(f"{corpus}: raw corpus line 2: invalid JSON: Exceeds the limit (4300 digits)")
        assert list(tmp_path.iterdir()) == [corpus]

    def test_lone_surrogate_escape_in_the_raw_corpus_is_a_data_error(self, demo_dir, tmp_path, capsys):
        first = (demo_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(first + '\n{"patient_id": "p\\ud800", "label": 0, "notes": []}\n', encoding="utf-8")
        run(2, "ingest", "--corpus", corpus, "--out", tmp_path / "p.jsonl")
        err = self._error(capsys)
        assert err["error"] == "CorpusFormatError"
        assert err["message"].startswith(f"{corpus}: raw corpus line 2: not valid Unicode")
        assert list(tmp_path.iterdir()) == [corpus]

    def test_lone_surrogate_escape_in_a_chat_reply_is_that_patients_failure(self, demo_dir, tmp_path, api_server):
        lines = (demo_dir / "ctx_rag.jsonl").read_text(encoding="utf-8").splitlines()[:2]
        (tmp_path / "ctx.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        # a verdict followed by a \ud800 escape, as raw bytes: json.dumps would escape the backslash
        bad = b'{"choices": [{"message": {"content": "{\\"complication\\": 1, \\"severity\\": 2} \\ud800"}}]}'
        good = {"choices": [{"message": {"content": '{"complication": 0, "severity": 1}'}}]}
        api_server.reset([(200, bad), (200, good)])
        run(0, "classify", "--contexts", tmp_path / "ctx.jsonl", "--out", tmp_path / "out.jsonl",
            "--classifier", "remote", "--endpoint", api_server.url, "--model", "m")
        rows = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()]
        ids = [json.loads(line)["patient_id"] for line in lines]
        assert [(row["patient_id"], "failed" in row) for row in rows] == [(ids[1], False), (ids[0], True)]
        assert (rows[1]["error"], rows[1]["message"]) == (
            "ResponseParseError", "choices[0].message.content is not valid Unicode: a lone surrogate escape")

    def test_query_that_is_not_utf8_is_a_usage_error(self, demo_dir, tmp_path, capsys):
        # Python hands an argv byte that is not UTF-8 to the program as a lone surrogate
        run(1, "retrieve", "--corpus", demo_dir / "proc.jsonl", "--index", demo_dir / "index.brag",
            "--mode", "rag", "--out", tmp_path / "c.jsonl", "--query", "sepsis \udcff")
        err = self._error(capsys)
        assert (err["error"], err["message"]) == ("UsageError", "--query is not valid UTF-8: 'sepsis \\udcff'")
        assert list(tmp_path.iterdir()) == []

    def test_out_path_that_is_not_utf8_writes_neither_output_nor_manifest(self, demo_dir, tmp_path):
        done = subprocess.run([sys.executable, "-m", "budgetrag.cli", "ingest", "--corpus",
                               str(demo_dir / "corpus.jsonl"), "--out", os.fsencode(tmp_path) + b"/p\xff.jsonl"],
                              capture_output=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == 1
        err = json.loads(done.stderr)
        assert err["error"] == "UsageError" and err["message"].startswith("--out is not valid UTF-8")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_that_cannot_be_encoded_is_not_opened(self, tmp_path):
        from budgetrag.manifest import write_manifest

        staged = tmp_path / "staged"
        staged.write_text("x", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            write_manifest(tmp_path / "out", command="ingest", config={"note": "\udcff"}, inputs={},
                           outputs={str(tmp_path / "out"): str(staged)}, started_at="")
        assert list(tmp_path.iterdir()) == [staged]


_DEEP = "[" * 200_000  # JSON nested deeper than the decoder's recursion limit


class TestJsonNestedTooDeep:
    """JSON nested past the decoder's recursion limit is malformed JSON wherever it is read: one JSON error
    line, or in a chat reply that patient's failure, and never a traceback."""

    @pytest.mark.parametrize("reader,code,error", [
        ("raw-corpus", 2, "CorpusFormatError"),
        ("sidecar-manifest", 2, "BudgetRagError"),
        ("report-metrics", 2, "BudgetRagError"),
        ("embedding-response", 3, "RemoteSchemaError"),
        ("chat-reply", 0, None),
    ])
    def test_is_no_traceback(self, demo_dir, tmp_path, api_server, capsys, reader, code, error):
        contexts = tmp_path / "ctx.jsonl"
        contexts.write_text("".join((demo_dir / "ctx_rag.jsonl").read_text(encoding="utf-8")
                                    .splitlines(keepends=True)[:2]), encoding="utf-8")
        remote = ["--endpoint", api_server.url, "--model", "m"]
        if reader == "raw-corpus":
            bad = tmp_path / "corpus.jsonl"
            bad.write_text(f'{{"patient_id": "p0", "label": 0, "notes": {_DEEP}\n', encoding="utf-8")
            argv = ["ingest", "--corpus", bad, "--out", tmp_path / "p.jsonl"]
        elif reader == "sidecar-manifest":
            bad = tmp_path / "ctx.jsonl.manifest.json"
            bad.write_text(_DEEP, encoding="utf-8")
            argv = ["classify", "--contexts", contexts, "--out", tmp_path / "o.jsonl"]
        elif reader == "report-metrics":
            bad = tmp_path / "metrics.json"
            bad.write_text(_DEEP, encoding="utf-8")
            argv = ["report", "--metrics-rag", bad, "--metrics-long", demo_dir / "m_long.json", "--roc-rag",
                    demo_dir / "roc_rag.csv", "--roc-long", demo_dir / "roc_long.csv", "--out", tmp_path / "report"]
        elif reader == "embedding-response":
            api_server.reset([(200, _DEEP.encode())])
            argv = ["build-index", "--corpus", demo_dir / "proc.jsonl", "--out", tmp_path / "i.brag",
                    "--embedder", "remote", *remote]
        else:
            good = {"choices": [{"message": {"content": '{"complication": 0, "severity": 1}'}}]}
            api_server.reset([(200, {"choices": [{"message": {"content": '{"complication": ' + _DEEP}}]}),
                              (200, good)])
            argv = ["classify", "--contexts", contexts, "--out", tmp_path / "o.jsonl", "--classifier", "remote",
                    *remote]
        before = sorted(tmp_path.iterdir())
        run(code, *argv)
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        if error is None:
            assert errors == []
            rows = [json.loads(line) for line in (tmp_path / "o.jsonl").read_text(encoding="utf-8").splitlines()]
            assert ["failed" in row for row in rows] == [False, True]
            assert rows[1]["error"] == "ResponseParseError"
        else:
            assert [e["error"] for e in errors] == [error]
            assert sorted(tmp_path.iterdir()) == before


class TestInputCheckedBeforeAnyRequest:
    """A remote command reads and checks its whole input before its first request, so a malformed
    last line costs no request."""

    @pytest.mark.parametrize("argv,source,bad_line", [
        (["classify", "--contexts", "{tmp}/in.jsonl", "--out", "{tmp}/o.jsonl", "--classifier", "remote"],
         "ctx_rag.jsonl", '{"patient_id": "p9999", "mode": "rag"'),
        (["build-index", "--corpus", "{tmp}/in.jsonl", "--out", "{tmp}/i.brag", "--embedder", "remote"],
         "proc.jsonl", '{"patient_id": "p9999", "label": "yes", "max_words": 64, "word_count": 1, "text": "x"}'),
    ], ids=["classify-contexts", "build-index-corpus"])
    def test_malformed_last_line_is_exit_2_with_no_request(self, demo_dir, tmp_path, api_server, capsys,
                                                           argv, source, bad_line):
        lines = (demo_dir / source).read_text(encoding="utf-8").splitlines()[:5]
        (tmp_path / "in.jsonl").write_text("\n".join(lines + [bad_line]) + "\n", encoding="utf-8")
        api_server.reset([(500, {})])
        run(2, *[a.format(tmp=tmp_path) for a in argv], "--endpoint", api_server.url, "--model", "m")
        err = json.loads(capsys.readouterr().err.strip())
        assert err["category"] == "data"
        assert "line 6" in err["message"], err
        assert api_server.requests == []
        assert list(tmp_path.iterdir()) == [tmp_path / "in.jsonl"]


class TestRetrieveValidation:
    def test_remote_rag_embeds_the_query_once(self, tmp_path, api_server):
        write_corpus(tmp_path / "corpus.jsonl", generate_corpus(5, seed=3))
        # one chunk per patient, so build-index sends the five chunks in one
        # request (ceil(5 / EMBED_BATCH)) and retrieve sends only the query
        run(0, "ingest", "--corpus", tmp_path / "corpus.jsonl", "--out", tmp_path / "proc.jsonl",
            "--max-words", "1000000")
        remote = ["--embedder", "remote", "--endpoint", api_server.url, "--model", "m"]
        api_server.reset([(200, {"data": [{"embedding": [3.0, 4.0]}] * 5})])
        run(0, "build-index", "--corpus", tmp_path / "proc.jsonl", "--out", tmp_path / "i.brag", *remote)
        assert len(api_server.requests) == 1
        api_server.reset([(200, {"data": [{"embedding": [3.0, 4.0]}]})])
        run(0, "retrieve", "--corpus", tmp_path / "proc.jsonl", "--index", tmp_path / "i.brag",
            "--mode", "rag", "--out", tmp_path / "c.jsonl", *remote)
        assert [body["input"] for _, _, body in api_server.requests] == [[DEFAULT_QUERY_TEXT]]
        assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 5


    def test_embedder_flags_bind_only_the_runs_that_embed(self, demo_dir, tmp_path):
        """retrieve --mode long builds no embedder, so --embedder remote asks for no --endpoint there; build-index
        records --model only for the remote embedder, which sends it."""
        run(0, "retrieve", "--corpus", demo_dir / "proc.jsonl", "--mode", "long", "--embedder", "remote",
            "--out", tmp_path / "c.jsonl")
        assert (tmp_path / "c.jsonl").read_bytes() == (demo_dir / "ctx_long.jsonl").read_bytes()
        run(0, "build-index", "--corpus", demo_dir / "proc.jsonl", "--out", tmp_path / "i.brag", "--dim", "512",
            "--model", "M", "--deterministic")
        config = json.loads((tmp_path / "i.brag.manifest.json").read_text())["config"]
        assert config == {"embedder": "hashing", "dim": 512, "model": None}
        assert (tmp_path / "i.brag").read_bytes() == (demo_dir / "index.brag").read_bytes()

    def test_rag_scores_each_row_once(self, demo_dir, tmp_path, monkeypatch):
        from budgetrag import vindex

        calls = []

        def spy(vectors, query, rows):
            calls.append(list(rows))
            return score_rows(vectors, query, rows)

        score_rows = vindex.score_rows
        monkeypatch.setattr(vindex, "score_rows", spy)
        run(0, "retrieve", "--corpus", demo_dir / "proc.jsonl", "--index", demo_dir / "index.brag",
            "--mode", "rag", "--budget-words", "256", "--out", tmp_path / "c.jsonl")
        assert len(calls) == 60  # one search per patient, each scoring that patient's rows
        assert sorted(row for rows in calls for row in rows) == \
            list(range(len(vindex.VectorIndex.load(demo_dir / "index.brag"))))
        assert (tmp_path / "c.jsonl").read_bytes() == (demo_dir / "ctx_rag.jsonl").read_bytes()

    @pytest.mark.parametrize("change,message", [
        # p0001 gains a copy of its last note: 5 more 64-word chunks than the index holds
        ("extra-note", "chunk ('p0001', 10) is not indexed; chunk ('p0001', 11) is not indexed; "
                       "chunk ('p0001', 12) is not indexed; chunk ('p0001', 13) is not indexed; "
                       "chunk ('p0001', 14) is not indexed"),
        # p0001 loses its last note: 5 index entries have no chunk
        ("missing-note", "index entry ('p0001', 5) has no matching chunk; "
                         "index entry ('p0001', 6) has no matching chunk; "
                         "index entry ('p0001', 7) has no matching chunk; "
                         "index entry ('p0001', 8) has no matching chunk; "
                         "index entry ('p0001', 9) has no matching chunk"),
        # p0001's notes lose their text: it has no chunks for its 10 index entries
        ("emptied-notes", "; ".join(f"index entry ('p0001', {position}) has no matching chunk"
                                    for position in range(10))),
    ], ids=["extra-note", "missing-note", "emptied-notes"])
    def test_chunks_and_index_entries_that_differ_are_exit_2(self, tmp_path, capsys, change, message):
        rows = generate_corpus(4, seed=0).records

        def ingest(name):
            (tmp_path / name).write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            run(0, "ingest", "--corpus", tmp_path / name, "--out", tmp_path / f"proc_{name}", "--max-words", "64")

        ingest("corpus.jsonl")
        run(0, "build-index", "--corpus", tmp_path / "proc_corpus.jsonl", "--out", tmp_path / "idx.bin")
        (tmp_path / "idx.bin.manifest.json").unlink()  # with it, the fingerprint check stops the run first
        notes = rows[1]["notes"]
        changed = {"extra-note": notes + notes[-1:], "missing-note": notes[:-1],
                   "emptied-notes": [{**note, "text": ""} for note in notes]}
        rows[1] = {**rows[1], "notes": changed[change]}
        ingest("changed.jsonl")
        capsys.readouterr()
        run(2, "retrieve", "--corpus", tmp_path / "proc_changed.jsonl", "--index", tmp_path / "idx.bin",
            "--mode", "rag", "--out", tmp_path / "c.jsonl")
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "BudgetRagError", "category": "data",
                       "message": f"the index and the chunks of patient 'p0001' differ: {message}"}
        assert not (tmp_path / "c.jsonl").exists()


class TestBuildIndexBatching:
    """build-index embeds chunks in batches of EMBED_BATCH across patients: one remote request per batch.
    After the first batch, sent alone, up to EMBED_IN_FLIGHT requests are open at once, and the rows enter
    the index in patient/position order whichever response comes first. The stub answers each request by
    its inputs, whatever the order in which the requests arrive."""

    PATIENTS, CHUNKS = 3, 50

    @classmethod
    def _corpus(cls, tmp_path, patients=PATIENTS):
        # patients of 50 one-word chunks; with 3, the batches hold chunks 0-63, 64-127
        # and 128-149, so p1 straddles the first boundary and p2 the second
        rows = [{"patient_id": f"p{p}", "label": p % 2, "max_words": 1, "word_count": cls.CHUNKS,
                 "text": " ".join(f"w{p}x{i}" for i in range(cls.CHUNKS))} for p in range(patients)]
        path = tmp_path / "proc.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return path

    @pytest.fixture
    def corpus(self, tmp_path):
        return self._corpus(tmp_path)

    def _build(self, corpus, api_server, script, expected_code, out="i.brag"):
        api_server.reset(script)
        run(expected_code, "build-index", "--corpus", corpus, "--out", corpus.parent / out,
            "--embedder", "remote", "--endpoint", api_server.url, "--model", "m")

    @classmethod
    def _chunk(cls, text: str) -> int:
        """The corpus-wide number of the chunk w{p}x{i}."""
        patient, position = text[1:].split("x")
        return int(patient) * cls.CHUNKS + int(position)

    @classmethod
    def _batch(cls, body) -> int:
        return cls._chunk(body["input"][0]) // 64

    @classmethod
    def _answer(cls, body, width=2):
        # chunk g gets the direction (1, g), padded with zeros to the width
        return 200, {"data": [{"embedding": [1.0, float(cls._chunk(text))] + [0.0] * (width - 2)}
                              for text in body["input"]]}

    @staticmethod
    def _wait(condition, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.002)

    def _request_of(self, api_server, batch: int) -> int | None:
        """The number of the request that sent ``batch``; None before it arrives."""
        return next((i for i, (_, _, body) in enumerate(api_server.requests) if self._batch(body) == batch), None)

    def _stopped_at(self, api_server, batch: int) -> None:
        """No request opened once the response to ``batch``, the one that failed, was being written, and no
        more than EMBED_IN_FLIGHT were open at once."""
        from budgetrag.cli import EMBED_IN_FLIGHT

        events = api_server.events
        assert [kind for kind, _ in events[events.index(("answer", self._request_of(api_server, batch))):]
                if kind == "open"] == []
        assert api_server.max_open <= EMBED_IN_FLIGHT

    def _assert_rows(self, path, patients):
        from budgetrag.vindex import VectorIndex

        rows = index_rows(VectorIndex.load(path))
        assert [ref for ref, _ in rows] == [(f"p{p}", i) for p in range(patients) for i in range(self.CHUNKS)]
        for g, (_, vec) in enumerate(rows):
            direction = np.array([1.0, g])
            assert np.array_equal(vec, (direction / np.linalg.norm(direction)).astype(np.float32))

    def test_one_request_per_batch_across_patients(self, corpus, api_server):
        self._build(corpus, api_server, [self._answer], 0)
        inputs = sorted((body["input"] for _, _, body in api_server.requests), key=lambda batch: self._chunk(batch[0]))
        assert [len(batch) for batch in inputs] == [64, 64, 22]
        texts = [f"w{p}x{i}" for p in range(self.PATIENTS) for i in range(self.CHUNKS)]
        assert [text for batch in inputs for text in batch] == texts  # each chunk sent once
        self._assert_rows(corpus.parent / "i.brag", self.PATIENTS)

    @pytest.mark.parametrize("rows", [0, 2])
    @pytest.mark.parametrize("dim", [None, 8])
    def test_a_corpus_without_chunks_sends_no_request(self, tmp_path, api_server, rows, dim):
        from budgetrag.vindex import VectorIndex

        corpus = tmp_path / "proc.jsonl"
        corpus.write_text("".join(json.dumps({"patient_id": f"p{p}", "label": 0, "max_words": 1, "word_count": 0,
                                              "text": ""}) + "\n" for p in range(rows)), encoding="utf-8")
        api_server.reset([(200, {"data": [{"embedding": [1.0, 0.0]}]})])
        run(0, "build-index", "--corpus", corpus, "--out", tmp_path / "i.brag", "--embedder", "remote",
            "--endpoint", api_server.url, "--model", "m", *(["--dim", dim] if dim else []))
        index = VectorIndex.load(tmp_path / "i.brag")
        assert (api_server.requests, len(index), index.dim) == ([], 0, dim or 256)

    @pytest.mark.parametrize("bad", ["short-data", "ragged-rows"])
    def test_bad_response_is_exit_3_and_leaves_no_output(self, corpus, api_server, capsys, bad):
        def answer(body):
            status, payload = self._answer(body)
            if self._batch(body) == 1:  # the second batch, answered once the third has arrived
                self._wait(lambda: len(api_server.requests) == 3)
                if bad == "short-data":
                    payload["data"].pop()
                else:
                    payload["data"][10]["embedding"].append(0.5)
            return status, payload

        self._build(corpus, api_server, [answer], 3)
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["error"], err["category"]) == ("RemoteSchemaError", "remote")
        self._stopped_at(api_server, 1)
        assert list(corpus.parent.iterdir()) == [corpus]

    def test_widths_that_differ_across_batches_are_exit_2_and_leave_no_output(self, corpus, api_server, capsys):
        def answer(body):
            if self._batch(body) == 1:  # the second batch, answered once the third has arrived
                self._wait(lambda: len(api_server.requests) == 3)
                return self._answer(body, width=3)
            return self._answer(body)

        self._build(corpus, api_server, [answer], 2)
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert (err["error"], err["category"]) == ("DimensionMismatchError", "data")
        assert "vectors of width 2, then 3" in err["message"]
        self._stopped_at(api_server, 1)
        assert list(corpus.parent.iterdir()) == [corpus]

    def test_items_placed_by_their_index_give_the_in_order_bytes(self, corpus, api_server):
        def reversed_with_index(body):
            status, payload = self._answer(body)
            payload["data"] = [{**item, "index": i} for i, item in enumerate(payload["data"])][::-1]
            return status, payload

        self._build(corpus, api_server, [self._answer], 0, out="plain.brag")
        self._build(corpus, api_server, [reversed_with_index], 0, out="indexed.brag")
        assert (corpus.parent / "indexed.brag").read_bytes() == (corpus.parent / "plain.brag").read_bytes()

    def test_requests_overlap_up_to_the_limit(self, tmp_path, api_server):
        from budgetrag.cli import EMBED_IN_FLIGHT

        corpus = self._corpus(tmp_path, patients=8)  # 400 chunks: 7 batches

        def answer(body):  # the second and third batches, in whichever order they arrive, wait for each other
            if self._batch(body) in (1, 2):
                self._wait(lambda: api_server.max_open >= 2)
            return self._answer(body)

        self._build(corpus, api_server, [answer], 0)
        assert 1 < api_server.max_open <= EMBED_IN_FLIGHT
        assert sorted(map(self._batch, (body for _, _, body in api_server.requests))) == list(range(7))
        self._assert_rows(tmp_path / "i.brag", 8)

    def test_rows_enter_in_batch_order_whichever_response_comes_first(self, tmp_path, api_server, monkeypatch):
        from budgetrag import cli

        corpus = self._corpus(tmp_path, patients=8)  # 7 batches: the first alone, then 1-4 at once

        def last_first(body):  # batches 1-3 each wait until the next one's response is written
            batch = self._batch(body)
            if 1 <= batch < cli.EMBED_IN_FLIGHT:
                self._wait(lambda: ("done", self._request_of(api_server, batch + 1)) in api_server.events)
            return self._answer(body)

        self._build(corpus, api_server, [last_first], 0)
        answered = [self._batch(api_server.requests[i][2]) for kind, i in api_server.events if kind == "answer"]
        assert answered[:cli.EMBED_IN_FLIGHT + 1] == [0, *range(cli.EMBED_IN_FLIGHT, 0, -1)]
        self._assert_rows(tmp_path / "i.brag", 8)
        monkeypatch.setattr(cli, "EMBED_IN_FLIGHT", 1)
        self._build(corpus, api_server, [self._answer], 0, out="one-at-a-time.brag")
        assert api_server.max_open == 1
        assert (tmp_path / "i.brag").read_bytes() == (tmp_path / "one-at-a-time.brag").read_bytes()

    def test_a_failed_batch_ends_the_run_without_waiting_for_the_others(self, tmp_path, api_server):
        corpus = self._corpus(tmp_path, patients=8)  # 7 batches: the first alone, then 1-4 at once
        release = threading.Event()

        def answer(body):  # batch 1 is held for 5 s; batch 2 fails once batches 3 and 4 have arrived
            batch = self._batch(body)
            if batch == 1:
                release.wait(5)
            elif batch == 2:
                self._wait(lambda: len(api_server.requests) == 5)
                return 400, {"error": "bad input"}
            return self._answer(body)

        api_server.reset([answer])
        argv = ["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "i.brag"), "--embedder", "remote",
                "--endpoint", api_server.url, "--model", "m"]
        started = time.monotonic()
        try:
            done = subprocess.run([sys.executable, "-m", "budgetrag.cli", *argv], capture_output=True, text=True,
                                  timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
            elapsed = time.monotonic() - started
            self._stopped_at(api_server, 2)
        finally:
            release.set()
            assert api_server.wait_idle(10)
        assert done.returncode == 3, done.stderr
        err = json.loads(done.stderr)
        assert (err["error"], err["category"]) == ("RemoteServiceError", "remote")
        assert "HTTP 400" in err["message"]
        assert elapsed < 4, elapsed  # batch 1's response was still 5 s away
        assert list(tmp_path.iterdir()) == [corpus]


def test_in_flight_requests_stay_below_the_listen_backlog():
    """A server on socketserver's default listen backlog (``request_queue_size``, 5), as both stubs are, queues
    that many connections; more at once wait out SYN retransmits."""
    import socketserver

    from budgetrag.cli import EMBED_IN_FLIGHT

    assert 1 < EMBED_IN_FLIGHT < socketserver.TCPServer.request_queue_size


# In a fresh interpreter (a fork of the test process would copy its threads' state): run
# build-index once per CPU count in config["cpus"], each with cli._usable_cpus returning that
# count, and print per run its exit code, error lines, whether numpy was loaded at each fork, and
# whether a child process is left. With config["fail_parent_share"], the parent's own share
# raises OSError while the workers embed theirs; with config["kill_worker_share"], each worker
# is killed by SIGKILL as it starts its share; with config["raise_worker_share"], each worker's
# share raises ValueError; with config["fail_second_fork"], the second fork fails.
_SHARES_SCRIPT = """
import contextlib, io, json, os, signal, sys
config = json.loads(sys.argv[1])
sys.path.insert(0, config["src"])
from budgetrag import cli

forks, fork = [], os.fork
def counting_fork():
    forks.append("numpy" in sys.modules)
    return fork()
os.fork = counting_fork

def failing_fork():
    if len(forks) == 1:
        raise BlockingIOError(11, "fork failed")
    return counting_fork()
if config.get("fail_second_fork"):
    os.fork = failing_fork

parent, embed_share = os.getpid(), cli._embed_share
def failing_share(*share):
    if os.getpid() == parent:
        raise OSError(5, "parent share failed")
    return embed_share(*share)
if config["fail_parent_share"]:
    cli._embed_share = failing_share

def killed_share(*share):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return embed_share(*share)
if config["kill_worker_share"]:
    cli._embed_share = killed_share

def raising_share(*share):
    if os.getpid() != parent:
        raise ValueError("worker share failed")
    return embed_share(*share)
if config.get("raise_worker_share"):
    cli._embed_share = raising_share

runs = []
for cpus in config["cpus"]:
    cli._usable_cpus = lambda: cpus
    forks.clear()
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(config["argv"] + ["--out", f"{config['out']}.{cpus}"])
    try:
        os.waitpid(-1, os.WNOHANG)
        children = True
    except ChildProcessError:
        children = False
    runs.append({"code": code, "errors": err.getvalue().splitlines(), "forks": list(forks),
                 "children": children})
print(json.dumps(runs))
"""


def _build_with_cpus(argv, out, cpus, fail_parent_share=False, kill_worker_share=False):
    config = {"src": str(Path(__file__).resolve().parents[1] / "src"), "argv": [str(a) for a in argv],
              "out": str(out), "cpus": cpus, "fail_parent_share": fail_parent_share,
              "kill_worker_share": kill_worker_share}
    done = subprocess.run([sys.executable, "-c", _SHARES_SCRIPT, json.dumps(config)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="build-index forks workers only where fork exists")
class TestBuildIndexShares:
    """build-index embeds contiguous shares of patients, one per usable CPU, the first in this
    process and the others in workers forked before numpy is imported. The index bytes do not
    depend on the number of shares, and no worker outlives the command."""

    @staticmethod
    def _processed(tmp_path, patients, notes, blocks, block_words, max_words):
        raw = tmp_path / "corpus.jsonl"
        write_corpus(raw, generate_corpus(patients, notes_per_patient=notes, blocks_per_note=blocks,
                                          block_words=block_words, seed=5))
        run(0, "ingest", "--corpus", raw, "--out", tmp_path / "proc.jsonl", "--max-words", max_words)
        return tmp_path / "proc.jsonl"

    @pytest.mark.parametrize("patients,notes,blocks,block_words,max_words,dim,cpus,empty", [
        (6, 5, 8, 512, 512, 256, 2, 0),  # the long-records shape: 40 chunks of 512 words per patient
        (96, 1, 4, 32, 64, 64, 3, 0),  # the many-short-records shape: 2 chunks per patient
        (0, 1, 1, 8, 8, 16, 4, 0),
        (1, 2, 5, 64, 64, 32, 4, 0),
        (3, 2, 5, 64, 16, 32, 8, 0),  # fewer patients than CPUs: 3 shares
        (6, 2, 5, 64, 64, 32, 3, 2),  # the first share's 2 patients have no text, so no chunks
    ], ids=["long-records", "many-short-records", "0-patients", "1-patient", "fewer-patients-than-cpus",
            "empty-first-share"])
    def test_worker_run_writes_the_in_process_bytes(self, tmp_path, patients, notes, blocks, block_words,
                                                    max_words, dim, cpus, empty):
        if patients:
            corpus = self._processed(tmp_path, patients, notes, blocks, block_words, max_words)
            if empty:  # written anew, without the ingest manifest that binds the file's bytes
                rows = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
                for row in rows[:empty]:
                    row.update(text="", word_count=0)
                corpus = tmp_path / "emptied.jsonl"
                corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        else:
            corpus = tmp_path / "proc.jsonl"
            corpus.write_text("", encoding="utf-8")
        out = tmp_path / "index.brag"
        argv = ["build-index", "--corpus", corpus, "--dim", dim, "--deterministic"]
        workers, alone = _build_with_cpus(argv, out, [cpus, 1])
        assert workers == {"code": 0, "errors": [], "children": False,
                           "forks": [False] * (min(cpus, patients) - 1)}  # numpy loaded after every fork
        assert alone == {"code": 0, "errors": [], "children": False, "forks": []}
        from budgetrag.vindex import VectorIndex

        assert Path(f"{out}.{cpus}").read_bytes() == Path(f"{out}.1").read_bytes()
        index = VectorIndex.load(f"{out}.1")
        assert index.dim == dim
        rows = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        assert [ref for ref, _ in index_rows(index)] == [(row["patient_id"], i) for row in rows
                                                     for i in range(-(-row["word_count"] // max_words))]

    def test_no_worker_outlives_a_run_or_leaves_a_staged_file(self, tmp_path):
        corpus = self._processed(tmp_path, 8, 2, 5, 64, 64)
        argv = ["build-index", "--corpus", corpus, "--dim", "32"]
        ok, = _build_with_cpus(argv, tmp_path / "index.brag", [3])
        assert ok == {"code": 0, "errors": [], "children": False, "forks": [False, False]}
        unwritable, = _build_with_cpus(argv, tmp_path / "proc.jsonl" / "index.brag", [3])  # a file as its directory
        failed, = _build_with_cpus(argv, tmp_path / "index.brag", [3], fail_parent_share=True)
        for run_ in (unwritable, failed):
            assert (run_["code"], run_["children"], run_["forks"]) == (2, False, [False, False])
            error, = run_["errors"]
            assert json.loads(error)["category"] == "data"
        assert "parent share failed" in failed["errors"][0]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.jsonl", "index.brag.3", "index.brag.3.manifest.json", "proc.jsonl", "proc.jsonl.manifest.json"]

    def test_a_killed_worker_is_one_json_data_error_naming_its_patients(self, tmp_path):
        corpus = self._processed(tmp_path, 8, 2, 5, 64, 64)
        ids = [json.loads(line)["patient_id"] for line in corpus.read_text(encoding="utf-8").splitlines()]
        killed, = _build_with_cpus(["build-index", "--corpus", corpus, "--dim", "32"], tmp_path / "index.brag", [2],
                                   kill_worker_share=True)
        assert (killed["code"], killed["children"], killed["forks"]) == (2, False, [False])
        error, = killed["errors"]
        err = json.loads(error)
        assert (err["error"], err["category"]) == ("BudgetRagError", "data")
        assert err["message"].startswith(f"patients {ids[4]} to {ids[7]} were not embedded: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "proc.jsonl", "proc.jsonl.manifest.json"]

    @pytest.mark.parametrize("failure", ["raise_worker_share", "fail_second_fork"])
    def test_a_failed_share_or_fork_leaves_no_worker_and_no_staged_file(self, tmp_path, failure):
        corpus = self._processed(tmp_path, 9, 2, 5, 64, 64)
        ids = [json.loads(line)["patient_id"] for line in corpus.read_text(encoding="utf-8").splitlines()]
        config = {"src": str(SRC), "argv": ["build-index", "--corpus", str(corpus), "--dim", "32"],
                  "out": str(tmp_path / "index.brag"), "cpus": [3], "fail_parent_share": False,
                  "kill_worker_share": False, failure: True}
        done = subprocess.run([sys.executable, "-c", _SHARES_SCRIPT, json.dumps(config)],
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")  # no traceback, the workers' included
        forks, error_type, message = {
            "raise_worker_share": ([False, False], "BudgetRagError",
                                   f"patients {ids[3]} to {ids[5]} were not embedded: the worker exited with status 1"),
            "fail_second_fork": ([False], "BlockingIOError", "[Errno 11] fork failed"),  # the first worker is reaped
        }[failure]
        failed, = json.loads(done.stdout)
        assert (failed["code"], failed["children"], failed["forks"]) == (2, False, forks)
        error, = failed["errors"]
        assert json.loads(error) == {"error": error_type, "category": "data", "message": message}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "proc.jsonl", "proc.jsonl.manifest.json"]

    def test_a_run_on_two_shares_leaves_no_pipe_open(self, tmp_path):
        corpus = self._processed(tmp_path, 8, 2, 5, 64, 64)
        argv = ["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "index.brag"), "--dim", "32"]
        code = f"from budgetrag import cli; cli._usable_cpus = lambda: 2; raise SystemExit(cli.main({argv!r}))"
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
                              capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (done.returncode, done.stderr) == (0, "")

    def test_a_dim_above_the_maximum_is_a_usage_error_before_any_fork(self, tmp_path):
        corpus = self._processed(tmp_path, 8, 2, 5, 64, 64)
        refused, = _build_with_cpus(["build-index", "--corpus", corpus, "--dim", "70000"], tmp_path / "index.brag",
                                    [2])
        assert (refused["code"], refused["children"], refused["forks"]) == (1, False, [])
        error, = refused["errors"]
        assert json.loads(error)["message"] == "argument --dim: must be <= 65536, got 70000"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads process states from /proc")
    def test_a_killed_parent_leaves_no_worker(self, tmp_path):
        def alive(pid):
            status = Path(f"/proc/{pid}/status")
            return status.exists() and "(zombie)" not in status.read_text()

        corpus = self._processed(tmp_path, 4, 1, 4, 32, 64)
        pid_file = tmp_path / "worker.pid"
        # the worker records its pid and stalls; the parent then waits for its result
        script = f"""
import os, sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
from budgetrag import cli
cli._usable_cpus = lambda: 2
parent, embed_share = os.getpid(), cli._embed_share
def stalled_share(*share):
    if os.getpid() != parent:
        with open({str(pid_file)!r} + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace({str(pid_file)!r} + ".tmp", {str(pid_file)!r})
        time.sleep(60)
    return embed_share(*share)
cli._embed_share = stalled_share
cli.main(["build-index", "--corpus", {str(corpus)!r}, "--out", {str(tmp_path / "index.brag")!r}])
"""
        parent = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() and parent.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pid_file.exists(), "the worker never started its share"
        finally:
            parent.kill()
            parent.wait(timeout=30)
        worker = int(pid_file.read_text())
        deadline = time.monotonic() + 10
        while alive(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        if alive(worker):
            os.kill(worker, signal.SIGKILL)
            pytest.fail(f"worker {worker} outlived its killed parent")


# In a fresh interpreter: run build-index with cli._usable_cpus returning config["cpus"], and print
# its exit code and the number of rows of each VectorIndex.add_many call.
_ADD_MANY_SCRIPT = """
import json, sys
config = json.loads(sys.argv[1])
sys.path.insert(0, config["src"])
from budgetrag import cli
from budgetrag.vindex import VectorIndex

rows, add_many = [], VectorIndex.add_many
def counting_add_many(self, keys, matrix):
    rows.append(len(matrix))
    return add_many(self, keys, matrix)
VectorIndex.add_many = counting_add_many
cli._usable_cpus = lambda: config["cpus"]
print(json.dumps({"code": cli.main(config["argv"]), "rows": rows}))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="build-index forks workers only where fork exists")
@pytest.mark.parametrize("cpus,rows", [(1, [192]), (2, [96, 96]), (3, [64, 64, 64])])
def test_build_index_adds_each_share_with_one_add_many(tmp_path, cpus, rows):
    # 96 patients of 2 chunks: each share of 96 / cpus patients, the parent's too, is added with one call
    corpus = TestBuildIndexShares._processed(tmp_path, 96, 1, 4, 32, 64)
    argv = ["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "index.brag"), "--dim", "64"]
    config = {"src": str(SRC), "argv": argv, "cpus": cpus}
    done = subprocess.run([sys.executable, "-c", _ADD_MANY_SCRIPT, json.dumps(config)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "rows": rows}


class TestSyntheticCli:
    def test_module_entry_point(self, tmp_path, capsys):
        from budgetrag.synthetic import main as synth_main

        out = tmp_path / "corpus.jsonl"
        assert synth_main(["--patients", "4", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4


class TestProcessedCorpus:
    def test_word_count_is_the_whitespace_split_of_the_text(self, tmp_path):
        # ingest sums the notes' counts: every line boundary str.splitlines knows, at a note's edges too
        breaks = ["\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
        text = "".join(f"w{i}{brk}" for i, brk in enumerate(breaks)) + "last"
        notes = [{"note_type": "Addendum IP Operative Report", "timestamp": f"2024-03-10T0{hour}:00:00Z",
                  "text": note} for hour, note in enumerate([text, f"\x85{text}\u2029", "one", f"x{text}"])]
        (tmp_path / "raw.jsonl").write_text(json.dumps({"patient_id": "p0", "label": 1, "notes": notes}) + "\n",
                                            encoding="utf-8")
        run(0, "ingest", "--corpus", tmp_path / "raw.jsonl", "--out", tmp_path / "proc.jsonl")
        row = json.loads((tmp_path / "proc.jsonl").read_text(encoding="utf-8"))  # one line: "\u2028" is no JSONL break
        assert row["word_count"] == len(row["text"].split()) == 3 * (len(breaks) + 1) + 1

    def test_rows_hold_text_once_and_rag_contexts_match_library(self, demo_dir):
        from budgetrag.corpus import chunk_text, concat_text, load_corpus, window_notes
        from budgetrag.embedding import HashingEmbedder
        from budgetrag.retrieval import RetrievalConfig, assemble_rag_from_chunks, context_to_json
        from budgetrag.vindex import VectorIndex

        rows = [json.loads(l) for l in (demo_dir / "proc.jsonl").read_text().splitlines()]
        assert len(rows) == 60
        for row in rows:
            assert set(row) == {"patient_id", "label", "max_words", "word_count", "text"}
        index = VectorIndex.load(demo_dir / "index.brag")
        query = HashingEmbedder(512).embed(DEFAULT_QUERY_TEXT)
        cfg = RetrievalConfig(budget_words=256)
        contexts = {c["patient_id"]: c for c in
                    map(json.loads, (demo_dir / "ctx_rag.jsonl").read_text().splitlines())}
        records = load_corpus(demo_dir / "corpus.jsonl")
        assert sorted(contexts) == sorted(r.patient_id for r in records)
        for record in records:
            chunks = chunk_text(concat_text(window_notes(record, 30)), 64, patient_id=record.patient_id)
            expected = assemble_rag_from_chunks(record.patient_id, chunks, index, query, cfg)
            assert contexts[record.patient_id] == context_to_json(expected), record.patient_id

    @pytest.mark.parametrize("source,drop,extra,bad_line,argv", [
        ("proc.jsonl", "text", {}, 2,
         ["build-index", "--corpus", "{bad}", "--out", "{tmp}/i.brag"]),
        ("proc.jsonl", "max_words", {"chunks": [{"position": 0, "word_count": 1, "text": "x"}]}, 1,
         ["build-index", "--corpus", "{bad}", "--out", "{tmp}/i.brag"]),
        ("ctx_rag.jsonl", "mode", {}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("out_rag.jsonl", "label", {}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("out_rag.jsonl", "score", {"score": math.nan}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("out_rag.jsonl", "score", {"score": "nan"}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("proc.jsonl", "label", {"label": 2}, 2,
         ["evaluate", "--outcomes", "{demo}/out_rag.jsonl", "--corpus", "{bad}", "--out", "{tmp}/m.json"]),
        ("proc.jsonl", "label", {"label": True}, 2,
         ["evaluate", "--outcomes", "{demo}/out_rag.jsonl", "--corpus", "{bad}", "--out", "{tmp}/m.json"]),
        ("ctx_rag.jsonl", "text", {"text": 5}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("out_rag.jsonl", "latency_ms", {}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("out_rag.jsonl", "severity_defaulted", {"severity_defaulted": "no"}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("ctx_rag.jsonl", "selected_positions", {"selected_positions": "xyz"}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("ctx_rag.jsonl", "selected_positions", {"selected_positions": [1.5]}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("ctx_rag.jsonl", "selected_positions", {}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("corpus.jsonl", "anchor_date", {"anchor_date": "0001-01-01T00:00:00+01:00"}, 2,
         ["ingest", "--corpus", "{bad}", "--out", "{tmp}/p.jsonl"]),
        ("out_rag.jsonl", "latency_ms", {"latency_ms": -1}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("out_rag.jsonl", "prompt_words", {"prompt_words": 2 ** 53}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("ctx_rag.jsonl", "mode", {"mode": "BOGUS"}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("ctx_rag.jsonl", "word_count", {"word_count": -5}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("ctx_long.jsonl", "total_words", {"total_words": -1}, 2,
         ["classify", "--contexts", "{bad}", "--out", "{tmp}/o.jsonl"]),
        ("out_rag.jsonl", "mode", {"mode": "BOGUS"}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
        ("out_rag.jsonl", "mode", {"mode": "rag", "failed": True, "error": "ResponseParseError", "message": "m"}, 2,
         ["evaluate", "--outcomes", "{bad}", "--corpus", "{demo}/proc.jsonl", "--out", "{tmp}/m.json"]),
    ], ids=["processed-without-text", "old-processed-format", "context-without-mode", "outcome-without-label",
            "outcome-nan-score", "outcome-nan-string-score", "processed-label-2", "processed-bool-label",
            "context-int-text", "outcome-without-latency", "outcome-string-severity-defaulted",
            "context-string-positions", "context-float-position", "context-without-positions",
            "corpus-anchor-before-year-1-in-utc", "outcome-negative-latency", "outcome-prompt-words-beyond-a-float",
            "context-bogus-mode", "context-negative-word-count", "context-negative-total-words",
            "outcome-bogus-mode", "failure-lower-case-mode"])
    def test_malformed_artifact_line_is_exit_2(self, demo_dir, tmp_path, capsys,
                                               source, drop, extra, bad_line, argv):
        rows = [json.loads(l) for l in (demo_dir / source).read_text().splitlines()[:3]]
        for row in rows[bad_line - 1:]:
            del row[drop]
            row.update(extra)
        bad = tmp_path / source
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        args = [a.format(bad=bad, tmp=tmp_path, demo=demo_dir) for a in argv]
        assert main(args) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "data"
        assert f"line {bad_line}:" in err["message"]
        if "chunks" in extra:
            assert "ingest" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--outcomes", "{demo}/out_rag.jsonl", "--corpus", "{bad}", "--out", "{tmp}/m.json"],
        ["retrieve", "--corpus", "{bad}", "--mode", "long", "--out", "{tmp}/c.jsonl"],
    ], ids=["evaluate", "retrieve"])
    def test_processed_corpus_repeating_a_patient_is_exit_2(self, demo_dir, tmp_path, capsys, argv):
        lines = (demo_dir / "proc.jsonl").read_text().splitlines()
        flipped = json.loads(lines[0])
        flipped["label"] = 1 - flipped["label"]
        bad = tmp_path / "proc.jsonl"
        bad.write_text("\n".join([*lines, json.dumps(flipped)]) + "\n")
        assert main([a.format(bad=bad, demo=demo_dir, tmp=tmp_path) for a in argv]) == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["category"] == "data"
        assert flipped["patient_id"] in err["message"]
        assert list(tmp_path.iterdir()) == [bad]
