"""Tiny variants of every workload, end to end, plus the output checks."""

import dataclasses
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import run
from chain import WORKLOADS, Stub, make_corpus, run_chain, run_iteration
from checks import CheckFailed, check_outcomes, check_rag_contexts, expected_texts
from stub import FAIL_EVERY

BENCHMARK = json.loads((Path(run.REPO_ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
# remote-stub: 100 distinct chat bodies per chain, so exactly one draws a 503
TINY = {"long-records": 6, "many-short-records": 40, "remote-stub": 50}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], patients=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_end_to_end(name, tmp_path):
    workload = tiny(name)
    it = run_iteration(workload, seed=3, workdir=tmp_path / "work", trace=True)
    assert it.plain.quality.patients == workload.patients
    assert it.plain.quality.failed_lines == 0
    e2e = run.end_to_end([it])
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in e2e.values())
    layers = run.per_layer([it], src_lines=1)
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layers["corpus.records"] == workload.patients
    assert layers["retrieval.assemble_calls"] == workload.patients
    assert layers["classifier.classify_calls"] == 2 * workload.patients
    if workload.remote:
        stats = it.traced.stub_stats
        assert layers["remote.http_requests"] == stats["http_requests"] > 0
        assert layers["remote.retries"] == layers["remote.status_503"] == 2 * workload.patients // FAIL_EVERY == 1
    else:
        assert layers["remote.http_requests"] == 0
    assert not (tmp_path / "work").exists()


def test_stub_injects_the_same_503s_for_the_same_seed(tmp_path):
    workload = tiny("remote-stub")
    first = run_iteration(workload, seed=5, workdir=tmp_path / "a", trace=False).plain.stub_stats
    second = run_iteration(workload, seed=5, workdir=tmp_path / "b", trace=False).plain.stub_stats
    assert first["status_503"] == second["status_503"] == len(first["failed_bodies"]) > 0
    assert first["http_requests"] == second["http_requests"]


def test_stub_fails_every_nth_new_chat_body_once(tmp_path):
    """Sent in one order, the same bodies draw the same 503 on every stub."""
    last = FAIL_EVERY - 1
    notes = [*range(FAIL_EVERY), last, 0]  # the last new body draws the 503; then its retry and a repeat
    bodies = [json.dumps({"messages": [{"role": "user", "content": f"note {i}"}]}).encode() for i in notes]
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        with Stub(tmp_path / name) as stub:
            statuses = []
            for body in bodies:
                try:
                    with opener.open(stub.base + "/chat/completions", data=body, timeout=10) as response:
                        statuses.append(response.status)
                except urllib.error.HTTPError as exc:
                    statuses.append(exc.code)
            runs.append((statuses, stub.stats()))
    for statuses, stats in runs:
        assert statuses == [200] * last + [503, 200, 200]
        assert stats["chat_bodies"] == FAIL_EVERY
        assert len(stats["failed_bodies"]) == stats["status_503"] == 1
        assert stats["unrecovered_bodies"] == 0
    assert runs[0][1]["failed_bodies"] == runs[1][1]["failed_bodies"]


@pytest.fixture(scope="module")
def short_chain(tmp_path_factory):
    workload = tiny("many-short-records")
    workdir = tmp_path_factory.mktemp("short")
    raw, planted = make_corpus(workload, 11, workdir)
    run_chain(workload, raw, planted, workdir / "out")
    read = lambda name: [json.loads(line) for line in (workdir / "out" / name).read_text().splitlines()]
    return workload, expected_texts(raw), read("ctx_rag.jsonl"), read("out_rag.jsonl")


def test_checks_accept_the_real_outputs(short_chain):
    workload, texts, contexts, outcomes = short_chain
    rag = check_rag_contexts(contexts, texts, workload.max_words, workload.budget_words)
    assert check_outcomes(outcomes, rag, "RAG") == 0


def test_checks_catch_an_over_budget_context(short_chain):
    workload, texts, contexts, _ = short_chain
    ctx = dict(contexts[0])
    words = texts[ctx["patient_id"]].split()
    chunks = [" ".join(words[i:i + workload.max_words]) for i in range(0, len(words), workload.max_words)]
    ctx["selected_positions"] = list(range(len(chunks)))
    ctx["text"] = "\n\n".join(chunks)
    ctx["word_count"] = len(words)
    assert ctx["word_count"] > workload.budget_words
    with pytest.raises(CheckFailed, match="exceed the budget"):
        check_rag_contexts([ctx] + contexts[1:], texts, workload.max_words, workload.budget_words)


def test_checks_catch_a_missing_or_duplicated_outcome(short_chain):
    workload, texts, contexts, outcomes = short_chain
    rag = check_rag_contexts(contexts, texts, workload.max_words, workload.budget_words)
    with pytest.raises(CheckFailed, match="missing patients"):
        check_outcomes(outcomes[1:], rag, "RAG")
    with pytest.raises(CheckFailed, match="more than once"):
        check_outcomes(outcomes + outcomes[:1], rag, "RAG")


def test_checks_catch_a_wrong_verdict(short_chain):
    workload, texts, contexts, outcomes = short_chain
    rag = check_rag_contexts(contexts, texts, workload.max_words, workload.budget_words)
    flipped = dict(outcomes[0], label=1 - outcomes[0]["label"])
    with pytest.raises(CheckFailed, match="verdict differs"):
        check_outcomes([flipped] + outcomes[1:], rag, "RAG")
