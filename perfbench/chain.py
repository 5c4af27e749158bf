"""Workloads and one timed run of the budgetrag CLI chain.

Every command runs in a fresh Python process through
``budgetrag.cli.main``, as users run it, so import cost and module
caches are paid per command. Each process is reaped with ``wait4`` to
read its own peak RSS.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from checks import Quality, check_run, check_stub

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
COMMAND_TIMEOUT_S = 150.0
STUB_START_TIMEOUT_S = 30.0
REMOTE_PARALLELISM = 2  # the machine's core count


@dataclass(frozen=True)
class Workload:
    """One corpus shape plus the CLI flags that differ from the defaults."""

    name: str
    patients: int
    notes: int
    blocks: int
    block_words: int
    max_words: int = 512
    budget_words: int = 4000
    dim: int | None = None  # None: the CLI default
    remote: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's case: 20,480-word records, 40 chunks of 512 words,
        # a 4000-word budget. Per-chunk and per-byte work dominates.
        Workload("long-records", patients=60, notes=5, blocks=8, block_words=512),
        # Per-patient overhead dominates: 2 chunks and 1 selected per
        # patient, one filtered search per patient, large JSONL files and
        # cohorts. dim 64 keeps index bytes near those of long-records.
        Workload("many-short-records", patients=3200, notes=1, blocks=4, block_words=32,
                 max_words=64, budget_words=64, dim=64),
        # The only workload that reaches remote.py: embeddings and chat
        # verdicts come from the local stub over HTTP. 1% of chat bodies
        # draw one 503, exactly one per classify arm of 100 patients, so
        # every run pays the same fixed 0.5 s client backoff per arm.
        Workload("remote-stub", patients=100, notes=2, blocks=5, block_words=64,
                 max_words=64, budget_words=256, remote=True),
    )
}


class CommandFailed(Exception):
    """A benchmark child process exited with a non-zero code."""


@dataclass
class ChainResult:
    stage_s: dict[str, float]
    peak_rss_mb: float
    quality: Quality
    artifact_bytes: dict[str, int]
    stub_stats: dict | None = None
    spans: list[dict] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_process(argv: list[str], log: Path) -> tuple[float, float]:
    """Run one child to completion; return (wall seconds, peak RSS in MB)."""
    started = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(argv, cwd=REPO_ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise CommandFailed(f"{' '.join(argv[1:4])} ... exited {proc.returncode}: {tail}")
    return elapsed, usage.ru_maxrss / 1024.0


class Stub:
    """The stub service process for one chain; a context manager."""

    def __init__(self, workdir: Path):
        self.port_file = workdir / "stub.port"
        self.port_file.unlink(missing_ok=True)
        self.log = open(workdir / "stub.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--port-file", str(self.port_file)],
            cwd=REPO_ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=self.log,
        )
        self.base = None

    def __enter__(self) -> "Stub":
        try:
            deadline = time.perf_counter() + STUB_START_TIMEOUT_S
            while self.base is None:
                if self.proc.poll() is not None:
                    raise CommandFailed(f"stub exited {self.proc.returncode} before answering")
                if time.perf_counter() > deadline:
                    raise CommandFailed("stub did not answer in time")
                if self.port_file.exists():
                    base = f"http://127.0.0.1:{self.port_file.read_text(encoding='utf-8')}"
                    try:
                        self._get(base + "/stats")
                        self.base = base
                    except OSError:
                        pass
                if self.base is None:
                    time.sleep(0.005)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _get(url: str) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(url, timeout=10) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        return self._get(self.base + "/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def make_corpus(workload: Workload, seed: int, workdir: Path) -> tuple[Path, Path]:
    raw, planted = workdir / "corpus.jsonl", workdir / "planted.json"
    run_process(
        [sys.executable, str(BENCH_DIR / "make_corpus.py"), "--out", str(raw), "--planted", str(planted),
         "--seed", str(seed), "--patients", str(workload.patients), "--notes", str(workload.notes),
         "--blocks", str(workload.blocks), "--block-words", str(workload.block_words)],
        workdir / "make_corpus.log",
    )
    return raw, planted


def chain_commands(workload: Workload, files: dict[str, Path], endpoint: str | None) -> list[tuple[str, list[str]]]:
    """(step, budgetrag arguments) in pipeline order."""
    f = {k: str(v) for k, v in files.items()}
    if workload.remote:
        embed = ["--embedder", "remote", "--endpoint", f"{endpoint}/embeddings", "--model", "stub-embed"]
        clf = ["--classifier", "remote", "--endpoint", f"{endpoint}/chat/completions",
               "--model", "stub-chat", "--parallelism", str(REMOTE_PARALLELISM)]
    else:
        embed = ["--dim", str(workload.dim)] if workload.dim else []
        clf = []
    return [
        ("ingest", ["ingest", "--corpus", f["raw"], "--out", f["processed"], "--max-words", str(workload.max_words)]),
        ("build-index", ["build-index", "--corpus", f["processed"], "--out", f["index"], *embed]),
        ("retrieve-rag", ["retrieve", "--corpus", f["processed"], "--mode", "rag", "--index", f["index"],
                          "--out", f["contexts_rag"], "--budget-words", str(workload.budget_words), *embed]),
        ("retrieve-long", ["retrieve", "--corpus", f["processed"], "--mode", "long", "--out", f["contexts_long"]]),
        ("classify-rag", ["classify", "--contexts", f["contexts_rag"], "--out", f["outcomes_rag"], *clf]),
        ("classify-long", ["classify", "--contexts", f["contexts_long"], "--out", f["outcomes_long"], *clf]),
        ("evaluate-rag", ["evaluate", "--outcomes", f["outcomes_rag"], "--corpus", f["processed"],
                          "--out", f["metrics_rag"]]),
        ("evaluate-long", ["evaluate", "--outcomes", f["outcomes_long"], "--corpus", f["processed"],
                           "--out", f["metrics_long"]]),
        ("delong", ["delong", "--outcomes-a", f["outcomes_rag"], "--outcomes-b", f["outcomes_long"],
                    "--corpus", f["processed"], "--out", f["delong"]]),
    ]


def run_chain(workload: Workload, raw: Path, planted: Path, outdir: Path,
              stub: Stub | None = None, traced: bool = False) -> ChainResult:
    """Run the nine commands on one corpus, then check their outputs."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = {"raw": raw, "planted": planted}
    for key, name in (("processed", "processed.jsonl"), ("index", "index.bin"),
                      ("contexts_rag", "ctx_rag.jsonl"), ("contexts_long", "ctx_long.jsonl"),
                      ("outcomes_rag", "out_rag.jsonl"), ("outcomes_long", "out_long.jsonl"),
                      ("metrics_rag", "m_rag.json"), ("metrics_long", "m_long.json"),
                      ("delong", "delong.json")):
        files[key] = outdir / name
    stage_s, rss = {}, []
    spans: list[dict] = []
    for step, args in chain_commands(workload, files, stub.base if stub else None):
        if traced:
            spans_path = outdir / f"{step}.spans.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), step, "--", *args]
        else:
            argv = [sys.executable, "-m", "budgetrag.cli", *args]
        stage_s[step], peak = run_process(argv, outdir / f"{step}.log")
        rss.append(peak)
        if traced:
            spans.extend(json.loads(spans_path.read_text(encoding="utf-8")))
    quality = check_run(files, workload.max_words, workload.budget_words)
    stub_stats = None
    if stub:
        stub_stats = stub.stats()
        check_stub(stub_stats, workload.patients)
    sizes = {key: os.path.getsize(files[key]) for key in ("processed", "index", "contexts_rag", "contexts_long")}
    return ChainResult(stage_s=stage_s, peak_rss_mb=max(rss), quality=quality, artifact_bytes=sizes,
                       stub_stats=stub_stats, spans=spans)


@dataclass
class Iteration:
    setup_s: float
    plain: ChainResult
    traced: ChainResult | None = None


def run_iteration(workload: Workload, seed: int, workdir: Path, trace: bool) -> Iteration:
    """Set up one seeded corpus, run the chain untraced and, with
    ``trace``, once more traced, each chain against a fresh stub."""

    def service():
        return Stub(workdir) if workload.remote else contextlib.nullcontext()

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        raw, planted = make_corpus(workload, seed, workdir)
        with service() as stub:
            setup_s = time.perf_counter() - started
            plain = run_chain(workload, raw, planted, workdir / "plain", stub)
        traced = None
        if trace:
            with service() as stub:
                traced = run_chain(workload, raw, planted, workdir / "traced", stub, traced=True)
        return Iteration(setup_s=setup_s, plain=plain, traced=traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
