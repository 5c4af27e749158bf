"""Benchmark of the budgetrag CLI chain on seeded synthetic corpora.

Usage, from the repository root::

    python3 perfbench/run.py --workload long-records --seed 1 --seconds 30 --trace 0

One iteration generates a corpus (seed derived from ``--seed`` and the
iteration number), runs ingest -> build-index -> retrieve rag/long ->
classify rag/long -> evaluate rag/long -> delong, one process per
command, and checks every output. Iterations repeat while the next one
ends nearer to ``--seconds`` than stopping would; times are medians
over them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
iteration's chain twice, untraced then traced, and prints the per-layer
metrics, medians over iterations, plus the tracing overhead. The last
line of standard output is one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from pathlib import Path

from tracer import layer_metrics

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED_STRIDE = 1000  # iteration i of seed s uses corpus seed s * SEED_STRIDE + i

STAGES = {
    "ingest_s": ("ingest",),
    "index_s": ("build-index",),
    "rag_arm_s": ("retrieve-rag", "classify-rag"),
    "long_arm_s": ("retrieve-long", "classify-long"),
    "score_s": ("evaluate-rag", "evaluate-long", "delong"),
}


def end_to_end(iterations) -> dict[str, float]:
    chains = [it.plain for it in iterations]
    out = {
        "setup_s": statistics.median(it.setup_s for it in iterations),
        "pipeline_s": statistics.median(c.pipeline_s for c in chains),
    }
    for metric, steps in STAGES.items():
        out[metric] = statistics.median(sum(c.stage_s[s] for s in steps) for c in chains)
    out["peak_rss_mb"] = statistics.median(c.peak_rss_mb for c in chains)
    out["planted_recall"] = (sum(c.quality.planted_found for c in chains)
                             / sum(c.quality.planted_total for c in chains))
    out["auroc_rag"] = statistics.median(c.quality.auroc_rag for c in chains)
    return out


def per_layer(iterations, src_lines: int) -> dict[str, float]:
    per_iteration = [
        layer_metrics(it.traced.spans, patients=it.traced.quality.patients,
                      artifact_bytes=it.traced.artifact_bytes, stub=it.traced.stub_stats,
                      src_lines=src_lines)
        for it in iterations
    ]
    out = {name: statistics.median(m[name] for m in per_iteration) for name in sorted(per_iteration[0])}
    out["trace.overhead_s"] = (statistics.median(it.traced.pipeline_s for it in iterations)
                               - statistics.median(it.plain.pipeline_s for it in iterations))
    return out


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def count_src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((REPO_ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its children: SystemExit unwinds the
    # waits and the stub's context manager
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (REPO_ROOT / "src" / "budgetrag" / "__init__.py").is_file():
        print(f"error: no budgetrag sources under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from chain import WORKLOADS, CommandFailed, run_iteration
    from checks import CheckFailed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))

    workdir = REPO_ROOT / ".perfbench-work" / workload.name
    iterations = []
    attempted = failed = 0
    started = time.perf_counter()
    try:
        while True:
            it = run_iteration(workload, args.seed * SEED_STRIDE + len(iterations), workdir, bool(args.trace))
            iterations.append(it)
            for chain in (it.plain, it.traced):
                if chain is not None:
                    attempted += 2 * chain.quality.patients
                    failed += chain.quality.failed_lines
            # stop where the run ends nearest to --seconds
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(iterations) / 2 >= args.seconds:
                break
    except (CheckFailed, CommandFailed) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    values = per_layer(iterations, count_src_lines()) if args.trace else end_to_end(iterations)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(f"workload {workload.name}, seed {args.seed}: {len(iterations)} iterations "
          f"of {workload.patients} patients in {time.perf_counter() - started:.1f} s; "
          f"medians over the {len(iterations)} iterations")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
