"""Run one ``budgetrag`` command with every layer traced.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/traced_cli.py SPANS_JSON STEP -- <budgetrag arguments>

The wrappers go in before ``budgetrag.cli.main`` runs; the spans are
written to ``SPANS_JSON`` when the command ends. The exit code is the
command's own.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, step, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(step)
    install(tracer)
    from budgetrag import cli

    with tracer.span(f"cli.{step}"):
        code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
