"""Write one seeded synthetic corpus and its planted sentences.

The benchmark runs this in a fresh process as the set-up step of every
iteration, so set-up time includes importing ``budgetrag``. Run from the
repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/make_corpus.py --out corpus.jsonl --planted planted.json \\
        --seed 1 --patients 80 --notes 5 --blocks 8 --block-words 512
"""

from __future__ import annotations

import argparse
import json

from budgetrag.synthetic import generate_corpus, write_corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a seeded corpus and its planted sentences.")
    parser.add_argument("--out", required=True)
    parser.add_argument("--planted", required=True, help="JSON file: patient id -> planted sentences")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--patients", type=int, required=True)
    parser.add_argument("--notes", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--block-words", type=int, required=True)
    args = parser.parse_args(argv)
    corpus = generate_corpus(
        args.patients,
        notes_per_patient=args.notes,
        blocks_per_note=args.blocks,
        block_words=args.block_words,
        seed=args.seed,
    )
    write_corpus(args.out, corpus)
    with open(args.planted, "w", encoding="utf-8") as fh:
        json.dump(corpus.planted, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
