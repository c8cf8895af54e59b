#!/usr/bin/env python3
"""Phrase counts and example sentences from a saved corpus index.

Counts an exact phrase (optionally with a wildcard gap) and prints the
sentences it occurs in.  ``--split`` (default 1) says how many words
precede the gap; it needs ``--gap`` and must leave a word on each side.
A missing or malformed index, or a bad query, prints ``error: ...`` to
stderr and exits 2.

Examples:
    python3 scripts/concordance.py --index corpus.idx brain stem cells
    python3 scripts/concordance.py --index corpus.idx --gap 1 2 \
        --split 1 brain cells
"""

from __future__ import annotations

import argparse
import sys

from npstruct.cli import DATA_ERROR
from npstruct.corpus import CorpusError, CorpusIndex, CountQuery


def _error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return DATA_ERROR


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", required=True, help="saved corpus index")
    parser.add_argument("--gap", nargs=2, type=int, metavar=("MIN", "MAX"),
                        default=None, help="wildcard gap width range")
    parser.add_argument("--split", type=int, default=None,
                        help="how many words precede the gap (default 1; needs --gap)")
    parser.add_argument("--limit", type=int, default=10,
                        help="maximum number of example sentences")
    parser.add_argument("words", nargs="+", help="phrase words; use a|b for alternatives")
    args = parser.parse_args()

    split = 1 if args.split is None else args.split
    if args.gap is None and args.split is not None:
        return _error("--split needs --gap")
    if args.gap is not None and not 1 <= split < len(args.words):
        return _error(f"--split {split} must leave a word on each side of the gap")
    try:
        index = CorpusIndex.load(args.index)
        positions = [frozenset(w.split("|")) for w in args.words]
        if args.gap is None:
            query = CountQuery.of(*positions)
        else:
            query = CountQuery.gapped(positions[:split], positions[split:], *args.gap)
        count, sentences = index.count(query), index.snippets(query, args.limit)
    except (CorpusError, OSError) as exc:
        return _error(exc)
    print(f"{query.canonical()}\t{count}")
    for sentence in sentences:
        print(f"  {sentence}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
