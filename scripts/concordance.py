#!/usr/bin/env python3
"""Phrase counts and example sentences from a saved corpus index.

Counts an exact phrase (optionally with a wildcard gap) and prints the
sentences it occurs in.  A missing or malformed index, or a bad query,
prints ``error: ...`` to stderr and exits 2.

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", required=True, help="saved corpus index")
    parser.add_argument("--gap", nargs=2, type=int, metavar=("MIN", "MAX"),
                        default=None, help="wildcard gap width range")
    parser.add_argument("--split", type=int, default=1,
                        help="how many words precede the gap")
    parser.add_argument("--limit", type=int, default=10,
                        help="maximum number of example sentences")
    parser.add_argument("words", nargs="+", help="phrase words; use a|b for alternatives")
    args = parser.parse_args()

    try:
        index = CorpusIndex.load(args.index)
        positions = [frozenset(w.split("|")) for w in args.words]
        if args.gap is None:
            query = CountQuery.of(*positions)
        else:
            query = CountQuery.gapped(
                positions[: args.split], positions[args.split :], *args.gap
            )
        count, sentences = index.count(query), index.snippets(query, args.limit)
    except (CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    print(f"{query.canonical()}\t{count}")
    for sentence in sentences:
        print(f"  {sentence}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
