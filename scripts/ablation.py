#!/usr/bin/env python3
"""Per-voter ablation for the voting subcommands of ``npstruct``.

Takes ``bracket``, ``ppattach`` or ``coord`` with the same flags as the
``npstruct`` subcommand, runs each of its ``--voters`` alone with ties
and silence left unresolved, then all of them together with the
subcommand's default label, and prints one evaluation row per run plus
pairwise significance tests.  ``bracket`` and ``coord`` read the
bundled evaluation sets unless ``--dataset`` is given.  Exit codes
and error messages are those of ``npstruct``: a missing file prints
``missing file: PATH`` and a bad row names its line, both with exit
code 2.

Example:
    python3 scripts/ablation.py bracket --index corpus.idx --default right
    python3 scripts/ablation.py coord --index corpus.idx --voters h1,number-agreement
    python3 scripts/ablation.py ppattach --index corpus.idx --dataset quads.tsv
"""

from __future__ import annotations

import sys

from npstruct import cli, datasets, stats
from npstruct.corpus import CorpusIndex

BUNDLED = {"bracket": "bracketing_biomedical.tsv", "coord": "coordination_treebank.tsv"}


def ablate(argv: list[str]) -> int:
    args = cli.build_parser().parse_args(argv)
    task = cli.TASKS.get(args.command)
    if task is None:
        raise cli.SystemExit_(f"not a voting subcommand: {args.command}")

    voters = cli.voter_names(args)
    runs = {name: cli.decider(args, (name,), None) for name in voters}
    runs["ensemble"] = cli.decider(args, voters, cli.default_label(args))
    lex = cli.load_lexicon(args.lexicon)
    rows = task.rows.load(args.dataset)
    index = CorpusIndex.load(args.index)
    items = [item for item, _ in rows]
    gold = [label for _, label in rows]
    reports = {
        name: stats.evaluate([r.final.label for r in decide(items, index, lex)], gold)
        for name, decide in runs.items()
    }
    print(stats.comparison_table(reports))
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] in BUNDLED and "--dataset" not in argv:
        argv = [*argv, "--dataset", str(datasets.data_path(BUNDLED[argv[0]]))]
    return cli.guard(ablate, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
