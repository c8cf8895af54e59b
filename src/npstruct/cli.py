"""Command-line surface: indexing, prediction, evaluation, comparison."""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable

from . import bracketer, coordination, datasets, ppattach, relsim, stats
from .corpus import CorpusIndex, IngestConfig, build_index
from .decisions import VoteConfig, VoteResult
from .morphology import MorphLexicon

USAGE_ERROR = 1
DATA_ERROR = 2


@dataclass(frozen=True)
class Task:
    """A voting subcommand: its dataset rows, config, pipeline and report.

    The config's voters and label are the defaults of ``--voters`` and
    ``--default``, and the row format's labels are the choices of
    ``--default``.  ``pipeline(item, provider, lexicon, config)`` votes
    one item.  A report line holds the item's dataset columns, the
    per-voter labels when ``show_votes`` is set, and the final label.
    """

    help: str
    rows: datasets.RowFormat
    config: VoteConfig
    pipeline: Callable[..., VoteResult]
    show_votes: bool = False


TASKS = {
    "bracket": Task(
        "bracket three-word compounds",
        datasets.BRACKETING,
        bracketer.DEFAULTS,
        bracketer.bracket,
        show_votes=True,
    ),
    "ppattach": Task(
        "resolve PP attachment",
        datasets.PP_ATTACHMENT,
        ppattach.DEFAULTS,
        ppattach.pp_pipeline,
    ),
    "coord": Task(
        "resolve coordination scope",
        datasets.COORDINATION,
        coordination.DEFAULTS,
        coordination.coord_pipeline,
    ),
}


def decider(args, voters: tuple[str, ...], default: str | None) -> Callable:
    """``args.command``'s function deciding a list of items against a provider and a lexicon.

    The task's config is built here, so an unknown or repeated voter
    fails before the dataset and the index are read.  ``ppattach
    --bootstrap`` decides with ``ppattach.pp_bootstrap``; every other
    run votes each item with the task's pipeline.
    """
    task = TASKS[args.command]
    config = replace(task.config, voters=voters, default=default)
    if args.bootstrap:
        return lambda items, provider, lex: ppattach.pp_bootstrap(
            items, provider, lex, config
        )[0]
    return lambda items, provider, lex: [
        task.pipeline(item, provider, lex, config) for item in items
    ]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        raise SystemExit_(message)


class SystemExit_(Exception):
    """A usage error: the command line does not parse."""


def build_parser() -> _Parser:
    parser = _Parser(prog="npstruct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build a corpus index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tagged", action="store_true")

    p = sub.add_parser("info", help="describe a saved index")
    p.add_argument("--index", required=True)

    for command, task in TASKS.items():
        p = sub.add_parser(command, help=task.help)
        p.add_argument("--index", required=True)
        p.add_argument("--dataset", required=True)
        p.add_argument("--report", default=None)
        p.add_argument("--lexicon", default=None)
        p.add_argument(
            "--default",
            choices=(*task.rows.labels.values(), "none"),
            default=task.config.default,
        )
        p.add_argument("--voters", default=",".join(task.config.voters))
        if command == "ppattach":
            p.add_argument("--bootstrap", action="store_true")
        else:
            p.set_defaults(bootstrap=False)

    p = sub.add_parser("relsim", help="dump joining features for noun pairs")
    p.add_argument("--index", required=True)
    p.add_argument("--pairs", required=True, help="TSV of noun1<TAB>noun2 rows")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sat", help="solve analogy blocks")
    p.add_argument("--index", required=True)
    p.add_argument("--dataset", required=True,
                   help="TSV rows: stem pair, candidate pairs, gold index")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("semeval", help="binary relation checking")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)

    p = sub.add_parser("compare", help="compare prediction files pairwise")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", action="append", required=True,
                   help="repeatable; name=path, split at the first '=', or a bare"
                   " path without '=', named by its stem; no name twice")
    return parser


def load_lexicon(path: str | None) -> MorphLexicon:
    if path is None:
        return datasets.default_lexicon()
    return MorphLexicon.load(path)


def _read_labels(path: str) -> list[str]:
    return datasets.read_rows(path, lambda parts: parts[-1], "label row")


def _create_output(path: str | None) -> None:
    """Create ``path`` if it is missing, so an output that cannot be
    written fails before the work; an existing file is left as it is."""
    if path is not None:
        Path(path).open("a", encoding="utf-8").close()


def _write_report(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_index(args) -> int:
    index = build_index(args.corpus, IngestConfig(tagged=args.tagged))
    index.save(args.out)
    print(f"indexed {index.total()} tokens")
    return 0


def _cmd_info(args) -> int:
    for name, value in CorpusIndex.load(args.index).info().items():
        print(f"{name} {value}")
    return 0


def voter_names(args) -> tuple[str, ...]:
    """The ``--voters`` list of a voting subcommand."""
    return tuple(args.voters.split(","))


def default_label(args) -> str | None:
    """The label ties fall to: ``--default``, where ``none`` is None."""
    return None if args.default == "none" else args.default


def _cmd_vote(args) -> int:
    task = TASKS[args.command]
    lex = load_lexicon(args.lexicon)
    decide = decider(args, voter_names(args), default_label(args))
    rows = task.rows.load(args.dataset)
    _create_output(args.report)
    results = decide([item for item, _ in rows], CorpusIndex.load(args.index), lex)
    lines = []
    for r in results:
        columns = astuple(r.item)[: task.rows.width]
        votes = [d.label for d in r.votes.values()] if task.show_votes else []
        lines.append("\t".join([*columns, *votes, r.final.label]))
    _write_report(args.report, lines)
    print(stats.evaluate([r.final.label for r in results], [g for _, g in rows]).summary())
    return 0


def _pair(parts: list[str]) -> tuple[str, str]:
    if len(parts) < 2:
        raise ValueError
    return parts[0], parts[1]


def _cmd_relsim(args) -> int:
    pairs = datasets.read_rows(args.pairs, _pair, "pair row")
    lex = load_lexicon(args.lexicon)
    _create_output(args.out)
    index = CorpusIndex.load(args.index)
    rows = [
        (noun1, noun2, relsim.extract_pair_features(index, noun1, noun2, lex))
        for noun1, noun2 in pairs
    ]
    relsim.dump_pair_features(rows, args.out)
    return 0


def _analogy(parts: list[str]) -> tuple[str, tuple, list[tuple], int]:
    """A SAT row: the row text, stem pair, 1-5 candidate pairs and gold index."""
    pairs = [tuple(w.split()) for w in parts[:-1]]
    gold = int(parts[-1])
    if (
        not 2 <= len(pairs) <= 6
        or any(len(p) != 2 for p in pairs)
        or not 0 <= gold < len(pairs) - 1
    ):
        raise ValueError
    return "\t".join(parts), pairs[0], pairs[1:], gold


def _cmd_sat(args) -> int:
    analogies = datasets.read_rows(args.dataset, _analogy, "analogy row")
    lex = load_lexicon(args.lexicon)
    _create_output(args.report)
    index = CorpusIndex.load(args.index)
    lines, correct, answered = [], 0, 0
    for line, stem, candidates, gold in analogies:
        choice = relsim.solve_sat(stem, candidates, index, lex)
        if choice is not None:
            answered += 1
            correct += int(choice == gold)
        lines.append(f"{line}\t{'abstain' if choice is None else choice}")
    _write_report(args.report, lines)
    print(f"answered {answered}, correct {correct}")
    return 0


def _example(parts: list[str]) -> tuple[relsim.SemevalExample, bool]:
    """One SemEval example and its gold label.

    Columns: sentence, two ``start:end`` entity spans, relation,
    ``true`` or ``false``, and optionally a query.
    """
    if len(parts) not in (5, 6) or parts[4] not in ("true", "false"):
        raise ValueError
    sentence, e1, e2, relation, gold = parts[:5]
    tokens = tuple(sentence.split())
    spans = []
    for span in (e1, e2):
        start, _, end = span.partition(":")
        bounds = (int(start), int(end))
        if not 0 <= bounds[0] <= bounds[1] < len(tokens):
            raise ValueError
        spans.append(bounds)
    query = parts[5] if len(parts) == 6 else ""
    return relsim.SemevalExample(tokens, *spans, relation, query), gold == "true"


def _cmd_semeval(args) -> int:
    train = datasets.read_rows(args.train, _example, "example")
    test = datasets.read_rows(args.test, _example, "example")
    lex = load_lexicon(args.lexicon)
    _create_output(args.report)
    index = CorpusIndex.load(args.index) if args.index else None
    model = relsim.SemevalModel.fit(train, lex, index)
    predictions, gold = [], []
    lines = []
    for example, label in test:
        pred = model.classify(example)
        predictions.append(pred)
        gold.append(label)
        lines.append(f"{' '.join(example.tokens)}\t{str(pred).lower()}")
    _write_report(args.report, lines)
    scores = relsim.score_binary(predictions, gold)
    print(
        f"P {scores.precision:.4f} R {scores.recall:.4f} "
        f"F {scores.f1:.4f} Acc {scores.accuracy:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    gold = _read_labels(args.gold)
    pred = _read_labels(args.pred)
    if len(gold) != len(pred):
        raise ValueError("gold and prediction files differ in length")
    report = stats.evaluate(pred, gold)
    print("correct\twrong\tn/a\taccuracy\tcoverage")
    print(report.summary())
    return 0


def _cmd_compare(args) -> int:
    gold = _read_labels(args.gold)
    reports = {}
    for item in args.pred:
        name, _, path = item.partition("=") if "=" in item else ("", "", item)
        name = name or Path(path).stem
        if name in reports:
            raise ValueError(f"report name given twice: {name}")
        pred = _read_labels(path)
        if len(pred) != len(gold):
            raise ValueError(f"{path} differs in length from gold")
        reports[name] = stats.evaluate(pred, gold)
    print(stats.comparison_table(reports))
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "info": _cmd_info,
    **{command: _cmd_vote for command in TASKS},
    "relsim": _cmd_relsim,
    "sat": _cmd_sat,
    "semeval": _cmd_semeval,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def guard(main: Callable[[list[str]], int], argv: list[str]) -> int:
    """``main(argv)``'s exit code, or the code of the error it raised.

    A usage error prints its message and gives 1; a data error gives 2,
    printing ``missing file: PATH`` for a file that does not exist and
    the error's own message otherwise.
    """
    try:
        return main(argv)
    except SystemExit_ as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return DATA_ERROR


def _dispatch(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def run(argv: list[str]) -> int:
    """Entry point returning a process exit code."""
    return guard(_dispatch, argv)


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
