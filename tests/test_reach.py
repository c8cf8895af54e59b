"""Every function in ``src/`` is entered by an entry point, or is on ``ALLOWED``.

One subprocess runs every ``npstruct`` command and both scripts under a
call-only ``sys.settrace``.  The trace is installed before ``npstruct``
is imported, so calls made at import time count, and each command runs
through ``runpy`` as ``__main__``, so ``cli.main`` is entered.  The
inputs are the golden reports' sentences and rows, plus two sentences
and a SemEval row that enter the capitalization cues' skip tests and
the Porter stemmer's vowel and consonant-vowel-consonant tests.

The test then walks ``src/`` with ``ast``.  A function (a lambda too)
that no command entered fails it, unless ``ALLOWED`` names it with the reason it stays.
An ``ALLOWED`` entry that was entered, or that names no function, fails
it too, so the list shrinks when its reasons go.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from npstruct.cli import TASKS
from tests.test_golden_reports import (
    DATASETS,
    SAT_ROWS,
    SEMEVAL_TEST,
    SEMEVAL_TRAIN,
    SENTENCES,
    TAGGED_SENTENCES,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "npstruct"

PERFBENCH_ONLY = "only perfbench/inputs.py and perfbench/bench.py call it (ROADMAP item 13)"
INDEX_PROVIDER = (
    "the index is itself the provider; only perfbench/bench.py wraps it, and"
    " perfbench/test_perfbench.py subclasses the wrapper (ROADMAP item 13)"
)

# Qualified name (module, then class and function nesting) -> why no entry point enters it.
ALLOWED = {
    "corpus.CountProvider.count": "a Protocol stub",
    "corpus.CountProvider.total": "a Protocol stub",
    "corpus.CountProvider.snippets": "a Protocol stub",
    "corpus.IndexProvider.count": INDEX_PROVIDER,
    "corpus.IndexProvider.total": INDEX_PROVIDER,
    "corpus.IndexProvider.snippets": INDEX_PROVIDER,
    "datasets.biomedical_bracketing": PERFBENCH_ONLY,
    "datasets.treebank_coordination": PERFBENCH_ONLY,
    "datasets.default_inventory": PERFBENCH_ONLY,
    "tagging.TinyTagger.tag_word": PERFBENCH_ONLY,
    "tagging.TinyTagger.tag_sentence": PERFBENCH_ONLY,
    "tagging.TinyTagger.tag_line": PERFBENCH_ONLY,
    "tagging.write_tagged_corpus": PERFBENCH_ONLY,
    "relsim.semeval_classify": "only perfbench/bench.py::make_runner calls it (ROADMAP item 8)",
}

# A capitalized middle word sends each capitalization cue to its skip test (the
# bracketing one's and the PP default), and "hoping" takes the stemmer through -ing.
EXTRA_SENTENCES = ["The brain Stem cells grew.", "We ate Pizza with fork."]
EXTRA_SEMEVAL = ["members hoping for rules\t0:0\t3:3\trel\tfalse"]

# Runs in the subprocess: argv is the output file, the command file and the traced directory.
TRACE_SCRIPT = """
import json, runpy, sys

out, commands, src = sys.argv[1:]
entered = set()


def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))


with open(commands, encoding="utf-8") as f:
    runs = json.load(f)
sys.settrace(trace)
exits = []
for kind, target, argv in runs:
    sys.argv = [target, *argv]
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__")
        else:
            runpy.run_path(target, run_name="__main__")
        exits.append(0)
    except SystemExit as exc:
        exits.append(exc.code or 0)
sys.settrace(None)
import npstruct

with open(out, "w", encoding="utf-8") as f:
    json.dump({"package": npstruct.__file__, "exits": exits, "entered": sorted(entered)}, f)
"""


def _write(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _commands(tmp: Path) -> list[tuple[str, str, list[str], int]]:
    """(kind, module or script, argv, expected exit code) of every traced run.

    The scripts run last: they import ``npstruct.cli``, which ``runpy``
    would then find already imported.
    """
    corpus = _write(tmp / "corpus.txt", SENTENCES + EXTRA_SENTENCES)
    tagged = _write(tmp / "tagged.txt", TAGGED_SENTENCES)
    index, tagged_index = str(tmp / "corpus.idx"), str(tmp / "tagged.idx")
    datasets = {task: _write(tmp / f"{task}.tsv", rows) for task, rows in DATASETS.items()}
    pairs = _write(tmp / "pairs.tsv", ["committee\tmember"])
    semeval = ["--train", _write(tmp / "train.tsv", SEMEVAL_TRAIN)]
    semeval += ["--test", _write(tmp / "test.tsv", SEMEVAL_TEST + EXTRA_SEMEVAL)]
    report = str(tmp / "bracket.out")

    def cli(*argv: str, code: int = 0):
        return ("module", "npstruct.cli", list(argv), code)

    def script(name: str, *argv: str):
        return ("path", str(ROOT / "scripts" / name), list(argv), 0)

    runs = [
        cli("index", "--corpus", corpus, "--out", index),
        cli("index", "--corpus", tagged, "--out", tagged_index, "--tagged"),
        cli("info", "--index", index),
    ]
    for task, dataset in datasets.items():
        voting = [task, "--index", index, "--dataset", dataset]
        runs.append(cli(*voting, "--report", str(tmp / f"{task}.out")))
        runs.append(cli(*voting, "--voters", ",".join(TASKS[task].config.registry)))
    runs += [
        cli("ppattach", "--index", index, "--dataset", datasets["ppattach"], "--bootstrap"),
        cli("relsim", "--index", tagged_index, "--pairs", pairs, "--out", str(tmp / "features.tsv")),
        cli("sat", "--index", tagged_index, "--dataset", _write(tmp / "sat.tsv", SAT_ROWS)),
        cli("semeval", *semeval),
        cli("semeval", *semeval, "--index", tagged_index),
        cli("eval", "--gold", datasets["bracket"], "--pred", report),
        cli("compare", "--gold", datasets["bracket"], "--pred", f"bracket={report}"),
        cli("bracket", "--index", index, code=1),
        cli("info", "--index", str(tmp / "missing.idx"), code=2),
    ]
    runs += [script("ablation.py", task, "--index", index, "--dataset", d) for task, d in datasets.items()]
    runs.append(script("concordance.py", "--index", index, "--gap", "0", "2", "brain", "cells"))
    return runs


def _functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name of every function defined in ``src/``.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    A lambda's name holds its line.
    """
    found = {}

    def walk(node: ast.AST, filename: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                found[(filename, child.lineno, "<lambda>")] = f"{prefix}.<lambda>:{child.lineno}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(filename, first, child.name)] = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, filename, f"{prefix}.{child.name}")
            else:
                walk(child, filename, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def test_every_function_is_entered_or_allowed(tmp_path):
    runs = _commands(tmp_path)
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps([run[:3] for run in runs]), encoding="utf-8")
    out = tmp_path / "reach.json"
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, str(out), str(commands), str(SRC) + os.sep],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(out.read_text(encoding="utf-8"))
    assert Path(traced["package"]).parent == SRC
    assert traced["exits"] == [run[3] for run in runs], done.stderr

    functions = _functions()
    entered = {functions[tuple(key)] for key in traced["entered"] if tuple(key) in functions}
    names = set(functions.values())
    missed = sorted(names - entered - ALLOWED.keys())
    assert not missed, f"never entered, and not in ALLOWED: {missed}"
    stale = sorted(entered & ALLOWED.keys())
    assert not stale, f"in ALLOWED, but entered: {stale}"
    unknown = sorted(ALLOWED.keys() - names)
    assert not unknown, f"in ALLOWED, but not a function of src/: {unknown}"
