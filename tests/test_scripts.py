"""The scripts in ``scripts/`` run end to end against a saved index."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import make_index

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def index_file(tmp_path):
    index = make_index(
        tmp_path,
        ["brain stem cells grew", "the brain stem", "brain and stem cells", "stem brain"],
    )
    path = tmp_path / "corpus.idx"
    index.save(path)
    return path


def _run(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, check=False,
    )


def _script(name: str, *args: str) -> str:
    done = _run(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_concordance_prints_count_then_sentences(index_file):
    out = _script("concordance.py", "--index", str(index_file), "brain", "stem")
    assert out.splitlines() == ["brain stem\t2", "  brain stem cells grew", "  the brain stem"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--index", "missing.idx", "brain"], "missing.idx"),
        (["--index", "truncated.idx", "brain"], "truncated index file"),
        (["--index", "corpus.idx", "--gap", "1", "2", "--split", "2", "brain", "stem"], "split"),
        (["--index", "corpus.idx", "--limit", "0", "brain"], "limit"),
        (["--index", "corpus.idx", "--split", "1", "brain", "stem"], "--split needs --gap"),
        (["--index", "corpus.idx", "--split", "5", "brain", "stem"], "--split needs --gap"),
        (["--index", "corpus.idx", "--gap", "0", "2", "--split", "-1", "brain", "stem", "cells"],
         "--split -1"),
        (["--index", "corpus.idx", "--gap", "0", "2", "--split", "0", "brain", "stem"], "--split 0"),
        (["--index", "corpus.idx", "--gap", "0", "2", "--split", "3", "brain", "stem", "cells"],
         "--split 3"),
        # The default split of 1 leaves no word after the gap.
        (["--index", "corpus.idx", "--gap", "0", "2", "brain"], "--split 1"),
    ],
)
def test_concordance_data_errors_exit_2(index_file, args, message):
    (index_file.parent / "truncated.idx").write_bytes(index_file.read_bytes()[:100])
    done = _run("concordance.py", *(str(index_file.parent / a) if a.endswith(".idx") else a for a in args))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and message in done.stderr
    assert "Traceback" not in done.stderr


def test_concordance_gap_splits_after_the_first_word_by_default(index_file):
    args = ["--index", str(index_file), "--gap", "0", "1", "brain", "stem", "cells"]
    assert _script("concordance.py", *args).splitlines()[0] == "brain *{0,1} stem cells\t2"


def test_ablation_coord_has_an_ensemble_row(index_file):
    out = _script("ablation.py", "coord", "--index", str(index_file))
    rows = [line.split("\t") for line in out.split("\n\n")[0].splitlines()]
    assert rows[0][:2] == ["name", "correct"]
    assert rows[-1][0] == "ensemble"
    assert len(rows[-1]) == len(rows[0])


@pytest.mark.parametrize(
    "dataset, index, message",
    [
        ("buses\tand\ttrains\tstation\tnoun\n", "no.idx", "missing file: {tmp}/no.idx\n"),
        ("bar\tbut\tpie\tgraph\tnoun\n", "corpus.idx", "bad dataset row on line 1\n"),
    ],
    ids=["missing-index", "rejected-row"],
)
def test_ablation_data_errors_exit_2(index_file, dataset, index, message):
    tmp = index_file.parent
    (tmp / "rows.tsv").write_text(dataset, encoding="utf-8")
    done = _run("ablation.py", "coord", "--index", str(tmp / index), "--dataset", str(tmp / "rows.tsv"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == message.format(tmp=tmp)


def test_conftest_loads_on_its_own(tmp_path):
    """The benchmark loads ``tests/conftest.py`` by path, as its count oracle, with only ``src`` importable."""
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('oracle', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(module.naive_count.__name__, module.normalize_line.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tests" / "conftest.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "naive_count normalize_line\n"
