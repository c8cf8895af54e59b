"""Bundled datasets and default resources."""

import pytest

from npstruct.datasets import (
    BRACKETING,
    biomedical_bracketing,
    default_inventory,
    default_lexicon,
    treebank_coordination,
)
from npstruct.decisions import LEFT, NOUN_COORD, RIGHT
from tests.conftest import NOT_NEWLINES


def test_biomedical_composition():
    rows = biomedical_bracketing()
    lefts = sum(1 for _, label in rows if label == LEFT)
    rights = sum(1 for _, label in rows if label == RIGHT)
    # The source table documents 430 rows (361 left / 69 right); one
    # right-bracketed row is missing from the available text, so the
    # bundled file carries 429.
    assert (len(rows), lefts, rights) == (429, 361, 68)


def test_biomedical_rows_are_triples():
    rows = biomedical_bracketing()
    triple, label = rows[0]
    assert triple.words() == ("polymerase", "chain", "reaction")
    assert label == RIGHT


def test_coordination_composition():
    rows = treebank_coordination()
    noun = sum(1 for _, label in rows if label == NOUN_COORD)
    assert len(rows) == 428
    assert noun == 242
    assert noun / len(rows) == pytest.approx(0.5654, abs=1e-4)


def test_default_lexicon_loads():
    lex = default_lexicon()
    assert lex.lemma_by_form["criteria"] == "criterion"


def test_default_inventory_loads():
    inv = default_inventory()
    assert "of" in inv.prepositions


def test_bracketing_loader_accepts_optional_frequency(tmp_path):
    path = tmp_path / "b.tsv"
    path.write_text("a\tb\tc\tleft\na\tb\tc\tright\t12\n")
    rows = BRACKETING.load(path)
    assert [label for _, label in rows] == [LEFT, RIGHT]
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\tc\tsideways\n")
    with pytest.raises(ValueError, match="line 1"):
        BRACKETING.load(bad)
    bad.write_text("a\tb\tc\tleft\t12\t3\n")
    with pytest.raises(ValueError, match="line 1"):
        BRACKETING.load(bad)


@pytest.mark.parametrize("char", NOT_NEWLINES, ids=ascii)
def test_only_a_newline_ends_a_row(tmp_path, char):
    path = tmp_path / "b.tsv"
    rows = f"a\tb\tc\tleft\t1{char}2\nd\te\tf\tright\t12{char}\n"
    path.write_text(rows, encoding="utf-8")
    assert [label for _, label in BRACKETING.load(path)] == [LEFT, RIGHT]
    path.write_text(rows + "x\ty\tz\tsideways\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^bad dataset row on line 3$"):
        BRACKETING.load(path)
