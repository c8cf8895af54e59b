"""Inflection expansion and lemmatization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from npstruct.morphology import (
    MorphLexicon,
    inflections,
    is_plural,
    lemma,
)
from tests.conftest import NOT_NEWLINES

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)


def test_lexicon_roundtrip(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# comment\ncriterion\tcriteria\nman\tmen\n", encoding="utf-8")
    lex = MorphLexicon.load(path)
    assert lemma(lex, "criteria") == "criterion"
    assert lemma(lex, "MEN") == "man"
    assert inflections(lex, "man") == frozenset({"man", "men"})


@pytest.mark.parametrize("char", NOT_NEWLINES, ids=ascii)
def test_only_a_newline_ends_a_lexicon_line(tmp_path, char):
    path = tmp_path / "lex.tsv"
    path.write_text(f"cell\tcells{char}cellular\nman\tmen\n", encoding="utf-8")
    lex = MorphLexicon.load(path)
    assert sorted(lex.forms_by_lemma) == ["cell", "man"]
    assert inflections(lex, "cell") == frozenset({"cell", f"cells{char}cellular"})
    assert lemma(lex, "men") == "man"


def test_lexicon_lookup_beats_rules(small_lex):
    assert lemma(small_lex, "analyses") == "analysis"
    assert lemma(small_lex, "included") == "include"
    assert inflections(small_lex, "include") >= {"include", "includes", "including"}


def test_fallback_plural_rules():
    lex = MorphLexicon()
    assert inflections(lex, "tumor") == frozenset({"tumor", "tumors"})
    assert inflections(lex, "box") == frozenset({"box", "boxes"})
    assert inflections(lex, "city") == frozenset({"city", "cities"})
    assert inflections(lex, "church") == frozenset({"church", "churches"})


def test_fallback_lemma_rules():
    lex = MorphLexicon()
    assert lemma(lex, "cities") == "city"
    assert lemma(lex, "boxes") == "box"
    assert lemma(lex, "tumors") == "tumor"
    assert lemma(lex, "glass") == "glass"


def test_verbal_suffix_stripping_needs_known_stem(small_lex):
    # -ing/-ed strip only when the stem is a known lemma.
    assert lemma(small_lex, "donating") == "donate"
    assert lemma(small_lex, "chaired") == "chair"
    lex = MorphLexicon()
    assert lemma(lex, "running") == "running"
    assert lemma(lex, "runnings") == "running"


def test_is_plural(small_lex):
    assert is_plural(small_lex, "cells")
    assert not is_plural(small_lex, "cell")
    assert is_plural(small_lex, "analyses")
    assert not is_plural(small_lex, "analysis")
    lex = MorphLexicon()
    assert is_plural(lex, "dogs")
    assert not is_plural(lex, "glass")


@given(WORDS)
def test_inflections_contain_word(word):
    lex = MorphLexicon()
    assert word in inflections(lex, word)


@given(WORDS)
def test_lemma_idempotent(word):
    lex = MorphLexicon()
    once = lemma(lex, word)
    assert lemma(lex, once) == once


@given(WORDS)
def test_lemma_lowercases(word):
    lex = MorphLexicon()
    assert lemma(lex, word.upper()) == lemma(lex, word)
