"""Association scores and the two comparison models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npstruct.assoc import (
    DegenerateTableError,
    NounTriple,
    ZeroMarginalError,
    assoc_bracketing,
    assoc_score,
    contingency,
    pair_count,
    unigram_count,
)
from npstruct.cli import run
from npstruct.corpus import MappingProvider
from npstruct.decisions import ABSTAIN, LEFT, RIGHT
from npstruct.morphology import MorphLexicon
from npstruct.stats import pearson_chi2
from tests.conftest import make_provider


def test_noun_triple_lowercases():
    t = NounTriple("Brain", "Stem", "CELLS")
    assert t.words() == ("brain", "stem", "cells")
    with pytest.raises(ValueError):
        NounTriple("", "b", "c")


def test_pearson_chi2_golden():
    # Oracle: scipy.stats.chi2_contingency without continuity correction
    # on [[189, 55], [195, 49]] gives 0.43990.
    assert pearson_chi2(189, 55, 195, 49)[0] == pytest.approx(0.43990, abs=1e-4)


def test_chi2_degenerate_table():
    with pytest.raises(DegenerateTableError, match="degenerate table"):
        pearson_chi2(0, 0, 3, 4)


def test_chi2_row_column_swap_invariance():
    a = pearson_chi2(12, 5, 7, 20)[0]
    b = pearson_chi2(20, 7, 5, 12)[0]
    assert a == pytest.approx(b)


def test_pair_count_sums_inflections(tmp_path, small_lex):
    provider = make_provider(
        tmp_path, ["brain stem", "brain stems", "stem brain"]
    )
    assert pair_count(provider, small_lex, "brain", "stem") == 2
    assert unigram_count(provider, small_lex, "stem") == 3


def test_contingency_cells(tmp_path, small_lex):
    provider = make_provider(tmp_path, ["brain stem", "brain x", "y stem"])
    a, b, c, d = contingency(provider, small_lex, "brain", "stem")
    assert a == 1
    assert b == 1  # one extra "brain"
    assert c == 1  # one extra "stem"
    assert d == provider.total() - 3


def test_contingency_of_words_sharing_forms_is_degenerate(tmp_path, small_lex):
    # Both marginals count each "stem", so d = 2 - 1 - 1 - 1 = -1.
    provider = make_provider(tmp_path, ["stem stem"])
    with pytest.raises(DegenerateTableError, match="negative cell"):
        contingency(provider, small_lex, "stem", "stem")


@pytest.mark.parametrize("model", ["adjacency", "dependency"])
def test_chi2_voters_abstain_on_a_negative_cell(tmp_path, small_lex, model):
    provider = make_provider(tmp_path, ["stem stem"])
    d = assoc_bracketing("chi2", model, NounTriple("stem", "stem", "cells"), provider, small_lex)
    assert (d.label, d.note) == (ABSTAIN, "negative cell")


def test_bracket_run_with_a_repeated_word_exits_0(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("stem stem\n", encoding="utf-8")
    dataset = tmp_path / "triples.tsv"
    dataset.write_text("stem\tstem\tcells\tleft\nbrain\tstem\tcells\tleft\n", encoding="utf-8")
    index = str(tmp_path / "corpus.idx")
    assert run(["index", "--corpus", str(corpus), "--out", index]) == 0
    report = tmp_path / "report.tsv"
    argv = ["bracket", "--index", index, "--dataset", str(dataset), "--report", str(report)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    assert report.read_text(encoding="utf-8").count("\n") == 2


def test_assoc_score_kinds(tmp_path, small_lex):
    provider = make_provider(tmp_path, ["brain stem", "brain stem", "stem alone"])
    assert assoc_score("freq", provider, small_lex, "brain", "stem") == 2.0
    prob = assoc_score("prob", provider, small_lex, "brain", "stem")
    assert prob == pytest.approx(2 / 3)
    pmi = assoc_score("pmi", provider, small_lex, "brain", "stem")
    assert pmi > 0
    with pytest.raises(ValueError, match="unknown association kind"):
        assoc_score("bogus", provider, small_lex, "a", "b")


def test_zero_marginal_errors(tmp_path, small_lex):
    provider = make_provider(tmp_path, ["brain stem"])
    with pytest.raises(ZeroMarginalError):
        assoc_score("prob", provider, small_lex, "brain", "missing")
    with pytest.raises(ZeroMarginalError):
        assoc_score("pmi", provider, small_lex, "missing", "stem")


def _freq(model, left, right):
    """Bracket alpha beta gamma by frequency from the two pairs' counts."""
    second = "beta gamma|gammas" if model == "adjacency" else "alpha gamma|gammas"
    provider = MappingProvider({"alpha beta|betas": left, second: right}, total_tokens=100)
    triple = NounTriple("alpha", "beta", "gamma")
    return assoc_bracketing("freq", model, triple, provider, MorphLexicon())


def test_assoc_bracketing_labels_and_margin():
    assert _freq("adjacency", 5, 3).label == LEFT
    assert _freq("adjacency", 3, 5).label == RIGHT
    assert _freq("dependency", 4, 4).label == ABSTAIN
    # No margin: a difference of one count decides.
    assert _freq("adjacency", 4, 3).label == LEFT
    assert _freq("dependency", 3, 4).label == RIGHT
    with pytest.raises(ValueError, match="unknown model"):
        _freq("sideways", 1, 0)


def test_assoc_bracketing_abstains_on_degenerate_counts(small_lex):
    triple = NounTriple("brain", "stem", "cells")
    provider = MappingProvider({}, total_tokens=100)
    d = assoc_bracketing("prob", "adjacency", triple, provider, small_lex)
    assert d.label == ABSTAIN and d.note == "zero marginal"
    # A table whose cells sum to zero has no chi-squared score.
    empty = MappingProvider({}, total_tokens=0)
    d = assoc_bracketing("chi2", "dependency", triple, empty, small_lex)
    assert d.label == ABSTAIN and d.note == "degenerate table"


def test_assoc_bracketing_models(tmp_path, small_lex):
    lines = ["brain stem"] * 5 + ["stem cells"] * 2 + ["brain cells"]
    provider = make_provider(tmp_path, lines)
    triple = NounTriple("brain", "stem", "cells")
    adj = assoc_bracketing("freq", "adjacency", triple, provider, small_lex)
    dep = assoc_bracketing("freq", "dependency", triple, provider, small_lex)
    assert adj.label == LEFT and adj.left_score == 5 and adj.right_score == 2
    assert dep.label == LEFT and dep.right_score == 1


def _profile_provider(rng: random.Random):
    """Random positive counts for the three words and their bigrams."""
    lex = MorphLexicon()
    words = ("alpha", "beta", "gamma")
    counts = {}
    for w in words:
        counts[f"{w}|{w}s"] = rng.randint(1, 1000)
    for wi, wj in (("alpha", "beta"), ("beta", "gamma"), ("alpha", "gamma")):
        counts[f"{wi} {wj}|{wj}s"] = rng.randint(1, 500)
    return MappingProvider(counts, total_tokens=10_000), lex


def test_pmi_and_prob_agree_under_dependency_model():
    # Both scores divide the bigram count by the second word's marginal,
    # and the dependency model shares the first word, so the orderings
    # coincide whenever all counts are positive.
    rng = random.Random(7)
    triple = NounTriple("alpha", "beta", "gamma")
    for _ in range(1000):
        provider, lex = _profile_provider(rng)
        via_prob = assoc_bracketing("prob", "dependency", triple, provider, lex)
        via_pmi = assoc_bracketing("pmi", "dependency", triple, provider, lex)
        assert via_prob.label == via_pmi.label


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)
def test_chi2_nonnegative_and_swap_invariant(a, b, c, d):
    x = pearson_chi2(a, b, c, d)[0]
    assert x >= 0
    assert pearson_chi2(d, c, b, a)[0] == pytest.approx(x, rel=1e-9)
