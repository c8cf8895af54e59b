"""Orthographic snippet features, and the direct-count bracketing voters
run by name through ``bracketer.run_voter``."""

import pytest

from npstruct.assoc import NounTriple
from npstruct.bracketer import VoteConfig, run_voter
from npstruct.corpus import CountQuery, MappingProvider
from npstruct.decisions import ABSTAIN, LEFT, RIGHT
from npstruct.morphology import MorphLexicon, inflections
from npstruct.surface import capitalization_excluded, surface_vote

TRIPLE = NounTriple("brain", "stem", "cells")


@pytest.fixture
def lex(small_lex):
    return small_lex


def _features(snippets, lex, triple=TRIPLE):
    decision, tally = surface_vote(snippets, triple, lex)
    return decision, tally


class TestSnippetFeatures:
    def test_dash(self, lex):
        d, f = _features(["the brain-stem cells were", "a brain stem-cell line"], lex)
        assert f["dash"] == (1, 1)
        assert d.label == ABSTAIN

    def test_dash_votes(self, lex):
        d, f = _features(["cell-cycle analysis"], lex, NounTriple("cell", "cycle", "analysis"))
        assert f["dash"] == (1, 0)
        assert d.label == LEFT

    def test_genitive(self, lex):
        _, f = _features(["the brain stem's cells", "the brain's stem cells"], lex)
        assert f["genitive"] == (1, 1)

    def test_slash(self, lex):
        _, f = _features(["brain stem/cells", "brain/stem cells"], lex)
        assert f["slash"] == (1, 1)

    def test_parentheses(self, lex):
        _, f = _features(
            [
                "(brain stem) cells",
                "brain stem (cells)",
                "(brain) stem cells",
                "brain (stem cells)",
            ],
            lex,
        )
        assert f["parentheses"] == (2, 2)

    def test_external_dash(self, lex):
        _, f = _features(["brain stem cells-death", "rat-brain stem cells"], lex)
        assert f["external-dash"] == (1, 1)

    def test_punctuation(self, lex):
        _, f = _features(["brain stem, cells", "brain. stem cells"], lex)
        assert f["punctuation"] == (1, 1)

    def test_capitalization(self, lex):
        _, f = _features(["brain Stem cells", "brain stem Cells"], lex)
        assert f["capitalization"] == (1, 1)

    def test_capitalization_exclusions(self, lex):
        assert capitalization_excluded("I")
        assert capitalization_excluded("III")
        assert not capitalization_excluded("Stem")
        _, f = _features(
            ["donor T cells"], lex, NounTriple("donor", "t", "cells")
        )
        assert f["capitalization"] == (0, 0)

    def test_inflections_matched(self, lex):
        _, f = _features(["the brain-stem cell lines"], lex)
        assert f["dash"] == (1, 0)

    def test_vote_sums_all_features(self, lex):
        d, _ = _features(
            ["brain-stem cells", "brain stem, cells", "brain's stem cells"], lex
        )
        assert d.label == LEFT
        assert d.left_score == 2 and d.right_score == 1


def _run(name, provider, lex, triple=TRIPLE):
    return run_voter(name, triple, provider, lex, VoteConfig())


def _key(*positions) -> str:
    return CountQuery.of(*positions).canonical()


def _gapped_key(left, right, lo, hi) -> str:
    return CountQuery.gapped(left, right, lo, hi).canonical()


class TestConcatenation:
    def test_adjacency(self, lex):
        i2 = inflections(lex, "stem")
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _key({"brain" + s for s in i2}): 98_633_000,
                _key({"stem" + s for s in i3}): 498,
            }
        )
        d = _run("concat-adjacency", provider, lex)
        assert d.label == LEFT
        assert d.left_score == 98_633_000

    def test_dependency(self, lex):
        i2 = inflections(lex, "stem")
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _key({"brain" + s for s in i2}): 10,
                _key({"brain" + s for s in i3}): 40,
            }
        )
        assert _run("concat-dependency", provider, lex).label == RIGHT

    def test_triple(self, lex):
        i1 = inflections(lex, "brain")
        i2 = inflections(lex, "stem")
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _key({"brain" + s for s in i2}, i3): 745_700,
                _key(i1, {"stem" + s for s in i3}): 304,
            }
        )
        assert _run("concat-triple", provider, lex).label == LEFT


class TestWildcard:
    def test_adjacency_one_star(self, lex):
        i1 = inflections(lex, "brain")
        i2 = inflections(lex, "stem")
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _gapped_key(["brain", i2], [i3], 1, 1): 635_701,
                _gapped_key([i1], ["stem", i3], 1, 1): 272_601,
            }
        )
        d = _run("wildcard-adjacency", provider, lex)
        assert d.label == LEFT

    def test_adjacency_reversed(self, lex):
        i1 = inflections(lex, "brain")
        i2 = inflections(lex, "stem")
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _gapped_key([i3], ["brain", i2], 1, 1): 943_005,
                _gapped_key(["stem", i3], [i1], 1, 1): 268_901,
            }
        )
        d = _run("wildcard-adjacency-reversed", provider, lex)
        assert d.label == LEFT

    def test_dependency_right(self, lex):
        i2 = inflections(lex, "stem")
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _gapped_key(["brain", i2], [i3], 1, 1): 5,
                _gapped_key([i2], ["brain", i3], 1, 1): 50,
            }
        )
        assert _run("wildcard-dependency", provider, lex).label == RIGHT


class TestMiscVoters:
    def test_genitive(self, lex):
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _key("brain", "s", "stem", i3): 285,
                _key("brain", "stem", "s", i3): 5,
            }
        )
        assert _run("genitive", provider, lex).label == LEFT

    def test_abbreviation(self, lex):
        i3 = inflections(lex, "cells")
        provider = MappingProvider({_key("brain", "stem", "bs", i3): 3})
        assert _run("abbreviation", provider, lex).label == LEFT

    def test_abbreviation_skips_dictionary_collisions(self, lex):
        # (orange, fruit, basket): "of" is a common word, "fb" is not.
        triple = NounTriple("orange", "fruit", "basket")
        i3 = inflections(lex, "basket")
        provider = MappingProvider(
            {
                _key("orange", "fruit", "of", i3): 1000,
                _key("orange", "fruit", i3, "fb"): 2,
            }
        )
        assert _run("abbreviation", provider, lex, triple).label == RIGHT

    def test_abbreviation_skips_roman_and_state_codes(self, lex):
        # (iron, vane, alloys) -> "iv" is a Roman numeral;
        # (copper, alloy, layers) -> "ca" is a state code.
        t1 = NounTriple("iron", "vane", "alloys")
        provider = MappingProvider(
            {_key("iron", "vane", "iv", inflections(lex, "alloys")): 9}
        )
        assert _run("abbreviation", provider, lex, t1).label == ABSTAIN
        t2 = NounTriple("copper", "alloy", "layers")
        provider = MappingProvider(
            {_key("copper", "alloy", "ca", inflections(lex, "layers")): 9}
        )
        assert _run("abbreviation", provider, lex, t2).label == ABSTAIN

    def test_reorder(self, lex):
        i1 = inflections(lex, "brain")
        i2 = inflections(lex, "stem")
        i3 = inflections(lex, "cells")
        provider = MappingProvider(
            {
                _key(i3, "brain", i2): 138_010,
                _key("stem", i3, i1): 25_020,
            }
        )
        assert _run("reorder", provider, lex).label == LEFT

    def test_inflection_variability(self, lex):
        i3 = inflections(lex, "cells")
        var2 = inflections(lex, "stem") - {"stem"}
        provider = MappingProvider({_key("brain", var2, i3): 882})
        assert _run("inflection-variability", provider, lex).label == LEFT

    def test_inflection_variability_without_variants_abstains(self):
        lex = MorphLexicon.from_entries({"sheep": [], "deer": [], "fish": []})
        triple = NounTriple("sheep", "deer", "fish")
        assert (
            _run("inflection-variability", MappingProvider({}), lex, triple).label
            == ABSTAIN
        )

    def test_swap(self, lex):
        i1 = inflections(lex, "brain")
        i3 = inflections(lex, "cells")
        provider = MappingProvider({_key("stem", i1, i3): 4})
        assert _run("swap", provider, lex).label == RIGHT
        assert _run("swap", MappingProvider({}), lex).label == ABSTAIN
