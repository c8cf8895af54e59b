"""Coordination-scope voters and pipeline."""

import pytest

from npstruct.coordination import (
    NO,
    YES,
    CoordQuad,
    CoordVoteConfig,
    coord_heuristic,
    coord_ngram_decision,
    coord_paraphrase_decision,
    coord_pipeline,
    coord_surface_vote,
    number_agreement_decision,
)
from npstruct.corpus import CountQuery, MappingProvider
from npstruct.datasets import COORDINATION
from npstruct.decisions import ABSTAIN, NOUN_COORD, NP_COORD
from npstruct.morphology import inflections
from tests.conftest import make_provider

QUAD = CoordQuad("bar", "and", "pie", "graph")


def _key(*positions) -> str:
    return CountQuery.of(*positions).canonical()


def test_quad_validation():
    with pytest.raises(ValueError):
        CoordQuad("a", "nor", "b", "c")
    with pytest.raises(ValueError):
        CoordQuad("", "and", "b", "c")


class TestNgramModels:
    def test_model_i(self, small_lex):
        ih = inflections(small_lex, "graph")
        provider = MappingProvider({_key("bar", ih): 9, _key("pie", ih): 2})
        d = coord_ngram_decision(provider, small_lex, QUAD, "i")
        assert d.label == NOUN_COORD
        provider = MappingProvider({_key("bar", ih): 1, _key("pie", ih): 7})
        assert coord_ngram_decision(provider, small_lex, QUAD, "i").label == NP_COORD

    def test_model_ii_pools_conjunctions(self, small_lex):
        ih = inflections(small_lex, "graph")
        i2 = inflections(small_lex, "pie")
        provider = MappingProvider(
            {_key("bar", {"and", "or"}, i2): 8, _key("bar", ih): 3}
        )
        d = coord_ngram_decision(provider, small_lex, QUAD, "ii")
        assert d.label == NOUN_COORD

    def test_bad_model(self, small_lex):
        with pytest.raises(ValueError):
            coord_ngram_decision(MappingProvider({}), small_lex, QUAD, "iii")


class TestParaphrases:
    def test_patterns_confirm_with_enough_hits(self, small_lex):
        ih = inflections(small_lex, "graph")
        cases = {
            1: (_key("pie", "and", "bar", ih), NOUN_COORD),
            2: (_key("pie", ih, "and", "bar"), NP_COORD),
            3: (_key("bar", ih, "and", "pie", ih), NOUN_COORD),
            4: (_key("pie", ih, "and", "bar", ih), NOUN_COORD),
        }
        for pattern, (key, label) in cases.items():
            provider = MappingProvider({key: 2})
            d = coord_paraphrase_decision(provider, small_lex, QUAD, pattern)
            assert d.label == label, pattern

    def test_below_threshold_inverts(self, small_lex):
        d = coord_paraphrase_decision(MappingProvider({}), small_lex, QUAD, 1)
        assert d.label == NP_COORD and d.note == "below threshold"
        d = coord_paraphrase_decision(MappingProvider({}), small_lex, QUAD, 2)
        assert d.label == NOUN_COORD

    def test_threshold_raises_the_bar(self, small_lex):
        ih = inflections(small_lex, "graph")
        provider = MappingProvider({_key("pie", "and", "bar", ih): 2})
        low = coord_paraphrase_decision(provider, small_lex, QUAD, 1, threshold=2)
        assert low.label == NOUN_COORD
        high = coord_paraphrase_decision(provider, small_lex, QUAD, 1, threshold=3)
        assert high.label == NP_COORD

    def test_validation(self, small_lex):
        with pytest.raises(ValueError):
            coord_paraphrase_decision(MappingProvider({}), small_lex, QUAD, 9)
        with pytest.raises(ValueError, match="threshold must be >= 1"):
            CoordVoteConfig(threshold=0)


class TestHeuristics:
    def test_h1_same_word(self):
        quad = CoordQuad("milk", "and", "milk", "products")
        assert coord_heuristic(quad, "h1").label == NP_COORD
        assert coord_heuristic(QUAD, "h1").label == ABSTAIN

    def test_determiner_context(self):
        both = CoordQuad("a", "and", "b", "c", n1_determined=YES, n2_determined=YES)
        assert coord_heuristic(both, "h4").label == NP_COORD
        or_first = CoordQuad("a", "or", "b", "c", n1_determined=YES, n2_determined=NO)
        assert coord_heuristic(or_first, "h5").label == NOUN_COORD
        second_only = CoordQuad("a", "and", "b", "c", n1_determined=NO, n2_determined=YES)
        assert coord_heuristic(second_only, "h6").label == NP_COORD

    def test_unknown_context_abstains(self):
        d = coord_heuristic(QUAD, "h4")
        assert d.label == ABSTAIN and "unknown" in d.note

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            coord_heuristic(QUAD, "h9")


class TestNumberAgreement:
    def test_modifiers_agree_head_differs(self, small_lex):
        quad = CoordQuad("buses", "and", "trains", "station")
        assert number_agreement_decision(quad, small_lex).label == NOUN_COORD

    def test_first_noun_matches_head_not_second(self, small_lex):
        quad = CoordQuad("president", "and", "members", "board")
        assert number_agreement_decision(quad, small_lex).label == NP_COORD

    def test_otherwise_abstains(self, small_lex):
        quad = CoordQuad("bus", "and", "train", "line")
        assert number_agreement_decision(quad, small_lex).label == ABSTAIN


class TestSurface:
    def test_dash_suspension(self, small_lex):
        quad = CoordQuad("buy", "and", "sell", "orders")
        d = coord_surface_vote(["buy- and sell orders"], quad, small_lex)
        assert d.label == NOUN_COORD

    def test_separator_after_pair(self, small_lex):
        d = coord_surface_vote(["bar and pie: graph"], QUAD, small_lex)
        assert d.label == NOUN_COORD

    def test_brackets_around_pair(self, small_lex):
        d = coord_surface_vote(["(bar and pie) graph"], QUAD, small_lex)
        assert d.label == NOUN_COORD
        d = coord_surface_vote(["bar and pie (graph)"], QUAD, small_lex)
        assert d.label == NOUN_COORD

    def test_separator_isolating_first(self, small_lex):
        d = coord_surface_vote(["bar, and pie graph"], QUAD, small_lex)
        assert d.label == NP_COORD

    def test_brackets_isolating_first(self, small_lex):
        d = coord_surface_vote(["(bar) and pie graph", "bar (and pie graph)"], QUAD, small_lex)
        assert d.label == NP_COORD
        assert d.right_score == 2

    def test_no_cues_abstain(self, small_lex):
        d = coord_surface_vote(["bar and pie graph"], QUAD, small_lex)
        assert d.label == ABSTAIN


class TestPipeline:
    def test_default_np_on_silence(self, small_lex):
        voters = ("ngram-i", "h1", "number-agreement", "surface")
        result = coord_pipeline(
            CoordQuad("bar", "and", "pie", "graph"),
            MappingProvider({}),
            small_lex,
            CoordVoteConfig(voters=voters),
        )
        assert result.final.label == NP_COORD

    def test_rigged_noun_coordination(self, tmp_path, small_lex):
        quad = CoordQuad("buses", "and", "trains", "station")
        lines = (
            ["buses station"] * 4
            + ["trains and buses station"] * 2
            + ["buses and trains: station"]
        )
        provider = make_provider(tmp_path, lines)
        result = coord_pipeline(quad, provider, small_lex)
        assert result.votes["number-agreement"].label == NOUN_COORD
        assert result.votes["ngram-i"].label == NOUN_COORD
        assert result.votes["coord-paraphrase-1"].label == NOUN_COORD
        assert result.votes["surface"].label == NOUN_COORD
        assert result.final.label == NOUN_COORD

    def test_unknown_voter(self):
        with pytest.raises(ValueError, match="unknown voters"):
            CoordVoteConfig(voters=("ngram-i", "astrology"))

    def test_duplicate_voter(self):
        with pytest.raises(ValueError, match=r"duplicate voters: \['h1'\]"):
            CoordVoteConfig(voters=("h1", "ngram-i", "h1"))

    def test_threshold_below_one_rejected_when_built(self):
        # Checked whichever voters run, not only the paraphrase voters.
        with pytest.raises(ValueError, match="threshold must be >= 1"):
            CoordVoteConfig(voters=("h1",), threshold=0)


def test_load_coord_dataset(tmp_path):
    path = tmp_path / "coord.tsv"
    path.write_text("bar\tand\tpie\tgraph\tnoun\npresident\tor\tceo\tpay\tNP\n")
    rows = COORDINATION.load(path)
    assert rows[0][1] == NOUN_COORD and rows[1][1] == NP_COORD
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tand\tb\tc\tmaybe\n")
    with pytest.raises(ValueError, match="line 1"):
        COORDINATION.load(bad)
    bad.write_text("bar\tand\tpie\tgraph\tnoun\t12\n")  # only bracketing has a frequency
    with pytest.raises(ValueError, match="line 1"):
        COORDINATION.load(bad)
