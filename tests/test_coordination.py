"""Coordination-scope voters and pipeline."""

import hashlib
from dataclasses import replace

import pytest

from npstruct import datasets
from npstruct.coordination import (
    DEFAULTS,
    NO,
    VOTERS,
    YES,
    CoordQuad,
    coord_heuristic,
    coord_pipeline,
    number_agreement_decision,
    run_coord_voter,
)
from npstruct.corpus import CountQuery, IndexProvider, MappingProvider
from npstruct.datasets import COORDINATION
from npstruct.decisions import ABSTAIN, NOUN_COORD, NP_COORD
from npstruct.morphology import inflections
from tests.conftest import CountRecorder, FixedSnippets, make_index, make_provider

QUAD = CoordQuad("bar", "and", "pie", "graph")


def _key(*positions) -> str:
    return CountQuery.of(*positions).canonical()


def _vote(name, provider, lex):
    return run_coord_voter(name, QUAD, provider, lex)


def test_quad_validation():
    with pytest.raises(ValueError):
        CoordQuad("a", "nor", "b", "c")
    with pytest.raises(ValueError):
        CoordQuad("", "and", "b", "c")


class TestNgramModels:
    def test_model_i(self, small_lex):
        ih = inflections(small_lex, "graph")
        provider = MappingProvider({_key("bar", ih): 9, _key("pie", ih): 2})
        d = _vote("ngram-i", provider, small_lex)
        assert d.label == NOUN_COORD
        provider = MappingProvider({_key("bar", ih): 1, _key("pie", ih): 7})
        assert _vote("ngram-i", provider, small_lex).label == NP_COORD

    def test_model_ii_pools_conjunctions(self, small_lex):
        ih = inflections(small_lex, "graph")
        i2 = inflections(small_lex, "pie")
        provider = MappingProvider(
            {_key("bar", {"and", "or"}, i2): 8, _key("bar", ih): 3}
        )
        d = _vote("ngram-ii", provider, small_lex)
        assert d.label == NOUN_COORD


class TestParaphrases:
    def test_patterns_confirm_with_enough_hits(self, small_lex):
        # One match is enough.
        ih = inflections(small_lex, "graph")
        cases = {
            1: (_key("pie", "and", "bar", ih), NOUN_COORD),
            2: (_key("pie", ih, "and", "bar"), NP_COORD),
            3: (_key("bar", ih, "and", "pie", ih), NOUN_COORD),
            4: (_key("pie", ih, "and", "bar", ih), NOUN_COORD),
        }
        for pattern, (key, label) in cases.items():
            provider = MappingProvider({key: 1})
            d = _vote(f"coord-paraphrase-{pattern}", provider, small_lex)
            assert d.label == label, pattern

    def test_below_threshold_inverts(self, small_lex):
        d = _vote("coord-paraphrase-1", MappingProvider({}), small_lex)
        assert d.label == NP_COORD and d.note == "below threshold"
        d = _vote("coord-paraphrase-2", MappingProvider({}), small_lex)
        assert d.label == NOUN_COORD


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


def _surface(snippets, lex, quad=QUAD):
    """The ``surface`` vote of ``quad`` on a corpus answering every query with ``snippets``."""
    return run_coord_voter("surface", quad, FixedSnippets(snippets), lex)


class TestSurface:
    def test_dash_suspension(self, small_lex):
        quad = CoordQuad("buy", "and", "sell", "orders")
        d = _surface(["buy- and sell orders"], small_lex, quad)
        assert d.label == NOUN_COORD

    def test_separator_after_pair(self, small_lex):
        d = _surface(["bar and pie: graph"], small_lex)
        assert d.label == NOUN_COORD

    def test_brackets_around_pair(self, small_lex):
        d = _surface(["(bar and pie) graph"], small_lex)
        assert d.label == NOUN_COORD
        d = _surface(["bar and pie (graph)"], small_lex)
        assert d.label == NOUN_COORD

    def test_separator_isolating_first(self, small_lex):
        d = _surface(["bar, and pie graph"], small_lex)
        assert d.label == NP_COORD

    def test_brackets_isolating_first(self, small_lex):
        d = _surface(["(bar) and pie graph", "bar (and pie graph)"], small_lex)
        assert d.label == NP_COORD
        assert d.right_score == 2

    def test_no_cues_abstain(self, small_lex):
        d = _surface(["bar and pie graph"], small_lex)
        assert d.label == ABSTAIN

    def test_a_repeated_line_counts_once(self, tmp_path, small_lex):
        line = "Bar and pie: graph."
        once, twice = (
            _vote("surface", IndexProvider(make_index(tmp_path, lines, name=name)), small_lex)
            for name, lines in (("once.txt", [line]), ("twice.txt", [line, line]))
        )
        assert (once.label, once.left_score, once.right_score) == (NOUN_COORD, 1, 0)
        assert twice == once


class TestPipeline:
    def test_default_np_on_silence(self, small_lex):
        voters = ("ngram-i", "h1", "number-agreement", "surface")
        result = coord_pipeline(
            CoordQuad("bar", "and", "pie", "graph"),
            MappingProvider({}),
            small_lex,
            replace(DEFAULTS, voters=voters),
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
            replace(DEFAULTS, voters=("ngram-i", "astrology"))

    def test_run_coord_voter_unknown_name(self, small_lex):
        with pytest.raises(ValueError, match=r"unknown voters: \['coord-paraphrase-9'\]"):
            run_coord_voter("coord-paraphrase-9", QUAD, MappingProvider({}), small_lex)

    def test_duplicate_voter(self):
        with pytest.raises(ValueError, match=r"duplicate voters: \['h1'\]"):
            replace(DEFAULTS, voters=("h1", "ngram-i", "h1"))


COUNT_VOTERS = (
    "ngram-i", "ngram-ii",
    "coord-paraphrase-1", "coord-paraphrase-2",
    "coord-paraphrase-3", "coord-paraphrase-4",
)

# sha256 over every (voter, quad, label, scores, note, sorted counted
# keys) record of the count voters on the coordination items of a seeded
# ``perfbench`` attach corpus, keyed by its seed.  Scores are compared as
# floats, so an abstention's 0 and 0.0 agree.  A deliberate change to a
# voter's queries or direction recomputes both digests.
COUNT_DIGESTS = {
    1: "7170f8afbfa0cc459658e94f14541cf40e9c1aa87eee9828dd30f25397e4888e",
    1001: "aa7413362cd3cac1ccba2ad1a981abbd5340a1ec8b763d299b1573427e628b6b",
}


def test_count_voters_lead_the_registry():
    assert tuple(VOTERS)[: len(COUNT_VOTERS)] == COUNT_VOTERS


@pytest.mark.parametrize("seed", sorted(COUNT_DIGESTS))
def test_count_voters_match_their_recorded_digest(seed, attach_corpus):
    items, provider = attach_corpus(seed)
    quads = [item for item in items if item.kind == "coord"]
    assert len(quads) == 428
    recorder = CountRecorder(provider)
    lex = datasets.default_lexicon()
    digest = hashlib.sha256()
    for name in COUNT_VOTERS:
        for item in quads:
            recorder.counts.clear()
            d = run_coord_voter(name, item.args[0], recorder, lex)
            scores = (float(d.left_score), float(d.right_score))
            record = (name, item.key, d.label, scores, d.note, sorted(recorder.keys))
            digest.update(repr(record).encode())
    assert digest.hexdigest() == COUNT_DIGESTS[seed]


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
