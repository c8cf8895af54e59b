"""The surface cue voter of all three tasks, bracketing's cue table, and
the direct-count bracketing voters run by name through
``bracketer.run_voter``."""

import hashlib
from functools import partial

import pytest

from npstruct import coordination, datasets, ppattach, surface
from npstruct.assoc import NounTriple
from npstruct.bracketer import BRACKET_CUES, capitalization_excluded, run_voter
from npstruct.corpus import CountQuery, IndexProvider, build_index
from npstruct.decisions import ABSTAIN, LEFT, RIGHT
from npstruct.morphology import inflections
from perfbench import inputs
from tests.conftest import MappingProvider, lexicon, make_provider

TRIPLE = NounTriple("brain", "stem", "cells")


@pytest.fixture
def lex(small_lex):
    return small_lex


def _features(snippets, lex, triple=TRIPLE):
    i1, i2, i3 = (inflections(lex, w) for w in triple.words())
    return surface.cue_vote(snippets, {"w1": i1, "w2": i2, "w3": i3}, BRACKET_CUES)


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


class TestEngine:
    def test_snippets_drop_repeated_texts_then_cut_to_the_limit(self, tmp_path, monkeypatch):
        provider = make_provider(tmp_path, ["a b", "a b", "x d", "y d", "z d"])
        queries = [CountQuery.of("a", "b"), CountQuery.of("d")]
        assert surface.snippets(provider, queries) == ["a b", "x d", "y d", "z d"]
        assert surface.snippets(provider, queries[::-1]) == ["x d", "y d", "z d", "a b"]
        # The repeat is dropped before the merged list is cut to the limit.
        monkeypatch.setattr(surface, "SNIPPET_LIMIT", 2)
        assert surface.snippets(provider, queries) == ["a b", "x d"]
        assert surface.snippets(provider, queries[::-1]) == ["x d", "y d"]

    def test_a_slot_matches_each_of_its_forms_literally(self):
        table = surface.CueTable(("x", "y"), {"pair": ((r"\b{a}-{b}\b",), (r"\b{b}-{a}\b",))})
        words = {"a": {"c++", "cxx"}, "b": {"go"}}
        d, tally = surface.cue_vote(["c++-go", "go-cxx", "cxx-go", "cx-go"], words, table)
        assert tally == {"pair": (2, 1)}
        assert (d.label, d.left_score, d.right_score) == ("x", 2, 1)

    def test_no_text_abstains_with_an_empty_tally(self):
        d, tally = surface.cue_vote([], {"w1": {"a"}, "w2": {"b"}, "w3": {"c"}}, BRACKET_CUES)
        assert d.label == ABSTAIN
        assert tally == dict.fromkeys([*BRACKET_CUES.cues, "capitalization"], (0, 0))


# sha256 over every (voter, item key, label, scores, note) record of the
# task's ``surface`` voter, keyed by task and by the seed of the
# ``perfbench`` corpus it reads: the bundled triples over a bracket
# corpus, and the PP and coordination items of the ``attach_corpus``
# fixture.  Scores are compared as floats.  A deliberate change to a cue
# table or to the snippet policy recomputes the digests.
SURFACE_DIGESTS = {
    ("bracket", 1): "9d5e3bce186b6feb97367f47b969cefb2c3ce8cd8237bf7b3e5838d9e43405e2",
    ("bracket", 1001): "11dfd06f7c6b9e7c96c09f611c2bb487ab414d6515fc9bfc1c0fd3dbfb4bd526",
    ("pp", 1): "e4aa7e4540cad404a01e266f69c16d8e2fbc2a206dbbdce21e60fa5bcb24c72a",
    ("pp", 1001): "d3a75f4f3848a828e2d696b3a8926d1a77f4dac9e332f1cc6cc414c2768117c7",
    ("coord", 1): "ac40a354bbf7e2c9e4f8847f3bd71f7ca953e74af8f7fd75e0f5d74ae2badf2f",
    ("coord", 1001): "8cc91d0b1c06875e3f0fa198e14028a89a196df8598bddb7c36ea6ccc9f8cb81",
}

RUN_SURFACE = {
    "bracket": partial(run_voter, "surface"),
    "pp": partial(ppattach.run_pp_voter, "surface"),
    "coord": partial(coordination.run_coord_voter, "surface"),
}


@pytest.mark.parametrize(("task", "seed"), sorted(SURFACE_DIGESTS))
def test_surface_voters_match_their_recorded_digest(task, seed, tmp_path, attach_corpus):
    if task == "bracket":
        corpus = tmp_path / "corpus.txt"
        inputs.generate("bracket", seed).write_corpus(corpus)
        provider = IndexProvider(build_index(corpus))
        items = [(t.words(), t) for t, _ in datasets.biomedical_bracketing()]
        assert len(items) == 429
    else:
        generated, provider = attach_corpus(seed)
        items = [(item.key, item.args[0]) for item in generated if item.kind == task]
        assert len(items) == 428
    lex = datasets.default_lexicon()
    digest = hashlib.sha256()
    for key, item in items:
        d = RUN_SURFACE[task](item, provider, lex)
        scores = (float(d.left_score), float(d.right_score))
        digest.update(repr(("surface", key, d.label, scores, d.note)).encode())
    assert digest.hexdigest() == SURFACE_DIGESTS[task, seed]


def _run(name, provider, lex, triple=TRIPLE):
    return run_voter(name, triple, provider, lex)


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
        lex = lexicon({"sheep": [], "deer": [], "fish": []})
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
