"""Voter dispatch and majority combination for bracketing."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npstruct import datasets, paraphrase
from npstruct.assoc import NounTriple
from npstruct.bracketer import (
    DEFAULT_VOTERS,
    DEFAULTS,
    DIRECT_COUNTS,
    VOTERS,
    bracket,
    run_voter,
)
from npstruct.corpus import IndexProvider, build_index
from npstruct.decisions import ABSTAIN, LEFT, RIGHT, Decision, majority_vote
from perfbench import inputs
from tests.conftest import CountRecorder, MappingProvider, make_provider

TRIPLE = NounTriple("brain", "stem", "cells")


def test_default_voters_are_known():
    assert set(DEFAULT_VOTERS) <= set(VOTERS)
    assert len(DEFAULT_VOTERS) == 8


def test_config_rejects_unknown_voters():
    with pytest.raises(ValueError, match="unknown voters"):
        replace(DEFAULTS, voters=("chi2-adjacency", "astrology"))


def test_config_rejects_duplicate_voters():
    with pytest.raises(ValueError, match=r"duplicate voters: \['genitive'\]"):
        replace(DEFAULTS, voters=("genitive", "genitive", "reorder"))


def test_paraphrases_without_an_inventory_use_the_shared_default(tmp_path, small_lex, monkeypatch):
    provider = make_provider(tmp_path, ["cells from the brain stem"])
    config = replace(DEFAULTS, voters=("paraphrases",), default=None)
    expected = bracket(TRIPLE, provider, small_lex, config, datasets.default_inventory())

    def build(self):
        raise AssertionError("built a new inventory")

    monkeypatch.setattr(paraphrase.ParaphraseInventory, "__post_init__", build)
    assert datasets.default_inventory() is paraphrase.DEFAULT_INVENTORY
    assert bracket(TRIPLE, provider, small_lex, config) == expected
    assert expected.final.label == LEFT


def test_an_inventory_changes_only_the_paraphrases_vote_of_that_call(tmp_path, small_lex):
    provider = make_provider(tmp_path, ["cells from the brain stem", "brain stem cells"])
    registry = dict(DEFAULTS.registry)
    shared = bracket(TRIPLE, provider, small_lex)
    other = bracket(TRIPLE, provider, small_lex, inventory=paraphrase.ParaphraseInventory(("in",)))
    assert shared.votes["paraphrases"].label == LEFT
    assert other.votes["paraphrases"].label == ABSTAIN
    assert {**other.votes, "paraphrases": shared.votes["paraphrases"]} == shared.votes
    assert dict(DEFAULTS.registry) == registry
    assert bracket(TRIPLE, provider, small_lex) == shared


def test_run_voter_turns_zero_marginal_into_abstention(small_lex):
    provider = MappingProvider({}, total_tokens=100)
    d = run_voter("prob-adjacency", TRIPLE, provider, small_lex)
    assert d.label == ABSTAIN
    assert d.note == "zero marginal"
    d = run_voter("chi2-adjacency", TRIPLE, provider, small_lex)
    assert d.label == ABSTAIN


def test_run_voter_unknown_name(small_lex):
    with pytest.raises(ValueError, match="unknown voter"):
        run_voter("astrology", TRIPLE, MappingProvider({}), small_lex)


DIRECT_COUNT_VOTERS = (
    "concat-adjacency",
    "concat-dependency",
    "concat-triple",
    "wildcard-adjacency",
    "wildcard-dependency",
    "wildcard-adjacency-reversed",
    "wildcard-dependency-reversed",
    "genitive",
    "abbreviation",
    "reorder",
    "inflection-variability",
    "swap",
)

# sha256 over every (voter, triple, label, scores, note, counted keys)
# record of the direct-count voters on the bundled triples, keyed by the
# seed of the ``perfbench`` bracket corpus they count over.  Scores are
# compared as floats, so an abstention's 0 and 0.0 agree.  A deliberate
# change to a voter's queries or direction recomputes both digests.
DIRECT_COUNT_DIGESTS = {
    1: "2ab977ff26a5b68b6351b7db40358dd42c8d6be8a6a3ea3c2ac26d3ed34a6397",
    1001: "354b7986d7695d7d90efa3fdd2314ece02a752e0e22a46ccfbff066987d3b381",
}


def test_direct_count_table_is_the_registry_slice():
    assert tuple(DIRECT_COUNTS) == DIRECT_COUNT_VOTERS
    names = list(VOTERS)
    start = names.index(DIRECT_COUNT_VOTERS[0])
    assert tuple(names[start : start + len(DIRECT_COUNT_VOTERS)]) == DIRECT_COUNT_VOTERS


@pytest.mark.parametrize("seed", sorted(DIRECT_COUNT_DIGESTS))
def test_direct_count_voters_match_their_recorded_digest(seed, tmp_path):
    corpus = tmp_path / "corpus.txt"
    inputs.generate("bracket", seed).write_corpus(corpus)
    recorder = CountRecorder(IndexProvider(build_index(corpus)))
    lex = datasets.default_lexicon()
    triples = [t for t, _ in datasets.biomedical_bracketing()]
    assert len(triples) == 429
    digest = hashlib.sha256()
    for name in DIRECT_COUNT_VOTERS:
        for triple in triples:
            recorder.counts.clear()
            d = run_voter(name, triple, recorder, lex)
            scores = (float(d.left_score), float(d.right_score))
            record = (name, triple.words(), d.label, scores, d.note, recorder.keys)
            digest.update(repr(record).encode())
    assert digest.hexdigest() == DIRECT_COUNT_DIGESTS[seed]


def test_triple_snippets_cover_genitive_spellings(tmp_path, small_lex):
    lines = ["the brain stem cells", "the brain's stem cells", "brain stem's cells", "noise"]
    recorder = SnippetRecorder(make_provider(tmp_path, lines))
    d = run_voter("surface", TRIPLE, recorder, small_lex)
    assert set(recorder.texts) == set(lines[:3])
    # One genitive cue for each side.
    assert (d.label, d.left_score, d.right_score) == (ABSTAIN, 1, 1)


class SnippetRecorder(CountRecorder):
    """A ``CountRecorder`` that also keeps every snippet it passes on."""

    def __init__(self, provider):
        super().__init__(provider)
        self.texts: list[str] = []

    def snippets(self, query, limit):
        out = self.provider.snippets(query, limit)
        self.texts += out
        return out


def test_bracket_rigged_left(tmp_path, small_lex):
    lines = (
        ["brain stem"] * 6
        + ["cells of the brain stem"] * 3
        + ["the brain-stem cells grew"] * 3
        + ["brain's stem cells"]
        + ["brainstem"] * 2
        + ["brainstem cells"] * 2
        + ["brain stem bs cells"]
    )
    provider = make_provider(tmp_path, lines)
    result = bracket(TRIPLE, provider, small_lex)
    assert result.final.label == LEFT
    assert set(result.votes) == set(DEFAULT_VOTERS)


def test_bracket_falls_to_default_on_silence(small_lex):
    provider = MappingProvider({}, total_tokens=100)
    voters = ("freq-adjacency", "genitive", "paraphrases")
    left_default = bracket(TRIPLE, provider, small_lex, replace(DEFAULTS, voters=voters))
    assert left_default.final.label == LEFT
    assert left_default.final.note == "default"
    no_default = bracket(
        TRIPLE, provider, small_lex, replace(DEFAULTS, voters=voters, default=None)
    )
    assert no_default.final.label == ABSTAIN


LABELS = st.sampled_from([LEFT, RIGHT, ABSTAIN])


@settings(max_examples=200, deadline=None)
@given(st.lists(LABELS, max_size=9), st.randoms(use_true_random=False))
def test_majority_vote_permutation_invariant(labels, rng):
    decisions = [Decision(label) for label in labels]
    baseline = majority_vote(decisions, default=LEFT).label
    shuffled = list(decisions)
    rng.shuffle(shuffled)
    assert majority_vote(shuffled, default=LEFT).label == baseline


def test_majority_vote_semantics():
    d = lambda label: Decision(label)  # noqa: E731
    assert majority_vote([d(LEFT), d(LEFT), d(RIGHT)]).label == LEFT
    assert majority_vote([d(LEFT), d(RIGHT)], default=RIGHT).label == RIGHT
    assert majority_vote([d(ABSTAIN), d(ABSTAIN)]).label == ABSTAIN
    assert majority_vote([], default=LEFT).label == LEFT
    assert majority_vote([d(ABSTAIN), d(RIGHT)]).label == RIGHT
