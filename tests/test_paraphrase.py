"""Paraphrase generation and the paraphrase-count bracketing voter."""

import random

import pytest

from npstruct.assoc import NounTriple
from npstruct.corpus import MAX_GAP, CountQuery
from npstruct.datasets import biomedical_bracketing, default_inventory, default_lexicon
from npstruct.decisions import ABSTAIN, LEFT, RIGHT
from npstruct.morphology import inflections
from npstruct.paraphrase import (
    COPULAS,
    DETERMINERS,
    NONVERBAL_PREPOSITIONS,
    VERBAL_PREPOSITIONS,
    ParaphraseInventory,
    _families,
    paraphrase_decision,
)
from tests.conftest import (
    CountRecorder,
    generate_bracketing_queries,
    make_provider,
    naive_count,
    normalize_line,
)

TRIPLE = NounTriple("bone", "marrow", "cells")


def test_inventory_sizes():
    assert len(NONVERBAL_PREPOSITIONS) == 72
    assert len(VERBAL_PREPOSITIONS) == 16
    assert len(DETERMINERS) == 12
    assert len(COPULAS) == 4


def test_left_queries_keep_first_pair_together(small_lex):
    left, _right = generate_bracketing_queries(TRIPLE, ParaphraseInventory(), small_lex)
    assert ("cells", "from", "the", "bone", "marrow") in left
    assert ("cells", "from", "bone", "marrow") in left  # empty determiner
    assert ("cell", "from", "the", "bone", "marrows") in left


def test_right_queries_keep_second_pair_together(small_lex):
    _left, right = generate_bracketing_queries(TRIPLE, ParaphraseInventory(), small_lex)
    assert ("marrow", "cells", "of", "the", "bone") in right
    assert ("marrow", "cells", "of", "bones") in right


def test_multiword_prepositions_are_split(small_lex):
    left, _ = generate_bracketing_queries(TRIPLE, ParaphraseInventory(), small_lex)
    assert ("cells", "out", "of", "the", "bone", "marrow") in left


def test_copula_number_agreement(small_lex):
    left, _ = generate_bracketing_queries(TRIPLE, ParaphraseInventory(), small_lex)
    assert ("cells", "that", "are", "from", "the", "bone", "marrow") in left
    assert ("cell", "that", "is", "from", "the", "bone", "marrow") in left
    assert ("cells", "that", "is", "from", "the", "bone", "marrow") not in left
    assert ("cell", "that", "are", "from", "the", "bone", "marrow") not in left


def test_queries_are_deduplicated_and_deterministic(small_lex):
    inv = ParaphraseInventory()
    left1, right1 = generate_bracketing_queries(TRIPLE, inv, small_lex)
    left2, right2 = generate_bracketing_queries(TRIPLE, inv, small_lex)
    assert left1 == left2 and right1 == right2
    assert len(left1) == len(set(left1))
    assert len(right1) == len(set(right1))


def test_decision_prefers_attested_family(tmp_path, small_lex):
    provider = make_provider(
        tmp_path,
        ["cells from the bone marrow"] * 3 + ["marrow cells of the bone"],
    )
    d = paraphrase_decision(ParaphraseInventory(), TRIPLE, provider, small_lex)
    assert d.label == LEFT
    assert d.left_score == 3 and d.right_score == 1


def test_decision_right(tmp_path, small_lex):
    provider = make_provider(tmp_path, ["marrow cells of the bone"] * 2 + ["filler words"])
    d = paraphrase_decision(ParaphraseInventory(), TRIPLE, provider, small_lex)
    assert d.label == RIGHT


def test_decision_abstains_without_evidence(tmp_path, small_lex):
    provider = make_provider(tmp_path, ["completely unrelated text"])
    d = paraphrase_decision(ParaphraseInventory(), TRIPLE, provider, small_lex)
    assert d.label == ABSTAIN


def test_every_left_family_is_counted_before_the_right_ones(tmp_path, small_lex):
    inv = ParaphraseInventory()
    recorder = CountRecorder(make_provider(tmp_path, ["cells from the bone marrow"]))
    d = paraphrase_decision(inv, TRIPLE, recorder, small_lex)
    left, right = _families(TRIPLE, inv, small_lex)
    assert [query for query, _n in recorder.counts] == left + right
    # One family per inflection of the head, in sorted order.
    heads = [frozenset({t3}) for t3 in sorted(inflections(small_lex, "cells"))]
    assert [q.phrase[0] for q in left] == [q.phrase[1] for q in right] == heads
    assert (d.label, d.left_score, d.right_score) == (LEFT, 1, 0)


def _oracle_scores(lines, triple, inv, lex):
    """Left and right sums of ``naive_count`` over every spelled-out paraphrase.

    A phrase whose text appears in no sentence counts 0 without a regex
    scan, which keeps the 64k phrases of the default inventory cheap.
    """
    sentences = [normalize_line(line) for line in lines]
    text = "".join(f" {' '.join(s)} \n" for s in sentences)
    return [
        sum(
            naive_count(sentences, CountQuery.of(*phrase))
            for phrase in family
            if f" {' '.join(phrase)} " in text
        )
        for family in generate_bracketing_queries(triple, inv, lex)
    ]


def _checked_decision(provider, lines, triple, inv, lex):
    """The decision on the corpus ``lines``, after checking its scores against the oracle."""
    decision = paraphrase_decision(inv, triple, provider, lex)
    assert [decision.left_score, decision.right_score] == _oracle_scores(lines, triple, inv, lex)
    return decision


class CallCounter:
    """Only ``count``/``total``/``snippets``, as a tracing wrapper offers, counting count calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def count(self, query):
        self.calls += 1
        return self.inner.count(query)

    def total(self):
        return self.inner.total()

    def snippets(self, query, limit):
        return self.inner.snippets(query, limit)


@pytest.mark.parametrize(
    "lines",
    [
        ["cells from the bone marrow"] * 3 + ["marrow cells of the bone"],
        ["marrow cells of the bone"] * 2 + ["filler words"],
        ["completely unrelated text"],
        # Family prefixes cut off by the sentence end, beside one whole phrase.
        ["the cells from the bone", "marrow cells of", "cells that are from the bone marrow"],
    ],
)
def test_batch_and_fallback_agree_on_rigged_corpora(tmp_path, small_lex, lines):
    # The family queries against the phrase-by-phrase sum of the oracle.
    provider = make_provider(tmp_path, lines)
    _checked_decision(provider, lines, TRIPLE, ParaphraseInventory(), small_lex)


def test_batch_and_fallback_agree_on_bundled_triples(tmp_path):
    lex, inv = default_lexicon(), default_inventory()
    rng = random.Random(7)
    triples = [t for t, _ in rng.sample(biomedical_bracketing(), 3)]
    lines = []
    for triple in triples:
        left, right = generate_bracketing_queries(triple, inv, lex)
        for phrase in rng.sample(left, 3) + rng.sample(right, 2):
            lines.append("we saw " + " ".join(phrase) + " here")
            lines.append(" ".join(phrase[:-1]))  # cut off by the sentence end
    provider = make_provider(tmp_path, lines)
    decisions = [_checked_decision(provider, lines, t, inv, lex) for t in triples]
    assert all(d.left_score >= 3 and d.right_score >= 2 for d in decisions)


def test_count_only_provider_gets_one_query_per_family(tmp_path):
    """A provider with only count/total/snippets, as a tracer wraps, sees each family once."""
    lex, inv = default_lexicon(), default_inventory()
    rng = random.Random(11)
    triples = [t for t, _ in rng.sample(biomedical_bracketing(), 4)]
    lines = []
    for triple in triples:
        left, right = generate_bracketing_queries(triple, inv, lex)
        lines += [" ".join(phrase) for phrase in rng.sample(left, 2) + rng.sample(right, 3)]
    provider = make_provider(tmp_path, lines)
    for triple in triples:
        counter = CallCounter(provider)
        decision = paraphrase_decision(inv, triple, counter, lex)
        assert counter.calls == 2 * len(inflections(lex, triple.w3))
        scores = [decision.left_score, decision.right_score]
        assert scores == _oracle_scores(lines, triple, inv, lex)
        assert scores[0] >= 2 and scores[1] >= 3


def test_decision_sums_naive_counts_of_every_spelled_out_phrase(tmp_path, small_lex):
    inv = ParaphraseInventory(prepositions=("of", "from", "out of"), determiners=("the", "a"))
    lines = [
        "cells from the bone marrow",
        "cell out of a bone marrows",
        "cells that are of bone marrow",
        "cells that is of bone marrow",  # disagreeing copula
        "marrow cells of the bone and marrow cells of bones",
        "marrow cell that is from a bone",
        "bone marrow cells",
    ]
    sentences = [normalize_line(line) for line in lines]
    decision = paraphrase_decision(inv, TRIPLE, make_provider(tmp_path, lines), small_lex)
    left, right = generate_bracketing_queries(TRIPLE, inv, small_lex)
    expected = [
        sum(naive_count(sentences, CountQuery.of(*phrase)) for phrase in family)
        for family in (left, right)
    ]
    assert [decision.left_score, decision.right_score] == expected == [3, 3]


def test_inventory_words_are_lowercased(tmp_path, small_lex):
    lines = ["cells from the bone marrow"] * 3 + ["marrow cells from the bone"]
    provider = make_provider(tmp_path, lines)
    shouting = ParaphraseInventory(prepositions=("From", "OF"), determiners=("THE",))
    quiet = ParaphraseInventory(prepositions=("from", "of"), determiners=("the",))
    assert shouting == quiet
    expected = _checked_decision(provider, lines, TRIPLE, quiet, small_lex)
    assert (expected.left_score, expected.right_score) == (3, 1)
    assert _checked_decision(provider, lines, TRIPLE, shouting, small_lex) == expected


def test_repeated_inventory_words_give_each_paraphrase_once(tmp_path, small_lex):
    repeated = ParaphraseInventory(prepositions=("of", "from", "of"), determiners=("the", "the"))
    plain = ParaphraseInventory(prepositions=("of", "from"), determiners=("the",))
    assert generate_bracketing_queries(TRIPLE, repeated, small_lex) == generate_bracketing_queries(
        TRIPLE, plain, small_lex
    )
    lines = ["cells from the bone marrow", "marrow cells of the bone"]
    got = _checked_decision(make_provider(tmp_path, lines), lines, TRIPLE, repeated, small_lex)
    assert (got.left_score, got.right_score) == (1, 1)


def test_cached_middles_follow_inventory_and_copula_agreement(tmp_path, small_lex):
    lines = [
        "cells that are from the bone marrow",
        "cell that is from the bone marrow",
        "cells that is from the bone marrow",  # disagreeing copulas never count
        "cell that were from the bone marrow",
        "cells of the bone marrow",
        "cells of the bone marrow",
        "marrow cells from the bone",
    ]
    provider = make_provider(tmp_path, lines)
    from_inv = ParaphraseInventory(prepositions=("from",))
    of_inv = ParaphraseInventory(prepositions=("of",))
    # One process, alternating inventories, each decision over both
    # numbers of w3: a cache keyed too coarsely would serve stale middles.
    for inv, scores in [(from_inv, (2, 1)), (of_inv, (2, 0)), (from_inv, (2, 1))]:
        for triple in (TRIPLE, NounTriple("bone", "marrow", "cell")):
            got = _checked_decision(provider, lines, triple, inv, small_lex)
            assert (got.left_score, got.right_score) == scores


def test_no_middles_count_zero(tmp_path, small_lex):
    provider = CallCounter(make_provider(tmp_path, ["cells from the bone marrow"]))
    empty = ParaphraseInventory(prepositions=(), complementizers=())
    d = paraphrase_decision(empty, TRIPLE, provider, small_lex)
    assert (d.label, d.left_score, d.right_score) == (ABSTAIN, 0, 0)
    assert provider.calls == 2 * len(inflections(small_lex, "cells"))


def test_middles_longer_than_the_widest_gap_are_refused(tmp_path, small_lex):
    long_prep = " ".join(f"w{i}" for i in range(MAX_GAP + 1))
    inv = ParaphraseInventory(prepositions=(long_prep,), determiners=(), complementizers=())
    provider = make_provider(tmp_path, ["cells from the bone marrow"])
    with pytest.raises(ValueError, match=f"'{long_prep}' is longer than {MAX_GAP} tokens"):
        paraphrase_decision(inv, TRIPLE, provider, small_lex)
    fits = ParaphraseInventory(
        prepositions=(long_prep.partition(" ")[2],), determiners=(), complementizers=()
    )
    assert paraphrase_decision(fits, TRIPLE, provider, small_lex).label == ABSTAIN
