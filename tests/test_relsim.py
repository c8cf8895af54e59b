"""Joining-feature extraction, similarity, and the three classifiers."""

import gc
import random
import weakref
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from npstruct import corpus, porter, relsim
from npstruct.corpus import IngestConfig, build_index
from npstruct.morphology import MorphLexicon
from npstruct.relsim import (
    DIR_12,
    DIR_21,
    BinaryScores,
    PairFeature,
    SemevalExample,
    SemevalModel,
    TfidfWeights,
    dice,
    dump_pair_features,
    extract_pair_features,
    knn_classify,
    score_binary,
    semeval_classify,
    semeval_vector,
    solve_sat,
)
from npstruct.tagging import TinyTagger, write_tagged_corpus
from tests.conftest import make_index, scan_pair_features

VERBS = frozenset(
    "include consist hold chair come meet serve join elect use contain".split()
)


def tagged_index(tmp_path, sentences, small_lex, name="tagged.txt"):
    tagger = TinyTagger(verbs=VERBS, adjectives=frozenset({"rare", "large"}), lex=small_lex)
    path = tmp_path / name
    write_tagged_corpus(sentences, tagger, path)
    return build_index(path, IngestConfig(tagged=True))


class TestPairFeatures:
    def test_requires_tags(self, tmp_path, small_lex):
        index = make_index(tmp_path, ["committee includes members"])
        with pytest.raises(ValueError, match="tags required"):
            extract_pair_features(index, "committee", "member", small_lex)

    def test_verb_connector(self, tmp_path, small_lex):
        index = tagged_index(tmp_path, ["The committee includes all members ."], small_lex)
        feats = extract_pair_features(index, "committee", "member", small_lex)
        assert feats[PairFeature("include", "V", DIR_12)] == 1

    def test_preposition_connector_reversed(self, tmp_path, small_lex):
        index = tagged_index(
            tmp_path, ["The members of the committee held a meeting ."], small_lex
        )
        feats = extract_pair_features(index, "committee", "member", small_lex)
        assert feats[PairFeature("of", "P", DIR_21)] == 1

    def test_verb_plus_preposition(self, tmp_path, small_lex):
        index = tagged_index(tmp_path, ["The committee consists of members ."], small_lex)
        feats = extract_pair_features(index, "committee", "member", small_lex)
        assert feats[PairFeature("consist of", "V", DIR_12)] == 1

    def test_conjunction_connector(self, tmp_path, small_lex):
        index = tagged_index(tmp_path, ["the committee and members met ."], small_lex)
        feats = extract_pair_features(index, "committee", "member", small_lex)
        assert feats[PairFeature("and", "C", DIR_12)] == 1

    def test_passive_be_retains_participle(self, tmp_path, small_lex):
        index = tagged_index(
            tmp_path, ["the meeting was chaired by members ."], small_lex
        )
        feats = extract_pair_features(index, "meeting", "member", small_lex)
        assert feats[PairFeature("be chaired by", "V", DIR_12)] == 1

    def test_modals_dropped(self, tmp_path, small_lex):
        index = tagged_index(
            tmp_path, ["the committee should include members ."], small_lex
        )
        feats = extract_pair_features(index, "committee", "member", small_lex)
        assert feats[PairFeature("include", "V", DIR_12)] == 1

    def test_clause_boundary_blocks_connection(self, tmp_path, small_lex):
        index = tagged_index(
            tmp_path, ["the committee adjourned because members left ."], small_lex
        )
        feats = extract_pair_features(index, "committee", "member", small_lex)
        assert not feats

    def test_direction_flip(self, tmp_path, small_lex):
        sentences = [
            "The committee includes all members .",
            "The members of the committee held a meeting .",
            "The committee consists of members .",
        ]
        index = tagged_index(tmp_path, sentences, small_lex)
        fwd = extract_pair_features(index, "committee", "member", small_lex)
        rev = extract_pair_features(index, "member", "committee", small_lex)
        flip = {DIR_12: DIR_21, DIR_21: DIR_12}
        flipped = {
            PairFeature(f.lexeme, f.kind, flip[f.direction]): n for f, n in rev.items()
        }
        assert dict(fwd) == flipped


class TestUntagged:
    def test_tags_required_even_for_absent_nouns(self, tmp_path, small_lex):
        index = make_index(tmp_path, ["alpha beta gamma"])
        with pytest.raises(ValueError, match="tags required"):
            extract_pair_features(index, "committee", "member", small_lex)


NOUNS = "committee member team player cell brain analysis".split()
WORD_POOL = (
    "committee committees member members team teams player players cells brain "
    "brains cells members includes included consists holds held comes came "
    "chaired of from by with the the all that which who and or should is was "
    "has rare large usually because"
).split()


def _random_sentences(rng, n):
    """Random word runs, a third of them opened by a relative clause."""
    out = []
    for _ in range(n):
        words = [rng.choice(WORD_POOL) for _ in range(rng.randint(2, 14))]
        if rng.random() < 0.3:
            clause = [rng.choice(WORD_POOL) for _ in range(rng.randint(1, 3))]
            words = [rng.choice(NOUNS), rng.choice(["that", "which", "who"])] + clause + words
        out.append(" ".join(words))
    return out


def test_extractors_match_a_scan_of_every_sentence(tmp_path, small_lex):
    """Walking out from the postings loses nothing and keeps order."""
    found_features = 0
    for seed in range(6):
        rng = random.Random(seed)
        sentences = _random_sentences(rng, 80)
        index = tagged_index(tmp_path, sentences, small_lex, name=f"rand{seed}.txt")
        for _ in range(8):
            a, b = rng.choice(NOUNS), rng.choice(NOUNS)
            for x, y in ((a, b), (b, a)):
                features = scan_pair_features(index, x, y, small_lex)
                got = extract_pair_features(index, x, y, small_lex)
                assert list(got.items()) == list(features.items())
                found_features += len(features)
    assert found_features  # the corpora exercise the extractor


# "meeting" inflects both "meet" and "meeting"; "x" is in no noun's set.
TAGGED_WORDS = st.sampled_from(
    "committee committees member members meeting meet x of the and includes s".split()
)
TAGS = st.sampled_from("N N N P D C V S J".split())
TAGGED_SENTENCES = st.lists(
    st.lists(st.tuples(TAGGED_WORDS, TAGS), min_size=1, max_size=24), min_size=1, max_size=6
)
PAIR_NOUNS = st.sampled_from(["committee", "member", "meeting", "meet"])


def _tagged(line):
    return [tuple(token.split("_")) for token in line.split()]


def _lines(sentences) -> list[str]:
    return [" ".join(f"{word}_{tag}" for word, tag in sentence) for sentence in sentences]


GAPS = [
    _tagged("committee_N of_P members_N"),
    _tagged("committee_N of_P" + " the_D" * 7 + " members_N"),
    _tagged("committee_N of_P" + " the_D" * 8 + " members_N"),
]


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(TAGGED_SENTENCES, PAIR_NOUNS, PAIR_NOUNS)
# Noun runs at both sentence edges.
@example([_tagged("committee_N includes_V members_N")], "committee", "member")
# Gaps of 1, 8 and 9 tokens, walked forward from the first noun and back from the second.
@example(GAPS, "committee", "member")
@example(GAPS, "member", "committee")
# Two noun tokens side by side make one run, headed by the second.
@example([_tagged("the_D committee_N members_N of_P committee_N members_N")], "member", "committee")
# An S tag in the gap, on a word the verb group would drop as an adverb.
@example([_tagged("committee_N includes_V only_S members_N")], "committee", "member")
@example([_tagged("meeting_N of_P meeting_N and_C meet_N")], "meet", "meeting")  # in both sets
@example([_tagged("committee_N of_P committees_N and_C committee_N")], "committee", "committee")
# The rarer noun heads several runs in one sentence.
@example(
    [_tagged("members_N of_P committee_N and_C member_N with_P committees_N of_P member_N")],
    "member",
    "committee",
)
@example([_tagged("committee_V of_P members_D")], "committee", "member")  # no N tag at all
# A sentence without the other noun, before one with it.
@example(
    [_tagged("member_N of_P x_N"), _tagged("member_N of_P committee_N")], "member", "committee"
)
def test_walk_matches_a_scan_of_every_sentence(tmp_path_factory, small_lex, sentences, noun1, noun2):
    index = make_index(tmp_path_factory.mktemp("walk"), _lines(sentences), tagged=True)
    got = extract_pair_features(index, noun1, noun2, small_lex)
    assert list(got.items()) == list(scan_pair_features(index, noun1, noun2, small_lex).items())


def _built_and_reloaded(tmp_path_factory, lines: list[str]) -> list:
    tmp = tmp_path_factory.mktemp("tagged")
    return [
        make_index(tmp, lines, tagged=True),
        make_index(tmp, lines, tagged=True, name="reloaded.txt", reload=True),
    ]


# "committee" is the rarer noun.  A walk that ran past its sentence would
# join the first one forward to "of the members", and the last one back to
# "members with the".  The last run crosses a boundary of 2- and 3-token
# blocks, and the first gap one of 2-token blocks.
ACROSS_SENTENCES = [
    _tagged("members_N of_P the_D committee_N"),
    _tagged("of_P the_D members_N with_P the_D"),
    _tagged("committee_N of_P bone_N members_N"),
]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(TAGGED_SENTENCES, PAIR_NOUNS, PAIR_NOUNS, st.sampled_from([1, 2, 3, 5]))
@example(ACROSS_SENTENCES, "member", "committee", 2)
@example(ACROSS_SENTENCES, "committee", "member", 3)
@example(GAPS, "member", "committee", 5)
def test_walk_across_postings_blocks_matches_a_scan(
    tmp_path_factory, small_lex, sentences, noun1, noun2, block
):
    """With blocks of a few tokens, runs and gaps cross block boundaries, built or reloaded."""
    with patch.object(corpus, "_BLOCK", block):
        for index in _built_and_reloaded(tmp_path_factory, _lines(sentences)):
            assert index.info()["blocks"] == -(-index.total() // block)
            got = extract_pair_features(index, noun1, noun2, small_lex)
            assert list(got.items()) == list(scan_pair_features(index, noun1, noun2, small_lex).items())


def test_a_tag_column_wider_than_a_byte(tmp_path_factory, small_lex):
    """With more than 256 tags, each tag id takes 2 bytes, and the noun tag's id is past 255."""
    filler = [[(f"w{i}", f"A{i:03}") for i in range(300)]]
    lines = _lines([*ACROSS_SENTENCES, *filler, _tagged("committee_N includes_V all_D members_N")])
    for index in _built_and_reloaded(tmp_path_factory, lines):
        assert index.tags.itemsize == 2
        assert index.tag_vocab.index("N") > 255
        for pair in [("member", "committee"), ("committee", "member")]:
            got = extract_pair_features(index, *pair, small_lex)
            assert got
            assert list(got.items()) == list(scan_pair_features(index, *pair, small_lex).items())


def test_connector_table_is_kept_per_index_and_lexicon(tmp_path, small_lex):
    """Classified connectors are reused only with the index and lexicon they came from.

    The second corpus gives the same token and tag ids to other words and
    tags, so a table that served another index would misread it; and the
    lemma a gap's verb gets depends on the lexicon, so a table that served
    another lexicon would misname it.
    """
    first = make_index(tmp_path, [
        "committee_N includes_V members_N",
        "team_N includes_V players_N",
        "players_N includes_V committee_N",
        "members_N includes_V team_N",
    ], tagged=True, name="first.txt")
    second = make_index(tmp_path, ["committee_N inside_P members_N"], tagged=True, name="second.txt")
    assert first.vocab.index("includes") == second.vocab.index("inside")
    assert first.tag_vocab.index("V") == second.tag_vocab.index("P")
    block = [
        ("committee", "member"),
        ("team", "player"),
        ("player", "committee"),
        ("member", "team"),
        ("committee", "team"),
        ("member", "player"),
    ]
    forward = [list(extract_pair_features(first, *p, small_lex).items()) for p in block]
    inside = extract_pair_features(second, "committee", "member", small_lex)
    assert list(inside.items()) == [(PairFeature("inside", "P", DIR_12), 1)]
    backward = [list(extract_pair_features(first, *p, small_lex).items()) for p in block[::-1]]
    assert forward == backward[::-1]
    assert forward[0] == [(PairFeature("include", "V", DIR_12), 1)]

    held = make_index(tmp_path, ["committee_N held_V members_N"], tagged=True, name="held.txt")
    bare = MorphLexicon()  # no entry for "held", so it is its own lemma
    lemmas = [
        list(extract_pair_features(held, "committee", "member", lex).items())
        for lex in (small_lex, bare, small_lex)
    ]
    assert lemmas == [
        [(PairFeature("hold", "V", DIR_12), 1)],
        [(PairFeature("held", "V", DIR_12), 1)],
        [(PairFeature("hold", "V", DIR_12), 1)],
    ]


NOUN_PAIRS = st.tuples(st.sampled_from(NOUNS), st.sampled_from(NOUNS))


def test_calls_on_a_warm_table_match_a_scan_of_every_sentence(tmp_path, small_lex):
    """Any sequence of calls on one index gives what each call alone would."""
    index = tagged_index(tmp_path, _random_sentences(random.Random(7), 300), small_lex)
    found_features = 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(NOUN_PAIRS, min_size=1, max_size=12))
    @example([("committee", "member"), ("member", "committee"), ("committee", "member")])
    @example([("team", "team"), ("player", "team"), ("team", "player")])
    def calls_match(pairs):
        nonlocal found_features
        for noun1, noun2 in pairs:
            features = scan_pair_features(index, noun1, noun2, small_lex)
            got = extract_pair_features(index, noun1, noun2, small_lex)
            assert list(got.items()) == list(features.items())
            found_features += len(features)

    calls_match()
    assert found_features  # the corpus exercises the extractor
    assert relsim._connectors.get(index, small_lex)  # and the calls shared one table


def test_a_dropped_index_frees_its_connector_table(tmp_path):
    index, lex = make_index(tmp_path, ["committee_N includes_V members_N"], tagged=True), MorphLexicon()
    assert extract_pair_features(index, "committee", "member", lex)
    assert relsim._connectors.get(index, lex)
    refs = weakref.ref(index), weakref.ref(lex)
    del index
    gc.collect()
    assert relsim._connectors._value is None  # freed, though the lexicon lives on
    del lex
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


class TestSimilarity:
    def test_dice_golden(self):
        assert dice({"x": 2, "y": 1}, {"x": 1, "z": 3}) == pytest.approx(2 * 1 / 7)

    def test_dice_identity(self):
        v = {"a": 2.0, "b": 3.0}
        assert dice(v, v) == pytest.approx(1.0)

    def test_dice_of_two_empty_vectors_is_zero(self):
        assert dice({}, {}) == 0.0

    def test_tfidf_shared_feature_weighs_nothing(self):
        vectors = [{"shared": 4, "rare": 1}, {"shared": 2}]
        weights = TfidfWeights.fit(vectors)
        weighted = weights.weight(vectors[0])
        assert weighted["shared"] == pytest.approx(0.0)
        assert weighted["rare"] > 0

    def test_tfidf_unseen_feature_df_one(self):
        import math

        weights = TfidfWeights.fit([{"a": 1}, {"a": 1}])
        out = weights.weight({"new": 3})
        assert out["new"] == pytest.approx(3 * math.log(2))

    def test_tfidf_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            TfidfWeights.fit([])


VEC = st.dictionaries(
    st.sampled_from("abcdefgh"), st.floats(0, 100, allow_nan=False), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(VEC, VEC)
def test_dice_symmetric_and_bounded(a, b):
    if sum(a.values()) + sum(b.values()) == 0:
        return
    d1, d2 = dice(a, b), dice(b, a)
    assert d1 == pytest.approx(d2)
    assert 0.0 <= d1 <= 1.0 + 1e-9


class TestKnn:
    TRAIN = [
        ({"x": 5.0}, "near"),
        ({"y": 5.0}, "far"),
        ({"x": 1.0, "y": 1.0}, "mixed"),
    ]

    def test_nearest_wins(self):
        assert knn_classify(self.TRAIN, {"x": 5.0}) == "near"

    def test_tie_resolved_by_majority(self):
        train = [({"x": 1.0}, "a"), ({"x": 1.0}, "a"), ({"x": 1.0}, "b")]
        assert knn_classify(train, {"x": 1.0}) == "a"

    def test_balanced_tie_abstains(self):
        train = [({"x": 1.0}, "a"), ({"x": 1.0}, "b")]
        assert knn_classify(train, {"x": 1.0}) is None

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            knn_classify([], {"x": 1.0})

    def test_order_invariance(self):
        rng = random.Random(3)
        query = {"x": 2.0, "y": 1.0}
        baseline = knn_classify(self.TRAIN, query)
        for _ in range(20):
            shuffled = list(self.TRAIN)
            rng.shuffle(shuffled)
            assert knn_classify(shuffled, query) == baseline


class TestSat:
    def _index(self, tmp_path, small_lex):
        sentences = (
            ["The committee includes all members ."] * 3
            + ["The team includes all players ."] * 3
            + ["the meeting was chaired by members ."] * 2
        )
        return tagged_index(tmp_path, sentences, small_lex)

    def test_rigged_block_solved(self, tmp_path, small_lex):
        index = self._index(tmp_path, small_lex)
        choice = solve_sat(
            ("committee", "member"),
            [("team", "player"), ("meeting", "member")],
            index,
            small_lex,
        )
        assert choice == 0

    def test_tie_abstains(self, tmp_path, small_lex):
        index = self._index(tmp_path, small_lex)
        choice = solve_sat(
            ("committee", "member"),
            [("meeting", "player"), ("meeting", "analysis")],
            index,
            small_lex,
        )
        assert choice is None

    def test_candidate_count_validated(self, tmp_path, small_lex):
        index = self._index(tmp_path, small_lex)
        with pytest.raises(ValueError):
            solve_sat(("a", "b"), [], index, small_lex)

    def test_pair_vector(self, tmp_path, small_lex):
        index = self._index(tmp_path, small_lex)
        vec = dict(extract_pair_features(index, "committee", "member", small_lex))
        assert vec[PairFeature("include", "V", DIR_12)] == 3


class TestSemeval:
    def _example(self, tokens, e1, e2, relation="part-whole", query=""):
        return SemevalExample(tuple(tokens), e1, e2, relation, query)

    def test_vector_features(self, small_lex):
        ex = self._example(
            ["the", "committees", "organized", "large", "meetings"],
            (1, 1),
            (4, 4),
            query="committee meeting",
        )
        vec = semeval_vector(ex, small_lex)
        assert vec[("ent", "committee")] == 1
        assert vec[("ent", "meeting")] == 1
        assert vec[("ctx", porter.stem("organized"))] == 1
        assert vec[("query", "committee")] == 1
        assert ("ctx", "the") not in vec  # stopword

    def test_classify_follows_nearest_neighbor(self, small_lex):
        train = [
            (self._example(["committees", "hold", "meetings"], (0, 0), (2, 2)), True),
            (self._example(["players", "ignore", "rules"], (0, 0), (2, 2)), False),
        ]
        query = self._example(["committees", "hold", "sessions"], (0, 0), (2, 2))
        assert semeval_classify(query, train, small_lex) is True

    def test_same_head_lemma_forces_negative(self, small_lex):
        train = [
            (self._example(["committees", "hold", "meetings"], (0, 0), (2, 2)), True),
        ]
        query = self._example(["meetings", "follow", "meetings"], (0, 0), (2, 2))
        assert semeval_classify(query, train, small_lex) is False

    def test_abstention_falls_to_majority(self, small_lex):
        # The query shares only ``links`` with one true and one false
        # example, so the nearest neighbours tie 1:1 and the vote
        # abstains; the third example sets the majority either way.
        tied = [
            (self._example(["alpha", "links", "beta"], (0, 0), (2, 2)), True),
            (self._example(["gamma", "links", "delta"], (0, 0), (2, 2)), False),
        ]
        third = self._example(["epsilon", "joins", "zeta"], (0, 0), (2, 2))
        query = self._example(["omega", "links", "psi"], (0, 0), (2, 2))
        for majority in (True, False):
            train = tied + [(third, majority)]
            model = SemevalModel.fit(train, small_lex)
            assert knn_classify(model.neighbours, model.vector(query)) is None
            assert model.majority == str(majority).lower()
            assert model.classify(query) is majority
            assert semeval_classify(query, train, small_lex) is majority

    def test_empty_train_rejected(self, small_lex):
        with pytest.raises(ValueError):
            semeval_classify(
                self._example(["a", "b", "c"], (0, 0), (2, 2)), [], small_lex
            )


class TestScores:
    def test_score_binary(self):
        scores = score_binary([True, True, False, False], [True, False, True, False])
        assert scores == BinaryScores(0.5, 0.5, 0.5, 0.5)

    def test_score_binary_alignment(self):
        with pytest.raises(ValueError):
            score_binary([True], [True, False])


class TestPorterStemmer:
    def test_classic_examples(self):
        cases = {
            "caresses": "caress",
            "ponies": "poni",
            "cats": "cat",
            "feed": "feed",
            "agreed": "agre",
            "plastered": "plaster",
            "motoring": "motor",
            "hopping": "hop",
            "relational": "relat",
            "conditional": "condit",
            "sky": "sky",
        }
        for word, want in cases.items():
            assert porter.stem(word) == want, word

    def test_idempotent_on_short_words(self):
        for word in ("a", "be", "the"):
            assert porter.stem(porter.stem(word)) == porter.stem(word)


def test_dump_pair_features(tmp_path):
    from collections import Counter

    feats = Counter(
        {
            PairFeature("include", "V", DIR_12): 3,
            PairFeature("of", "P", DIR_21): 1,
        }
    )
    out = tmp_path / "features.tsv"
    dump_pair_features([("committee", "member", feats)], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "committee\tmember\tinclude\tV\t1->2\t3"
    assert lines[1] == "committee\tmember\tof\tP\t2->1\t1"
