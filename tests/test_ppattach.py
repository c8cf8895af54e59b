"""Attachment voters, backoff classifier, and the attachment pipeline."""

import hashlib
from dataclasses import replace

import pytest

from npstruct import datasets
from npstruct.corpus import CountQuery, IndexProvider
from npstruct.datasets import PP_ATTACHMENT
from npstruct.decisions import ABSTAIN, NOUN, VERB
from npstruct.morphology import inflections
from npstruct.ppattach import (
    DEFAULTS,
    DETERMINERS,
    VOTERS,
    PPQuad,
    backoff_predict,
    backoff_train,
    normalize_quad,
    pp_bootstrap,
    pp_pipeline,
    run_pp_voter,
)
from tests.conftest import (
    CountRecorder,
    FixedSnippets,
    MappingProvider,
    make_index,
    make_provider,
)

QUAD = PPQuad("meet", "demands", "from", "customers")


def _key(*positions) -> str:
    return CountQuery.of(*positions).canonical()


def _vote(name, provider, lex, quad=QUAD):
    return run_pp_voter(name, quad, provider, lex)


class TestHeuristics:
    def test_of_rule(self, small_lex):
        quad = PPQuad("eat", "slice", "of", "cake")
        assert _vote("of-rule", MappingProvider({}), small_lex, quad).label == NOUN
        assert _vote("of-rule", MappingProvider({}), small_lex).label == ABSTAIN

    def test_pronoun_n1(self, small_lex):
        quad = PPQuad("saw", "him", "with", "scope")
        assert _vote("pronoun-n1", MappingProvider({}), small_lex, quad).label == VERB
        assert _vote("pronoun-n1", MappingProvider({}), small_lex).label == ABSTAIN

    def test_verb_be(self, small_lex):
        quad = PPQuad("is", "report", "on", "trade")
        assert _vote("verb-be", MappingProvider({}), small_lex, quad).label == NOUN
        assert _vote("verb-be", MappingProvider({}), small_lex).label == ABSTAIN


class TestNgramModels:
    def test_model_1_compares_pair_counts(self, small_lex):
        i1 = inflections(small_lex, "demands")
        iv = inflections(small_lex, "meet")
        provider = MappingProvider({_key(i1, "from"): 10, _key(iv, "from"): 3})
        d = _vote("ngram-1", provider, small_lex)
        assert d.label == NOUN

    def test_model_2_normalizes_by_marginals(self, small_lex):
        i1 = inflections(small_lex, "demands")
        iv = inflections(small_lex, "meet")
        provider = MappingProvider(
            {
                _key(i1, "from"): 10,
                _key(iv, "from"): 9,
                _key(i1): 1000,
                _key(iv): 10,
            }
        )
        # Raw counts favor the noun; rates favor the verb.
        assert _vote("ngram-2", provider, small_lex).label == VERB

    def test_model_2_zero_marginal_abstains(self, small_lex):
        provider = MappingProvider({})
        d = _vote("ngram-2", provider, small_lex)
        assert d.label == ABSTAIN and d.note == "zero marginal"

    def test_model_3_adds_determiner_insertion(self, small_lex):
        i1 = inflections(small_lex, "demands")
        iv = inflections(small_lex, "meet")
        i2 = inflections(small_lex, "customers")
        provider = MappingProvider(
            {
                _key(i1, "from", i2): 1,
                _key(i1, "from", DETERMINERS, i2): 4,
                _key(iv, "from", i2): 3,
            }
        )
        d = _vote("ngram-3", provider, small_lex)
        assert d.label == NOUN and d.left_score == 5

    def test_pronoun_arguments_disable_models(self, small_lex):
        quad = PPQuad("saw", "him", "with", "scope")
        d = _vote("ngram-1", MappingProvider({}), small_lex, quad)
        assert d.label == ABSTAIN and d.note == "pronoun argument"


class TestParaphrases:
    def test_pattern_1_noun(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["they meet the customer demands daily"])
        d = _vote("paraphrase-1", provider, small_lex)
        assert d.label == NOUN

    def test_pattern_1_guards(self, small_lex):
        to_quad = PPQuad("gave", "book", "to", "student")
        d = _vote("paraphrase-1", MappingProvider({}), small_lex, to_quad)
        assert d.label == ABSTAIN and d.note == "guard"
        pro_quad = PPQuad("saw", "it", "with", "scope")
        d = _vote("paraphrase-1", MappingProvider({}), small_lex, pro_quad)
        assert d.label == ABSTAIN and d.note == "guard"

    def test_pattern_2_verb(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["meet from customers the demands"])
        assert _vote("paraphrase-2", provider, small_lex).label == VERB

    def test_pattern_3_verb_with_gap(self, tmp_path, small_lex):
        provider = make_provider(
            tmp_path, ["from customers we often meet demands"]
        )
        assert _vote("paraphrase-3", provider, small_lex).label == VERB

    def test_pattern_4_noun(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["demands from customers met"])
        assert _vote("paraphrase-4", provider, small_lex).label == NOUN

    def test_pattern_5_verb(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["meet her from customers"])
        assert _vote("paraphrase-5", provider, small_lex).label == VERB

    def test_pattern_6_noun(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["there are demands from customers"])
        assert _vote("paraphrase-6", provider, small_lex).label == NOUN

    def test_no_evidence_abstains(self, small_lex):
        for pattern in range(1, 7):
            assert _vote(f"paraphrase-{pattern}", MappingProvider({}), small_lex).label == ABSTAIN


class TestNormalization:
    def test_word_classes(self, small_lex):
        q = normalize_quad(PPQuad("met", "1990s", "in", "they"), small_lex)
        assert (q.v, q.n1, q.n2) == ("meet", "YEAR", "PRO")
        q = normalize_quad(PPQuad("holds", "25%", "of", "the"), small_lex)
        assert (q.v, q.n1, q.n2) == ("hold", "NUM", "ART")
        q = normalize_quad(PPQuad("includes", "demands", "of", "those"), small_lex)
        assert (q.v, q.n1, q.n2) == ("include", "demand", "DET")


class TestBackoff:
    def _training(self):
        # Four distinct noun-attached examples sharing (v, p) so the
        # pooled first-stage denominator exceeds three.
        return [
            (PPQuad("meet", "demands", "from", "customers"), NOUN),
            (PPQuad("meet", "orders", "from", "clients"), NOUN),
            (PPQuad("meet", "requests", "from", "users"), NOUN),
            (PPQuad("meet", "quotas", "from", "vendors"), NOUN),
        ]

    def test_empty_training_rejected(self, small_lex):
        with pytest.raises(ValueError):
            backoff_train([], small_lex)

    def test_bad_label_rejected(self, small_lex):
        with pytest.raises(ValueError):
            backoff_train([(QUAD, "maybe")], small_lex)

    def test_first_stage_predicts_when_supported(self, small_lex):
        model = backoff_train(self._training(), small_lex)
        d = backoff_predict(model, PPQuad("meet", "needs", "from", "buyers"), small_lex)
        assert d.label == NOUN

    def test_small_denominator_backs_off_to_preposition_rate(self, small_lex):
        # Only the (p, n2) table matches: denominator 3, not > 3.
        train = [
            (PPQuad("send", "letters", "to", "editors"), VERB),
            (PPQuad("mail", "notes", "to", "editors"), VERB),
            (PPQuad("fax", "memos", "to", "editors"), VERB),
        ]
        model = backoff_train(train, small_lex)
        d = backoff_predict(model, PPQuad("give", "copies", "to", "editors"), small_lex)
        assert d.label == VERB  # via the preposition-only rate

    def test_first_stage_tie_falls_through(self, small_lex):
        train = [
            (PPQuad("meet", "demands", "from", "customers"), NOUN),
            (PPQuad("meet", "demands", "from", "customers"), VERB),
            (PPQuad("haul", "goods", "from", "ports"), VERB),
        ]
        model = backoff_train(train, small_lex)
        # R1 pools to 3/6 = 0.5; R2 over "from" is 1/3 -> verb.
        d = backoff_predict(model, PPQuad("meet", "demands", "from", "customers"), small_lex)
        assert d.label == VERB

    def test_second_stage_tie_abstains(self, small_lex):
        train = [
            (PPQuad("alpha", "beta", "near", "gamma"), NOUN),
            (PPQuad("delta", "epsilon", "near", "zeta"), VERB),
        ]
        model = backoff_train(train, small_lex)
        d = backoff_predict(model, PPQuad("eta", "theta", "near", "iota"), small_lex)
        assert d.label == ABSTAIN and d.note == "tie"

    def test_unseen_preposition_abstains(self, small_lex):
        model = backoff_train(self._training(), small_lex)
        d = backoff_predict(model, PPQuad("walk", "dog", "astride", "fence"), small_lex)
        assert d.label == ABSTAIN and d.note == "unseen preposition"


def _surface(snippets, lex, quad=QUAD):
    """The ``surface`` vote of ``quad`` on a corpus answering every query with ``snippets``."""
    return _vote("surface", FixedSnippets(snippets), lex, quad)


class TestSurface:
    def test_punctuation_votes(self, small_lex):
        noun = _surface(["They meet, demands from customers."], small_lex)
        assert noun.label == NOUN
        verb = _surface(["They meet demands, from customers."], small_lex)
        assert verb.label == VERB

    def test_bracket_votes(self, small_lex):
        noun = _surface(["meet (demands from customers)"], small_lex)
        assert noun.label == NOUN
        verb = _surface(["(meet demands) from customers"], small_lex)
        assert verb.label == VERB
        noun = _surface(["(meet) demands from customers"], small_lex)
        assert noun.label == NOUN
        verb = _surface(["meet demands (from customers)"], small_lex)
        assert verb.label == VERB

    def test_n2_must_end_its_word(self, small_lex):
        quad = PPQuad("meet", "demands", "from", "customer")
        for snippet in (
            "(meet) demands from customerbase",
            "meet (demands from customerbase)",
            "meet, demands from customerbase",
            "meet demands (from customerbase)",
            "(meet demands) from customerbase",
            "meet demands, from customerbase",
        ):
            assert _surface([snippet], small_lex, quad).label == ABSTAIN, snippet

    def test_capitalization_votes(self, small_lex):
        quad = PPQuad("meet", "board", "with", "members")
        noun = _surface(["meet Board with members"], small_lex, quad)
        assert noun.label == NOUN
        verb = _surface(["meet demands From customers"], small_lex)
        assert verb.label == VERB

    def test_no_cues_abstain(self, small_lex):
        d = _surface(["meet demands from customers"], small_lex)
        assert d.label == ABSTAIN

    def test_a_repeated_line_counts_once(self, tmp_path, small_lex):
        line = "They meet, demands from customers."
        once, twice = (
            _vote("surface", IndexProvider(make_index(tmp_path, lines, name=name)), small_lex)
            for name, lines in (("once.txt", [line]), ("twice.txt", [line, line]))
        )
        assert (once.label, once.left_score, once.right_score) == (NOUN, 1, 0)
        assert twice == once


class TestPipeline:
    def test_of_rule_short_circuits(self, small_lex):
        quad = PPQuad("eat", "slice", "of", "cake")
        result = pp_pipeline(quad, MappingProvider({}), small_lex)
        assert result.final.label == NOUN
        assert list(result.votes) == ["of-rule"]

    def test_default_verb_on_silence(self, small_lex):
        result = pp_pipeline(QUAD, MappingProvider({}), small_lex)
        assert result.final.label == VERB
        assert result.final.note == "default"

    def test_paraphrase_evidence_wins(self, tmp_path, small_lex):
        provider = make_provider(
            tmp_path,
            [
                "they meet the customer demands daily",
                "demands from customers met targets",
            ],
        )
        result = pp_pipeline(QUAD, provider, small_lex)
        assert result.votes["paraphrase-1"].label == NOUN
        assert result.votes["paraphrase-4"].label == NOUN
        assert result.final.label == NOUN

    def test_bootstrap_adds_backoff_voter(self, tmp_path, small_lex):
        provider = make_provider(
            tmp_path, ["they meet the customer demands daily"] * 3
        )
        quads = [
            PPQuad("meet", "demands", "from", "customers"),
            PPQuad("meet", "demands", "from", "customers"),
            PPQuad("meet", "demands", "from", "customers"),
            PPQuad("meet", "demands", "from", "buyers"),
        ]
        results, model = pp_bootstrap(quads, provider, small_lex)
        assert model.tables
        assert all("backoff" in r.votes for r in results)
        assert len(results) == len(quads)

    def test_bootstrap_backoff_votes_with_the_trained_model(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["they meet the customer demands daily"] * 3)
        untrained = run_pp_voter("backoff", QUAD, provider, small_lex)
        assert untrained.abstained and untrained.note == "no trained model"
        quads = [QUAD] * 3 + [PPQuad("meet", "demands", "from", "buyers")]
        results, _model = pp_bootstrap(quads, provider, small_lex)
        backoff_votes = [r.votes["backoff"] for r in results]
        assert all(d.note != "no trained model" for d in backoff_votes)
        assert not any(d.abstained for d in backoff_votes)

    def test_bootstrap_leaves_the_default_backoff_untrained(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["they meet the customer demands daily"] * 3)
        registry = dict(DEFAULTS.registry)
        quads = [QUAD] * 3 + [PPQuad("meet", "demands", "from", "buyers")]
        _results, model = pp_bootstrap(quads, provider, small_lex)
        assert model.tables
        assert dict(DEFAULTS.registry) == registry
        after = DEFAULTS.registry["backoff"](QUAD, provider, small_lex)
        assert after.abstained and after.note == "no trained model"
        assert run_pp_voter("backoff", QUAD, provider, small_lex) == after

    def test_unknown_voter(self):
        with pytest.raises(ValueError, match="unknown voters"):
            replace(DEFAULTS, voters=("ngram-2", "astrology"))

    def test_duplicate_voter(self):
        with pytest.raises(ValueError, match=r"duplicate voters: \['ngram-2'\]"):
            replace(DEFAULTS, voters=("ngram-2", "verb-be", "ngram-2"))

    def test_bootstrap_keeps_a_named_backoff_voter_once(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["they meet the customer demands daily"] * 3)
        quads = [QUAD] * 3 + [PPQuad("meet", "demands", "from", "buyers")]
        config = replace(DEFAULTS, voters=("paraphrase-1", "backoff"))
        results, model = pp_bootstrap(quads, provider, small_lex, config)
        assert model.tables
        assert all(list(r.votes) == ["paraphrase-1", "backoff"] for r in results)
        assert not any(r.votes["backoff"].abstained for r in results)


COUNT_VOTERS = (
    "ngram-1", "ngram-2", "ngram-3", "ngram-4",
    "paraphrase-1", "paraphrase-2", "paraphrase-3",
    "paraphrase-4", "paraphrase-5", "paraphrase-6",
)

# sha256 over every (voter, quad, label, scores, note, sorted counted
# keys) record of the count voters on the PP items of a seeded
# ``perfbench`` attach corpus, keyed by its seed.  Scores are compared as
# floats, so an abstention's 0 and 0.0 agree.  A deliberate change to a
# voter's queries or direction recomputes both digests.
COUNT_DIGESTS = {
    1: "80a331916d69d3b207f574cd809428a804637a4a8f733007e83a57945eeae3a2",
    1001: "0b33c3dd1c760b7971c80065db911f331729fb8a351429eb9b73871653bdfb4c",
}


def test_count_voters_lead_the_registry():
    assert tuple(VOTERS)[: len(COUNT_VOTERS)] == COUNT_VOTERS


@pytest.mark.parametrize("seed", sorted(COUNT_DIGESTS))
def test_count_voters_match_their_recorded_digest(seed, attach_corpus):
    items, provider = attach_corpus(seed)
    quads = [item for item in items if item.kind == "pp"]
    assert len(quads) == 428
    recorder = CountRecorder(provider)
    lex = datasets.default_lexicon()
    digest = hashlib.sha256()
    for name in COUNT_VOTERS:
        for item in quads:
            recorder.counts.clear()
            d = run_pp_voter(name, item.args[0], recorder, lex)
            scores = (float(d.left_score), float(d.right_score))
            record = (name, item.key, d.label, scores, d.note, sorted(recorder.keys))
            digest.update(repr(record).encode())
    assert digest.hexdigest() == COUNT_DIGESTS[seed]


def test_load_pp_dataset(tmp_path):
    path = tmp_path / "pp.tsv"
    path.write_text("meet\tdemands\tfrom\tcustomers\tN\nsaw\tman\twith\tscope\tV\n")
    rows = PP_ATTACHMENT.load(path)
    assert rows[0][1] == NOUN and rows[1][1] == VERB
    bad = tmp_path / "bad.tsv"
    bad.write_text("only\tthree\tcols\n")
    with pytest.raises(ValueError, match="line 1"):
        PP_ATTACHMENT.load(bad)
