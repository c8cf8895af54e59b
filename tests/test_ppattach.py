"""Attachment voters, backoff classifier, and the attachment pipeline."""

import pytest

from npstruct.corpus import CountQuery, MappingProvider
from npstruct.datasets import PP_ATTACHMENT
from npstruct.decisions import ABSTAIN, NOUN, VERB
from npstruct.morphology import inflections
from npstruct.ppattach import (
    DETERMINERS,
    PPQuad,
    PPVoteConfig,
    backoff_predict,
    backoff_train,
    normalize_quad,
    pp_bootstrap,
    pp_heuristic,
    pp_ngram_decision,
    pp_paraphrase_decision,
    pp_pipeline,
    pp_surface_vote,
    run_pp_voter,
)
from tests.conftest import make_provider

QUAD = PPQuad("meet", "demands", "from", "customers")


def _key(*positions) -> str:
    return CountQuery.of(*positions).canonical()


class TestHeuristics:
    def test_of_rule(self):
        assert pp_heuristic(PPQuad("eat", "slice", "of", "cake"), "of-rule").label == NOUN
        assert pp_heuristic(QUAD, "of-rule").label == ABSTAIN

    def test_pronoun_n1(self):
        assert pp_heuristic(PPQuad("saw", "him", "with", "scope"), "pronoun-n1").label == VERB
        assert pp_heuristic(QUAD, "pronoun-n1").label == ABSTAIN

    def test_verb_be(self):
        assert pp_heuristic(PPQuad("is", "report", "on", "trade"), "verb-be").label == NOUN
        assert pp_heuristic(QUAD, "verb-be").label == ABSTAIN

    def test_unknown(self):
        with pytest.raises(ValueError):
            pp_heuristic(QUAD, "bogus")


class TestNgramModels:
    def test_model_1_compares_pair_counts(self, small_lex):
        i1 = inflections(small_lex, "demands")
        iv = inflections(small_lex, "meet")
        provider = MappingProvider({_key(i1, "from"): 10, _key(iv, "from"): 3})
        d = pp_ngram_decision(provider, small_lex, QUAD, 1)
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
        assert pp_ngram_decision(provider, small_lex, QUAD, 2).label == VERB

    def test_model_2_zero_marginal_abstains(self, small_lex):
        provider = MappingProvider({})
        d = pp_ngram_decision(provider, small_lex, QUAD, 2)
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
        d = pp_ngram_decision(provider, small_lex, QUAD, 3)
        assert d.label == NOUN and d.left_score == 5

    def test_pronoun_arguments_disable_models(self, small_lex):
        quad = PPQuad("saw", "him", "with", "scope")
        d = pp_ngram_decision(MappingProvider({}), small_lex, quad, 1)
        assert d.label == ABSTAIN and d.note == "pronoun argument"

    def test_model_validation(self, small_lex):
        with pytest.raises(ValueError):
            pp_ngram_decision(MappingProvider({}), small_lex, QUAD, 7)


class TestParaphrases:
    def test_pattern_1_noun(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["they meet the customer demands daily"])
        d = pp_paraphrase_decision(provider, small_lex, QUAD, 1)
        assert d.label == NOUN

    def test_pattern_1_guards(self, small_lex):
        to_quad = PPQuad("gave", "book", "to", "student")
        assert pp_paraphrase_decision(MappingProvider({}), small_lex, to_quad, 1).label == ABSTAIN
        pro_quad = PPQuad("saw", "it", "with", "scope")
        assert pp_paraphrase_decision(MappingProvider({}), small_lex, pro_quad, 1).label == ABSTAIN

    def test_pattern_2_verb(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["meet from customers the demands"])
        assert pp_paraphrase_decision(provider, small_lex, QUAD, 2).label == VERB

    def test_pattern_3_verb_with_gap(self, tmp_path, small_lex):
        provider = make_provider(
            tmp_path, ["from customers we often meet demands"]
        )
        assert pp_paraphrase_decision(provider, small_lex, QUAD, 3).label == VERB

    def test_pattern_4_noun(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["demands from customers met"])
        assert pp_paraphrase_decision(provider, small_lex, QUAD, 4).label == NOUN

    def test_pattern_5_verb(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["meet her from customers"])
        assert pp_paraphrase_decision(provider, small_lex, QUAD, 5).label == VERB

    def test_pattern_6_noun(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["there are demands from customers"])
        assert pp_paraphrase_decision(provider, small_lex, QUAD, 6).label == NOUN

    def test_no_evidence_abstains(self, small_lex):
        for pattern in range(1, 7):
            assert (
                pp_paraphrase_decision(MappingProvider({}), small_lex, QUAD, pattern).label
                == ABSTAIN
            )


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


class TestSurface:
    def test_punctuation_votes(self, small_lex):
        noun = pp_surface_vote(["They meet, demands from customers."], QUAD, small_lex)
        assert noun.label == NOUN
        verb = pp_surface_vote(["They meet demands, from customers."], QUAD, small_lex)
        assert verb.label == VERB

    def test_bracket_votes(self, small_lex):
        noun = pp_surface_vote(["meet (demands from customers)"], QUAD, small_lex)
        assert noun.label == NOUN
        verb = pp_surface_vote(["(meet demands) from customers"], QUAD, small_lex)
        assert verb.label == VERB
        noun = pp_surface_vote(["(meet) demands from customers"], QUAD, small_lex)
        assert noun.label == NOUN
        verb = pp_surface_vote(["meet demands (from customers)"], QUAD, small_lex)
        assert verb.label == VERB

    def test_capitalization_votes(self, small_lex):
        quad = PPQuad("meet", "board", "with", "members")
        noun = pp_surface_vote(["meet Board with members"], quad, small_lex)
        assert noun.label == NOUN
        verb = pp_surface_vote(["meet demands From customers"], QUAD, small_lex)
        assert verb.label == VERB

    def test_no_cues_abstain(self, small_lex):
        d = pp_surface_vote(["meet demands from customers"], QUAD, small_lex)
        assert d.label == ABSTAIN


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
        untrained = run_pp_voter("backoff", QUAD, provider, small_lex, PPVoteConfig())
        assert untrained.abstained and untrained.note == "no trained model"
        quads = [QUAD] * 3 + [PPQuad("meet", "demands", "from", "buyers")]
        results, _model = pp_bootstrap(quads, provider, small_lex)
        backoff_votes = [r.votes["backoff"] for r in results]
        assert all(d.note != "no trained model" for d in backoff_votes)
        assert not any(d.abstained for d in backoff_votes)

    def test_unknown_voter(self):
        with pytest.raises(ValueError, match="unknown voters"):
            PPVoteConfig(voters=("ngram-2", "astrology"))

    def test_duplicate_voter(self):
        with pytest.raises(ValueError, match=r"duplicate voters: \['ngram-2'\]"):
            PPVoteConfig(voters=("ngram-2", "verb-be", "ngram-2"))

    def test_bootstrap_keeps_a_named_backoff_voter_once(self, tmp_path, small_lex):
        provider = make_provider(tmp_path, ["they meet the customer demands daily"] * 3)
        quads = [QUAD] * 3 + [PPQuad("meet", "demands", "from", "buyers")]
        config = PPVoteConfig(voters=("paraphrase-1", "backoff"))
        results, model = pp_bootstrap(quads, provider, small_lex, config)
        assert model.tables
        assert all(list(r.votes) == ["paraphrase-1", "backoff"] for r in results)
        assert not any(r.votes["backoff"].abstained for r in results)


def test_load_pp_dataset(tmp_path):
    path = tmp_path / "pp.tsv"
    path.write_text("meet\tdemands\tfrom\tcustomers\tN\nsaw\tman\twith\tscope\tV\n")
    rows = PP_ATTACHMENT.load(path)
    assert rows[0][1] == NOUN and rows[1][1] == VERB
    bad = tmp_path / "bad.tsv"
    bad.write_text("only\tthree\tcols\n")
    with pytest.raises(ValueError, match="line 1"):
        PP_ATTACHMENT.load(bad)
