"""Prepositional-phrase attachment: does the PP modify n1 or the verb?

Given a quadruple (v, n1, p, n2) such as (meet, demands, from,
customers), the voters here compare corpus associations of the
preposition with the noun versus the verb, look for unambiguous
paraphrases of either attachment, apply closed-class heuristics, scan
raw snippets for orthographic cues, and finally combine everything in
a majority vote backed by a count-table classifier trained on the
vote's own output.  The count voters (n-gram models and paraphrases)
are the ``COUNTS`` table of noun- and verb-predicting queries, scored
by ``decisions.compare_counts``, and the heuristics are the
``HEURISTICS`` table.  ``DEFAULTS`` is the task's ``VoteConfig``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .corpus import CountProvider, CountQuery
from .decisions import (
    NOUN,
    VERB,
    Decision,
    VoteConfig,
    VoteResult,
    abstain,
    compare,
    compare_counts,
    count_sides,
    vote,
)
from .morphology import (
    ARTICLES,
    BE_FORMS,
    DETERMINERS,
    OTHER_DETERMINERS,
    PRONOUNS,
    MorphLexicon,
    inflections,
    lemma,
)
from .surface import Capitals, CueTable, cue_vote, snippets

_YEAR_RE = re.compile(r"^\d{4}s?$")
_NUM_RE = re.compile(r"^[\d.,]*\d[\d.,]*%?$|^%$")


@dataclass(frozen=True)
class PPQuad:
    """An attachment instance: verb, first noun, preposition, second noun."""

    v: str
    n1: str
    p: str
    n2: str

    def __post_init__(self) -> None:
        for w in (self.v, self.n1, self.p, self.n2):
            if not w:
                raise ValueError("quad fields must be nonempty")
        object.__setattr__(self, "p", self.p.lower())


def _word_class(word: str) -> str | None:
    """The closed class of ``word`` (YEAR, NUM, PRO, ART, DET), or None for a noun."""
    w = word.lower()
    if _YEAR_RE.match(w):
        return "YEAR"
    if _NUM_RE.match(w):
        return "NUM"
    if w in PRONOUNS:
        return "PRO"
    if w in ARTICLES:
        return "ART"
    if w in OTHER_DETERMINERS:
        return "DET"
    return None


_of = CountQuery.of

# Count voter -> its (noun-predicting, verb-predicting) queries, given the
# inflection sets iv i1 i2 of v, n1 and n2 and the preposition p, scored
# by ``decisions.compare_counts``.  The n-gram models compare the noun's
# and the verb's collocation with ``p`` (``ngram-3``: and with n2, a
# determiner allowed between); ``ngram-2`` and ``ngram-4`` are their
# rates.  Each paraphrase is an unambiguous rewrite of one attachment,
# so its other side is empty and one match decides: (1) ``v DET n2 n1``;
# (2) ``v p n2 DET n1``; (3) ``p n2 (...) v n1``; (4) ``n1 p (DET) n2
# v``; (5) ``v him/her p n2``; (6) ``is/are n1 p n2``.
COUNTS: dict[str, Callable[..., tuple[list[CountQuery], list[CountQuery]]]] = {
    "ngram-1": lambda iv, i1, p, i2: ([_of(i1, p)], [_of(iv, p)]),
    "ngram-3": lambda iv, i1, p, i2: (
        [_of(i1, p, i2), _of(i1, p, DETERMINERS, i2)],
        [_of(iv, p, i2), _of(iv, p, DETERMINERS, i2)]),
    "paraphrase-1": lambda iv, i1, p, i2: ([_of(iv, DETERMINERS, i2, i1)], []),
    "paraphrase-2": lambda iv, i1, p, i2: ([], [_of(iv, p, i2, DETERMINERS, i1)]),
    "paraphrase-3": lambda iv, i1, p, i2: (
        [], [_of(p, i2, iv, i1), CountQuery.gapped([p, i2], [iv, i1], 1, 3)]),
    "paraphrase-4": lambda iv, i1, p, i2: (
        [_of(i1, p, i2, iv), _of(i1, p, DETERMINERS, i2, iv)], []),
    "paraphrase-5": lambda iv, i1, p, i2: ([], [_of(iv, {"him", "her"}, p, i2)]),
    "paraphrase-6": lambda iv, i1, p, i2: ([_of({"is", "are"}, i1, p, i2)], []),
}


# Closed-class shortcut -> (its label, the test on the quad that fires it);
# a quad that fails the test abstains.  A pronoun n1 sends the PP to the
# verb; a copular verb, or the preposition ``of`` (the of-rule), sends it
# to the noun.  ``pp_pipeline`` runs the of-rule first, and a firing
# of-rule decides alone.
HEURISTICS: dict[str, tuple[str, Callable[[PPQuad], bool]]] = {
    "pronoun-n1": (VERB, lambda quad: quad.n1.lower() in PRONOUNS),
    "verb-be": (NOUN, lambda quad: quad.v.lower() in BE_FORMS),
    "of-rule": (NOUN, lambda quad: quad.p == "of"),
}


def normalize_quad(quad: PPQuad, lex: MorphLexicon) -> PPQuad:
    """Collapse word classes for count-table training.

    Four-digit numbers (optionally with a trailing s) become YEAR,
    other numbers and percentages NUM, pronouns PRO, articles ART,
    other determiners DET; remaining nouns and the verb are
    lemmatized.
    """
    n1, n2 = (_word_class(w) or lemma(lex, w) for w in (quad.n1, quad.n2))
    return PPQuad(lemma(lex, quad.v.lower()), n1, quad.p, n2)


@dataclass
class BackoffModel:
    """Noun-attachment rate tables over normalized tuples.

    The first-stage ratio R1 pools the (v,p), (n1,p), (p,n2) tables;
    when its denominator is too small the model backs off to the
    preposition-only ratio R2.
    """

    tables: dict[tuple, list[int]] = field(default_factory=dict)

    def _bump(self, key: tuple, is_noun: bool) -> None:
        cell = self.tables.setdefault(key, [0, 0])
        cell[0] += int(is_noun)
        cell[1] += 1


def backoff_train(
    examples: list[tuple[PPQuad, str]], lex: MorphLexicon
) -> BackoffModel:
    """Count attachment outcomes per normalized tuple."""
    if not examples:
        raise ValueError("empty training set")
    model = BackoffModel()
    for quad, label in examples:
        if label not in (NOUN, VERB):
            raise ValueError(f"bad training label {label!r}")
        q = normalize_quad(quad, lex)
        is_noun = label == NOUN
        model._bump(("vp", q.v, q.p), is_noun)
        model._bump(("n1p", q.n1, q.p), is_noun)
        model._bump(("pn2", q.p, q.n2), is_noun)
        model._bump(("p", q.p), is_noun)
    return model


def backoff_predict(model: BackoffModel, quad: PPQuad, lex: MorphLexicon) -> Decision:
    """Predict from R1 when supported, else R2; exact 0.5 abstains."""
    q = normalize_quad(quad, lex)
    keys = [("vp", q.v, q.p), ("n1p", q.n1, q.p), ("pn2", q.p, q.n2)]
    noun, total = map(sum, zip(*(model.tables.get(k, (0, 0)) for k in keys)))
    if total > 3:
        r1 = noun / total
        if r1 != 0.5:
            label = NOUN if r1 > 0.5 else VERB
            return Decision(label, r1, 1 - r1)
    p_noun, p_total = model.tables.get(("p", q.p), (0, 0))
    if p_total == 0:
        return abstain("unseen preposition")
    r2 = p_noun / p_total
    if r2 == 0.5:
        return abstain("tie")
    label = NOUN if r2 > 0.5 else VERB
    return Decision(label, r2, 1 - r2)


# Noun- and verb-attachment cues over v n1 p n2.  Punctuation or a
# bracket separating the verb from n1 keeps ``n1 p n2`` together (noun
# attachment); separation between n1 and the preposition groups the verb
# with n1 (verb attachment).  A capitalized n1 predicts noun attachment,
# else a capitalized p verb.
PP_CUES = CueTable(
    (NOUN, VERB),
    {
        "parentheses": (
            (r"\(\s*{v}\s*\)\s+{n1}\s+{p}\s+{n2}\b", r"\b{v}\s+\(\s*{n1}\s+{p}\s+{n2}\s*\)"),
            (r"\(\s*{v}\s+{n1}\s*\)\s+{p}\s+{n2}\b", r"\b{v}\s+{n1}\s+\(\s*{p}\s+{n2}\s*\)"),
        ),
        "punctuation": (
            (r"\b{v}[-,/;:.?!]\s+{n1}\s+{p}\s+{n2}\b",),
            (r"\b{v}\s+{n1}[-,/;:.?!]\s+{p}\s+{n2}\b",),
        ),
    },
    Capitals(r"\b{v}\s+({n1})\s+({p})\s+{n2}\b", NOUN),
)


DEFAULT_PP_VOTERS = (
    "ngram-2",
    "ngram-4",
    "paraphrase-1", "paraphrase-2", "paraphrase-3",
    "paraphrase-4", "paraphrase-5", "paraphrase-6",
    "pronoun-n1",
    "verb-be",
    "surface",
)


# Each voter takes its variant argument, if any, then (quad, provider, lexicon).


def _inflections(quad: PPQuad, lex: MorphLexicon) -> tuple[frozenset[str], ...]:
    return tuple(inflections(lex, w) for w in (quad.v, quad.n1, quad.n2))


def _ngram(name, rate, quad, provider, lex) -> Decision:
    """``name``'s counts, as rates of #(n1) and #(v) with ``rate``;
    disabled when either noun is a pronoun."""
    if quad.n1.lower() in PRONOUNS or quad.n2.lower() in PRONOUNS:
        return abstain("pronoun argument")
    iv, i1, i2 = _inflections(quad, lex)
    sides = COUNTS[name](iv, i1, quad.p, i2)
    if not rate:
        return compare_counts(provider, sides, NOUN, VERB)
    noun, verb = count_sides(provider, sides)
    noun_marginal, verb_marginal = count_sides(provider, ([_of(i1)], [_of(iv)]))
    if noun_marginal == 0 or verb_marginal == 0:
        return abstain("zero marginal")
    return compare(noun / noun_marginal, verb / verb_marginal, NOUN, VERB)


def _paraphrase(name, quad, provider, lex) -> Decision:
    """One corpus match decides; ``paraphrase-1`` is off for ``to`` and closed-class nouns."""
    if name == "paraphrase-1" and (quad.p == "to" or _word_class(quad.n1) or _word_class(quad.n2)):
        return abstain("guard")
    iv, i1, i2 = _inflections(quad, lex)
    return compare_counts(provider, COUNTS[name](iv, i1, quad.p, i2), NOUN, VERB)


def _heuristic(name, quad, provider, lex) -> Decision:
    """``name``'s label if its test fires on the quad, else an abstention."""
    label, fires = HEURISTICS[name]
    return Decision(label) if fires(quad) else abstain()


def _surface(quad, provider, lex) -> Decision:
    iv, i1, i2 = _inflections(quad, lex)
    texts = snippets(provider, [_of(iv, i1, quad.p, i2)])
    return cue_vote(texts, {"v": iv, "n1": i1, "p": {quad.p}, "n2": i2}, PP_CUES)[0]


def _backoff(model, quad, provider, lex) -> Decision:
    """``model``'s prediction; ``pp_bootstrap`` binds the model it trains."""
    if model is None:
        return abstain("no trained model")
    return backoff_predict(model, quad, lex)


# Voter name -> voter: the registry of ``DEFAULTS``.
VOTERS: dict[str, Callable[..., Decision]] = {
    "ngram-1": partial(_ngram, "ngram-1", False),
    "ngram-2": partial(_ngram, "ngram-1", True),
    "ngram-3": partial(_ngram, "ngram-3", False),
    "ngram-4": partial(_ngram, "ngram-3", True),
    **{name: partial(_paraphrase, name) for name in COUNTS if name.startswith("paraphrase-")},
    **{name: partial(_heuristic, name) for name in HEURISTICS},
    "surface": _surface,
    "backoff": partial(_backoff, None),
}

DEFAULTS = VoteConfig(VOTERS, DEFAULT_PP_VOTERS, VERB)


def run_pp_voter(
    name: str,
    quad: PPQuad,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = DEFAULTS,
) -> Decision:
    """Run one named voter of ``config``'s registry."""
    return config.run(name, quad, provider, lex)


def pp_pipeline(
    quad: PPQuad,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = DEFAULTS,
) -> VoteResult:
    """Vote the enabled voters; the of-rule fires first and short-circuits."""
    of_rule = _heuristic("of-rule", quad, provider, lex)
    if not of_rule.abstained:
        return VoteResult(quad, {"of-rule": of_rule}, of_rule)
    return vote(quad, config, lambda name: run_pp_voter(name, quad, provider, lex, config))


def pp_bootstrap(
    quads: list[PPQuad],
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = DEFAULTS,
) -> tuple[list[VoteResult], BackoffModel]:
    """Two-stage run: vote, train the backoff on the vote's own labels,
    revote with the ``backoff`` voter bound to that model."""
    first = [pp_pipeline(q, provider, lex, config) for q in quads]
    training = [
        (r.item, r.final.label) for r in first if r.final.label in (NOUN, VERB)
    ]
    if not training:
        return first, BackoffModel()
    model = backoff_train(training, lex)
    voters = config.voters if "backoff" in config.voters else config.voters + ("backoff",)
    registry = {**config.registry, "backoff": partial(_backoff, model)}
    second_config = replace(config, registry=registry, voters=voters)
    second = [pp_pipeline(q, provider, lex, second_config) for q in quads]
    return second, model
