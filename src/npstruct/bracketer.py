"""The noun-compound bracketing voters and their majority vote.

The direct-count voters (concatenation, wildcard, genitive, abbreviation,
reordering, inflection variability and swap) are the ``DIRECT_COUNTS``
table here, and the surface cues the ``BRACKET_CUES`` table; the other
voters come from ``assoc`` and ``paraphrase``.  ``DEFAULTS`` is the
task's ``VoteConfig``.
"""

from __future__ import annotations

import re
from dataclasses import replace
from functools import partial
from typing import Callable

from . import assoc, paraphrase, surface
from .assoc import NounTriple
from .corpus import CountProvider, CountQuery
from .decisions import LEFT, RIGHT, Decision, VoteConfig, VoteResult, compare_counts, vote
from .morphology import MorphLexicon, inflections
from .surface import Capitals, CueTable

# Voters combined by default: the strongest individual models.
DEFAULT_VOTERS = (
    "chi2-adjacency",
    "chi2-dependency",
    "concat-dependency",
    "concat-triple",
    "genitive",
    "abbreviation",
    "paraphrases",
    "surface",
)


ROMAN_NUMERAL = re.compile(r"^[ivxlcdm]+$", re.IGNORECASE)

# Short everyday words that can collide with two-letter abbreviations.
COMMON_SHORT_WORDS = frozenset(
    """a i an as at be by do go he hi if in is it me my no of on or ox so to
    up us we am ah ok tv no ms mr""".split()
)

# Two-letter uppercase postal-style state codes.
STATE_CODES = frozenset(
    """AL AK AZ AR CA CO CT DE FL GA HI ID IL IN IA KS KY LA ME MD MA MI MN
    MS MO MT NE NV NH NJ NM NY NC ND OH OK OR PA RI SC SD TN TX UT VT VA WA
    WV WI WY DC""".split()
)


def _abbreviation(first: str, second: str, lex: MorphLexicon) -> str:
    """The words' initials, or "" if they read as a common word, a known
    form, a Roman numeral or a state code."""
    abbr = first[0] + second[0]
    taken = abbr in COMMON_SHORT_WORDS or abbr in lex.lemma_by_form or abbr.upper() in STATE_CODES
    return "" if taken or ROMAN_NUMERAL.match(abbr) else abbr


def _glue(first: str, seconds: frozenset[str]) -> frozenset[str]:
    return frozenset(first + s for s in seconds)


_of = CountQuery.of


def _gap(left: list, right: list) -> CountQuery:
    """``left``, exactly one wildcard token, then ``right``."""
    return CountQuery.gapped(left, right, 1, 1)


def _unless_empty(*positions) -> list[CountQuery]:
    """The query over ``positions``, or none if a position is empty."""
    return [_of(*positions)] if all(positions) else []


# Direct-count voter -> its (left-predicting, right-predicting) queries,
# given the words w1 w2 w3, their inflection sets i1 i2 i3 and the
# lexicon, scored by ``decisions.compare_counts``.
DIRECT_COUNTS: dict[str, Callable[..., tuple[list[CountQuery], list[CountQuery]]]] = {
    "concat-adjacency": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_of(_glue(w1, i2))], [_of(_glue(w2, i3))]),
    "concat-dependency": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_of(_glue(w1, i2))], [_of(_glue(w1, i3))]),
    "concat-triple": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_of(_glue(w1, i2), i3)], [_of(i1, _glue(w2, i3))]),
    "wildcard-adjacency": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_gap([w1, i2], [i3])], [_gap([i1], [w2, i3])]),
    "wildcard-dependency": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_gap([w1, i2], [i3])], [_gap([i2], [w1, i3])]),
    "wildcard-adjacency-reversed": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_gap([i3], [w1, i2])], [_gap([w2, i3], [i1])]),
    "wildcard-dependency-reversed": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_gap([i3], [w1, i2])], [_gap([w1, i3], [i2])]),
    "genitive": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_of(w1, "s", w2, i3)], [_of(w1, w2, "s", i3)]),
    "abbreviation": lambda w1, w2, w3, i1, i2, i3, lex: (
        _unless_empty(w1, w2, _abbreviation(w1, w2, lex), i3),
        _unless_empty(w1, w2, i3, _abbreviation(w2, w3, lex))),
    "reorder": lambda w1, w2, w3, i1, i2, i3, lex: (
        [_of(i3, w1, i2)], [_of(w2, i3, i1)]),
    "inflection-variability": lambda w1, w2, w3, i1, i2, i3, lex: (
        _unless_empty(w1, i2 - {w2}, i3), _unless_empty(i1 - {w1}, w2, i3)),
    "swap": lambda w1, w2, w3, i1, i2, i3, lex: ([], [_of(w2, i1, i3)]),
}


def capitalization_excluded(word: str) -> bool:
    """Capitalization is uninformative for single letters and Roman digits."""
    return len(word) == 1 or bool(ROMAN_NUMERAL.match(word))


# Left- and right-predicting cues over w1 w2 w3.  A capitalized w2
# predicts right bracketing, else a capitalized w3 left.
BRACKET_CUES = CueTable(
    (LEFT, RIGHT),
    {
        "dash": ((r"\b{w1}-{w2}\s+{w3}\b",), (r"\b{w1}\s+{w2}-{w3}\b",)),
        "genitive": (
            (r"\b{w1}\s+{w2}(?:'s|’s)\s+{w3}\b",), (r"\b{w1}(?:'s|’s)\s+{w2}\s+{w3}\b",)
        ),
        "slash": ((r"\b{w1}\s+{w2}/{w3}\b",), (r"\b{w1}/{w2}\s+{w3}\b",)),
        "parentheses": (
            (r"\(\s*{w1}\s+{w2}\s*\)\s+{w3}\b", r"\b{w1}\s+{w2}\s+\(\s*{w3}\s*\)"),
            (r"\(\s*{w1}\s*\)\s+{w2}\s+{w3}\b", r"\b{w1}\s+\(\s*{w2}\s+{w3}\s*\)"),
        ),
        "external-dash": (
            (r"\b{w1}\s+{w2}\s+{w3}-[A-Za-z0-9]",), (r"[A-Za-z0-9]-{w1}\s+{w2}\s+{w3}\b",)
        ),
        "punctuation": ((r"\b{w1}\s+{w2}[,.:]\s+{w3}\b",), (r"\b{w1}[,.:]\s+{w2}\s+{w3}\b",)),
    },
    Capitals(r"\b{w1}\s+({w2})\s+({w3})\b", RIGHT, capitalization_excluded),
)


# Each voter takes its variant arguments, if any, then (triple, provider, lexicon).


def _direct(name, triple, provider, lex) -> Decision:
    words = triple.words()
    sides = DIRECT_COUNTS[name](*words, *(inflections(lex, w) for w in words), lex)
    return compare_counts(provider, sides, LEFT, RIGHT)


def _surface(triple, provider, lex) -> Decision:
    """Cues in the sentences holding the compound, genitive spellings included."""
    i1, i2, i3 = (inflections(lex, w) for w in triple.words())
    queries = [_of(i1, i2, i3), _of(i1, "s", i2, i3), _of(i1, i2, "s", i3)]
    texts = surface.snippets(provider, queries)
    return surface.cue_vote(texts, {"w1": i1, "w2": i2, "w3": i3}, BRACKET_CUES)[0]


# Voter name -> voter: the registry of ``DEFAULTS``.
VOTERS: dict[str, Callable[..., Decision]] = {
    **{
        f"{kind}-{model}": partial(assoc.assoc_bracketing, kind, model)
        for kind in assoc.ASSOC_KINDS
        for model in ("adjacency", "dependency")
    },
    **{name: partial(_direct, name) for name in DIRECT_COUNTS},
    "paraphrases": partial(paraphrase.paraphrase_decision, paraphrase.DEFAULT_INVENTORY),
    "surface": _surface,
}

DEFAULTS = VoteConfig(VOTERS, DEFAULT_VOTERS, LEFT)


def run_voter(
    name: str,
    triple: NounTriple,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = DEFAULTS,
) -> Decision:
    """Run one named voter of ``config``'s registry."""
    return config.run(name, triple, provider, lex)


def bracket(
    triple: NounTriple,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = DEFAULTS,
    inventory: paraphrase.ParaphraseInventory | None = None,
) -> VoteResult:
    """Run every enabled voter on a triple and combine by majority vote.

    An ``inventory`` replaces the word lists of the ``paraphrases``
    voter for this call.
    """
    if inventory is not None:
        registry = {**config.registry, "paraphrases": partial(paraphrase.paraphrase_decision, inventory)}
        config = replace(config, registry=registry)
    return vote(triple, config, lambda name: run_voter(name, triple, provider, lex, config))
