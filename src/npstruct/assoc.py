"""Word-association scores and bracketing decisions for noun compounds.

Four association strengths between an ordered word pair are supported:
raw bigram frequency, conditional probability of the pair given the
second word, pointwise mutual information, and the chi-squared score of
the pair's two-by-two contingency table.  Counts are summed over the
inflectional variants of the second word, and unigram marginals over
the variants of their own word.

The adjacency model brackets a three-word compound by comparing the
association of (w1, w2) against (w2, w3); the dependency model compares
(w1, w2) against (w1, w3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import CountProvider, CountQuery
from .decisions import LEFT, RIGHT, Decision, abstain, compare
from .morphology import MorphLexicon, inflections
from .stats import DegenerateTableError, pearson_chi2

ASSOC_KINDS = ("freq", "prob", "pmi", "chi2")


class ZeroMarginalError(ValueError):
    """A probability or PMI denominator count is zero."""


@dataclass(frozen=True)
class NounTriple:
    """A three-word noun compound ``w1 w2 w3``."""

    w1: str
    w2: str
    w3: str

    def __post_init__(self) -> None:
        for w in (self.w1, self.w2, self.w3):
            if not w:
                raise ValueError("triple words must be nonempty")
        object.__setattr__(self, "w1", self.w1.lower())
        object.__setattr__(self, "w2", self.w2.lower())
        object.__setattr__(self, "w3", self.w3.lower())

    def words(self) -> tuple[str, str, str]:
        return (self.w1, self.w2, self.w3)


def pair_count(provider: CountProvider, lex: MorphLexicon, wi: str, wj: str) -> int:
    """Bigram count of ``wi wj`` summed over inflections of ``wj``."""
    return provider.count(CountQuery.of(wi, inflections(lex, wj)))


def unigram_count(provider: CountProvider, lex: MorphLexicon, w: str) -> int:
    """Unigram count summed over all inflections of ``w``."""
    return provider.count(CountQuery.of(inflections(lex, w)))


def contingency(
    provider: CountProvider, lex: MorphLexicon, wi: str, wj: str
) -> tuple[int, int, int, int]:
    """Cells ``(a, b, c, d)`` of the two-by-two table for the ordered pair (wi, wj).

    When ``wi`` and ``wj`` share forms, both marginals count the shared
    tokens and ``d`` can go negative; such a table is degenerate.
    """
    a = pair_count(provider, lex, wi, wj)
    b = unigram_count(provider, lex, wi) - a
    c = unigram_count(provider, lex, wj) - a
    d = provider.total() - a - b - c
    if min(b, c, d) < 0:
        raise DegenerateTableError("negative cell")
    return a, b, c, d


def assoc_score(
    kind: str,
    provider: CountProvider,
    lex: MorphLexicon,
    wi: str,
    wj: str,
) -> float:
    """Association strength of the ordered pair (wi, wj)."""
    if kind not in ASSOC_KINDS:
        raise ValueError(f"unknown association kind {kind!r}")
    if not wi or not wj:
        raise ValueError("tokens must be nonempty")
    if kind == "freq":
        return float(pair_count(provider, lex, wi, wj))
    if kind == "prob":
        pair = pair_count(provider, lex, wi, wj)
        marginal = unigram_count(provider, lex, wj)
        if marginal == 0:
            raise ZeroMarginalError("zero marginal")
        return pair / marginal
    if kind == "pmi":
        pair = pair_count(provider, lex, wi, wj)
        mi = unigram_count(provider, lex, wi)
        mj = unigram_count(provider, lex, wj)
        if pair == 0 or mi == 0 or mj == 0:
            raise ZeroMarginalError("zero marginal")
        return math.log(provider.total() * pair / (mi * mj))
    return pearson_chi2(*contingency(provider, lex, wi, wj))[0]


def assoc_bracketing(
    kind: str,
    model: str,
    triple: NounTriple,
    provider: CountProvider,
    lex: MorphLexicon,
) -> Decision:
    """Bracket a triple by one association score under one comparison model.

    ``model`` is ``adjacency`` or ``dependency``; the left score is the
    association of (w1, w2) in both, the right score is (w2, w3) for
    adjacency and (w1, w3) for dependency.  A stronger left association
    predicts left bracketing, and ties abstain, as do scores with a zero
    marginal or a degenerate table.
    """
    if model not in ("adjacency", "dependency"):
        raise ValueError(f"unknown model {model!r}")
    w1, w2, w3 = triple.words()
    second = (w2, w3) if model == "adjacency" else (w1, w3)
    try:
        left = assoc_score(kind, provider, lex, w1, w2)
        right = assoc_score(kind, provider, lex, *second)
    except (ZeroMarginalError, DegenerateTableError) as exc:
        return abstain(str(exc))
    return compare(left, right, LEFT, RIGHT)
