"""Prepositional, copular, and verbal paraphrases for compound bracketing.

A writer can expand ``brain stem cells`` as ``cells from the brain
stem`` (keeping the first two words together, so left bracketing) or as
``stem cells from the brain`` (right bracketing).  This module
instantiates every such rewriting over a fixed inventory of
prepositions, determiners, complementizers, and copulas, counts both
families in the corpus, and votes for the larger sum.  A family is
counted as gapped queries whose gap must hold one of the inventory's
middles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .assoc import NounTriple
from .corpus import MAX_GAP, CountProvider, CountQuery
from .decisions import LEFT, RIGHT, Decision, compare_counts
from .morphology import MorphLexicon, inflections, is_plural

NONVERBAL_PREPOSITIONS = (
    "about", "across", "after", "against", "all over", "along", "alongside",
    "amid", "amidst", "among", "around", "as", "as to", "aside", "at",
    "before", "behind", "beside", "besides", "between", "beyond", "by",
    "close to", "concerning", "considering", "down", "due to", "during",
    "except", "except for", "excluding", "following", "for", "from", "in",
    "in addition to", "in front of", "including", "inside", "instead of",
    "into", "like", "near", "of", "off", "on", "onto", "other than", "out",
    "out of", "outside", "over", "per", "regarding", "respecting",
    "similar to", "through", "throughout", "to", "toward", "towards",
    "under", "underneath", "unlike", "until", "up", "upon", "versus", "via",
    "with", "within", "without",
)

VERBAL_PREPOSITIONS = (
    "associated with", "caused by", "contained in", "derived from",
    "focusing on", "found in", "involved in", "located at", "located in",
    "made of", "performed by", "preventing", "related to", "used by",
    "used in", "used for",
)

DETERMINERS = (
    "a", "an", "the",
    "all", "each", "every", "some",
    "his", "her", "their",
    "this", "these",
)

COMPLEMENTIZERS = ("that", "which", "who")

COPULAS = ("are", "is", "was", "were")

SINGULAR_COPULAS = frozenset({"is", "was"})
PLURAL_COPULAS = frozenset({"are", "were"})


@dataclass(frozen=True)
class ParaphraseInventory:
    """Closed word lists that instantiate the paraphrase patterns."""

    prepositions: tuple[str, ...] = NONVERBAL_PREPOSITIONS + VERBAL_PREPOSITIONS
    determiners: tuple[str, ...] = DETERMINERS
    complementizers: tuple[str, ...] = COMPLEMENTIZERS
    copulas: tuple[str, ...] = COPULAS

    def __post_init__(self) -> None:
        # Lowercased here, as NounTriple lowercases its words, so every
        # generated phrase is already normalized for the index.
        for name in ("prepositions", "determiners", "complementizers", "copulas"):
            object.__setattr__(self, name, tuple(w.lower() for w in getattr(self, name)))


# The default inventory, built once: a ``_middles`` cache hit on the same
# instance matches it by identity instead of comparing its word lists.
DEFAULT_INVENTORY = ParaphraseInventory()


def _copula_agrees(copula: str, head: str, lex: MorphLexicon) -> bool:
    if copula in SINGULAR_COPULAS:
        return not is_plural(lex, head)
    if copula in PLURAL_COPULAS:
        return is_plural(lex, head)
    return True


@functools.lru_cache(maxsize=64)
def _middles(
    inv: ParaphraseInventory, copulas: tuple[str, ...]
) -> tuple[frozenset[tuple[str, ...]], int, int]:
    """The token runs between a paraphrase's head and tail, and their least and greatest lengths.

    A preposition with an optional determiner, or a complementizer and
    one of the ``copulas`` (those agreeing with the clause head)
    followed by an optional determiner or by such a prepositional run.
    Multiword prepositions are split into tokens; the empty determiner
    realizes the optional slot.  A middle longer than ``MAX_GAP`` tokens
    raises ``ValueError``.
    """
    dets: list[tuple[str, ...]] = [()] + [tuple(d.split()) for d in inv.determiners]
    preps = [tuple(p.split()) for p in inv.prepositions]
    prep_dets = [prep + det for prep in preps for det in dets]
    out = list(prep_dets)
    for compl in inv.complementizers:
        for cop in copulas:
            clause = (compl, cop)
            out += [clause + det for det in dets]
            out += [clause + pd for pd in prep_dets]
    longest = max(out, key=len, default=())
    if len(longest) > MAX_GAP:
        raise ValueError(f"paraphrase middle {' '.join(longest)!r} is longer than {MAX_GAP} tokens")
    return frozenset(out), min(map(len, out), default=0), len(longest)


def _families(
    triple: NounTriple,
    inv: ParaphraseInventory,
    lex: MorphLexicon,
) -> tuple[list[CountQuery], list[CountQuery]]:
    """The left and right query families, one per inflection ``t3`` of ``w3``.

    Inflections come in sorted order.  Left queries are ``t3 *(middle)
    w1 i2``, right ones ``w2 t3 *(middle) i1``, where ``i1`` and ``i2``
    are the inflections of ``w1`` and ``w2`` and the gap holds one of the
    middles agreeing with ``t3``.  No two queries share a match, because
    the inflected head differs.
    """
    w1, w2, _w3 = triple.words()
    i1 = inflections(lex, triple.w1)
    i2 = inflections(lex, triple.w2)
    left, right = [], []
    for t3 in sorted(inflections(lex, triple.w3)):
        fill, lo, hi = _middles(inv, tuple(c for c in inv.copulas if _copula_agrees(c, t3, lex)))
        left.append(CountQuery.gapped([t3], [w1, i2], lo, hi, fill))
        right.append(CountQuery.gapped([w2, t3], [i1], lo, hi, fill))
    return left, right


def paraphrase_decision(
    inv: ParaphraseInventory,
    triple: NounTriple,
    provider: CountProvider,
    lex: MorphLexicon,
) -> Decision:
    """Compare total corpus hits of left- vs right-predicting paraphrases.

    Every left family is counted, then every right one.
    """
    return compare_counts(provider, _families(triple, inv, lex), LEFT, RIGHT)
