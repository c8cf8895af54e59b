"""Orthographic and direct-count bracketing voters for noun compounds.

Authors often reveal the grouping of a three-word compound through
punctuation (``cell-cycle analysis``), genitives (``brain's stem
cells``), capitalization, concatenated spellings, or word order.  One
matcher, ``cue_tally``, counts such cues in raw snippets for all three
tasks, each of which declares its cues as a table of regex templates;
the direct-count models compare corpus frequencies of rewritten
variants of the triple.
"""

from __future__ import annotations

import re
from typing import Callable

from .assoc import NounTriple
from .corpus import CountProvider, CountQuery
from .decisions import LEFT, RIGHT, Decision, abstain, compare
from .morphology import MorphLexicon, inflection_pattern, inflections

_ROMAN_RE = re.compile(r"^[ivxlcdm]+$", re.IGNORECASE)

# How many raw snippets a surface voter fetches for one item.
SNIPPET_LIMIT = 1000

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


def capitalization_excluded(word: str) -> bool:
    """Capitalization is uninformative for single letters and Roman digits."""
    return len(word) == 1 or bool(_ROMAN_RE.match(word))


def cue_tally(
    snippets: list[str],
    slots: dict[str, str],
    cues: dict[str, tuple[tuple[str, ...], tuple[str, ...]]],
) -> dict[str, tuple[int, int]]:
    """Count each cue's matches on either side over raw snippets.

    ``cues`` maps a feature to one tuple of regex templates per side;
    ``slots`` fills the templates' ``{name}`` fields with the item's
    word patterns.  Each template is formatted and compiled once, and a
    side's count is its templates' non-overlapping case-insensitive
    matches summed over the snippets.
    """
    if not snippets:
        return dict.fromkeys(cues, (0, 0))

    def hits(templates: tuple[str, ...]) -> int:
        patterns = [re.compile(t.format(**slots), re.IGNORECASE) for t in templates]
        return sum(len(p.findall(text)) for p in patterns for text in snippets)

    return {feature: (hits(first), hits(second)) for feature, (first, second) in cues.items()}


def capital_tally(
    snippets: list[str],
    template: str,
    slots: dict[str, str],
    excluded: Callable[[str], bool] = lambda word: False,
) -> tuple[int, int]:
    """Matches of ``template`` whose second captured word is capitalized,
    then those whose third is instead; ``excluded`` words never count."""
    if not snippets:
        return 0, 0
    second = third = 0
    pattern = re.compile(template.format(**slots), re.IGNORECASE)
    for text in snippets:
        for m in pattern.finditer(text):
            t2, t3 = m.group(2), m.group(3)
            if t2[0].isupper() and not excluded(t2):
                second += 1
            elif t3[0].isupper() and not excluded(t3):
                third += 1
    return second, third


# Feature -> (left-predicting, right-predicting) templates over w1 w2 w3.
BRACKET_CUES = {
    "dash": ((r"\b{w1}-{w2}\s+{w3}\b",), (r"\b{w1}\s+{w2}-{w3}\b",)),
    "genitive": ((r"\b{w1}\s+{w2}(?:'s|’s)\s+{w3}\b",), (r"\b{w1}(?:'s|’s)\s+{w2}\s+{w3}\b",)),
    "slash": ((r"\b{w1}\s+{w2}/{w3}\b",), (r"\b{w1}/{w2}\s+{w3}\b",)),
    "parentheses": (
        (r"\(\s*{w1}\s+{w2}\s*\)\s+{w3}\b", r"\b{w1}\s+{w2}\s+\(\s*{w3}\s*\)"),
        (r"\(\s*{w1}\s*\)\s+{w2}\s+{w3}\b", r"\b{w1}\s+\(\s*{w2}\s+{w3}\s*\)"),
    ),
    "external-dash": (
        (r"\b{w1}\s+{w2}\s+{w3}-[A-Za-z0-9]",), (r"[A-Za-z0-9]-{w1}\s+{w2}\s+{w3}\b",)
    ),
    "punctuation": ((r"\b{w1}\s+{w2}[,.:]\s+{w3}\b",), (r"\b{w1}[,.:]\s+{w2}\s+{w3}\b",)),
}
# A capitalized w2 predicts right bracketing, else a capitalized w3 left.
BRACKET_CAPITALS = r"\b({w1})\s+({w2})\s+({w3})\b"


def surface_vote(
    snippets: list[str], triple: NounTriple, lex: MorphLexicon
) -> tuple[Decision, dict[str, tuple[int, int]]]:
    """Sum unweighted surface-feature votes over raw snippets.

    The tally maps each feature to its ``(left, right)`` votes.
    """
    w1, w2, w3 = (inflection_pattern(lex, w) for w in triple.words())
    slots = {"w1": w1, "w2": w2, "w3": w3}
    tally = cue_tally(snippets, slots, BRACKET_CUES)
    right, left = capital_tally(snippets, BRACKET_CAPITALS, slots, capitalization_excluded)
    tally["capitalization"] = (left, right)
    left_total, right_total = map(sum, zip(*tally.values()))
    return compare(left_total, right_total, LEFT, RIGHT), tally


CONCAT_VARIANTS = ("adjacency", "dependency", "triple")
WILDCARD_VARIANTS = (
    "adjacency",
    "dependency",
    "adjacency-reversed",
    "dependency-reversed",
)
MISC_KINDS = ("genitive", "abbreviation", "reorder", "inflection-variability", "swap")


def _glue(first: str, seconds: frozenset[str]) -> frozenset[str]:
    return frozenset(first + s for s in seconds)


def concatenation_decision(
    provider: CountProvider, lex: MorphLexicon, triple: NounTriple, variant: str
) -> Decision:
    """Compare frequencies of concatenated spellings of the two groupings."""
    if variant not in CONCAT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    w1, w2, w3 = triple.words()
    i1, i2, i3 = (inflections(lex, w) for w in triple.words())
    if variant == "adjacency":
        left = provider.count(CountQuery.of(_glue(w1, i2)))
        right = provider.count(CountQuery.of(_glue(w2, i3)))
    elif variant == "dependency":
        left = provider.count(CountQuery.of(_glue(w1, i2)))
        right = provider.count(CountQuery.of(_glue(w1, i3)))
    else:
        left = provider.count(CountQuery.of(_glue(w1, i2), i3))
        right = provider.count(CountQuery.of(i1, _glue(w2, i3)))
    return compare(left, right, LEFT, RIGHT)


def wildcard_decision(
    provider: CountProvider,
    lex: MorphLexicon,
    triple: NounTriple,
    variant: str,
) -> Decision:
    """Compare gap-query frequencies of the two groupings.

    The left-predicting pattern is ``w1 w2 * w3`` (or ``w3 * w1 w2``
    for the reversed variants), the ``*`` standing for exactly one
    token; the right-predicting pattern keeps the head next to ``w2``.
    """
    if variant not in WILDCARD_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    w1, w2, _w3 = triple.words()
    i1, i2, i3 = (inflections(lex, w) for w in triple.words())

    def gapped(left_part: list, right_part: list) -> int:
        return provider.count(CountQuery.gapped(left_part, right_part, 1, 1))

    if variant == "adjacency":
        left = gapped([w1, i2], [i3])
        right = gapped([i1], [w2, i3])
    elif variant == "dependency":
        left = gapped([w1, i2], [i3])
        right = gapped([i2], [w1, i3])
    elif variant == "adjacency-reversed":
        left = gapped([i3], [w1, i2])
        right = gapped([w2, i3], [i1])
    else:
        left = gapped([i3], [w1, i2])
        right = gapped([w1, i3], [i2])
    return compare(left, right, LEFT, RIGHT)


def _abbreviation_usable(abbr: str, lex: MorphLexicon) -> bool:
    if abbr in COMMON_SHORT_WORDS or abbr in lex.lemma_by_form:
        return False
    if _ROMAN_RE.match(abbr):
        return False
    if abbr.upper() in STATE_CODES:
        return False
    return True


def misc_decision(
    kind: str, provider: CountProvider, lex: MorphLexicon, triple: NounTriple
) -> Decision:
    """Remaining direct-count voters over rewritten triples."""
    if kind not in MISC_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    w1, w2, w3 = triple.words()
    i1, i2, i3 = (inflections(lex, w) for w in triple.words())

    if kind == "genitive":
        left = provider.count(CountQuery.of(w1, "s", w2, i3))
        right = provider.count(CountQuery.of(w1, w2, "s", i3))
        return compare(left, right, LEFT, RIGHT)

    if kind == "abbreviation":
        abbr12 = w1[0] + w2[0]
        abbr23 = w2[0] + w3[0]
        left = right = 0
        if _abbreviation_usable(abbr12, lex):
            left = provider.count(CountQuery.of(w1, w2, abbr12, i3))
        if _abbreviation_usable(abbr23, lex):
            right = provider.count(CountQuery.of(w1, w2, i3, abbr23))
        return compare(left, right, LEFT, RIGHT)

    if kind == "reorder":
        left = provider.count(CountQuery.of(i3, w1, i2))
        right = provider.count(CountQuery.of(w2, i3, i1))
        return compare(left, right, LEFT, RIGHT)

    if kind == "inflection-variability":
        var1 = i1 - {w1}
        var2 = i2 - {w2}
        left = provider.count(CountQuery.of(w1, var2, i3)) if var2 else 0
        right = provider.count(CountQuery.of(var1, w2, i3)) if var1 else 0
        return compare(left, right, LEFT, RIGHT)

    count = provider.count(CountQuery.of(w2, i1, i3))
    if count > 0:
        return Decision(RIGHT, 0, count)
    return abstain()
