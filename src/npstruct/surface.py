"""Orthographic cues in raw snippets, and the bracketing cue voter.

Authors often reveal the grouping of a three-word compound through
punctuation (``cell-cycle analysis``), genitives (``brain's stem
cells``), parentheses or capitalization.  One matcher, ``cue_tally``,
counts such cues in raw snippets for all three tasks, each of which
declares its cues as a table of regex templates; bracketing's table is
``BRACKET_CUES``.  The voters that count rewritten variants of an item
instead are tables of queries: ``bracketer.DIRECT_COUNTS``,
``ppattach.COUNTS``, and ``coordination.COUNTS`` and ``PARAPHRASES``.
"""

from __future__ import annotations

import re
from typing import Callable

from .assoc import NounTriple
from .decisions import LEFT, RIGHT, Decision, compare
from .morphology import MorphLexicon, inflection_pattern

ROMAN_NUMERAL = re.compile(r"^[ivxlcdm]+$", re.IGNORECASE)

# How many raw snippets a surface voter fetches for one item.
SNIPPET_LIMIT = 1000


def capitalization_excluded(word: str) -> bool:
    """Capitalization is uninformative for single letters and Roman digits."""
    return len(word) == 1 or bool(ROMAN_NUMERAL.match(word))


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
