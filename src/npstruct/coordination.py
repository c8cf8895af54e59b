"""Coordination scope: is ``n1 c n2 h`` one NP or two?

``bar and pie graph`` coordinates the modifiers bar/pie under the
shared head graph (noun coordination, with the first head elided);
``president and chief executive`` coordinates two full NPs.  The
voters compare head collocations, look for disambiguating rewrites,
apply the same-word heuristic, check number agreement, and scan raw
snippets for separating punctuation.  The collocation
voters are the ``COUNTS`` table of query pairs, scored by
``decisions.compare_counts``; the rewrites are the ``PARAPHRASES``
table, each a label and one query that any match confirms.
``DEFAULTS`` is the task's ``VoteConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .corpus import CountProvider, CountQuery
from .decisions import (
    NOUN_COORD,
    NP_COORD,
    Decision,
    VoteConfig,
    VoteResult,
    abstain,
    compare_counts,
    vote,
)
from .morphology import MorphLexicon, inflections, is_plural
from .surface import CueTable, cue_vote, snippets

CONJUNCTIONS = ("and", "or")


@dataclass(frozen=True)
class CoordQuad:
    """A coordination instance ``n1 c n2 h``; ``c`` is ``and`` or ``or``."""

    n1: str
    c: str
    n2: str
    h: str

    def __post_init__(self) -> None:
        if self.c.lower() not in CONJUNCTIONS:
            raise ValueError("conjunction must be 'and' or 'or'")
        for w in (self.n1, self.n2, self.h):
            if not w:
                raise ValueError("quad fields must be nonempty")
        object.__setattr__(self, "c", self.c.lower())


def _opposite(label: str) -> str:
    return NP_COORD if label == NOUN_COORD else NOUN_COORD


_of = CountQuery.of

# Count voter -> its (noun-coordination, NP-coordination) queries, given
# n1 and n2, n2's inflection set i2 and the head's ih, scored by
# ``decisions.compare_counts``: (i) #(n1,h) vs #(n2,h); (ii) #(n1,c,n2)
# vs #(n1,h), pooling ``and`` and ``or``.
COUNTS: dict[str, Callable[..., tuple[list[CountQuery], list[CountQuery]]]] = {
    "ngram-i": lambda n1, n2, i2, ih: ([_of(n1, ih)], [_of(n2, ih)]),
    "ngram-ii": lambda n1, n2, i2, ih: ([_of(n1, CONJUNCTIONS, i2)], [_of(n1, ih)]),
}

# Paraphrase voter -> (the label a match confirms, its query over n1 c n2
# and the head's inflection set ih).  No match yields the opposite label.
PARAPHRASES: dict[str, tuple[str, Callable[..., CountQuery]]] = {
    "coord-paraphrase-1": (NOUN_COORD, lambda n1, c, n2, ih: _of(n2, c, n1, ih)),
    "coord-paraphrase-2": (NP_COORD, lambda n1, c, n2, ih: _of(n2, ih, c, n1)),
    "coord-paraphrase-3": (NOUN_COORD, lambda n1, c, n2, ih: _of(n1, ih, c, n2, ih)),
    "coord-paraphrase-4": (NOUN_COORD, lambda n1, c, n2, ih: _of(n2, ih, c, n1, ih)),
}


# Noun- and NP-coordination cues over n1 c n2 h.  Most separators
# between n2 and the head, and a dash suspending n1, indicate noun
# coordination; separators isolating n1 indicate NP coordination.
# ``{{}}`` in the separator class is a literal ``{}`` once formatted.
COORD_CUES = CueTable(
    (NOUN_COORD, NP_COORD),
    {
        "dash": ((r"\b{n1}-\s+{c}\s+{n2}\s+{h}\b",), ()),
        "brackets": (
            (r"\(\s*{n1}\s+{c}\s+{n2}\s*\)\s+{h}\b", r"\b{n1}\s+{c}\s+{n2}\s+\(\s*{h}\s*\)"),
            (r"\(\s*{n1}\s*\)\s+{c}\s+{n2}\s+{h}\b", r"\b{n1}\s+\(\s*{c}\s+{n2}\s+{h}\s*\)"),
        ),
        "separator": (
            (r"\b{n1}\s+{c}\s+{n2}\s*[,:;.!?/\\\]\[{{}}\"']\s*{h}\b",),
            (r"\b{n1}\s*[,:;.!?/\\\]\[{{}}\"']\s*{c}\s+{n2}\s+{h}\b",),
        ),
    },
)


DEFAULT_COORD_VOTERS = (
    "ngram-i",
    "coord-paraphrase-1", "coord-paraphrase-2",
    "coord-paraphrase-3", "coord-paraphrase-4",
    "h1",
    "number-agreement",
    "surface",
)


# Each voter takes its variant argument, if any, then (quad, provider, lexicon).


def _ngram(name, quad, provider, lex) -> Decision:
    i2, ih = inflections(lex, quad.n2), inflections(lex, quad.h)
    return compare_counts(provider, COUNTS[name](quad.n1, quad.n2, i2, ih), NOUN_COORD, NP_COORD)


def _paraphrase(name, quad, provider, lex) -> Decision:
    """A match confirms the paraphrase's label; none gives the opposite one."""
    label, query = PARAPHRASES[name]
    count = provider.count(query(quad.n1, quad.c, quad.n2, inflections(lex, quad.h)))
    if count:
        return Decision(label, count, 0)
    return Decision(_opposite(label), 0, count, note="below threshold")


def _same_word(quad, provider, lex) -> Decision:
    """``h1``: the same noun on both sides of the conjunction coordinates two NPs."""
    if quad.n1.lower() == quad.n2.lower():
        return Decision(NP_COORD)
    return abstain()


def _number_agreement(quad, provider, lex) -> Decision:
    """``number-agreement``: agreement in grammatical number between n1, n2, and the head.

    If n1 and n2 agree but differ from the head, the head cannot be
    shared directly with n1's number, so the modifiers coordinate; if
    n1 disagrees with n2 but matches the head, two NPs coordinate.
    """
    p1 = is_plural(lex, quad.n1)
    p2 = is_plural(lex, quad.n2)
    ph = is_plural(lex, quad.h)
    if p1 == p2 and p1 != ph:
        return Decision(NOUN_COORD)
    if p1 != p2 and p1 == ph:
        return Decision(NP_COORD)
    return abstain()


def _surface(quad, provider, lex) -> Decision:
    i1, i2, ih = (inflections(lex, w) for w in (quad.n1, quad.n2, quad.h))
    texts = snippets(provider, [_of(quad.n1, quad.c, quad.n2, ih)])
    return cue_vote(texts, {"n1": i1, "c": {quad.c}, "n2": i2, "h": ih}, COORD_CUES)[0]


# Voter name -> voter: the registry of ``DEFAULTS``.
VOTERS: dict[str, Callable[..., Decision]] = {
    **{name: partial(_ngram, name) for name in COUNTS},
    **{name: partial(_paraphrase, name) for name in PARAPHRASES},
    "h1": _same_word,
    "number-agreement": _number_agreement,
    "surface": _surface,
}

DEFAULTS = VoteConfig(VOTERS, DEFAULT_COORD_VOTERS, NP_COORD)


def run_coord_voter(
    name: str,
    quad: CoordQuad,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = DEFAULTS,
) -> Decision:
    """Run one named voter of ``config``'s registry."""
    return config.run(name, quad, provider, lex)


def coord_pipeline(
    quad: CoordQuad,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = DEFAULTS,
) -> VoteResult:
    """Vote the enabled voters and combine by majority."""
    return vote(quad, config, lambda name: run_coord_voter(name, quad, provider, lex, config))
