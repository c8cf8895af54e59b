"""Orthographic cues in raw snippets: the one surface voter of all three tasks.

Authors often reveal the grouping of a three-word compound through
punctuation (``cell-cycle analysis``), genitives (``brain's stem
cells``), parentheses or capitalization.  Each task declares its cues
as a ``CueTable`` (``bracketer.BRACKET_CUES``, ``ppattach.PP_CUES``,
``coordination.COORD_CUES``) and names its snippet queries and word
forms; ``snippets`` fetches the raw sentences and ``cue_vote`` tallies
the cues in them.  The voters that count rewritten variants of an item
instead are tables of queries: ``bracketer.DIRECT_COUNTS``,
``ppattach.COUNTS``, and ``coordination.COUNTS`` and ``PARAPHRASES``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .corpus import CountProvider, CountQuery
from .decisions import Decision, compare

# How many raw snippets a surface voter reads for one item.
SNIPPET_LIMIT = 1000


class Capitals(NamedTuple):
    """A capitalization cue: ``template`` captures two words.

    A capitalized first word votes for ``label``; otherwise a
    capitalized second word votes for the table's other label.  Words
    that ``skip`` accepts never count.
    """

    template: str
    label: str
    skip: Callable[[str], bool] = lambda word: False


@dataclass(frozen=True)
class CueTable:
    """A task's surface cues and the two labels they vote for.

    ``cues`` maps a feature to one tuple of regex templates per label,
    in ``labels`` order.  A template's ``{slot}`` fields stand for the
    item's words (``{{`` and ``}}`` are literal braces).  ``capitals``
    is the table's capitalization cue, if it has one.
    """

    labels: tuple[str, str]
    cues: dict[str, tuple[tuple[str, ...], tuple[str, ...]]]
    capitals: Capitals | None = None


def snippets(provider: CountProvider, queries: Iterable[CountQuery]) -> list[str]:
    """Each query's first ``SNIPPET_LIMIT`` matching sentences, in query
    order, with repeated texts dropped, cut to ``SNIPPET_LIMIT``."""
    texts = (text for query in queries for text in provider.snippets(query, SNIPPET_LIMIT))
    return list(dict.fromkeys(texts))[:SNIPPET_LIMIT]


def cue_vote(
    texts: list[str],
    words: dict[str, Iterable[str]],
    table: CueTable,
) -> tuple[Decision, dict[str, tuple[int, int]]]:
    """Sum unweighted cue votes over raw texts.

    ``words`` maps each slot to its word forms, which the slot matches
    literally, longest first.  Each template is formatted and compiled
    once, and a side's count is its templates' non-overlapping
    case-insensitive matches summed over the texts.  The tally maps each
    feature, and ``capitalization`` when the table has that cue, to its
    votes in ``table.labels`` order.
    """
    slots = {
        slot: "(?:%s)" % "|".join(map(re.escape, sorted(forms, key=lambda f: (-len(f), f))))
        for slot, forms in words.items()
    }

    def patterns(templates: tuple[str, ...]) -> list[re.Pattern]:
        """``templates`` compiled, or none when there is no text to match."""
        return [re.compile(t.format(**slots), re.IGNORECASE) for t in templates] if texts else []

    def hits(templates: tuple[str, ...]) -> int:
        return sum(len(p.findall(text)) for p in patterns(templates) for text in texts)

    tally = {feature: (hits(first), hits(second)) for feature, (first, second) in table.cues.items()}
    if table.capitals is not None:
        template, label, skip = table.capitals
        votes = [0, 0]  # a capitalized first word, else a capitalized second one
        for p in patterns((template,)):
            for first, second in (m.groups() for text in texts for m in p.finditer(text)):
                if first[0].isupper() and not skip(first):
                    votes[0] += 1
                elif second[0].isupper() and not skip(second):
                    votes[1] += 1
        tally["capitalization"] = tuple(votes if label == table.labels[0] else votes[::-1])
    left, right = map(sum, zip(*tally.values()))
    return compare(left, right, *table.labels), tally
