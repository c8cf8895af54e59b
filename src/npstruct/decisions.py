"""Tri-valued decisions and the majority vote shared by all tasks.

Each voter compares a left-hand and a right-hand evidence score; the
winning side's task label is emitted, and ties abstain.  A count
voter's two sides are lists of queries, scored by ``count_sides`` and
compared by ``compare_counts``.  ``vote`` runs a task's voters on one
item and combines their decisions by majority, as a task's
``VoteConfig`` says.  A voter is named only by its key in that config's
registry, and is called as ``voter(item, provider, lexicon)``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Callable, Collection, Iterable, Mapping

ABSTAIN = "abstain"

LEFT = "left"
RIGHT = "right"

NOUN = "noun"
VERB = "verb"

NOUN_COORD = "noun-coord"
NP_COORD = "np-coord"

BRACKET_LABELS = (LEFT, RIGHT)
ATTACH_LABELS = (NOUN, VERB)
COORD_LABELS = (NOUN_COORD, NP_COORD)


@dataclass(frozen=True)
class Decision:
    """Outcome of one voter: a label or an abstention, its scores and a note."""

    label: str
    left_score: float = 0.0
    right_score: float = 0.0
    _: KW_ONLY
    note: str = ""

    @property
    def abstained(self) -> bool:
        return self.label == ABSTAIN


def compare(
    left_score: float,
    right_score: float,
    left_label: str,
    right_label: str,
) -> Decision:
    """Pick the side with the higher score; a tie abstains."""
    if left_score > right_score:
        label = left_label
    elif right_score > left_score:
        label = right_label
    else:
        label = ABSTAIN
    return Decision(label, left_score, right_score)


def count_sides(provider, sides) -> tuple[int, int]:
    """Each side's score: its queries' summed counts, left side first.

    An empty side issues no query and scores 0.
    """
    left, right = sides
    return sum(map(provider.count, left)), sum(map(provider.count, right))


def compare_counts(provider, sides, left_label: str, right_label: str) -> Decision:
    """``compare`` a count voter's (left, right) query lists by their summed counts."""
    return compare(*count_sides(provider, sides), left_label, right_label)


def abstain(note: str = "") -> Decision:
    """An abstention, optionally carrying a diagnostic note."""
    return Decision(ABSTAIN, note=note)


def majority_vote(decisions: list[Decision], default: str | None = None) -> Decision:
    """Strict majority among non-abstaining voters; ties fall to ``default``.

    With no default set, ties and empty slates abstain.
    """
    votes: dict[str, int] = {}
    for d in decisions:
        if not d.abstained:
            votes[d.label] = votes.get(d.label, 0) + 1
    if votes:
        top = max(votes.values())
        leaders = [label for label, n in votes.items() if n == top]
        if len(leaders) == 1:
            return Decision(leaders[0])
    if default is not None:
        return Decision(default, note="default")
    return abstain("tie")


@dataclass
class VoteResult:
    """Per-voter decisions, in voter order, plus the combined outcome for one item."""

    item: object
    votes: dict[str, Decision]
    final: Decision


def check_voters(voters: Iterable[str], known: Collection[str]) -> None:
    """Reject voter names that are not in a task's registry, or named twice."""
    names = list(voters)
    unknown = sorted({name for name in names if name not in known})
    if unknown:
        raise ValueError(f"unknown voters: {unknown}")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate voters: {duplicates}")


@dataclass(frozen=True)
class VoteConfig:
    """One task's vote: its name -> voter ``registry``, the ``voters`` that
    run, in order, and the ``default`` label ties fall to.  A voter's own
    setting is bound by a copy of the config with that entry replaced."""

    registry: Mapping[str, Callable[..., Decision]]
    voters: tuple[str, ...]
    default: str | None

    def __post_init__(self) -> None:
        check_voters(self.voters, self.registry)

    def run(self, name: str, item: object, provider, lex) -> Decision:
        """The decision of the registry's voter ``name`` on ``item``."""
        if name not in self.registry:
            check_voters((name,), self.registry)  # raises: unknown voters
        return self.registry[name](item, provider, lex)


def vote(item: object, config: VoteConfig, run: Callable[[str], Decision]) -> VoteResult:
    """Collect ``run(name)`` for each of ``config``'s voters in order and take the majority."""
    votes = {name: run(name) for name in config.voters}
    return VoteResult(item, votes, majority_vote(list(votes.values()), config.default))
