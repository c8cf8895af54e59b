"""Majority-vote combination of the noun-compound bracketing voters."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import assoc, paraphrase, surface
from .assoc import NounTriple
from .corpus import CountProvider, CountQuery
from .decisions import LEFT, Decision, VoteResult, check_voters, vote
from .morphology import MorphLexicon, inflections

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


@dataclass(frozen=True)
class VoteConfig:
    """Which voters run and how their votes combine."""

    voters: tuple[str, ...] = DEFAULT_VOTERS
    default: str | None = LEFT
    margin: float = 0.0

    def __post_init__(self) -> None:
        check_voters(self.voters, VOTERS)
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


def triple_snippets(
    provider: CountProvider,
    lex: MorphLexicon,
    triple: NounTriple,
    limit: int,
) -> list[str]:
    """Distinct raw sentences containing the compound, genitive variants included."""
    i1, i2, i3 = (inflections(lex, w) for w in triple.words())
    queries = [
        CountQuery.of(i1, i2, i3),
        CountQuery.of(i1, "s", i2, i3),
        CountQuery.of(i1, i2, "s", i3),
    ]
    snippets = (s for q in queries for s in provider.snippets(q, limit))
    return list(dict.fromkeys(snippets))[:limit]


# Each voter takes its variant arguments, if any, then
# (triple, provider, lexicon, config, inventory).


def _assoc(kind, model, triple, provider, lex, config, inventory) -> Decision:
    return assoc.assoc_bracketing(kind, model, provider, lex, triple, config.margin)


def _concat(variant, triple, provider, lex, config, inventory) -> Decision:
    return surface.concatenation_decision(provider, lex, triple, variant)


def _wildcard(variant, triple, provider, lex, config, inventory) -> Decision:
    return surface.wildcard_decision(provider, lex, triple, variant)


def _misc(kind, triple, provider, lex, config, inventory) -> Decision:
    return surface.misc_decision(kind, provider, lex, triple)


def _paraphrases(triple, provider, lex, config, inventory) -> Decision:
    inv = inventory or paraphrase.ParaphraseInventory()
    return paraphrase.paraphrase_decision(provider, triple, inv, lex)


def _surface(triple, provider, lex, config, inventory) -> Decision:
    snippets = triple_snippets(provider, lex, triple, surface.SNIPPET_LIMIT)
    decision, _tally = surface.surface_vote(snippets, triple, lex)
    return decision


# Voter name -> voter: the one list of names a config accepts.
VOTERS: dict[str, Callable[..., Decision]] = {
    **{
        f"{kind}-{model}": partial(_assoc, kind, model)
        for kind in assoc.ASSOC_KINDS
        for model in ("adjacency", "dependency")
    },
    **{f"concat-{v}": partial(_concat, v) for v in surface.CONCAT_VARIANTS},
    **{f"wildcard-{v}": partial(_wildcard, v) for v in surface.WILDCARD_VARIANTS},
    **{kind: partial(_misc, kind) for kind in surface.MISC_KINDS},
    "paraphrases": _paraphrases,
    "surface": _surface,
}


def run_voter(
    name: str,
    triple: NounTriple,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig,
    inventory: paraphrase.ParaphraseInventory | None = None,
) -> Decision:
    """Run one named voter."""
    check_voters((name,), VOTERS)
    return VOTERS[name](triple, provider, lex, config, inventory)


def bracket(
    triple: NounTriple,
    provider: CountProvider,
    lex: MorphLexicon,
    config: VoteConfig = VoteConfig(),
    inventory: paraphrase.ParaphraseInventory | None = None,
) -> VoteResult:
    """Run every enabled voter on a triple and combine by majority vote."""
    return vote(
        triple,
        config.voters,
        lambda name: run_voter(name, triple, provider, lex, config, inventory),
        config.default,
    )
