"""A tiny lexicon tagger for producing test corpora.

Real deployments feed the feature extractors pre-tagged corpora; this
tagger exists so the test suite can build them hermetically.  It tags
closed classes from fixed lists, verbs/adjectives/adverbs from caller
supplied vocabularies, and defaults everything else to noun.

Tagset: N noun, V verb, J adjective, R adverb, P preposition,
D determiner, C coordinating conjunction, W complementizer, M modal,
A auxiliary (be/have/do forms), PRO pronoun, S subordinator, O other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .morphology import (
    AUXILIARIES,
    DETERMINERS,
    MODALS,
    PREPOSITIONS,
    PRONOUNS,
    MorphLexicon,
    lemma,
)

COORDINATORS = frozenset({"and", "or", "but", "nor"})

COMPLEMENTIZERS = frozenset({"that", "which", "who", "whom", "whose"})

SUBORDINATORS = frozenset(
    """because although though while when whenever if unless since until
    after before whereas""".split()
)


@dataclass
class TinyTagger:
    """Closed-class lists plus caller vocabularies, noun default."""

    verbs: frozenset[str] = frozenset()
    adjectives: frozenset[str] = frozenset()
    adverbs: frozenset[str] = frozenset()
    lex: MorphLexicon = field(default_factory=MorphLexicon)

    def tag_word(self, word: str) -> str:
        w = word.lower()
        if w in MODALS:
            return "M"
        if w in AUXILIARIES:
            return "A"
        # "that" is also a determiner; the tagger always reads it as W.
        if w in COMPLEMENTIZERS:
            return "W"
        if w in COORDINATORS:
            return "C"
        if w in SUBORDINATORS:
            return "S"
        if w in PRONOUNS:
            return "PRO"
        if w in DETERMINERS:
            return "D"
        if w in PREPOSITIONS:
            return "P"
        base = lemma(self.lex, w)
        if w in self.verbs or base in self.verbs:
            return "V"
        if w in self.adjectives or base in self.adjectives:
            return "J"
        if w in self.adverbs or w.endswith("ly"):
            return "R"
        return "N"

    def tag_sentence(self, sentence: str) -> list[tuple[str, str]]:
        return [(word, self.tag_word(word)) for word in sentence.split()]

    def tag_line(self, sentence: str) -> str:
        """Render one sentence in the corpus ``word_TAG`` format."""
        return " ".join(f"{w}_{t}" for w, t in self.tag_sentence(sentence))


def write_tagged_corpus(
    sentences: list[str], tagger: TinyTagger, path: str | Path
) -> None:
    """Tag plain sentences and write a tagged corpus file."""
    lines = [tagger.tag_line(s) for s in sentences]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
