"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from npstruct.corpus import CorpusIndex, CountQuery, IndexProvider, IngestConfig, build_index
from npstruct.morphology import MorphLexicon

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def normalize_line(line: str) -> list[str]:
    """Reference normalization: alphanumeric runs, lowercased."""
    return [m.group().lower() for m in _TOKEN_RE.finditer(line)]


def naive_count(sentences: list[list[str]], query: CountQuery) -> int:
    """Regex-based occurrence counter, independent of the index internals.

    Each sentence is rendered as space-joined tokens; occurrences are
    counted with overlapping lookahead matches, one regex per admitted
    gap size.
    """

    def position(alts: frozenset[str]) -> str:
        return "(?:" + "|".join(re.escape(a) for a in sorted(alts)) + ")"

    if query.gap is None:
        patterns = [" ".join(position(p) for p in query.phrase)]
    else:
        left = " ".join(position(p) for p in query.phrase[: query.split])
        right = " ".join(position(p) for p in query.phrase[query.split :])
        lo, hi = query.gap
        patterns = []
        for g in range(lo, hi + 1):
            gap = "".join(" [a-z0-9]+" for _ in range(g))
            patterns.append(f"{left}{gap} {right}")
    total = 0
    for tokens in sentences:
        text = " " + " ".join(tokens) + " "
        for pat in patterns:
            total += len(re.findall(f"(?= {pat} )", text))
    return total


def make_index(
    tmp_path: Path,
    lines: list[str],
    tagged: bool = False,
    name: str = "corpus.txt",
    reload: bool = False,
):
    """Write a corpus file and build its index; with ``reload``, save it and load it back."""
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    index = build_index(path, IngestConfig(tagged=tagged))
    if reload:
        index.save(path.with_suffix(".idx"))
        index = CorpusIndex.load(path.with_suffix(".idx"))
    return index


def make_provider(tmp_path: Path, lines: list[str], tagged: bool = False):
    return IndexProvider(make_index(tmp_path, lines, tagged))


class CountOnlyProvider:
    """Exposes only ``count``/``total``/``snippets`` of an inner provider.

    Like an outside wrapper, it has no ``count_between``, so it takes
    the phrase-expanding fallback of ``npstruct.corpus.count_between``.
    """

    def __init__(self, inner):
        self.inner = inner

    def count(self, query: CountQuery) -> int:
        return self.inner.count(query)

    def total(self) -> int:
        return self.inner.total()

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        return self.inner.snippets(query, limit)


@pytest.fixture
def small_lex() -> MorphLexicon:
    """A compact in-memory lexicon covering the words the tests use."""
    return MorphLexicon.from_entries(
        {
            "cell": ["cells"],
            "bone": ["bones"],
            "marrow": ["marrows"],
            "brain": ["brains"],
            "stem": ["stems"],
            "analysis": ["analyses"],
            "customer": ["customers"],
            "demand": ["demands"],
            "member": ["members"],
            "committee": ["committees"],
            "meeting": ["meetings"],
            "team": ["teams"],
            "player": ["players"],
            "include": ["includes", "included", "including"],
            "consist": ["consists", "consisted", "consisting"],
            "hold": ["holds", "held", "holding"],
            "meet": ["meets", "met", "meeting"],
            "chair": ["chairs", "chaired", "chairing"],
            "come": ["comes", "came", "coming"],
            "be": ["is", "are", "was", "were", "am", "been", "being"],
            "cause": ["causes", "caused", "causing"],
            "donate": ["donates", "donated", "donating"],
            "seem": ["seems", "seemed", "seeming"],
            "make": ["makes", "made", "making"],
        }
    )
