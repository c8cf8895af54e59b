"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from npstruct.assoc import NounTriple
from npstruct.corpus import CorpusIndex, CountQuery, IndexProvider, IngestConfig, build_index
from npstruct.morphology import MorphLexicon, inflections, is_plural
from npstruct.paraphrase import ParaphraseInventory

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


def generate_bracketing_queries(
    triple: NounTriple,
    inv: ParaphraseInventory,
    lex: MorphLexicon,
) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """All left- and right-predicting paraphrases of a triple, as token tuples.

    Spells out, phrase by phrase and straight from the inventory, what
    ``paraphrase_decision`` counts.  Left patterns keep ``w1 w2``
    together (``cells from the bone marrow``); right patterns keep
    ``w2 w3`` (``marrow cells of the bone``).  Multiword prepositions
    are split into tokens; the empty determiner realizes the optional
    slot; ``is``/``was`` need a singular clause head (the inflected
    ``w3``) and ``are``/``were`` a plural one.  Each phrase is listed
    once, in first-generated order.
    """
    w1, w2, w3 = triple.words()
    i1, i2, i3 = (sorted(inflections(lex, w)) for w in (w1, w2, w3))
    dets = [()] + [tuple(d.split()) for d in inv.determiners]
    prep_dets = [tuple(p.split()) + det for p in inv.prepositions for det in dets]

    def middles(t3: str) -> list[tuple[str, ...]]:
        plural = is_plural(lex, t3)
        out = list(prep_dets)
        for compl in inv.complementizers:
            for cop in inv.copulas:
                if (cop in ("is", "was") and plural) or (cop in ("are", "were") and not plural):
                    continue
                out += [(compl, cop) + rest for rest in dets + prep_dets]
        return out

    left = [(t3, *m, w1, t2) for t3 in i3 for t2 in i2 for m in middles(t3)]
    right = [(w2, t3, *m, t1) for t3 in i3 for t1 in i1 for m in middles(t3)]
    return list(dict.fromkeys(left)), list(dict.fromkeys(right))


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
