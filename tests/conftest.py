"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import re
from collections import Counter
from itertools import count
from pathlib import Path

import pytest

from npstruct.assoc import NounTriple
from npstruct.corpus import CorpusIndex, CountQuery, IndexProvider, IngestConfig, build_index
from npstruct.morphology import MorphLexicon, inflections, is_plural
from npstruct.paraphrase import ParaphraseInventory
from npstruct.relsim import DIR_12, DIR_21, PairFeature, _classify_connector, _segment

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

# The characters besides \n and \r at which ``str.splitlines`` breaks.
# Inside a line of a corpus or a row file they are text, not line ends.
NOT_NEWLINES = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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


def noun_runs(tags, noun, start: int, stop: int) -> list[tuple[int, int]]:
    """Maximal [first, last] spans of positions ``start:stop`` whose tag is ``noun``."""
    runs = []
    first = None
    for i in range(start, stop):
        if tags[i] == noun:
            if first is None:
                first = i
        elif first is not None:
            runs.append((first, i - 1))
            first = None
    if first is not None:
        runs.append((first, stop - 1))
    return runs


def sentence_pair_features(
    index: CorpusIndex, noun, start: int, stop: int, i1, i2, lex: MorphLexicon
):
    """The joining features of one tagged sentence, in sentence order.

    The sentence is stream positions ``start:stop``, read in place.
    ``noun`` is the noun tag's id, and ``i1`` and ``i2`` are the token
    ids of the two nouns' inflections.  Every pair of adjacent noun runs
    in the sentence is tested, with no use of the postings.
    """
    runs = noun_runs(index.tags, noun, start, stop)
    heads = [index.stream[last] for _first, last in runs]
    for (run_a, head_a), (run_b, head_b) in zip(
        zip(runs, heads), zip(runs[1:], heads[1:])
    ):
        if head_a in i1 and head_b in i2:
            direction = DIR_12
        elif head_a in i2 and head_b in i1:
            direction = DIR_21
        else:
            continue
        if not 0 < run_b[0] - run_a[1] - 1 <= 8:
            continue
        between = _segment(index, run_a[1] + 1, run_b[0])
        if any(tag == "S" for _w, tag in between):
            continue
        feat = _classify_connector(between, lex)
        if feat is not None:
            lexeme, kind = feat
            yield PairFeature(lexeme, kind, direction)


def scan_pair_features(index: CorpusIndex, noun1: str, noun2: str, lex: MorphLexicon) -> Counter:
    """``extract_pair_features`` by a scan of every sentence of a tagged index.

    A sentence's bounds in the stream come from the number of tokens in
    its text, which the reference normalization counts.
    """
    noun = index.tag_vocab.index("N") if "N" in index.tag_vocab else None
    i1, i2 = (index.encode(inflections(lex, w)) for w in (noun1, noun2))
    features: Counter = Counter()
    start = 0
    for sid in count():
        try:
            stop = start + len(normalize_line(index.text(sid)))
        except IndexError:  # past the last sentence
            return features
        features.update(sentence_pair_features(index, noun, start, stop, i1, i2, lex))
        start = stop


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


# Not a dataclass: the benchmark loads this file by path as an unregistered
# module, where ``@dataclass`` fails (``test_conftest_loads_on_its_own``).
class MappingProvider:
    """A provider answering from a canonical-key -> count table.

    Unknown queries count 0; a snippet query returns its entry of
    ``snippet_table``, cut to the limit, or nothing.
    """

    def __init__(
        self,
        counts: dict[str, int] | None = None,
        total_tokens: int = 1,
        snippet_table: dict[str, list[str]] | None = None,
    ):
        self.counts = {} if counts is None else counts
        self.total_tokens = total_tokens
        self.snippet_table = {} if snippet_table is None else snippet_table

    def count(self, query: CountQuery) -> int:
        return self.counts.get(query.canonical(), 0)

    def total(self) -> int:
        return self.total_tokens

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        return self.snippet_table.get(query.canonical(), [])[:limit]


def lexicon(entries: dict[str, list[str]]) -> MorphLexicon:
    """A lexicon of ``lemma -> forms`` entries, filled by ``add`` as ``load`` fills one."""
    lex = MorphLexicon()
    for lemma, forms in entries.items():
        lex.add(lemma, forms)
    return lex


class CountRecorder:
    """Count through ``provider``, keeping each query and its count in order."""

    def __init__(self, provider):
        self.provider = provider
        self.counts: list[tuple[CountQuery, int]] = []

    @property
    def keys(self) -> list[str]:
        """The canonical key of each counted query."""
        return [query.canonical() for query, _n in self.counts]

    def count(self, query):
        n = self.provider.count(query)
        self.counts.append((query, n))
        return n

    def total(self):
        return self.provider.total()

    def snippets(self, query, limit):
        return self.provider.snippets(query, limit)


class FixedSnippets:
    """A provider that counts nothing and answers every snippet query with ``texts``."""

    def __init__(self, texts: list[str]):
        self.texts = texts

    def count(self, query):
        return 0

    def total(self):
        return 1

    def snippets(self, query, limit):
        return self.texts[:limit]


# Sentences in the ``perfbench`` attach corpora the voter digests run over.
ATTACH_SENTENCES = 20_000


@pytest.fixture(scope="session")
def attach_corpus(tmp_path_factory):
    """``seed`` -> (items, provider) of a seeded ``perfbench`` attach corpus, built once."""
    # Imported here: the benchmark loads this file on its own, as its count oracle.
    from perfbench import inputs

    built = {}

    def get(seed: int):
        if seed not in built:
            generated = inputs.generate("attach", seed, ATTACH_SENTENCES)
            path = tmp_path_factory.mktemp(f"attach{seed}") / "corpus.txt"
            generated.write_corpus(path)
            built[seed] = generated.items, IndexProvider(build_index(path))
        return built[seed]

    return get


@pytest.fixture
def small_lex() -> MorphLexicon:
    """A compact in-memory lexicon covering the words the tests use."""
    return lexicon(
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
