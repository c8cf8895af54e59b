"""Relational similarity between noun pairs via connecting lexical features.

The relation holding inside a noun pair is characterized by the verbs,
prepositions, and coordinating conjunctions that join the two nouns in
corpus sentences, each kept with the direction it was seen in.  Pairs
are compared with TF.IDF-weighted generalized Dice similarity and
classified by one nearest neighbor, which covers verbal analogy
problems, head-modifier relation labeling, and binary relation
checking between entity mentions.
"""

from __future__ import annotations

import math
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import porter
from .corpus import CorpusIndex
from .morphology import (
    BE_FORMS,
    DO_FORMS,
    HAVE_FORMS,
    MODALS,
    MorphLexicon,
    inflections,
    lemma,
)

DIR_12 = "1->2"
DIR_21 = "2->1"

ADVERBS = frozenset(
    """not also only usually often always never eventually typically
    really just sometimes generally mainly mostly frequently""".split()
)


class PairFeature(NamedTuple):
    """One joining lexeme, its kind (``V``, ``P`` or ``C``) and its direction."""

    lexeme: str
    kind: str
    direction: str


class _Kept:
    """One value kept for the objects it was made for, without keeping them alive.

    The objects are matched by identity through weak references, so an
    object that reuses a freed one's id never matches, and the value is
    dropped as soon as any of them is freed.  Keeping a new value drops
    the old one.
    """

    def __init__(self) -> None:
        self._refs: tuple[weakref.ref, ...] = ()
        self._value = None

    def get(self, *objects):
        """The value kept for exactly ``objects``, or None."""
        refs = self._refs
        if len(refs) == len(objects) and all(r() is o for r, o in zip(refs, objects)):
            return self._value
        return None

    def keep(self, value, *objects):
        """Keep ``value`` for ``objects`` in place of any earlier value; returns it."""
        self._refs = tuple(weakref.ref(o, self._drop) for o in objects)
        self._value = value
        return value

    def _drop(self, _ref: weakref.ref) -> None:
        self._refs, self._value = (), None


# The connector table of the last (index, lexicon) pair features were
# extracted with: each gap's (token-id bytes, tag-id bytes) mapped to its
# two PairFeatures, 1->2 then 2->1, or to None if it joins by nothing.
# The keys are that index's ids, so the table serves no other index.
_connectors = _Kept()
# The noun mask (``_noun_mask``) of the last index pair features were extracted from.
_masks = _Kept()


def _noun_mask(index: CorpusIndex) -> bytes:
    """One byte per stream position of a tagged index: 1 where the tag is ``N``, else 0."""
    if not index.tagged:
        raise ValueError("tags required")
    tags, tag_vocab = index.tags, index.tag_vocab
    noun = tag_vocab.index("N") if "N" in tag_vocab else -1  # -1 is no tag's id
    if tags.itemsize == 1:
        return tags.tobytes().translate(bytes(i == noun for i in range(256)))
    return bytes(map(noun.__eq__, tags))


def _segment(
    index: CorpusIndex, toks: Sequence[int], tags: Sequence[int], start: int, stop: int
) -> list[tuple[str, str]]:
    """Positions ``start:stop`` of token and tag ids read back as (word, tag) strings."""
    words, tag_names = index.vocab, index.tag_vocab
    return [(words[toks[i]], tag_names[tags[i]]) for i in range(start, stop)]


def _verb_group(
    segment: list[tuple[str, str]], lex: MorphLexicon
) -> tuple[str, str | None] | None:
    """Reduce a connector segment to (verb lexeme, optional preposition).

    The segment must be one verb phrase: optional complementizer,
    modals and auxiliaries, one main verb, an optional preposition,
    then only determiners or adjectives before the object.  Modals and
    auxiliaries are dropped, the passive ``be`` is retained with its
    unlemmatized participle, and the main verb is lemmatized.
    """
    toks = list(segment)
    if toks and toks[0][1] == "W":
        toks = toks[1:]
    while toks and toks[-1][1] in ("D", "J"):
        toks.pop()
    toks = [t for t in toks if t[1] != "R" and t[0] not in ADVERBS]
    if not toks:
        return None
    prep: str | None = None
    if toks[-1][1] == "P":
        prep = toks[-1][0]
        toks = toks[:-1]
    if not toks or any(t[1] not in ("M", "A", "V") for t in toks):
        return None
    words = [t[0] for t in toks if t[1] != "M" and t[0] not in MODALS]
    if not words:
        return None
    if words[0] in HAVE_FORMS and len(words) > 1:
        words = words[1:]
    if words[0] in DO_FORMS and len(words) > 1:
        words = words[1:]
    if words[0] in BE_FORMS:
        if len(words) == 1:
            return ("be", prep)
        main = words[-1]
        if main.endswith("ing"):
            return (lemma(lex, main), prep)
        return ("be " + main, prep)
    if len(words) != 1:
        return None
    return (lemma(lex, words[0]), prep)


def extract_pair_features(
    index: CorpusIndex,
    noun1: str,
    noun2: str,
    lex: MorphLexicon,
) -> Counter[PairFeature]:
    """Mine directed joining features for an ordered noun pair.

    Whenever two adjacent noun-phrase heads (the last tokens of two noun
    runs with 1 to 8 tokens between them) realize the two targets, the
    material between them is classified as a verb (with optional
    preposition), a bare preposition, or a coordinating conjunction.  The
    heads are found from the postings: each occurrence of the rarer noun
    that ends a run, in a sentence that also holds the other noun, is
    walked out to the runs on either side, in place in the index's
    columns.  The features come in corpus order, as a scan of every
    sentence finds them.  Each distinct connector is classified once per
    index and lexicon: the table of classified gaps lasts until a call
    with another index or lexicon, or until either is freed.  The noun
    mask is kept per index in the same way.
    """
    mask = _masks.get(index)
    if mask is None:
        mask = _masks.keep(_noun_mask(index), index)
    i1, i2 = inflections(lex, noun1), inflections(lex, noun2)
    ids1, ids2 = index.encode(i1), index.encode(i2)
    if index.size(ids1) <= index.size(ids2):
        rare, occurrences = ids1, index.occurrences(i1, within=i2)
    else:
        rare, occurrences = ids2, index.occurrences(i2, within=i1)
    table = _connectors.get(index, lex)
    if table is None:
        table = _connectors.keep({}, index, lex)
    stream, tags = index.stream, index.tags
    counts: dict[PairFeature, int] = {}
    for head_a, start, stop, head_b in _joins(stream, mask, rare, occurrences):
        if head_a in ids1 and head_b in ids2:
            side = 0
        elif head_a in ids2 and head_b in ids1:
            side = 1
        else:
            continue
        key = (stream[start:stop].tobytes(), tags[start:stop].tobytes())
        if key not in table:
            feat = _classify_connector(_segment(index, stream, tags, start, stop), lex)
            table[key] = None if feat is None else (
                PairFeature(*feat, DIR_12), PairFeature(*feat, DIR_21)
            )
        pair = table[key]
        if pair is not None:
            feat = pair[side]
            counts[feat] = counts.get(feat, 0) + 1
    return Counter(counts)


def _joins(
    stream: array,
    mask: bytes,
    rare: frozenset[int],
    occurrences: Iterable[tuple[int, int, int]],
) -> list[tuple[int, int, int, int]]:
    """Each pair of adjacent noun runs 1 to 8 tokens apart that has a head in ``rare``.

    ``occurrences`` are those of tokens in ``rare``, in corpus order, as
    ``CorpusIndex.occurrences`` gives them, and ``mask`` is the index's
    ``_noun_mask``.  Gives the first run's head, the stream bounds of the
    gap after it, and the second run's head, in corpus order and once
    per pair.
    """
    joins = []
    for o, begin, end in occurrences:
        if not mask[o] or (o + 1 < end and mask[o + 1]):
            continue  # not a run's head
        start = o
        while start > begin and mask[start - 1]:
            start -= 1
        j, stop = start - 1, start - 10 if start - 10 >= begin else begin - 1
        while j > stop and not mask[j]:
            j -= 1
        # A previous head in ``rare`` gives this pair from its own occurrence.
        if j > stop and stream[j] not in rare:
            joins.append((stream[j], j + 1, start, stream[o]))
        k, stop = o + 1, o + 10 if o + 10 < end else end
        while k < stop and not mask[k]:
            k += 1
        if k < stop:
            last = k
            while last + 1 < end and mask[last + 1]:
                last += 1
            joins.append((stream[o], o + 1, k, stream[last]))
    return joins


def _classify_connector(
    between: list[tuple[str, str]], lex: MorphLexicon
) -> tuple[str, str] | None:
    """The (lexeme, kind) a gap's (word, tag) pairs join by, or None if none or any is tagged S."""
    if any(tag == "S" for _w, tag in between):
        return None
    end = len(between)
    while end and between[end - 1][1] in ("D", "J", "R"):
        end -= 1
    core = between[:end]
    if len(core) == 1 and core[0][1] == "P":
        return (core[0][0], "P")
    if len(core) == 1 and core[0][1] == "C":
        return (core[0][0], "C")
    if any(tag in ("M", "A", "V") for _w, tag in core):
        group = _verb_group(between, lex)
        if group is not None:
            verb, prep = group
            lexeme = f"{verb} {prep}" if prep else verb
            return (lexeme, "V")
    return None


@dataclass
class TfidfWeights:
    """Document frequencies over a training collection of pairs."""

    df: dict = field(default_factory=dict)
    n: int = 1

    @classmethod
    def fit(cls, vectors: list[dict]) -> "TfidfWeights":
        if not vectors:
            raise ValueError("need at least one vector")
        df: dict = {}
        for vec in vectors:
            for feat in vec:
                df[feat] = df.get(feat, 0) + 1
        return cls(df, len(vectors))

    def weight(self, vec: dict) -> dict:
        """w(x) = TF(x) * log(N / DF(x)); unseen features get DF = 1."""
        out = {}
        for feat, tf in vec.items():
            df = self.df.get(feat, 1)
            out[feat] = tf * math.log(self.n / df)
        return out


def dice(a: dict, b: dict) -> float:
    """Generalized Dice: 2 Σ min(a_i, b_i) / (Σ a_i + Σ b_i), and 0.0 when both sums are 0."""
    total = sum(a.values()) + sum(b.values())
    if total == 0:
        return 0.0
    shared = sum(min(a[k], b[k]) for k in a.keys() & b.keys())
    return 2 * shared / total


def knn_classify(train: list[tuple[dict, str]], query: dict) -> str | None:
    """Label of the nearest neighbor by Dice similarity.

    Ties at the maximum fall to the majority label among the tied
    neighbors; without a strict majority the classifier abstains
    (returns None).
    """
    if not train:
        raise ValueError("train must be nonempty")
    sims = [(dice(vec, query), label) for vec, label in train]
    best = max(s for s, _ in sims)
    tied = [label for s, label in sims if s == best]
    if len(tied) == 1:
        return tied[0]
    counts = Counter(tied).most_common()
    if len(counts) == 1 or counts[0][1] > counts[1][1]:
        return counts[0][0]
    return None


def solve_sat(
    stem_pair: tuple[str, str],
    candidates: list[tuple[str, str]],
    index: CorpusIndex,
    lex: MorphLexicon,
) -> int | None:
    """Pick the candidate pair most relationally similar to the stem.

    Returns the index of the unique highest-Dice candidate, or None
    when two or more candidates tie at the maximum.
    """
    if not 1 <= len(candidates) <= 5:
        raise ValueError("need 1..5 candidate pairs")
    vectors = [dict(extract_pair_features(index, *p, lex)) for p in [stem_pair, *candidates]]
    weights = TfidfWeights.fit(vectors)
    weighted = [weights.weight(v) for v in vectors]
    stem_vec, cand_vecs = weighted[0], weighted[1:]
    scores = [dice(stem_vec, v) for v in cand_vecs]
    best = max(scores)
    winners = [i for i, s in enumerate(scores) if s == best]
    if len(winners) == 1:
        return winners[0]
    return None


# Context words a SemEval vector leaves out.
STOPWORDS = frozenset(
    """a an the of in on at by for with from to into about over under and
    or but nor is are was were be been being am do does did have has had
    this that these those it its his her their our your my i you he she
    we they them him us as not no yes if then than so such there here what
    when who whom which while very can could may might must shall should
    will would""".split()
)


@dataclass(frozen=True)
class SemevalExample:
    """A sentence with two entity spans and a candidate relation."""

    tokens: tuple[str, ...]
    e1: tuple[int, int]
    e2: tuple[int, int]
    relation: str
    query: str = ""

    def entity_head(self, which: int) -> str:
        start, end = self.e1 if which == 1 else self.e2
        return self.tokens[end].lower()


def semeval_vector(
    example: SemevalExample,
    lex: MorphLexicon,
    *,
    pair_features: dict | None = None,
) -> dict:
    """Feature vector: stemmed context words, entity lemmas, query words."""
    vec: Counter = Counter()
    spans = set(range(*example.e1)) | {example.e1[1]}
    spans |= set(range(*example.e2)) | {example.e2[1]}
    for i, tok in enumerate(example.tokens):
        w = tok.lower()
        if i in spans:
            vec[("ent", lemma(lex, w))] += 1
        elif w not in STOPWORDS:
            vec[("ctx", porter.stem(w))] += 1
    for w in example.query.lower().split():
        vec[("query", w)] += 1
    if pair_features:
        for feat, tf in pair_features.items():
            vec[("pair", feat)] += tf
    return dict(vec)


def _semeval_features(
    example: SemevalExample, lex: MorphLexicon, index: CorpusIndex | None
) -> dict:
    """``semeval_vector`` of ``example``, with its heads' pair features if ``index``."""
    pair = None
    if index is not None:
        pair = dict(
            extract_pair_features(index, example.entity_head(1), example.entity_head(2), lex)
        )
    return semeval_vector(example, lex, pair_features=pair)


@dataclass(frozen=True)
class SemevalModel:
    """Binary relation check by 1-NN over weighted example vectors.

    ``fit`` extracts and weights the training vectors once; ``classify``
    then extracts only the test example's.  Entity heads sharing a lemma
    force a negative, and an abstaining neighbor vote falls back to the
    training majority label.  With an ``index``, which must be tagged,
    the entity heads' pair features join each vector.
    """

    lex: MorphLexicon
    index: CorpusIndex | None
    weights: TfidfWeights
    neighbours: list[tuple[dict, str]]
    majority: str

    @classmethod
    def fit(
        cls,
        train: Sequence[tuple[SemevalExample, bool]],
        lex: MorphLexicon,
        index: CorpusIndex | None = None,
    ) -> "SemevalModel":
        if not train:
            raise ValueError("train must be nonempty")
        vectors = [_semeval_features(ex, lex, index) for ex, _ in train]
        weights = TfidfWeights.fit(vectors)
        labels = ["true" if label else "false" for _, label in train]
        trues = labels.count("true")
        majority = "true" if trues >= len(labels) - trues else "false"
        neighbours = list(zip(map(weights.weight, vectors), labels))
        return cls(lex, index, weights, neighbours, majority)

    def vector(self, example: SemevalExample) -> dict:
        """The weighted vector ``example`` is compared by."""
        return self.weights.weight(_semeval_features(example, self.lex, self.index))

    def classify(self, example: SemevalExample) -> bool:
        """Whether ``example``'s entities hold the relation."""
        if lemma(self.lex, example.entity_head(1)) == lemma(self.lex, example.entity_head(2)):
            return False
        return (knn_classify(self.neighbours, self.vector(example)) or self.majority) == "true"


# The last fit ``semeval_classify`` made with an index, kept for its
# lexicon and index: its training set and its fitted parts.
_fits = _Kept()


def semeval_classify(
    example: SemevalExample,
    train: list[tuple[SemevalExample, bool]],
    lex: MorphLexicon,
    *,
    index: CorpusIndex | None = None,
) -> bool:
    """``SemevalModel.fit(train, lex, index).classify(example)``.

    A call with an ``index`` reuses the previous such call's fit when the
    training set is equal and ``lex`` and ``index`` are the same objects;
    both are immutable once built.  Only weak references to them are
    kept, so a dropped index is freed and never matches again.
    """
    key = tuple(train)
    if index is not None:
        fit = _fits.get(lex, index)
        if fit is not None and fit[0] == key:
            return SemevalModel(lex, index, *fit[1]).classify(example)
    model = SemevalModel.fit(train, lex, index)
    if index is not None:
        _fits.keep((key, (model.weights, model.neighbours, model.majority)), lex, index)
    return model.classify(example)


@dataclass(frozen=True)
class BinaryScores:
    """Precision, recall, F-measure, and accuracy for boolean labels."""

    precision: float
    recall: float
    f1: float
    accuracy: float


def score_binary(predictions: list[bool], gold: list[bool]) -> BinaryScores:
    if len(predictions) != len(gold):
        raise ValueError("predictions and gold must align")
    tp = sum(1 for p, g in zip(predictions, gold) if p and g)
    fp = sum(1 for p, g in zip(predictions, gold) if p and not g)
    fn = sum(1 for p, g in zip(predictions, gold) if not p and g)
    tn = sum(1 for p, g in zip(predictions, gold) if not p and not g)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / len(gold) if gold else 0.0
    return BinaryScores(precision, recall, f1, accuracy)


def dump_pair_features(
    rows: list[tuple[str, str, Counter[PairFeature]]], path: str | Path
) -> None:
    """Write pair features as TSV: noun1 noun2 lexeme kind direction freq."""
    lines = []
    for noun1, noun2, feats in rows:
        for feat, freq in sorted(
            feats.items(), key=lambda kv: (-kv[1], kv[0].lexeme)
        ):
            lines.append(
                f"{noun1}\t{noun2}\t{feat.lexeme}\t{feat.kind}\t{feat.direction}\t{freq}"
            )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
