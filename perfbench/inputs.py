"""Seeded synthetic inputs for the benchmark workloads.

Everything is built from the bundled resources: the biomedical triples,
the coordination rows, the lexicon's inflections and the paraphrase
inventory's function words.  Sentence templates realise the items the
workload later decides (compounds, their paraphrases, coordinations, PP
patterns and orthographic cues), so that voters fire instead of
abstaining.  The same seed gives byte-identical corpora and items: every
random choice is made from a sorted list with one ``random.Random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from npstruct import datasets, tagging
from npstruct.assoc import NounTriple
from npstruct.coordination import CoordQuad
from npstruct.decisions import LEFT, NOUN, NOUN_COORD, NP_COORD, RIGHT, VERB
from npstruct.morphology import MorphLexicon, inflections, is_plural
from npstruct.ppattach import PPQuad
from npstruct.relsim import SemevalExample

# Corpus size (sentences) of each workload.
SENTENCES = {"bracket": 3_000, "attach": 100_000, "relsim": 10_000}
WORKLOADS = tuple(SENTENCES)

BRACKET_SAMPLE = 429
PP_QUADS = 428
SAT_BLOCKS = 60
SEMEVAL_TRAIN = 12
SEMEVAL_TEST = 60

# Share of an item's realisations that carry the cue of its gold label.
GOLD_BIAS = 0.75

COMMON_PREPS = ("of", "in", "for", "with", "on", "from", "to", "by", "at", "about")
PP_PREPS = ("in", "for", "with", "on", "from", "to", "by", "at", "about", "into", "of")

# Relation families for the relsim workload: the joining phrases that
# realise each relation between two nouns, and its semeval label.
RELATIONS = {
    "cause": ("causes", "caused", "can cause", "produces"),
    "contain": ("contains", "holds", "included"),
    "location": ("in", "at", "is located in"),
    "part": ("of", "consists of", "within"),
    "use": ("uses", "is used for", "serves"),
    "make": ("makes", "made", "is derived from"),
    "link": ("and", "or", "with"),
    "meet": ("meets", "joins", "leads"),
}


@dataclass(frozen=True)
class Item:
    """One decision the timed phase makes."""

    kind: str  # bracket, coord, pp, sat or semeval
    key: str  # stable text naming the item, for digests
    args: tuple
    gold: object


@dataclass
class Inputs:
    """A workload's generated corpus and items."""

    lines: list[str]
    tagged: bool
    items: list[Item]
    semeval_train: list[tuple[SemevalExample, bool]]
    tagger: tagging.TinyTagger | None = None

    def write_corpus(self, path: Path) -> None:
        if self.tagged:
            tagging.write_tagged_corpus(self.lines, self.tagger, path)
        else:
            with path.open("w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in self.lines)


class _Vocab:
    """Sorted word lists drawn from the bundled resources."""

    def __init__(self) -> None:
        self.lex: MorphLexicon = datasets.default_lexicon()
        inv = datasets.default_inventory()
        self.triples = datasets.biomedical_bracketing()
        self.coords = datasets.treebank_coordination()
        self.verbs = sorted(
            lemma
            for lemma, forms in self.lex.forms_by_lemma.items()
            if lemma not in ("be", "have", "do") and any(f.endswith("ing") for f in forms)
        )
        self.verb_forms = sorted({f for v in self.verbs for f in self.forms(v)})
        self.dets = list(inv.determiners)
        self.compls = list(inv.complementizers)
        self.copulas = list(inv.copulas)
        self.preps = list(inv.prepositions)
        self.prep_weights = [5 if p in COMMON_PREPS else 1 for p in self.preps]
        words = {w for t, _ in self.triples for w in t.words()}
        words |= {
            w for q, _ in self.coords for w in (q.n1, q.n2, q.h) if w.isalpha() and w.islower()
        }
        self.nouns = sorted(words - set(self.verb_forms))

    def forms(self, word: str) -> list[str]:
        return sorted(inflections(self.lex, word))


def _cap(text: str) -> str:
    return text[:1].upper() + text[1:]


class _Writer:
    """Sentence carriers shared by all workloads."""

    def __init__(self, rng: random.Random, vocab: _Vocab):
        self.rng = rng
        self.v = vocab

    def det(self) -> str:
        """A determiner followed by a space, or nothing."""
        r = self.rng.random()
        if r < 0.45:
            return "the "
        if r < 0.6:
            return ""
        return self.rng.choice(self.v.dets) + " "

    def prep(self) -> str:
        return self.rng.choices(self.v.preps, self.v.prep_weights)[0]

    def noun(self) -> str:
        return self.rng.choice(self.v.nouns)

    def verb(self) -> str:
        return self.rng.choice(self.v.verb_forms)

    def carry(self, fragment: str) -> str:
        """Embed a fragment in a sentence with function-word context."""
        r = self.rng.randrange(4)
        if r == 0:
            return f"{_cap(self.det() or 'the ')}{fragment} {self.verb()} {self.prep()} {self.det()}{self.noun()}."
        if r == 1:
            return f"We {self.verb()} {self.det()}{fragment} {self.prep()} {self.det()}{self.noun()}."
        if r == 2:
            return f"{_cap(self.noun())} {self.verb()} {fragment}, {self.rng.choice(('and', 'or'))} {self.det()}{self.noun()}."
        return f"In {self.det()}{self.noun()} {fragment} {self.verb()} {self.det()}{self.noun()}."

    def filler(self) -> str:
        return (
            f"{_cap(self.det() or 'the ')}{self.noun()} {self.verb()} {self.prep()} "
            f"{self.det()}{self.noun()} {self.rng.choice(('and', 'or'))} {self.det()}{self.noun()}."
        )


def _side(rng: random.Random, gold: str, other: str) -> str:
    return gold if rng.random() < GOLD_BIAS else other


def _bracket_fragment(w: _Writer, triple: NounTriple, gold: str) -> str:
    rng, v = w.rng, w.v
    w1, w2, w3 = triple.words()
    t1, t2, f3 = rng.choice(v.forms(w1)), rng.choice(v.forms(w2)), rng.choice(v.forms(w3))
    side = _side(rng, gold, RIGHT if gold == LEFT else LEFT)
    kind = rng.randrange(10)
    if kind <= 1:
        return f"{w1} {w2} {f3}"
    if kind <= 3:
        head, tail = ((f3,), f"{w1} {t2}") if side == LEFT else ((w2, f3), t1)
        if rng.random() < 0.3:
            cop = rng.choice([c for c in v.copulas if (c in ("are", "were")) == is_plural(v.lex, f3)])
            return f"{' '.join(head)} {rng.choice(v.compls)} {cop} {w.prep()} {w.det()}{tail}"
        return f"{' '.join(head)} {w.prep()} {w.det()}{tail}"
    if kind <= 5:
        return f"{w1} {t2}" if side == LEFT else rng.choice((f"{w2} {f3}", f"{w1} {f3}"))
    if side == LEFT:
        cues = (
            f"{w1}-{w2} {f3}", f"{w1} {w2}'s {f3}", f"({w1} {w2}) {f3}",
            f"{w1} {w2} {_cap(f3)}", f"{w1}{w2} {f3}", f"{w1} {w2} ({(w1[0] + w2[0]).upper()}) {f3}",
        )
    else:
        cues = (
            f"{w1} {w2}-{f3}", f"{w1}'s {w2} {f3}", f"{w1} ({w2} {f3})",
            f"{w1} {_cap(w2)} {f3}", f"{w1} {w2}{f3}", f"{w1} {w2} {f3} ({(w2[0] + w3[0]).upper()})",
        )
    return rng.choice(cues)


def _coord_fragment(w: _Writer, quad: CoordQuad, gold: str) -> str:
    rng, v = w.rng, w.v
    n1, c, n2 = quad.n1, quad.c, quad.n2
    fh = rng.choice(v.forms(quad.h))
    side = _side(rng, gold, NP_COORD if gold == NOUN_COORD else NOUN_COORD)
    if rng.random() < 0.3:
        return f"{n1} {c} {n2} {fh}"
    if side == NOUN_COORD:
        cues = (
            f"{n2} {c} {n1} {fh}", f"{n1} {fh} {c} {n2} {fh}", f"{n2} {fh} {c} {n1} {fh}",
            f"{n1}- {c} {n2} {fh}", f"({n1} {c} {n2}) {fh}", f"{n1} {c} {n2}, {fh}", f"{n1} {fh}",
        )
    else:
        cues = (
            f"{n2} {fh} {c} {n1}", f"({n1}) {c} {n2} {fh}", f"{n1} ({c} {n2} {fh})",
            f"{n1}, {c} {n2} {fh}", f"{n2} {fh}",
        )
    return rng.choice(cues)


def _pp_fragment(w: _Writer, quad: PPQuad, gold: str) -> str:
    rng, v = w.rng, w.v
    fv, f1, f2 = rng.choice(v.forms(quad.v)), rng.choice(v.forms(quad.n1)), rng.choice(v.forms(quad.n2))
    p, d = quad.p, rng.choice(v.dets)
    side = _side(rng, gold, VERB if gold == NOUN else NOUN)
    if rng.random() < 0.3:
        return f"{fv} {w.det()}{f1} {p} {w.det()}{f2}"
    if side == NOUN:
        cues = (
            f"{fv} {d} {f2} {f1}", f"{f1} {p} {f2} {fv}", f"{f1} {p} {d} {f2} {fv}",
            f"is {f1} {p} {f2}", f"({fv}) {f1} {p} {f2}", f"{fv} ({f1} {p} {f2})",
            f"{fv}, {f1} {p} {f2}", f"{fv} {_cap(f1)} {p} {f2}", f"{f1} {p} {w.det()}{f2}",
        )
    else:
        cues = (
            f"{fv} {p} {f2} {d} {f1}", f"{p} {f2} {fv} {f1}", f"{p} {f2} {w.noun()} {fv} {f1}",
            f"{fv} him {p} {f2}", f"({fv} {f1}) {p} {f2}", f"{fv} {f1} ({p} {f2})",
            f"{fv} {f1}, {p} {f2}", f"{fv} {f1} {_cap(p)} {f2}", f"{fv} {p} {w.det()}{f2}",
        )
    return rng.choice(cues)


def _realise(w: _Writer, n: int, items: list[Item], fragment) -> list[str]:
    """``n`` sentences realising the items in turn, so each gets the same share."""
    return [
        w.carry(fragment(w, items[i % len(items)].args[0], items[i % len(items)].gold))
        for i in range(n)
    ]


def _bracket(rng: random.Random, v: _Vocab, n: int) -> Inputs:
    sample = rng.sample(v.triples, BRACKET_SAMPLE)
    items = [Item("bracket", " ".join(t.words()), (t,), gold) for t, gold in sample]
    w = _Writer(rng, v)
    lines = _realise(w, n * 6 // 10, items, _bracket_fragment)
    lines += [w.filler() for _ in range(n - len(lines))]
    rng.shuffle(lines)
    return Inputs(lines, False, items, [])


def _pp_quads(rng: random.Random, v: _Vocab) -> list[tuple[PPQuad, str]]:
    return [
        (
            PPQuad(rng.choice(v.verbs), rng.choice(v.nouns), rng.choice(PP_PREPS), rng.choice(v.nouns)),
            rng.choice((NOUN, VERB)),
        )
        for _ in range(PP_QUADS)
    ]


def _attach(rng: random.Random, v: _Vocab, n: int) -> Inputs:
    coords = list(v.coords)
    rng.shuffle(coords)
    quads = _pp_quads(rng, v)
    coord_items = [Item("coord", " ".join((q.n1, q.c, q.n2, q.h)), (q,), g) for q, g in coords]
    pp_items = [Item("pp", " ".join((q.v, q.n1, q.p, q.n2)), (q,), g) for q, g in quads]
    # Alternate the two kinds so every prefix of the item list has the same mix.
    items = [it for pair in zip(coord_items, pp_items) for it in pair]
    w = _Writer(rng, v)
    lines = _realise(w, n // 4, coord_items, _coord_fragment)
    lines += _realise(w, n // 4, pp_items, _pp_fragment)
    lines += [w.filler() for _ in range(n - len(lines))]
    rng.shuffle(lines)
    return Inputs(lines, False, items, [])


def _relsim(rng: random.Random, v: _Vocab, n: int) -> Inputs:
    tagger = tagging.TinyTagger(verbs=frozenset(v.verbs), lex=v.lex)
    nouns = [x for x in v.nouns if tagger.tag_word(x) == "N"]
    relations = sorted(RELATIONS)
    picked = rng.sample(nouns, 2 * 15 * len(relations))
    pairs = {
        rel: [(picked[2 * (15 * r + k)], picked[2 * (15 * r + k) + 1]) for k in range(15)]
        for r, rel in enumerate(relations)
    }
    w = _Writer(rng, v)

    def join(pair: tuple[str, str], rel: str) -> str:
        a, b = pair
        return f"the {a} {rng.choice(RELATIONS[rel])} {w.det()}{b}"

    lines = []
    for _ in range(n):
        if rng.random() < 0.7:
            rel = rng.choice(relations)
            lines.append(f"{join(rng.choice(pairs[rel]), rel)} {w.prep()} the {w.noun()}")
        else:
            lines.append(f"the {w.noun()} {w.verb()} {w.prep()} the {w.noun()}")

    def block() -> Item:
        rel = rng.choice(relations)
        stem, gold_pair = rng.sample(pairs[rel], 2)
        others = rng.sample([r for r in relations if r != rel], 4)
        cands = [rng.choice(pairs[r]) for r in others] + [gold_pair]
        rng.shuffle(cands)
        key = " ".join(stem) + " :: " + " | ".join(" ".join(c) for c in cands)
        return Item("sat", key, (stem, cands), cands.index(gold_pair))

    def example(rel_label: str) -> tuple[SemevalExample, bool]:
        rel = rng.choice(relations)
        pair = rng.choice(pairs[rel])
        tokens = tuple(join(pair, rel).split())
        return SemevalExample(tokens, (1, 1), (len(tokens) - 1, len(tokens) - 1), rel_label), rel == rel_label

    target = rng.choice(relations)
    train = [example(target) for _ in range(SEMEVAL_TRAIN)]
    sat = [block() for _ in range(SAT_BLOCKS)]
    semeval = []
    for _ in range(SEMEVAL_TEST):
        ex, gold = example(target)
        semeval.append(Item("semeval", " ".join(ex.tokens), (ex,), gold))
    items = [it for pair in zip(sat, semeval) for it in pair]
    return Inputs(lines, True, items, train, tagger)


_BUILDERS = {"bracket": _bracket, "attach": _attach, "relsim": _relsim}


def generate(workload: str, seed: int, sentences: int | None = None) -> Inputs:
    """The inputs of ``workload`` for ``seed``; ``sentences`` overrides the corpus size."""
    return _BUILDERS[workload](random.Random(seed), _Vocab(), sentences or SENTENCES[workload])
