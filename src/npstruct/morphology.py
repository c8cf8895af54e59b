"""Inflectional variants and lemmas for nouns and verbs.

A small lexicon file supplies known paradigms; a deterministic rule
fallback covers everything else so that counting code can always expand
a word into the set of forms it should be summed over.  The closed-class
word lists that the tagger and the voters share live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

ARTICLES = frozenset({"a", "an", "the"})
OTHER_DETERMINERS = frozenset(
    """this that these those all each every some any no
    his her its my your our their""".split()
)
DETERMINERS = ARTICLES | OTHER_DETERMINERS
PRONOUNS = frozenset(
    """i you he she it we they me him her us them
    myself yourself himself herself itself ourselves yourselves themselves""".split()
)
PREPOSITIONS = frozenset(
    """of in on at by for with from to into onto about over under between
    among through during against across behind beyond near toward towards
    without within along around off up down out upon per via""".split()
)

BE_FORMS = frozenset("be is are was were am been being".split())
HAVE_FORMS = frozenset("have has had having".split())
DO_FORMS = frozenset("do does did".split())
AUXILIARIES = BE_FORMS | HAVE_FORMS | DO_FORMS
MODALS = frozenset("can could may might must shall should will would".split())

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = set("aeiou")


def _fallback_plural(word: str) -> str:
    """Pluralize by rule: -es after sibilants, -ies for consonant+y, else -s."""
    if word.endswith(_SIBILANT_ENDINGS):
        return word + "es"
    if len(word) >= 2 and word.endswith("y") and word[-2] not in _VOWELS:
        return word[:-1] + "ies"
    return word + "s"


@dataclass
class MorphLexicon:
    """Maps lemmas to their inflected forms and back.

    Loaded from a TSV file of lines ``lemma<TAB>form1,form2,...``.
    Lookup is case-insensitive.  Every lemma maps to itself.  ``add``
    fills a lexicon while it is built, as ``load`` does, and a built
    lexicon does not change, so its identity can key a cache.
    """

    forms_by_lemma: dict[str, frozenset[str]] = field(default_factory=dict)
    lemma_by_form: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "MorphLexicon":
        """Read a lexicon TSV file; only a newline ends a line."""
        lex = cls()
        text = Path(path).read_text(encoding="utf-8")
        for line in text.split("\n"):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            lemma, _, rest = line.partition("\t")
            forms = [f.strip().lower() for f in rest.split(",") if f.strip()]
            lex.add(lemma.strip().lower(), forms)
        return lex

    def add(self, lemma: str, forms: list[str]) -> None:
        full = frozenset({lemma, *forms})
        prior = self.forms_by_lemma.get(lemma, frozenset())
        full = full | prior
        self.forms_by_lemma[lemma] = full
        for form in full:
            self.lemma_by_form.setdefault(form, lemma)
        self.lemma_by_form[lemma] = lemma


def lemma(lex: MorphLexicon, word: str) -> str:
    """Return the lexicon lemma of ``word``, or a rule-based fallback.

    The fallback strips a plural suffix unconditionally, but strips
    verbal -ing/-ed only when the stripped stem is itself a known
    lemma, which keeps the function idempotent on unknown words.
    """
    w = word.lower()
    known = lex.lemma_by_form.get(w)
    if known is not None:
        return known
    if w.endswith("ies") and len(w) > 4:
        return w[:-3] + "y"
    if w.endswith("es") and len(w) > 3 and w[:-2].endswith(("ss", "x", "z", "ch", "sh")):
        return w[:-2]
    if w.endswith("s") and len(w) > 2 and not w.endswith("ss"):
        return w[:-1]
    for suffix in ("ing", "ed"):
        if w.endswith(suffix) and len(w) > len(suffix) + 2:
            stem = w[: -len(suffix)]
            if stem in lex.forms_by_lemma:
                return stem
            if stem + "e" in lex.forms_by_lemma:
                return stem + "e"
    return w


def inflections(lex: MorphLexicon, word: str) -> frozenset[str]:
    """All inflected variants of ``word``, always including ``word`` itself."""
    w = word.lower()
    base = lex.lemma_by_form.get(w)
    if base is not None:
        return lex.forms_by_lemma[base] | {w}
    return frozenset({w, _fallback_plural(w)})


def is_plural(lex: MorphLexicon, word: str) -> bool:
    """True when ``word`` looks like a plural noun form.

    A lexicon form is plural when it differs from its lemma; unknown
    words fall back to a trailing-s test.
    """
    w = word.lower()
    base = lex.lemma_by_form.get(w)
    if base is not None:
        return w != base
    return w.endswith("s") and not w.endswith("ss")

