"""Sentence-level corpus index answering phrase, gap, and snippet queries.

The index is the local stand-in for a search engine: it reports exact
occurrence counts (not page hits) for phrases whose positions may carry
alternative word forms, counts with a bounded wildcard gap, and returns
the raw sentences containing a match for surface-feature scanning.

Counting runs on a normalized layer (lowercase, punctuation stripped,
hyphenated words split); snippets come from the untouched raw layer.
Queries never cross sentence boundaries.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

_MAGIC = b"NPSX"
_FORMAT_VERSION = 2
_WORD_RE = re.compile(r"[A-Za-z0-9]+")

MAX_GAP = 8


class CorpusError(ValueError):
    """Raised for malformed corpus files or queries."""


@dataclass(frozen=True)
class CountQuery:
    """An exact-phrase query, optionally split by a wildcard gap.

    ``phrase`` is one token-alternative set per position.  When ``gap``
    is set, ``split`` positions precede the gap and the rest follow it;
    the gap admits between ``gap[0]`` and ``gap[1]`` intervening tokens.
    """

    phrase: tuple[frozenset[str], ...]
    gap: tuple[int, int] | None = None
    split: int | None = None

    def __post_init__(self) -> None:
        if not self.phrase or any(not alts for alts in self.phrase):
            raise CorpusError("phrase must be nonempty with nonempty positions")
        if self.gap is not None:
            lo, hi = self.gap
            if not (0 <= lo <= hi <= MAX_GAP):
                raise CorpusError(f"gap range must satisfy 0 <= min <= max <= {MAX_GAP}")
            if self.split is None or not (0 < self.split < len(self.phrase)):
                raise CorpusError("gap queries need a split strictly inside the phrase")

    @classmethod
    def of(cls, *positions: str | Iterable[str]) -> "CountQuery":
        """Build a gapless query; each argument is a token or alternative set."""
        return cls(phrase=_normalize_positions(positions))

    @classmethod
    def gapped(
        cls,
        left: Sequence[str | Iterable[str]],
        right: Sequence[str | Iterable[str]],
        min_gap: int,
        max_gap: int,
    ) -> "CountQuery":
        """Build a query matching ``left``, a gap of min..max tokens, then ``right``."""
        phrase = _normalize_positions(list(left) + list(right))
        return cls(phrase=phrase, gap=(min_gap, max_gap), split=len(tuple(left)))

    def canonical(self) -> str:
        """Stable cache-key text: alternatives joined by '|', gap as '*{min,max}'."""
        parts = ["|".join(sorted(alts)) for alts in self.phrase]
        if self.gap is not None:
            lo, hi = self.gap
            parts.insert(self.split, "*{%d,%d}" % (lo, hi))
        return " ".join(parts)


def _normalize_positions(
    positions: Iterable[str | Iterable[str]],
) -> tuple[frozenset[str], ...]:
    out = []
    for pos in positions:
        if isinstance(pos, str):
            alts = [pos]
        else:
            alts = list(pos)
        out.append(frozenset(a.lower() for a in alts))
    return tuple(out)


@dataclass(frozen=True)
class _Sentence:
    raw: str
    tokens: tuple[str, ...]
    tags: tuple[str, ...] | None = None


class MiddleTrie:
    """Token trie over distinct middles, iterated in first-given order.

    Each node maps a token to its child; a node where a middle ends
    also holds the key ``END``.  The empty middle marks the root.
    """

    END = None

    def __init__(self, middles: Iterable[tuple[str, ...]]):
        self._middles = tuple(dict.fromkeys(middles))
        self.root: dict = {}
        for middle in self._middles:
            node = self.root
            for tok in middle:
                node = node.setdefault(tok, {})
            node[self.END] = True

    def __iter__(self):
        return iter(self._middles)


class CorpusIndex:
    """Immutable token index over a one-sentence-per-line corpus."""

    def __init__(self, sentences: list[_Sentence], provenance: str):
        self._sentences = sentences
        self._total = sum(len(s.tokens) for s in sentences)
        self._provenance = provenance
        self._postings: dict[str, list[tuple[int, int]]] = {}
        for sid, sent in enumerate(sentences):
            for pos, tok in enumerate(sent.tokens):
                self._postings.setdefault(tok, []).append((sid, pos))

    @property
    def tagged(self) -> bool:
        return bool(self._sentences) and self._sentences[0].tags is not None

    @property
    def provenance(self) -> str:
        return self._provenance

    def sentences(self) -> list[_Sentence]:
        return self._sentences

    def total_tokens(self) -> int:
        return self._total

    def sentence_ids(self, *positions: Iterable[str]) -> list[int]:
        """Ascending ids of the sentences holding a token of every alternative set.

        Each position is a set of normalized tokens; a sentence qualifies
        when each set meets its tokens, whatever their order, so two sets
        may be met by the same token.
        """
        if not positions:
            raise CorpusError("need at least one position")
        common: set[int] | None = None
        for alts in positions:
            sids = {sid for alt in alts for sid, _pos in self._postings.get(alt, ())}
            common = sids if common is None else common & sids
            if not common:
                return []
        return sorted(common)

    def _shifts(self, query: CountQuery, i: int) -> list[int]:
        """Possible offsets of position ``i`` from the match start."""
        if query.gap is None or i < query.split:
            return [i]
        lo, hi = query.gap
        return [i + g for g in range(lo, hi + 1)]

    def _candidates(self, query: CountQuery) -> list[tuple[int, int]]:
        """Sentence/offset start candidates from the rarest query position.

        Posting sizes are summed first, so only the rarest position's
        list is ever built.
        """
        best_index, best_size = 0, None
        for i, alts in enumerate(query.phrase):
            size = sum(len(self._postings.get(alt, ())) for alt in alts)
            if not size:
                return []
            if best_size is None or size < best_size:
                best_index, best_size = i, size
        starts = {
            (sid, pos - shift)
            for alt in query.phrase[best_index]
            for sid, pos in self._postings.get(alt, ())
            for shift in self._shifts(query, best_index)
        }
        return sorted(starts)

    def count(self, query: CountQuery) -> int:
        """Number of occurrences; overlapping matches all count."""
        if query.gap is None and len(query.phrase) == 1:
            return sum(len(self._postings.get(alt, ())) for alt in query.phrase[0])
        total = 0
        for sid, start in self._candidates(query):
            total += self._matches_at(sid, start, query)
        return total

    def count_between(
        self,
        head: tuple[str, ...],
        middles: MiddleTrie,
        tails: Iterable[tuple[str, ...]],
    ) -> int:
        """Summed count of ``head + m + t`` over the middles ``m`` and tails ``t``.

        Equals ``count_sum`` of those phrases, a tail given twice
        counting twice, but builds none of them: from each posting of
        ``head[0]`` it checks the rest of the head, walks the middle trie
        along the sentence and looks the tails up at every middle's end.
        Tokens are compared as given, so they must already be normalized
        (lowercase, as the index holds them).
        """
        head = tuple(head)
        if not head:
            raise CorpusError("head must be nonempty")
        by_length: dict[int, Counter[tuple[str, ...]]] = {}
        for tail in tails:
            by_length.setdefault(len(tail), Counter())[tail] += 1
        lengths = sorted(by_length.items())
        rest = head[1:]
        total = 0
        for sid, pos in self._postings.get(head[0], ()):
            tokens = self._sentences[sid].tokens
            i = pos + len(head)
            if tokens[pos + 1 : i] != rest:  # a short slice at the sentence end fails too
                continue
            node = middles.root
            while node is not None:
                if MiddleTrie.END in node:
                    for n, wanted in lengths:
                        if i + n > len(tokens):
                            break
                        total += wanted.get(tokens[i : i + n], 0)
                node = node.get(tokens[i]) if i < len(tokens) else None
                i += 1
        return total

    def _matches_at(self, sid: int, start: int, query: CountQuery) -> int:
        """Count matches of ``query`` beginning at token ``start``."""
        tokens = self._sentences[sid].tokens
        if start < 0:
            return 0
        if query.gap is None:
            end = start + len(query.phrase)
            if end > len(tokens):
                return 0
            for alts, tok in zip(query.phrase, tokens[start:end]):
                if tok not in alts:
                    return 0
            return 1
        left = query.phrase[: query.split]
        right = query.phrase[query.split :]
        if start + len(left) > len(tokens):
            return 0
        for alts, tok in zip(left, tokens[start : start + len(left)]):
            if tok not in alts:
                return 0
        hits = 0
        lo, hi = query.gap
        for g in range(lo, hi + 1):
            rstart = start + len(left) + g
            rend = rstart + len(right)
            if rend > len(tokens):
                break
            if all(t in alts for alts, t in zip(right, tokens[rstart:rend])):
                hits += 1
        return hits

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        """Raw text of up to ``limit`` matching sentences, in corpus order."""
        if limit < 1:
            raise CorpusError("limit must be >= 1")
        out = []
        seen: set[int] = set()
        for sid, start in self._candidates(query):
            if sid in seen:
                continue
            if self._matches_at(sid, start, query):
                seen.add(sid)
                out.append((sid, self._sentences[sid].raw))
        out.sort()
        return [raw for _, raw in out[:limit]]

    def save(self, path: str | Path) -> None:
        """Persist to a single binary file with a leading format-version byte."""
        payload = [(s.raw, s.tokens, s.tags) for s in self._sentences]
        blob = pickle.dumps((payload, self._provenance), protocol=4)
        Path(path).write_bytes(_MAGIC + bytes([_FORMAT_VERSION]) + blob)

    @classmethod
    def load(cls, path: str | Path) -> "CorpusIndex":
        data = Path(path).read_bytes()
        if data[: len(_MAGIC)] != _MAGIC:
            raise CorpusError("not an index file")
        version = data[len(_MAGIC)]
        if version != _FORMAT_VERSION:
            raise CorpusError(f"unsupported index format version {version}")
        payload, provenance = pickle.loads(data[len(_MAGIC) + 1 :])
        sentences = [_Sentence(raw, tokens, tags) for raw, tokens, tags in payload]
        return cls(sentences, provenance)


@dataclass(frozen=True)
class IngestConfig:
    """Corpus ingestion options."""

    tagged: bool = False


def _tokens(text: str) -> list[str]:
    """Normalized tokens of ``text``: its alphanumeric runs, lowercased."""
    return [t.lower() for t in _WORD_RE.findall(text)]


def build_index(corpus_file: str | Path, config: IngestConfig = IngestConfig()) -> CorpusIndex:
    """Index a UTF-8, one-sentence-per-line corpus file.

    With ``config.tagged`` each whitespace token must look like
    ``word_TAG``; normalized sub-tokens inherit the raw token's tag.
    The provenance is a digest of the content and the config alone, so
    the same corpus gives the same index wherever its file lies.
    """
    path = Path(corpus_file)
    text = path.read_text(encoding="utf-8")
    digest = hashlib.sha256(
        text.encode("utf-8") + repr(config).encode("utf-8")
    ).hexdigest()[:16]
    sentences: list[_Sentence] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if config.tagged:
            words: list[str] = []
            toks: list[str] = []
            tok_tags: list[str] = []
            for raw_tok in line.split():
                word, sep, tag = raw_tok.rpartition("_")
                if not sep or not word or not tag:
                    raise CorpusError(f"malformed tagged token {raw_tok!r} on line {lineno}")
                words.append(word)
                sub = _tokens(word)
                toks += sub
                tok_tags += [tag] * len(sub)
            if toks:
                sentences.append(_Sentence(" ".join(words), tuple(toks), tuple(tok_tags)))
        else:
            toks = _tokens(line)
            if toks:
                sentences.append(_Sentence(line, tuple(toks)))
    index = CorpusIndex(sentences, provenance=f"sha256:{digest}")
    if index.total_tokens() == 0:
        raise CorpusError("empty corpus")
    return index


class CountProvider(Protocol):
    """Anything that can answer counts for the decision models.

    A provider may also offer ``count_between(head, middles, tails)``,
    a trie walk over a family of exact phrases; ``count_between`` below
    falls back to single counts for providers without it.
    """

    def count(self, query: CountQuery) -> int: ...

    def total(self) -> int: ...

    def snippets(self, query: CountQuery, limit: int) -> list[str]: ...


def count_sum(provider: CountProvider, phrases: Iterable[tuple[str, ...]]) -> int:
    """Summed count of exact phrases given as normalized token tuples.

    One ``count`` per phrase, a phrase given twice counting twice; an
    empty phrase raises ``CorpusError``.
    """
    return sum(provider.count(CountQuery.of(*p)) for p in phrases)


def count_between(
    provider: CountProvider,
    head: tuple[str, ...],
    middles: MiddleTrie,
    tails: Iterable[tuple[str, ...]],
) -> int:
    """Summed count of ``head + m + t`` over the trie's middles and the tails.

    Uses the provider's own ``count_between`` when it has one;
    otherwise expands the phrases, tail by tail, into ``count_sum``.
    An empty head raises ``CorpusError`` either way.
    """
    walk = getattr(provider, "count_between", None)
    if walk is not None:
        return walk(head, middles, tails)
    head = tuple(head)
    if not head:
        raise CorpusError("head must be nonempty")
    return count_sum(provider, [head + m + t for t in tails for m in middles])


@dataclass
class IndexProvider:
    """CountProvider view over a CorpusIndex."""

    index: CorpusIndex

    def count(self, query: CountQuery) -> int:
        return self.index.count(query)

    def count_between(
        self, head: tuple[str, ...], middles: MiddleTrie, tails: Iterable[tuple[str, ...]]
    ) -> int:
        return self.index.count_between(head, middles, tails)

    def total(self) -> int:
        return self.index.total_tokens()

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        return self.index.snippets(query, limit)


@dataclass
class MappingProvider:
    """CountProvider backed by a canonical-key -> count table.

    Feeds decision models externally reported counts.  Unknown queries
    count 0; snippet lookups return a fixed list.  ``save`` and ``load``
    keep the counts as ``key<TAB>count`` lines sorted by key.
    """

    counts: dict[str, int] = field(default_factory=dict)
    total_tokens: int = 1
    snippet_table: dict[str, list[str]] = field(default_factory=dict)

    def count(self, query: CountQuery) -> int:
        return self.counts.get(query.canonical(), 0)

    def total(self) -> int:
        return self.total_tokens

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        return self.snippet_table.get(query.canonical(), [])[:limit]

    @classmethod
    def load(cls, path: str | Path) -> "MappingProvider":
        """Read a saved count table; a missing file is an empty table."""
        counts: dict[str, int] = {}
        p = Path(path)
        if p.exists():
            for line in p.read_text(encoding="utf-8").splitlines():
                if not line:
                    continue
                key, _, val = line.rpartition("\t")
                counts[key] = int(val)
        return cls(counts)

    def save(self, path: str | Path) -> None:
        lines = [f"{key}\t{count}" for key, count in sorted(self.counts.items())]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

