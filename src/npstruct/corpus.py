"""Sentence-level corpus index answering phrase, gap, and snippet queries.

The index is the local stand-in for a search engine: it reports exact
occurrence counts (not page hits) for phrases whose positions may carry
alternative word forms, counts with a bounded wildcard gap, and returns
the raw sentences containing a match for surface-feature scanning.

Counting runs on a normalized layer (lowercase, punctuation stripped,
hyphenated words split).  The raw text is not stored a second time: a
sentence is its tokens' spellings with the runs of text between them
(separators), rebuilt on demand.  Queries never cross sentence
boundaries.

An index file (format 6) is a header (``_HEADER``) followed by the
sections in ``_SECTIONS`` order; ``CorpusIndex`` says what each holds.
Integer columns are unsigned, little-endian, and as narrow as their
largest value allows.  The offset columns ``starts`` and ``post_starts``
are stored as the lengths between consecutive offsets, which are
narrower; an index holds its sections as stored, and rebuilds the
offsets as running sums when it is made.  A posting is a stream position
within its block of ``_BLOCK`` tokens, so it takes 2 bytes however long
the corpus.  Text sections are UTF-8, and a word list ends each entry
with a newline.  Nothing is pickled, so loading runs no code from the
file.
"""

from __future__ import annotations

import hashlib
import os
import re
import sys
import zlib
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, islice, pairwise, repeat
from operator import add, le, lt, sub
from pathlib import Path
from struct import Struct
from typing import Iterable, Protocol

_MAGIC = b"NPSX"
_FORMAT_VERSION = 6
# A token is a run of the characters in this regex class; every other
# character separates tokens.  The three patterns below are built from it.
_WORD_CLASS = "A-Za-z0-9"
_WORD_RE = re.compile(f"[{_WORD_CLASS}]+")
# A token with the separator run before it, or else a sentence's trailing run.
_PIECE_RE = re.compile(f"[^{_WORD_CLASS}]*[{_WORD_CLASS}]+|[^{_WORD_CLASS}]+")
# The separator run of each piece, in pieces joined by newlines.
_RUN_RE = re.compile(f"([^{_WORD_CLASS}\\n]*)[{_WORD_CLASS}]+")
# File order of the sections; each is a key of a CorpusIndex's sections.
_SECTIONS = (
    "provenance", "vocab", "tag_vocab", "spellings", "separators", "stream", "starts",
    "tags", "marks", "trails", "post_starts", "post_positions",
)
_WORD_LISTS = ("vocab", "tag_vocab", "spellings", "separators")
_TEXTS = frozenset({"provenance", *_WORD_LISTS})
# Magic, version, CRC-32 of the rest of the file, then (type code, byte length) per section.
_HEADER = Struct("<4sBI" + "cQ" * len(_SECTIONS))
_CHECKED_FROM = Struct("<4sBI").size
_CODES = "BHIQ"  # unsigned, narrowest first
_LITTLE_ENDIAN = sys.byteorder == "little"
_CHUNK = 1 << 20  # characters of a corpus file read at a time
_BLOCK = 1 << 16  # stream positions per postings block

MAX_GAP = 8


class CorpusError(ValueError):
    """Raised for malformed corpus files or queries."""


@dataclass(frozen=True)
class CountQuery:
    """An exact-phrase query, optionally split by a wildcard gap.

    ``phrase`` is one token-alternative set per position.  When ``gap``
    is set, ``split`` positions precede the gap and the rest follow it;
    the gap admits between ``gap[0]`` and ``gap[1]`` intervening tokens.
    A ``fill``, when given, is the set of token runs (lowercase, as the
    index holds them) that the gap's tokens must equal.
    """

    phrase: tuple[frozenset[str], ...]
    gap: tuple[int, int] | None = None
    split: int | None = None
    fill: frozenset[tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.phrase or any(not alts for alts in self.phrase):
            raise CorpusError("phrase must be nonempty with nonempty positions")
        if self.gap is not None:
            lo, hi = self.gap
            if not (0 <= lo <= hi <= MAX_GAP):
                raise CorpusError(f"gap range must satisfy 0 <= min <= max <= {MAX_GAP}")
            if self.split is None or not (0 < self.split < len(self.phrase)):
                raise CorpusError("gap queries need a split strictly inside the phrase")
        elif self.fill is not None:
            raise CorpusError("a fill needs a gap")

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
        fill: frozenset[tuple[str, ...]] | None = None,
    ) -> "CountQuery":
        """Build a query matching ``left``, a gap of min..max tokens, then ``right``.

        ``fill`` is kept as given, neither copied nor normalized.
        """
        phrase = _normalize_positions(list(left) + list(right))
        return cls(phrase=phrase, gap=(min_gap, max_gap), split=len(tuple(left)), fill=fill)

    def canonical(self) -> str:
        """Stable cache-key text: alternatives joined by '|', gap as '*{min,max}'.

        A fill follows the gap marker as its sorted runs in parentheses,
        e.g. ``cells *{1,2}(of|of the) bone marrow|marrows``.
        """
        parts = ["|".join(sorted(alts)) for alts in self.phrase]
        if self.gap is not None:
            lo, hi = self.gap
            gap = "*{%d,%d}" % (lo, hi)
            if self.fill is not None:
                gap += "(%s)" % "|".join(sorted(map(" ".join, self.fill)))
            parts.insert(self.split, gap)
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


class CorpusIndex:
    """Immutable token index over a one-sentence-per-line corpus, held as columns.

    The index is itself a ``CountProvider`` (``count``, ``total``, ``snippets``).

    It is made from its file's sections, as ``build_index`` gives them
    or ``load`` reads them: a dict from each name of ``_SECTIONS`` to
    ``provenance`` as text, the four word lists (``vocab``,
    ``tag_vocab``, ``spellings``, ``separators``) as tuples, and every
    other section as an array.  There ``starts`` holds each sentence's
    length, and ``post_starts`` each (token, block) run's length; the
    index rebuilds both as offsets, the running sums from 0, and keeps
    the sections for ``save`` and ``info``.  The rest of this docstring
    reads ``starts`` and ``post_starts`` as those offsets.

    ``stream`` holds every sentence's token ids back to back; ids index
    the sorted ``vocab``, and sentence ``s`` spans positions
    ``starts[s]:starts[s + 1]``.  The stream is cut into blocks of
    ``_BLOCK`` positions, the last one possibly shorter, and
    ``post_positions`` holds each occurrence's position within its
    block.  Each id's postings are contiguous, block by block, and in
    corpus order: those of id ``i`` in block ``b`` are entries
    ``post_starts[k]:post_starts[k + 1]``, where ``k = i * blocks + b``,
    so ``post_starts`` has ``blocks * len(vocab)`` lengths as a section
    and one more entry as offsets.  A tagged index also holds one id
    into the sorted ``tag_vocab`` per position in ``tags``; an untagged
    one has both empty.

    The raw text is held as columns too.  ``separators`` is the sorted
    list of the distinct runs of text before a token or after a
    sentence's last one.  Entry ``i`` of ``spellings`` holds,
    space-separated, the spellings that lowercase to ``vocab[i]``,
    sorted from last to first (so the lowercase one, where the corpus
    has it, is case 0); a token's case is its spelling's place there.
    Per position, ``marks`` holds ``sep * S + case``, where ``sep`` is
    the id of the run before the token and ``S`` is the most spellings
    any entry holds.  Per sentence, ``trails`` holds the id of the run
    after its last token.
    """

    def __init__(self, sections: dict[str, str | tuple[str, ...] | array]):
        """Check ``sections`` against each other, then rebuild the offsets from their lengths.

        Lengths cannot decrease, so only each total is checked against
        the stream's length.  Postings are checked only against the
        stream's end, so that every posting names a position of the
        stream: a column of at most 2-byte values is below ``_BLOCK``
        already, and only the last block, which may be shorter, needs a
        scan.  A posting at the wrong position can only miscount, since
        every match is bounded by its sentence's end.  Nor are spellings
        and separators checked: a wrong one can only misspell the text.
        A mark is checked against the separators times the most
        spellings any token has, and ``text`` refuses a case past its
        own token's spellings.  Sections that fail a check raise
        ``CorpusError``.
        """
        vocab, tag_vocab, spellings, separators = (sections[name] for name in _WORD_LISTS)
        stream, tags, marks, trails, positions = (
            sections[name] for name in ("stream", "tags", "marks", "trails", "post_positions")
        )
        sentences, runs, n = sections["starts"], sections["post_starts"], len(stream)
        blocks, most = _block_count(n), _most_spellings(spellings)
        starts = _offsets(sentences, n)
        post_starts = _offsets(runs, n) if len(runs) == blocks * len(vocab) else None
        for what, ok in (
            ("vocabulary", _ascending(vocab, strict=True)),
            ("tag vocabulary", _ascending(tag_vocab, strict=True)),
            ("spellings", len(spellings) == len(vocab)),
            ("sentence lengths", starts is not None),
            ("posting lengths", post_starts is not None),
            ("postings", post_starts is not None and len(positions) == n
             and _below(positions, _BLOCK)
             and _below(_last_block(positions, post_starts, blocks), n - (blocks - 1) * _BLOCK)),
            ("token ids", _below(stream, len(vocab))),
            ("tags", len(tags) == (n if tag_vocab else 0) and _below(tags, len(tag_vocab))),
            ("marks", len(marks) == n and _below(marks, len(separators) * most)),
            ("trailing runs", len(trails) == len(sentences) and _below(trails, len(separators))),
        ):
            if not ok:
                raise CorpusError(f"index file is corrupt: bad {what}")
        self._sections = sections
        self._vocab = vocab
        self._ids = {tok: i for i, tok in enumerate(vocab)}
        self._tag_vocab = tag_vocab
        self._spelled = [entry.split(" ") for entry in spellings]
        self._separators = separators
        self._stream = stream
        self._starts = starts
        self._tags = tags
        self._marks = marks
        self._trails = trails
        self._post_starts = post_starts
        self._post_positions = positions
        self._blocks = blocks
        self._per_separator = most  # the marks per separator id

    @property
    def tagged(self) -> bool:
        return bool(self._tag_vocab)

    @property
    def vocab(self) -> tuple[str, ...]:
        """The distinct normalized tokens, sorted; a token's id is its place here."""
        return self._vocab

    @property
    def tag_vocab(self) -> tuple[str, ...]:
        """The distinct tags, sorted; empty for an untagged index."""
        return self._tag_vocab

    def encode(self, words: Iterable[str]) -> frozenset[int]:
        """Ids of those ``words`` the index holds; a word it lacks never matches."""
        ids = self._ids
        return frozenset(ids[word] for word in words if word in ids)

    @property
    def stream(self) -> array:
        """Every sentence's token ids back to back; read it, never change it."""
        return self._stream

    @property
    def tags(self) -> array:
        """The tag id of each ``stream`` position, empty untagged; read it, never change it."""
        return self._tags

    def total(self) -> int:
        """The number of tokens in the index."""
        return len(self._stream)

    def text(self, sid: int) -> str:
        """The raw text of sentence ``sid``, as ingested: separators and spellings in turn."""
        if not 0 <= sid < len(self._starts) - 1:
            raise IndexError(f"sentence {sid} is outside the index")
        a, b = self._starts[sid], self._starts[sid + 1]
        separators, spelled, most = self._separators, self._spelled, self._per_separator
        columns = zip(self._marks[a:b], self._stream[a:b])
        try:
            pieces = [
                separators[mark // most] + spelled[token][mark % most] for mark, token in columns
            ]
        except IndexError as exc:  # a case past its token's spellings
            raise CorpusError(f"index file is corrupt: bad case in sentence {sid}") from exc
        return "".join(pieces) + separators[self._trails[sid]]

    @cached_property
    def _start_list(self) -> list[int]:
        """``starts`` as a list, made on first use: it bisects faster than the array."""
        return self._starts.tolist()

    def size(self, ids: Iterable[int]) -> int:
        """The number of occurrences of the token ids ``ids``, read off the postings."""
        ps, blocks = self._post_starts, self._blocks
        return sum(ps[(i + 1) * blocks] - ps[i * blocks] for i in ids)

    def _positions(self, ids: Iterable[int]) -> list[int]:
        """The stream position of every occurrence of ``ids``: id by id, each in corpus order."""
        ps, posts, blocks = self._post_starts, self._post_positions, self._blocks
        bases = range(0, blocks * _BLOCK, _BLOCK)
        out: list[int] = []
        for i in ids:
            for base, (a, b) in zip(bases, pairwise(ps[i * blocks : (i + 1) * blocks + 1])):
                out += map(add, posts[a:b], repeat(base)) if base else posts[a:b]
        return out

    def _id_sets(self, positions: Iterable[Iterable[str]]) -> list[frozenset[int]] | None:
        """The token ids of each position, or None when some position has none."""
        sets = [self.encode(alts) for alts in positions]
        return sets if all(sets) else None

    def occurrences(
        self, ids: Iterable[int], within: Iterable[int]
    ) -> list[tuple[int, int, int]]:
        """Each occurrence of ``ids`` in a sentence holding ``within``, in corpus order.

        Both are token ids, as ``encode`` gives them, and a sentence
        holds ``within`` when it holds one of them.  With ``within``
        equal to ``ids``, every occurrence is given.  An
        occurrence is its position in ``stream`` and its sentence's
        bounds there, ``starts[s]`` and ``starts[s + 1]``, so it is read
        in place.  Each sentence is found by bisecting the sentence
        starts; the occurrences of ``within`` need no sentence.
        """
        starts, out = self._start_list, []
        others = sorted(self._positions(within))
        others.append(len(self._stream))  # past every sentence
        sid, k, end = -1, 0, 0
        for g in sorted(self._positions(ids)):
            if g >= end:  # the first occurrence in its sentence
                sid = bisect_right(starts, g, sid + 1) - 1
                begin, end = starts[sid], starts[sid + 1]
                while others[k] < begin:
                    k += 1
                held = others[k] < end
            if held:
                out.append((g, begin, end))
        return out

    def _matched_sentences(self, query: CountQuery, sets: list[frozenset[int]]) -> list[int]:
        """The sentence id of each match of ``query``, one entry per match.

        The query is checked as fixed layouts, one per gap width (a
        gapless query has one), each an offset per position and a span;
        its matches are those of all its layouts.  The candidates are the
        stream positions of the rarest position's occurrences, which
        every layout filters as a whole, one position at a time, rarest
        first.  Only the survivors' gap tokens, decoded to words, are
        checked against a fill, and only theirs are bounded by sentences.
        """
        n = len(sets)
        if query.gap is None:
            split, widths = n, range(1)
        else:
            split, widths = query.split, range(query.gap[0], query.gap[1] + 1)
        rare, *rest = sorted(range(n), key=lambda i: self.size(sets[i]))
        starts, stream, fill = self._starts, self._stream, query.fill
        anchors = self._positions(sets[rare])
        first, last = min(anchors, default=0), max(anchors, default=0)
        sids = []
        for width in widths:
            offsets = [j if j < split else j + width for j in range(n)]
            lead, span = offsets[rare], offsets[-1] + 1
            stop = len(stream) - (span - 1 - lead)
            found = anchors
            if first < lead or last >= stop:  # a layout running off the stream cannot match
                found = [g for g in found if lead <= g < stop]
            for j in rest:
                if not found:
                    break
                tokens = map(stream.__getitem__, map(add, found, repeat(offsets[j] - lead)))
                found = list(compress(found, map(sets[j].__contains__, tokens)))
            if fill is not None:
                word, at = self._vocab.__getitem__, split - lead
                gaps = (tuple(map(word, stream[g + at : g + at + width])) for g in found)
                found = list(compress(found, map(fill.__contains__, gaps)))
            for g in found:
                k = bisect_right(starts, g)
                if starts[k - 1] <= g - lead and g - lead + span <= starts[k]:
                    sids.append(k - 1)
        return sids

    def count(self, query: CountQuery) -> int:
        """Number of occurrences; overlapping matches all count."""
        sets = self._id_sets(query.phrase)
        if sets is None:
            return 0
        if query.gap is None and len(sets) == 1:
            return self.size(sets[0])
        return len(self._matched_sentences(query, sets))

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        """Raw text of up to ``limit`` matching sentences, in corpus order."""
        if limit < 1:
            raise CorpusError("limit must be >= 1")
        sets = self._id_sets(query.phrase)
        if sets is None:
            return []
        sids = sorted(set(self._matched_sentences(query, sets)))
        return [self.text(sid) for sid in sids[:limit]]

    def info(self) -> dict[str, object]:
        """The format, provenance and sizes of the index, and each section's bytes.

        ``postings.*`` are the nearest-rank percentiles of the number of
        postings per token.
        """
        ps, blocks = self._post_starts, self._blocks
        lengths = sorted(map(sub, ps[blocks::blocks], ps[:-1:blocks]))
        return {
            "format": _FORMAT_VERSION,
            "provenance": self._sections["provenance"],
            "sentences": len(self._starts) - 1,
            "tokens": len(self._stream),
            "vocabulary": len(self._vocab),
            "tags": len(self._tag_vocab),
            "separators": len(self._separators),
            "most_spellings": self._per_separator,
            "blocks": blocks,
            **{f"postings.{name}": _nearest_rank(lengths, q) for name, q in _PERCENTILES},
            **{f"bytes.{name}": len(_encoded(self._sections[name])[1]) for name in _SECTIONS},
        }

    def save(self, path: str | Path) -> None:
        """Write the index's sections as one format-6 file (layout in the module docstring)."""
        _write(path, self._sections)

    @classmethod
    def load(cls, path: str | Path) -> "CorpusIndex":
        """Read a format-6 file a section at a time, and check it before anything is used.

        Each column is read straight into its array, and the checksum is
        taken as the sections are read; the file is never held whole.  A
        file that is not a complete, intact format-6 index raises
        ``CorpusError``, a checksum mismatch before any section is used;
        the constructor checks the decoded sections.  Nothing in the file
        is ever run.
        """
        with Path(path).open("rb") as f:
            head = f.read(_HEADER.size)
            if head[: len(_MAGIC)] != _MAGIC:
                raise CorpusError("not an index file")
            if len(head) == len(_MAGIC):
                raise CorpusError("truncated index file")
            version = head[len(_MAGIC)]
            if version != _FORMAT_VERSION:
                raise CorpusError(
                    "index must be rebuilt with `npstruct index`: "
                    f"unsupported index format version {version}"
                )
            if len(head) < _HEADER.size:
                raise CorpusError("truncated index file")
            _magic, _version, crc, *table = _HEADER.unpack(head)
            codes, sizes = [code.decode("latin-1") for code in table[0::2]], table[1::2]
            end, file_end = _HEADER.size + sum(sizes), os.fstat(f.fileno()).st_size
            if end > file_end:
                raise CorpusError("truncated index file")
            if end < file_end:
                raise CorpusError("index file is corrupt: trailing bytes")
            for name, code, size in zip(_SECTIONS, codes, sizes):
                if code not in _CODES or size % array(code).itemsize or name in _TEXTS and code != "B":
                    raise CorpusError(
                        f"index file is corrupt: section {name} has type {code!r}, {size} bytes"
                    )
            crc_read = zlib.crc32(head[_CHECKED_FROM:])
            sections: dict = {}
            for name, code, size in zip(_SECTIONS, codes, sizes):
                if name in _TEXTS:
                    section = f.read(size)
                else:
                    section = array(code)
                    with suppress(EOFError):
                        section.fromfile(f, size // section.itemsize)
                if memoryview(section).nbytes < size:  # the file shrank since its size was read
                    raise CorpusError("truncated index file")
                crc_read = zlib.crc32(section, crc_read)
                sections[name] = section
        if crc_read != crc:
            raise CorpusError("index file is corrupt: checksum mismatch")
        if not _LITTLE_ENDIAN:
            for section in sections.values():
                if isinstance(section, array):
                    section.byteswap()
        try:
            sections["provenance"] = sections["provenance"].decode("utf-8")
            for name in _WORD_LISTS:
                sections[name] = tuple(_word_list(sections[name]))
        except UnicodeDecodeError as exc:
            raise CorpusError("index file is corrupt: a word list is not UTF-8") from exc
        return cls(sections)


def _write(path: str | Path, sections: dict) -> None:
    """Write ``sections``, as a ``CorpusIndex`` holds them, as one format-6 file.

    The checksum is taken over the columns' own buffers, and the header
    and the sections are written in turn: no copy of the file is made.
    """
    encoded = [_encoded(sections[name]) for name in _SECTIONS]
    table = [f for code, blob in encoded for f in (code.encode("ascii"), len(blob))]
    crc = zlib.crc32(_HEADER.pack(_MAGIC, _FORMAT_VERSION, 0, *table)[_CHECKED_FROM:])
    for _code, blob in encoded:
        crc = zlib.crc32(blob, crc)
    with Path(path).open("wb") as f:
        f.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, crc, *table))
        for _code, blob in encoded:
            f.write(blob)


def _encoded(value: array | tuple[str, ...] | str | bytes) -> tuple[str, bytes | memoryview]:
    """A section's type code and bytes: arrays little-endian, texts UTF-8.

    A little-endian machine's array is given as a view of its own buffer.
    """
    if isinstance(value, array):
        if not _LITTLE_ENDIAN:
            value = array(value.typecode, value)
            value.byteswap()
        return value.typecode, memoryview(value).cast("B")
    if isinstance(value, tuple):  # a word list
        value = "".join(f"{word}\n" for word in value)
    if isinstance(value, str):
        value = value.encode("utf-8")
    return "B", value


@dataclass(frozen=True)
class IngestConfig:
    """Corpus ingestion options."""

    tagged: bool = False


def _code(largest: int) -> str:
    """The type code of the narrowest unsigned array holding ``largest``."""
    return next(c for c in _CODES if largest < 1 << 8 * array(c).itemsize)


def _collector(largest: int) -> Callable[..., bytearray | array]:
    """The sequence type that takes values up to ``largest`` fastest, called like ``bytearray``.

    That is a bytearray for byte values, else an I (or Q) array: B and H
    arrays take a Python int several times more slowly.
    """
    return bytearray if largest < 1 << 8 else partial(array, _code(max(largest, 1 << 16)))


def _column(values: Iterable[int], largest: int) -> array:
    """The values as an array of the narrowest unsigned type holding ``largest``.

    Values are gathered by their ``_collector`` first, unless they are in
    a bytearray or an array at least as wide as the column already.  A
    wider array is narrowed a byte plane at a time.
    """
    code = _code(largest)
    if not isinstance(values, (array, bytearray)):
        values = _collector(largest)(values)
    if isinstance(values, bytearray):
        return array(code, values)
    if values.typecode == code:
        return values
    column = array(code, [0]) * len(values)
    width, wide_width = column.itemsize, values.itemsize
    low = 0 if _LITTLE_ENDIAN else wide_width - width  # where a value's low-order bytes start
    into, source = memoryview(column).cast("B"), memoryview(values).cast("B")
    for k in range(width):
        into[k::width] = source[low + k :: wide_width]
    return column


def _joined(columns: list, largest: int) -> array:
    """The columns back to back as one ``_column`` for ``largest``, emptying ``columns``.

    Each column is let go once copied, and the values are narrowed
    about ``_BLOCK`` at a time, so no wide copy of the whole is held.
    """
    out = array(_code(largest))
    columns.reverse()
    while columns:
        chunk = columns.pop()
        while columns and len(chunk) < _BLOCK:
            chunk += columns.pop()
        out += _column(chunk, largest)
    return out


def _ascending(values: Sequence, strict: bool = False) -> bool:
    return all(map(lt if strict else le, values, islice(values, 1, None)))


def _offsets(lengths: array, end: int) -> array | None:
    """The running sums of ``lengths`` from 0, or None unless the last is ``end``.

    They are as narrow as ``end`` allows; a sum past that is past ``end``.
    """
    try:
        offsets = array(_code(end), accumulate(lengths, initial=0))
    except OverflowError:
        return None
    return offsets if offsets[-1] == end else None


def _below(column: array, bound: int) -> bool:
    """Whether every value of ``column`` is less than ``bound``.

    The values are compared a block at a time, one byte plane at a time,
    most significant first, and none becomes a Python int: a value is out
    of play once its byte is below the bound's, and fails if its byte is
    above it.  Only one block is ever copied out of the column.
    """
    if bound >= 1 << 8 * column.itemsize:
        return True
    if bound <= 0:
        return not column
    data, width = memoryview(column).cast("B"), column.itemsize
    for at in range(0, len(data), width << 16):
        block = data[at : at + (width << 16)].tobytes()
        in_play = -1  # all bits set on the bytes of the values still in play
        for k in reversed(range(width)):
            plane = block[k if _LITTLE_ENDIAN else width - 1 - k :: width]
            if in_play != -1:  # bytes of values out of play read 0
                plane = (int.from_bytes(plane, "little") & in_play).to_bytes(len(plane), "little")
            digit = (bound - 1) >> 8 * k & 0xFF
            if plane.translate(None, bytes(range(digit + 1))):
                return False
            equal = bytearray(256)
            equal[digit] = 0xFF
            in_play &= int.from_bytes(plane.translate(equal), "little")
            if not in_play:
                break
    return True


def _block_count(n: int) -> int:
    """The postings blocks of a stream of ``n`` positions: one at least."""
    return max(1, -(-n // _BLOCK))


def _last_block(positions: array, post_starts: array, blocks: int) -> array:
    """Each token's postings in the last block, gathered into one column."""
    if blocks == 1:
        return positions
    view, tail = memoryview(positions), array(positions.typecode)
    spans = map(slice, post_starts[blocks - 1 :: blocks], post_starts[blocks::blocks])
    tail.frombytes(b"".join(map(view.__getitem__, spans)))
    return tail


_PERCENTILES = (("p50", 50), ("p90", 90), ("p99", 99), ("max", 100))


def _nearest_rank(ranked: Sequence[int], q: int) -> int:
    """The ``q``-th percentile of the sorted ``ranked`` by nearest rank; 0 for none."""
    return ranked[max(0, -(-q * len(ranked) // 100) - 1)] if ranked else 0


def _most_spellings(spellings: Sequence[str]) -> int:
    """The most spellings an entry of a spelling table holds; 0 for no entries."""
    return max(map(str.count, spellings, repeat(" ")), default=-1) + 1


def _word_list(blob: bytes) -> list[str]:
    """The entries of a word list; each ends with a newline, so ``[""]`` is ``b"\\n"``."""
    words = blob.decode("utf-8").split("\n")
    if words.pop():
        raise CorpusError("index file is corrupt: a word list does not end with a newline")
    return words


class _Ids(dict):
    """Word -> id, each new word taking the next id."""

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self)
        return n


def _ranks(ids: _Ids) -> tuple[list[str], list[int]]:
    """The sorted words of ``ids``, and each id's place among them."""
    words = sorted(ids)
    rank = [0] * len(words)
    for i, word in enumerate(words):
        rank[ids[word]] = i
    return words, rank


def _lines(path: Path, update: Callable[[bytes], object]) -> Iterator[str]:
    """The lines of a UTF-8 text file, read ``_CHUNK`` characters at a time.

    Only ``\\n`` ends a line; text mode reads ``\\r\\n`` and ``\\r`` as
    ``\\n``, also when one read ends between them.  Each chunk, as UTF-8,
    is also passed to ``update``.  The last line comes last, even when
    empty, as ``str.split`` gives it.
    """
    with path.open(encoding="utf-8") as f:
        carry = ""
        while chunk := f.read(_CHUNK):
            update(chunk.encode("utf-8"))
            lines = chunk.split("\n")
            del chunk  # its lines hold its text
            lines[0] = carry + lines[0]
            carry = lines.pop()
            yield from lines
    yield carry


def build_index(corpus_file: str | Path, config: IngestConfig = IngestConfig()) -> CorpusIndex:
    """Index a UTF-8, one-sentence-per-line corpus file.

    With ``config.tagged`` each whitespace token must look like
    ``word_TAG``; normalized sub-tokens inherit the raw token's tag, and
    the sentence's raw text is its words joined by spaces.
    The provenance is a digest of the content and the config alone, so
    the same corpus gives the same index wherever its file lies.
    The file is read a chunk at a time and every per-token column grows
    as an array, so the memory needed is about the index's own.
    """
    digest = hashlib.sha256()
    # A piece is a token with the separator run before it.  Ids are in
    # order of first appearance; each distinct piece is split only once,
    # and each distinct spelling lowercased only once.
    piece_ids, run_ids, tag_ids = _Ids(), _Ids(), _Ids()
    pieces, lengths, trails, tags = array("I"), array("I"), array("I"), array("I")
    for lineno, line in enumerate(_lines(Path(corpus_file), digest.update), start=1):
        line = line.strip()
        if not line:
            continue
        if config.tagged:
            words: list[str] = []
            for raw_tok in line.split():
                word, sep, tag = raw_tok.rpartition("_")
                if not sep or not word or not tag:
                    raise CorpusError(f"malformed tagged token {raw_tok!r} on line {lineno}")
                words.append(word)
                tags.extend([tag_ids[tag]] * len(_WORD_RE.findall(word)))
            line = " ".join(words)
        found = _PIECE_RE.findall(line)
        trail = "" if _WORD_RE.match(line, len(line) - 1) else found.pop()
        if found:
            pieces.extend(map(piece_ids.__getitem__, found))
            lengths.append(len(found))
            trails.append(run_ids[trail])
    n = len(pieces)
    if not n:
        raise CorpusError("empty corpus")
    digest.update(repr(config).encode("utf-8"))
    # Flat lists and dicts of ints, not tuples: thousands of small tuples
    # set off the cyclic garbage collector, which then walks ``pieces``.
    joined = "\n".join(piece_ids)
    runs, spelled = _RUN_RE.findall(joined), _WORD_RE.findall(joined)
    groups: dict[str, list[str]] = {}
    for spelling in sorted(set(spelled), reverse=True):
        groups.setdefault(spelling.lower(), []).append(spelling)
    vocab = sorted(groups)
    spellings = [" ".join(groups[word]) for word in vocab]
    most = _most_spellings(spellings)
    token_of, case_of = {}, {}
    for i, word in enumerate(vocab):
        for case, spelling in enumerate(groups[word]):
            token_of[spelling], case_of[spelling] = i, case
    piece_run = list(map(run_ids.__getitem__, runs))
    separators, run_rank = _ranks(run_ids)
    tag_vocab, tag_rank = _ranks(tag_ids)
    piece_token = list(map(token_of.__getitem__, spelled))
    piece_mark = [run_rank[run] * most + case_of[word] for run, word in zip(piece_run, spelled)]
    stream = _column(map(piece_token.__getitem__, pieces), len(vocab) - 1)
    marks = _column(map(piece_mark.__getitem__, pieces), len(separators) * most - 1)
    del pieces  # not needed past here; let it go before the postings grow
    # Each token's postings grow as arrays, a block at a time; none is a
    # list of Python ints.  ``runs`` holds, per block, how many postings
    # each token has in it; the section lists those run lengths token by
    # token, and block by block within a token.
    largest = min(n, _BLOCK) - 1
    new_positions, new_runs = _collector(largest), _collector(largest + 1)
    positions_of = [new_positions() for _ in vocab]
    runs = []
    for base in range(0, n, _BLOCK):
        before = list(map(len, positions_of))
        for offset, i in enumerate(stream[base : base + _BLOCK]):
            positions_of[i].append(offset)
        runs.append(new_runs(map(sub, map(len, positions_of), before)))
    sections = {
        "provenance": f"sha256:{digest.hexdigest()[:16]}",
        "vocab": tuple(vocab),
        "tag_vocab": tuple(tag_vocab),
        "spellings": tuple(spellings),
        "separators": tuple(separators),
        "stream": stream,
        "starts": _column(lengths, max(lengths)),
        "tags": _column(map(tag_rank.__getitem__, tags), len(tag_vocab) - 1),
        "marks": marks,
        "trails": _column(map(run_rank.__getitem__, trails), len(separators) - 1),
        "post_starts": _column(chain.from_iterable(zip(*runs)), max(map(max, runs))),
        "post_positions": _joined(positions_of, largest),
    }
    del runs  # the run lengths are in the section now; let them go before the offsets grow
    return CorpusIndex(sections)


class CountProvider(Protocol):
    """Anything that can answer counts for the decision models."""

    def count(self, query: CountQuery) -> int: ...

    def total(self) -> int: ...

    def snippets(self, query: CountQuery, limit: int) -> list[str]: ...


@dataclass
class IndexProvider:
    """A CountProvider that forwards to ``index``, itself a CountProvider."""

    index: CorpusIndex

    def count(self, query: CountQuery) -> int:
        return self.index.count(query)

    def total(self) -> int:
        return self.index.total()

    def snippets(self, query: CountQuery, limit: int) -> list[str]:
        return self.index.snippets(query, limit)
