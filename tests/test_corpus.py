"""Index building, counting, snippets, providers, and serialization."""

import pickle
import random
import tracemalloc
import zlib
from array import array
from bisect import bisect_right
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npstruct import corpus
from npstruct.corpus import (
    CorpusError,
    CorpusIndex,
    CountQuery,
    IndexProvider,
    IngestConfig,
    build_index,
)
from tests.conftest import (
    NOT_NEWLINES,
    MappingProvider,
    make_index,
    naive_count,
    normalize_line,
)


class TestCountQuery:
    def test_empty_phrase_rejected(self):
        with pytest.raises(CorpusError):
            CountQuery(phrase=())
        with pytest.raises(CorpusError):
            CountQuery(phrase=(frozenset(),))

    def test_gap_validation(self):
        with pytest.raises(CorpusError):
            CountQuery.gapped(["a"], ["b"], 2, 1)
        with pytest.raises(CorpusError):
            CountQuery.gapped(["a"], ["b"], 0, 9)
        with pytest.raises(CorpusError):
            CountQuery(phrase=(frozenset({"a"}), frozenset({"b"})), gap=(1, 1), split=0)
        with pytest.raises(CorpusError):
            CountQuery(phrase=(frozenset({"a"}), frozenset({"b"})), gap=(1, 1), split=2)

    def test_fill_needs_a_gap(self):
        with pytest.raises(CorpusError, match="a fill needs a gap"):
            CountQuery(phrase=(frozenset({"a"}), frozenset({"b"})), fill=frozenset({("of",)}))

    def test_canonical_format(self):
        q = CountQuery.gapped(
            ["health", {"care", "cares"}], [{"reform", "reforms"}], 1, 1
        )
        assert q.canonical() == "health care|cares *{1,1} reform|reforms"
        assert CountQuery.of("A", "b").canonical() == "a b"

    def test_canonical_puts_the_sorted_fill_after_the_gap(self):
        fill = frozenset({("of", "the"), ("of",)})
        q = CountQuery.gapped(["cells"], ["bone", {"marrow", "marrows"}], 1, 2, fill)
        assert q.fill is fill  # kept as given, not copied
        assert q.canonical() == "cells *{1,2}(of|of the) bone marrow|marrows"
        assert MappingProvider({q.canonical(): 5}).count(q) == 5

    def test_canonical_sorts_alternatives(self):
        q1 = CountQuery.of({"b", "a"})
        q2 = CountQuery.of({"a", "b"})
        assert q1.canonical() == q2.canonical() == "a|b"


class TestIngestion:
    def test_normalization(self, tmp_path):
        index = make_index(tmp_path, ["The brain's stem-cells, too!"])
        assert [index.vocab[t] for t in index.stream] == ["the", "brain", "s", "stem", "cells", "too"]
        assert not index.tags
        assert index.text(0) == "The brain's stem-cells, too!"
        assert index.total() == 6

    def test_blank_and_punctuation_only_lines_skipped(self, tmp_path):
        index = make_index(tmp_path, ["a b", "", "...", "c"])
        assert [index.text(sid) for sid in range(2)] == ["a b", "c"]
        with pytest.raises(IndexError):
            index.text(2)

    @pytest.mark.parametrize("sid", [-2, -1, 2, 3])
    def test_sentence_accessors_reject_sids_outside_the_index(self, tmp_path, sid):
        index = make_index(tmp_path, ["a b", "c"])
        with pytest.raises(IndexError):
            index.text(sid)

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("...\n\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty corpus"):
            build_index(path)

    def test_tagged_corpus(self, tmp_path):
        index = make_index(tmp_path, ["The_D U.S._N stem-cell_N committee_N met_V ._O"], tagged=True)
        assert index.tagged
        assert index.text(0) == "The U.S. stem-cell committee met ."
        words = [index.vocab[t] for t in index.stream]
        assert words == ["the", "u", "s", "stem", "cell", "committee", "met"]
        assert [index.tag_vocab[t] for t in index.tags] == ["D", "N", "N", "N", "N", "N", "V"]
        with pytest.raises(IndexError):
            index.text(1)

    def test_malformed_tagged_token_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a_N b_N\nbroken token_N\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            build_index(path, IngestConfig(tagged=True))

    @pytest.mark.parametrize("char", NOT_NEWLINES, ids=ascii)
    def test_only_a_newline_ends_a_line(self, tmp_path, char):
        lines = [f"brain{char}stem cells grew.", f"the brain{char}stem"]
        index = make_index(tmp_path, lines)
        assert [index.text(sid) for sid in range(2)] == lines
        with pytest.raises(IndexError):
            index.text(2)
        assert IndexProvider(index).count(CountQuery.of("brain", "stem")) == 2

    @pytest.mark.parametrize("char", NOT_NEWLINES, ids=ascii)
    def test_malformed_tagged_token_names_its_line_past_such_a_character(self, tmp_path, char):
        path = tmp_path / "bad.txt"
        path.write_text(f"a_N{char}b_N\nbroken token_N\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="on line 2$"):
            build_index(path, IngestConfig(tagged=True))

    def test_provenance_is_deterministic(self, tmp_path):
        a = make_index(tmp_path, ["x y z"], name="a.txt")
        b = make_index(tmp_path, ["x y z"], name="a.txt")
        assert a.info()["provenance"] == b.info()["provenance"]

    def test_provenance_ignores_the_corpus_path(self, tmp_path):
        (tmp_path / "one").mkdir()
        (tmp_path / "a much longer directory name").mkdir()
        a = make_index(tmp_path / "one", ["x y z", "w"], name="a.txt")
        b = make_index(tmp_path / "a much longer directory name", ["x y z", "w"], name="b.txt")
        provenance = a.info()["provenance"]
        assert provenance == b.info()["provenance"]
        assert provenance.startswith("sha256:") and "a.txt" not in provenance
        a.save(tmp_path / "a.idx")
        b.save(tmp_path / "b.idx")
        assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()
        c = make_index(tmp_path, ["x y z", "v"], name="a.txt")
        assert c.info()["provenance"] != provenance


class TestCounting:
    def test_overlapping_matches_counted(self, tmp_path):
        index = make_index(tmp_path, ["a a a a"])
        assert index.count(CountQuery.of("a", "a")) == 3

    def test_queries_stay_within_sentences(self, tmp_path):
        index = make_index(tmp_path, ["end word", "word start"])
        assert index.count(CountQuery.of("word", "word")) == 0

    def test_alternatives(self, tmp_path):
        index = make_index(tmp_path, ["big cat ran", "big cats ran"])
        assert index.count(CountQuery.of("big", {"cat", "cats"})) == 2

    def test_gap_counts_each_width(self, tmp_path):
        index = make_index(
            tmp_path, ["a b", "a x b", "a x y b", "a x y z b"]
        )
        assert index.count(CountQuery.gapped(["a"], ["b"], 1, 2)) == 2
        assert index.count(CountQuery.gapped(["a"], ["b"], 0, 3)) == 4
        assert index.count(CountQuery.gapped(["a"], ["b"], 3, 3)) == 1

    def test_gap_multiple_matches_per_start(self, tmp_path):
        # "a x b b": gap 1..2 matches both "a x b" and "a x b b"-internal b.
        index = make_index(tmp_path, ["a x b b"])
        assert index.count(CountQuery.gapped(["a"], ["b"], 1, 2)) == 2

    def test_phrase_gap_and_total_counts(self, tmp_path):
        index = make_index(tmp_path, ["a x b", "a b"])
        assert index.count(CountQuery.of("a", "b")) == 1
        assert index.count(CountQuery.gapped(["a"], ["b"], 1, 2)) == 1
        assert index.count(CountQuery.gapped(["a"], ["b"], 0, 2)) == 2
        assert index.total() == 5

    def test_matches_naive_scanner_on_fixed_corpus(self, tmp_path):
        lines = ["the cat sat on the mat", "the cat and the dog sat", "cat cat cat"]
        index = make_index(tmp_path, lines)
        sentences = [normalize_line(line) for line in lines]
        queries = [
            CountQuery.of("cat"),
            CountQuery.of("the", "cat"),
            CountQuery.of("cat", "cat"),
            CountQuery.gapped(["the"], ["sat"], 1, 3),
            CountQuery.gapped(["cat"], [{"dog", "mat"}], 0, 4),
        ]
        for q in queries:
            assert index.count(q) == naive_count(sentences, q)


class TestSnippets:
    def test_snippets_return_raw_sentences_in_order(self, tmp_path):
        lines = ["Zebra stripes!", "no match", "zebra stripes again."]
        index = make_index(tmp_path, lines)
        got = index.snippets(CountQuery.of("zebra", "stripes"), 10)
        assert got == ["Zebra stripes!", "zebra stripes again."]

    def test_snippet_limit(self, tmp_path):
        lines = [f"hit number {i}" for i in range(5)]
        index = make_index(tmp_path, lines)
        assert len(index.snippets(CountQuery.of("hit"), 2)) == 2

    def test_snippet_limit_validated(self, tmp_path):
        index = make_index(tmp_path, ["a"])
        with pytest.raises(CorpusError):
            index.snippets(CountQuery.of("a"), 0)

    def test_single_token_snippets(self, tmp_path):
        index = make_index(tmp_path, ["only line here"])
        assert index.snippets(CountQuery.of("line"), 5) == ["only line here"]


class TestSerialization:
    def test_roundtrip_preserves_counts(self, tmp_path):
        index = make_index(tmp_path, ["a b c", "a b"])
        path = tmp_path / "x.idx"
        index.save(path)
        loaded = CorpusIndex.load(path)
        q = CountQuery.of("a", "b")
        assert loaded.count(q) == index.count(q)
        assert loaded.info()["provenance"] == index.info()["provenance"]
        assert loaded.total() == index.total()

    @pytest.mark.parametrize("tagged", [False, True])
    def test_info_gives_each_sections_size_in_the_file(self, tmp_path, tagged):
        """``bytes.<name>`` is the size that the saved file's table gives section ``name``."""
        built = make_index(tmp_path, TINY_TAGGED if tagged else CHUNKED_LINES, tagged=tagged)
        built.save(tmp_path / "x.idx")
        spans = _section_spans((tmp_path / "x.idx").read_bytes())
        sizes = {f"bytes.{name}": end - start for name, (start, end) in spans.items()}
        for index in (built, CorpusIndex.load(tmp_path / "x.idx")):
            info = index.info()
            assert {key: info[key] for key in sizes} == sizes

    def test_save_is_deterministic(self, tmp_path):
        index = make_index(tmp_path, ["a b c"])
        p1, p2 = tmp_path / "1.idx", tmp_path / "2.idx"
        index.save(p1)
        index.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"NOPE" + b"\x01junk")
        with pytest.raises(CorpusError, match="not an index file"):
            CorpusIndex.load(path)

    @pytest.mark.parametrize("words", [[], [""], ["", ""], ["a"], ["", "a", ""], ["a b", " \t"]])
    def test_word_lists_round_trip(self, words):
        code, blob = corpus._encoded(tuple(words))
        assert code == "B"
        assert corpus._word_list(blob) == words

    @pytest.mark.parametrize("blob", [b"a", b"a\nb", b"\n\na"])
    def test_a_word_list_without_its_last_newline_is_a_data_error(self, blob):
        with pytest.raises(CorpusError, match="index file is corrupt"):
            corpus._word_list(blob)

    def test_one_token_lines_round_trip(self, tmp_path):
        """The separator list is [""], which must not load as an empty list."""
        path = tmp_path / "bare.txt"
        path.write_text("abc\nxyz\n", encoding="utf-8")
        build_index(path).save(tmp_path / "bare.idx")
        index = CorpusIndex.load(tmp_path / "bare.idx")
        assert index.info()["separators"] == 1
        assert [index.text(0), index.text(1)] == ["abc", "xyz"]

    @pytest.mark.parametrize("version", [1, 3, 4, 5, 99])
    def test_bad_version_rejected(self, tmp_path, version):
        index = make_index(tmp_path, ["a"])
        path = tmp_path / "x.idx"
        index.save(path)
        data = bytearray(path.read_bytes())
        data[4] = version
        path.write_bytes(bytes(data))
        with pytest.raises(CorpusError, match=f"unsupported index format version {version}$"):
            CorpusIndex.load(path)


# Multi-byte words, a blank line, a line of spaces and a token-less line;
# the corpus is written without a final newline.
CHUNKED_LINES = ["Zwölf Äpfel, fünf Öfen", "", "   ", "—!? «»", "漢字 and kanji (字)", "café ΩZ é", "end"]
LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def _saved(path: Path, out: Path) -> bytes:
    build_index(path).save(out)
    return out.read_bytes()


class TestChunkedReading:
    """A corpus is read a chunk at a time; where the chunks end changes no byte of the index."""

    @pytest.mark.parametrize("end", LINE_ENDS)
    def test_every_chunk_size_saves_the_lf_corpus_file(self, tmp_path, monkeypatch, end):
        lf, path = tmp_path / "lf.txt", tmp_path / f"{end}.txt"
        lf.write_bytes("\n".join(CHUNKED_LINES).encode("utf-8"))
        path.write_bytes(LINE_ENDS[end].join(CHUNKED_LINES).encode("utf-8"))
        expected = _saved(lf, tmp_path / "lf.idx")
        assert _saved(path, tmp_path / "default.idx") == expected
        for size in range(1, 18):
            monkeypatch.setattr(corpus, "_CHUNK", size)
            assert _saved(path, tmp_path / f"{size}.idx") == expected, size
        index = CorpusIndex.load(tmp_path / "lf.idx")
        assert [index.text(sid) for sid in range(4)] == [
            "Zwölf Äpfel, fünf Öfen", "漢字 and kanji (字)", "café ΩZ é", "end"
        ]

    @pytest.mark.parametrize("size", [1, 7, None])
    def test_a_read_may_end_inside_a_line_end_or_a_character(self, tmp_path, monkeypatch, size):
        # Text mode reads a file 8 KiB (``io.DEFAULT_BUFFER_SIZE``) at a time:
        # here the first such read ends between \r and \n, and the second
        # inside the three bytes of "漢".
        first = ("ab " * 3000)[:8191]
        lines = [first, ("cd " * 3000)[: 2 * 8192 - 1 - len(first) - 2] + "漢字 x", "end"]
        crlf = "\r\n".join(lines).encode("utf-8")
        assert crlf[8191:8193] == b"\r\n" and crlf[16383:16386] == "漢".encode("utf-8")
        (tmp_path / "crlf.txt").write_bytes(crlf)
        (tmp_path / "lf.txt").write_bytes("\n".join(lines).encode("utf-8"))
        if size is not None:
            monkeypatch.setattr(corpus, "_CHUNK", size)
        assert _saved(tmp_path / "crlf.txt", tmp_path / "crlf.idx") == _saved(
            tmp_path / "lf.txt", tmp_path / "lf.idx"
        )

    def test_memory_grows_with_the_index_not_the_corpus(self, tmp_path, monkeypatch):
        """Building, saving and loading each hold about the index's own memory.

        Bounds are the index file's bytes times a factor plus a constant.
        The chunk read at a time is set small, so that what it holds (a
        constant, whatever the corpus) does not hide what grows with it,
        and the corpus large enough that its index passes 1 MB.
        """
        from perfbench import inputs  # the benchmark's seeded corpora

        path = tmp_path / "corpus.txt"
        inputs.generate("attach", 3, 25_000).write_corpus(path)
        monkeypatch.setattr(corpus, "_CHUNK", 1 << 16, raising=False)

        def peak(step):
            tracemalloc.start()
            try:
                result = step()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        index, build = peak(lambda: build_index(path))
        _none, save = peak(lambda: index.save(tmp_path / "corpus.idx"))
        del index
        _index, load = peak(lambda: CorpusIndex.load(tmp_path / "corpus.idx"))
        size, mb = (tmp_path / "corpus.idx").stat().st_size, 1 << 20
        assert size > mb  # so that the constants below do not dominate
        assert build < 3 * size + 3 * mb // 2
        assert save < size // 2 + mb // 2
        assert load < 3 * size // 2 + mb


TINY_TAGGED = ["The_D brain_N grows_V", "cells_N grow_V", "the_D end_N"]


def _section_spans(data: bytes) -> dict[str, tuple[int, int]]:
    """Byte span of each section of a format-6 file, read from its table."""
    sizes = corpus._HEADER.unpack_from(data)[4::2]
    at = corpus._HEADER.size
    spans = {}
    for name, size in zip(corpus._SECTIONS, sizes):
        spans[name] = (at, at + size)
        at += size
    return spans


def _columns(index: CorpusIndex) -> dict:
    """The index's sections, with the offsets it rebuilt from their lengths."""
    return dict(index._sections, starts=index._starts, post_starts=index._post_starts)


def _last_set(column: array, value: int) -> array:
    out = array("Q", column)
    out[-1] = value
    return out


def _checksummed(data: bytearray) -> bytes:
    """``data`` with its checksum taken again, so that only the structural checks can fail."""
    data[5:9] = zlib.crc32(data[corpus._CHECKED_FROM :]).to_bytes(4, "little")
    return bytes(data)


class _TouchOnUnpickle:
    """Unpickling this creates ``marker``: it stands for any code a pickle can run."""

    def __init__(self, marker: Path):
        self.marker = marker

    def __reduce__(self):
        return (Path.touch, (self.marker,))


# Each corruption of an index's sections, as stored (``starts`` and
# ``post_starts`` as lengths), with the check that refuses it.  A file
# written from them has a valid checksum, so only that check catches it.
CORRUPTIONS = {
    "unsorted vocabulary": ("vocabulary", lambda c: dict(vocab=c["vocab"][::-1])),
    "unsorted tag vocabulary": ("tag vocabulary", lambda c: dict(tag_vocab=c["tag_vocab"][::-1])),
    "sentence lengths past the stream": (
        "sentence lengths", lambda c: dict(starts=_last_set(c["starts"], c["starts"][-1] + 1))
    ),
    "sentence lengths short of the stream": (
        "sentence lengths", lambda c: dict(starts=_last_set(c["starts"], c["starts"][-1] - 1))
    ),
    # Lengths whose running sum overflows the one-byte starts a 7-token stream needs.
    "a start past the widest the stream needs": (
        "sentence lengths", lambda c: dict(starts=_last_set(c["starts"], 256))
    ),
    "run lengths past the stream": (
        "posting lengths",
        lambda c: dict(post_starts=_last_set(c["post_starts"], c["post_starts"][-1] + 1)),
    ),
    "run lengths short of the stream": (
        "posting lengths",
        lambda c: dict(post_starts=_last_set(c["post_starts"], c["post_starts"][-1] - 1)),
    ),
    "a spelling entry too few": ("spellings", lambda c: dict(spellings=c["spellings"][1:])),
    "mark out of range": ("marks", lambda c: dict(
        marks=_last_set(c["marks"], len(c["separators"]) * corpus._most_spellings(c["spellings"]))
    )),
    "mark column too short": ("marks", lambda c: dict(marks=c["marks"][:-1])),
    "trailing-run id out of range": (
        "trailing runs", lambda c: dict(trails=_last_set(c["trails"], len(c["separators"])))
    ),
    "a trailing run too few": ("trailing runs", lambda c: dict(trails=c["trails"][:-1])),
    "token id out of range": (
        "token ids", lambda c: dict(stream=_last_set(c["stream"], len(c["vocab"])))
    ),
    "posting position past the stream end": ("postings", lambda c: dict(
        post_positions=_last_set(c["post_positions"], len(c["stream"]))
    )),
    # A zero-length run first: the lengths still add up, but one too many.
    "posting starts of the wrong length": (
        "posting lengths", lambda c: dict(post_starts=array("Q", [0, *c["post_starts"]]))
    ),
    "tag id out of range": ("tags", lambda c: dict(tags=_last_set(c["tags"], len(c["tag_vocab"])))),
    "tag column too short": ("tags", lambda c: dict(tags=c["tags"][:-1])),
    # An empty sentence last: the lengths still add up, but the trailing runs are one short.
    "a sentence too many": ("trailing runs", lambda c: dict(starts=array("Q", [*c["starts"], 0]))),
}


class TestMalformedFiles:
    @pytest.fixture
    def tiny(self, tmp_path):
        index = make_index(tmp_path, TINY_TAGGED, tagged=True)
        index.save(tmp_path / "tiny.idx")
        return index, (tmp_path / "tiny.idx").read_bytes()

    def test_tiny_index_has_every_section(self, tiny):
        _index, data = tiny
        assert all(end > start for start, end in _section_spans(data).values())

    def test_columns_are_narrow_and_little_endian(self, tiny):
        _index, data = tiny
        spans = _section_spans(data)
        start, end = spans["starts"]
        assert data[start:end] == bytes([3, 2, 2])  # a sentence's length, one byte each
        start, end = spans["vocab"]
        assert data[start:end] == b"brain\ncells\nend\ngrow\ngrows\nthe\n"
        start, end = spans["spellings"]
        assert data[start:end] == b"brain\ncells\nend\ngrow\ngrows\nthe The\n"
        start, end = spans["separators"]
        assert data[start:end] == b"\n \n"  # "" and " "
        # A mark is a separator id times 2, the most spellings, plus a case:
        # "The" is the second spelling of "the", after "" (0); the rest follow " " (1).
        for name, column in [("marks", [1, 2, 2, 0, 2, 0, 2]), ("trails", [0, 0, 0])]:
            start, end = spans[name]
            assert data[start:end] == bytes(column)

    def test_a_case_past_its_tokens_spellings_is_refused_when_rebuilt(self, tiny, tmp_path):
        index, _data = tiny
        marks = array("B", index._sections["marks"])
        marks[1] = 1 * 2 + 1  # after " ", case 1: "brain" has one spelling, though "the" has two
        sections = dict(index._sections, marks=marks)
        corpus._write(tmp_path / "bad.idx", sections)
        for bad in (CorpusIndex.load(tmp_path / "bad.idx"), CorpusIndex(sections)):
            assert bad.text(1) == "cells grow"
            with pytest.raises(CorpusError, match="index file is corrupt: bad case in sentence 0"):
                bad.text(0)

    def test_every_prefix_is_a_data_error(self, tiny, tmp_path):
        _index, data = tiny
        path = tmp_path / "cut.idx"
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(CorpusError):
                CorpusIndex.load(path)

    @pytest.mark.parametrize("part", ["magic", "version", "checksum", "table", *corpus._SECTIONS])
    def test_a_flipped_byte_is_a_data_error(self, tiny, tmp_path, part):
        _index, data = tiny
        at = {"magic": 0, "version": 4, "checksum": 5, "table": 9}.get(part)
        if at is None:
            at = _section_spans(data)[part][0]
        data = bytearray(data)
        data[at] ^= 0x01
        path = tmp_path / "flipped.idx"
        path.write_bytes(bytes(data))
        with pytest.raises(CorpusError):
            CorpusIndex.load(path)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_inconsistent_columns_are_a_data_error(self, tiny, tmp_path, corruption):
        index, _data = tiny
        what, corrupted = CORRUPTIONS[corruption]
        corpus._write(tmp_path / "bad.idx", dict(index._sections, **corrupted(index._sections)))
        with pytest.raises(CorpusError, match=f"^index file is corrupt: bad {what}$"):
            CorpusIndex.load(tmp_path / "bad.idx")

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_inconsistent_sections_are_refused_unsaved(self, tiny, corruption):
        index, _data = tiny
        what, corrupted = CORRUPTIONS[corruption]
        with pytest.raises(CorpusError, match=f"^index file is corrupt: bad {what}$"):
            CorpusIndex(dict(index._sections, **corrupted(index._sections)))

    def test_trailing_bytes_are_a_data_error(self, tiny, tmp_path):
        _index, data = tiny
        (tmp_path / "long.idx").write_bytes(data + b"\0")
        with pytest.raises(CorpusError, match="trailing bytes"):
            CorpusIndex.load(tmp_path / "long.idx")

    def test_a_word_list_that_is_not_utf8_is_a_data_error(self, tiny, tmp_path):
        _index, data = tiny
        start, _end = _section_spans(data)["vocab"]
        data = bytearray(data)
        data[start] = 0xFF  # a byte no UTF-8 text holds
        (tmp_path / "latin.idx").write_bytes(_checksummed(data))
        with pytest.raises(CorpusError, match="index file is corrupt: a word list is not UTF-8"):
            CorpusIndex.load(tmp_path / "latin.idx")

    @pytest.mark.parametrize("section", ["vocab", "stream"])  # read as text, and as a column
    def test_a_file_that_shrinks_once_its_size_is_read_is_truncated(
        self, tiny, tmp_path, monkeypatch, section
    ):
        _index, data = tiny
        _start, end = _section_spans(data)[section]
        (tmp_path / "cut.idx").write_bytes(data[: end - 1])
        monkeypatch.setattr(corpus.os, "fstat", lambda fd: SimpleNamespace(st_size=len(data)))
        with pytest.raises(CorpusError, match="^truncated index file$"):
            CorpusIndex.load(tmp_path / "cut.idx")

    def test_loaded_columns_equal_the_built_ones(self, tiny, tmp_path):
        index, _data = tiny
        loaded = CorpusIndex.load(tmp_path / "tiny.idx")
        assert _columns(loaded) == _columns(index)
        for sid in range(len(TINY_TAGGED)):
            assert loaded.text(sid) == index.text(sid)

    def test_a_format_2_pickle_is_refused_unread(self, tmp_path):
        proof, marker = tmp_path / "proof", tmp_path / "marker"
        pickle.loads(pickle.dumps(_TouchOnUnpickle(proof), protocol=4))
        assert proof.exists()  # the payload does run code when unpickled
        path = tmp_path / "old.idx"
        path.write_bytes(b"NPSX" + bytes([2]) + pickle.dumps(_TouchOnUnpickle(marker), protocol=4))
        with pytest.raises(CorpusError, match="unsupported index format version 2") as err:
            CorpusIndex.load(path)
        assert "npstruct index" in str(err.value)
        assert not marker.exists()


class TestProvidersAndCache:
    def test_mapping_provider(self):
        provider = MappingProvider(
            {"a b": 7}, total_tokens=100, snippet_table={"a b": ["A b."]}
        )
        assert provider.count(CountQuery.of("a", "b")) == 7
        assert provider.count(CountQuery.of("a", "c")) == 0
        assert provider.total() == 100
        assert provider.snippets(CountQuery.of("a", "b"), 5) == ["A b."]


TOKENS = st.sampled_from(["a", "b", "c", "d", "e"])
SENTENCES = st.lists(st.lists(TOKENS, min_size=1, max_size=10), min_size=1, max_size=12)


def _random_query(rng: random.Random) -> CountQuery:
    """A query of 1-5 positions; a gapped one may hold several on each side of its gap."""
    vocab = ["a", "b", "c", "d", "e"]
    n = rng.randint(1, 5)
    positions = [
        frozenset(rng.sample(vocab, rng.randint(1, 2))) for _ in range(n)
    ]
    if n >= 2 and rng.random() < 0.5:
        lo = rng.randint(0, 3)
        hi = rng.randint(lo, min(lo + 3, 8))
        split = rng.randint(1, n - 1)
        return CountQuery(phrase=tuple(positions), gap=(lo, hi), split=split)
    return CountQuery(phrase=tuple(positions))


TAGGED_WORDS = st.lists(
    st.tuples(st.text("aZ3.'-_", min_size=1, max_size=6), st.sampled_from(["N", "V", "O"])),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(TAGGED_WORDS, st.booleans())
@example([("U.S.", "N"), ("stem-cell", "N"), ("brain's", "N"), (".", "O")], False)
@example([("U.S.", "N"), ("stem-cell", "N"), ("brain's", "N"), (".", "O")], True)
def test_tagged_index_tokens_match_plain_index(tmp_path_factory, tagged_words, reload):
    tmp = tmp_path_factory.mktemp("tagged")
    words = [w for w, _ in tagged_words]
    # The "x" line keeps the corpus nonempty when no word has a token.
    lines = [" ".join(f"{w}_{t}" for w, t in tagged_words), "x_N"]
    tagged = make_index(tmp, lines, tagged=True, reload=reload)
    plain = make_index(tmp, [" ".join(words), "x"], name="plain.txt", reload=reload)
    # The first line is a sentence only if one of its words holds a token.
    sids = range(1 + bool(normalize_line(" ".join(words))))
    for index in (tagged, plain):
        with pytest.raises(IndexError):
            index.text(len(sids))
    assert [tagged.text(sid) for sid in sids] == [plain.text(sid) for sid in sids]
    assert tagged.vocab == plain.vocab
    assert tagged.stream == plain.stream
    tags = [tagged.tag_vocab[t] for t in tagged.tags]
    assert tags == [t for w, t in tagged_words for _ in normalize_line(w)] + ["N"]


# Word characters, runs of punctuation, tabs, no-break spaces, the line
# breaks of ``str.splitlines`` other than \n and \r, and non-ASCII
# letters, which the tokenizer treats as separators.
RAW_CHARS = "aZ3 \t\xa0.,;-()'\"_éßΩ漢" + NOT_NEWLINES
RAW_LINES = st.lists(st.text(RAW_CHARS, max_size=14), min_size=1, max_size=6)
RAW_WORDS = st.lists(st.text("".join(c for c in RAW_CHARS if not c.isspace()),
                             min_size=1, max_size=6), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(RAW_LINES, st.booleans())
@example(["  (Abc) ", "\t-x--y.\t", "...", "é café ΩZ"], True)  # leading and trailing runs
@example(["a\tb\xa0\xa0c ", "A a", "A"], False)
def test_text_rebuilds_each_plain_line(tmp_path_factory, lines, reload):
    tmp = tmp_path_factory.mktemp("raw")
    index = make_index(tmp, [*lines, "x"], reload=reload)  # "x" keeps the corpus nonempty
    expected = [line.strip() for line in [*lines, "x"] if normalize_line(line)]
    assert [index.text(sid) for sid in range(len(expected))] == expected
    with pytest.raises(IndexError):
        index.text(len(expected))


@settings(max_examples=60, deadline=None)
@given(st.lists(RAW_WORDS, min_size=1, max_size=4), st.booleans())
@example([["Ab,", "(c)"], ["é"], ["x_y", "Z"]], True)
def test_text_rebuilds_each_tagged_line_as_its_words(tmp_path_factory, sentences, reload):
    tmp = tmp_path_factory.mktemp("rawtagged")
    sentences = [*sentences, ["x"]]
    lines = [" ".join(f"{word}_N" for word in words) for words in sentences]
    index = make_index(tmp, lines, tagged=True, reload=reload)
    expected = [" ".join(words) for words in sentences if normalize_line(" ".join(words))]
    assert [index.text(sid) for sid in range(len(expected))] == expected
    with pytest.raises(IndexError):
        index.text(len(expected))


def _random_queries(seed: int) -> list[CountQuery]:
    rng = random.Random(seed)
    return [_random_query(rng) for _ in range(5)]


QUERIES = st.integers(0, 10_000).map(_random_queries)
AB = frozenset({"a", "b"})


def _built_and_reloaded(tmp_path_factory, sentences: list[list[str]]) -> list[CorpusIndex]:
    tmp = tmp_path_factory.mktemp("hyp")
    lines = [" ".join(s) for s in sentences]
    return [make_index(tmp, lines), make_index(tmp, lines, name="reloaded.txt", reload=True)]


@settings(max_examples=60, deadline=None)
@given(SENTENCES, QUERIES)
@example([["a", "b", "a"], ["b", "a"]], _random_queries(0))
# A match ending on the stream's last token; the rarest position's layout runs past it.
@example(
    [["a", "b"], ["b", "c", "d"]],
    [CountQuery.of("c", "d"), CountQuery.of("c", "d", "a"), CountQuery.gapped(["c"], ["d"], 0, 3)],
)
# The rarest token opens sentence 0, and the query has positions before it.
@example(
    [["e", "a", "b"], ["a", "b", "a"]],
    [
        CountQuery.of(AB, "e"),
        CountQuery.of(AB, AB, AB, AB, "e"),
        CountQuery.gapped([AB], ["e", AB], 0, 3),
    ],
)
# Gaps of 0, with the rarest position on either side.
@example(
    [["a", "b", "c", "a"], ["c", "a", "b"]],
    [
        CountQuery.gapped(["a"], ["b"], 0, 0),
        CountQuery.gapped(["c", "a"], [AB], 0, 2),
        CountQuery.gapped([AB], ["c", "a"], 0, 1),
    ],
)
def test_index_matches_naive_scanner(tmp_path_factory, sentences, queries):
    for index in _built_and_reloaded(tmp_path_factory, sentences):
        for q in queries:
            assert index.count(q) == naive_count(sentences, q), q.canonical()


@settings(max_examples=60, deadline=None)
@given(SENTENCES, QUERIES, st.integers(1, 4))
@example([["a", "b"], ["b", "a", "b"], ["a", "b"]], [CountQuery.gapped(["a"], ["b"], 0, 1)], 2)
def test_snippets_match_naive_scanner(tmp_path_factory, sentences, queries, limit):
    lines = [" ".join(s) for s in sentences]
    for index in _built_and_reloaded(tmp_path_factory, sentences):
        for q in queries:
            expected = [line for line, s in zip(lines, sentences) if naive_count([s], q)]
            assert index.snippets(q, limit) == expected[:limit], q.canonical()


@settings(max_examples=40, deadline=None)
@given(SENTENCES)
def test_count_monotone_in_gap_width(tmp_path_factory, sentences):
    tmp = tmp_path_factory.mktemp("mono")
    index = make_index(tmp, [" ".join(s) for s in sentences])
    narrow = CountQuery.gapped(["a"], ["b"], 1, 2)
    wide = CountQuery.gapped(["a"], ["b"], 1, 4)
    assert index.count(wide) >= index.count(narrow)


@settings(max_examples=40, deadline=None)
@given(SENTENCES)
def test_alternatives_superset_monotone(tmp_path_factory, sentences):
    tmp = tmp_path_factory.mktemp("alts")
    index = make_index(tmp, [" ".join(s) for s in sentences])
    assert index.count(CountQuery.of({"a", "b"})) >= index.count(CountQuery.of("a"))


PHRASE_TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "z"])  # "z" is never indexed
ALT_SETS = st.frozensets(PHRASE_TOKENS, min_size=1, max_size=3)


def _naive_occurrences(sentences: list[list[str]], words, within=None) -> list:
    """Each token in ``words`` in a sentence holding one of ``within``, as ``occurrences`` gives it.

    No ``within`` admits every sentence.  A position counts the tokens
    of ``sentences`` before it, and a sentence's bounds are its first
    position and the one after its last.
    """
    found, begin = [], 0
    for sent in sentences:
        end = begin + len(sent)
        if within is None or not within.isdisjoint(sent):
            found += [(begin + o, begin, end) for o, token in enumerate(sent) if token in words]
        begin = end
    return found


@settings(max_examples=80, deadline=None)
@given(SENTENCES, ALT_SETS, st.none() | ALT_SETS, st.booleans())
@example([["a", "b"], ["b", "c"]], frozenset({"z"}), None, False)  # absent
@example([["a", "b"], ["c"]], frozenset({"a", "c", "z"}), None, True)  # several words, one absent
@example([["a", "b", "a"], ["b"]], frozenset({"a"}), None, True)  # repeat
@example([["a", "b", "a"], ["a"], ["c", "a", "b"]], frozenset({"a"}), frozenset({"b"}), True)
@example([["a", "b"], ["c"]], frozenset({"a", "c"}), frozenset({"z"}), False)  # within absent
def test_occurrences_match_naive_scan(tmp_path_factory, sentences, words, within, reload):
    tmp = tmp_path_factory.mktemp("occ")
    index = make_index(tmp, [" ".join(s) for s in sentences], reload=reload)
    ids = index.encode(words)
    got = index.occurrences(ids, ids if within is None else index.encode(within))
    assert got == _naive_occurrences(sentences, words, within)


SHORT_RUNS = st.lists(PHRASE_TOKENS, max_size=3).map(tuple)
MIDDLES = [("out", "of"), ("out", "of", "the"), ("of",), ("of", "the")]
BONE_MARROW = [  # the third is cut off before the tail's second word
    "cells out of the bone marrow",
    "cells out of bone marrow",
    "cells of the bone",
    "cells of bone marrow of bone marrow",
    "marrow cells of bone",
]
POSITIONS = st.lists(ALT_SETS, min_size=1, max_size=2)
GAPS = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted)


@settings(max_examples=80, deadline=None)
@given(SENTENCES, POSITIONS, st.lists(SHORT_RUNS, max_size=6), POSITIONS, GAPS, st.booleans())
# Multiword middles sharing a first token, and the empty middle (no determiner).
@example(
    [["a", "b", "c", "d"], ["a", "d"]], [{"a"}], [("b",), ("b", "c"), ()], [{"d"}], (0, 2), False
)
@example([["a", "b", "c"], ["x", "a", "b"]], [{"a"}], [("b",)], [{"c"}], (1, 1), True)  # cut at end
# A tail token that starts a middle.
@example([["a", "b", "b", "c"]], [{"a"}], [("b",), ("b", "b")], [{"b", "c"}], (1, 2), False)
@example([["a", "b"]], [{"z"}], [("b",)], [{"a"}], (1, 1), False)  # absent head
@example(
    [s.split() for s in BONE_MARROW], [{"cells"}], MIDDLES, [{"bone"}, {"marrow"}], (1, 3), True
)
def test_filled_gap_matches_naive_scanner(
    tmp_path_factory, sentences, head, fill, tail, gap, reload
):
    """A filled gapped query counts, and finds, what its spelled-out phrases do."""
    tmp = tmp_path_factory.mktemp("fill")
    lines = [" ".join(s) for s in sentences]
    index = make_index(tmp, lines, reload=reload)
    query = CountQuery.gapped(head, tail, *gap, frozenset(fill))
    lo, hi = gap
    phrases = [CountQuery.of(*head, *run, *tail) for run in set(fill) if lo <= len(run) <= hi]
    assert index.count(query) == sum(naive_count(sentences, p) for p in phrases)
    expected = [
        line for line, sent in zip(lines, sentences) if any(naive_count([sent], p) for p in phrases)
    ]
    assert index.snippets(query, len(lines)) == expected


def _check_against_naive_scans(index: CorpusIndex, sentences, queries, filled, phrases) -> None:
    """Counts, snippets and occurrences of ``index`` equal those of a scan of ``sentences``.

    ``filled`` is a filled gapped query and ``phrases`` the phrases it spells out.
    """
    lines = [" ".join(s) for s in sentences]
    for q in [*queries, filled]:
        spelled = phrases if q is filled else [q]
        per_line = [sum(naive_count([s], p) for p in spelled) for s in sentences]
        assert index.count(q) == sum(per_line), q.canonical()
        expected = [line for line, n in zip(lines, per_line) if n]
        assert index.snippets(q, len(lines)) == expected, q.canonical()
    for words in ({"a"}, {"b", "e"}, {"c", "d", "z"}, {"z"}):
        ids = index.encode(words)
        assert index.occurrences(ids, ids) == _naive_occurrences(sentences, words)
        within = {"e", "z"}
        expected = _naive_occurrences(sentences, words, within)
        assert index.occurrences(ids, index.encode(within)) == expected


BLOCK_SIZES = st.sampled_from([1, 2, 3, 5])


@settings(max_examples=60, deadline=None)
@given(SENTENCES, QUERIES, BLOCK_SIZES, st.lists(SHORT_RUNS, max_size=4), GAPS)
# A phrase across every boundary of 2-token blocks, and one-token blocks.
@example([["a", "b", "c"], ["d", "a", "b", "c", "e"]], _random_queries(1), 2, [("b",)], (0, 2))
@example([["a", "b", "a"], ["b", "c"]], [CountQuery.of("a", "b")], 1, [(), ("a",)], (0, 1))
def test_queries_across_postings_blocks_match_naive_scans(
    tmp_path_factory, sentences, queries, block, fill, gap
):
    """With blocks of a few tokens, postings and matches cross block boundaries."""
    filled = CountQuery.gapped([AB], [{"c", "d"}], *gap, frozenset(fill))
    phrases = [CountQuery.of(AB, *run, {"c", "d"}) for run in set(fill) if gap[0] <= len(run) <= gap[1]]
    with patch.object(corpus, "_BLOCK", block):
        for index in _built_and_reloaded(tmp_path_factory, sentences):
            blocks = -(-index.total() // block)
            assert index.info()["blocks"] == blocks
            assert len(index._post_starts) == blocks * len(index.vocab) + 1
            _check_against_naive_scans(index, sentences, queries, filled, phrases)


def test_a_posting_past_its_block_is_a_data_error(tmp_path):
    """A position of a block before the last must be below the block size."""
    with patch.object(corpus, "_BLOCK", 2):
        index = make_index(tmp_path, ["a b a", "b a"])
        positions = array("Q", index._sections["post_positions"])
        assert positions[0] == 0  # "a" at 0, in the first block
        positions[0] = 2  # still inside the stream, but past the first block
        sections = dict(index._sections, post_positions=positions)
        corpus._write(tmp_path / "bad.idx", sections)
        with pytest.raises(CorpusError, match="index file is corrupt: bad postings"):
            CorpusIndex.load(tmp_path / "bad.idx")
        with pytest.raises(CorpusError, match="index file is corrupt: bad postings"):
            CorpusIndex(sections)


def test_a_corpus_of_more_than_one_block(tmp_path_factory):
    """At the real block size, a corpus past 65,536 tokens has two blocks of 2-byte postings."""
    rng = random.Random(7)
    sentences = [[rng.choice("abcde") for _ in range(rng.randint(1, 13))] for _ in range(10_100)]
    for index in _built_and_reloaded(tmp_path_factory, sentences):
        info = index.info()
        assert info["tokens"] > corpus._BLOCK == 1 << 16
        assert info["blocks"] == 2
        assert info["bytes.post_positions"] == 2 * info["tokens"]
        # A sentence holds the boundary: some matches run across it.
        at = bisect_right(index._starts, corpus._BLOCK) - 1
        assert index._starts[at] < corpus._BLOCK < index._starts[at + 1]
        filled = CountQuery.gapped(["a"], ["b", "c"], 0, 2, frozenset({(), ("d",), ("e", "a")}))
        phrases = [CountQuery.of("a", *run, "b", "c") for run in [(), ("d",), ("e", "a")]]
        _check_against_naive_scans(index, sentences, _random_queries(3), filled, phrases)


def test_a_big_endian_round_trip_gives_the_same_columns(tmp_path, monkeypatch):
    """Saved and loaded as on a big-endian machine, 2-byte columns are swapped twice.

    With 256-token blocks and 512 tokens, the sentence and run lengths
    take 2 bytes, as do the offsets they are rebuilt into, and every other
    column 1: so no column is narrowed or range-checked a byte plane at a
    time, which reads the machine's own byte order.
    """
    monkeypatch.setattr(corpus, "_BLOCK", 256)
    lines = [" ".join(["a"] * 280 + ["b", "c"] * 10), " ".join(["d", "e"] * 106)]
    built = make_index(tmp_path, lines)
    monkeypatch.setattr(corpus, "_LITTLE_ENDIAN", False)
    built.save(tmp_path / "big.idx")
    data = (tmp_path / "big.idx").read_bytes()
    start, end = _section_spans(data)["starts"]
    assert data[start:end] == b"\x01\x2c\x00\xd4"  # 300 and 212, most significant byte first
    loaded = CorpusIndex.load(tmp_path / "big.idx")
    assert _columns(loaded) == _columns(built)
    assert [loaded.text(0), loaded.text(1)] == lines


def _widths(tmp_path_factory, lines: list[str]) -> dict:
    """``info`` of the reloaded index of ``lines``, once it and the built one pass the checks.

    Each counts as a scan of the normalized lines does and gives back
    every line, and the two hold equal columns.
    """
    sentences = [normalize_line(line) for line in lines]
    tmp = tmp_path_factory.mktemp("widths")
    built, loaded = make_index(tmp, lines), make_index(tmp, lines, name="reloaded.txt", reload=True)
    for index in (built, loaded):
        assert [index.text(sid) for sid in range(len(lines))] == lines
        for q in _random_queries(5) + _random_queries(6):
            assert index.count(q) == naive_count(sentences, q), q.canonical()
    assert _columns(loaded) == _columns(built)
    return loaded.info()


class TestColumnWidths:
    """A length or mark column takes 2 bytes once one value needs them."""

    def test_a_sentence_of_300_tokens(self, tmp_path_factory):
        rng = random.Random(11)
        lines = [" ".join(rng.choice("abcde") for _ in range(300)), "a b", "c d e"]
        info = _widths(tmp_path_factory, lines)
        assert info["bytes.starts"] == 2 * info["sentences"]

    def test_a_token_that_fills_a_block(self, tmp_path_factory):
        lines = [" ".join(["a"] * 10)] * 25 + [" ".join(["a"] * 6), "b c a", "d e"]
        with patch.object(corpus, "_BLOCK", 256):  # "a" is all of the first block
            info = _widths(tmp_path_factory, lines)
        assert info["blocks"] == 2
        assert info["bytes.post_starts"] == 2 * info["blocks"] * info["vocabulary"]
        assert info["bytes.post_positions"] == info["tokens"]

    def test_more_than_255_marks(self, tmp_path_factory):
        # 129 runs between "a" and "A", two spellings of one token.
        lines = [f"a {'-' * k} A" for k in range(1, 130)] + ["b c"]
        info = _widths(tmp_path_factory, lines)
        assert info["separators"] * info["most_spellings"] > 256
        assert info["bytes.marks"] == 2 * info["tokens"]
