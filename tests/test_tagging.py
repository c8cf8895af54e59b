"""The tiny deterministic tagger used to build tagged test corpora."""

from npstruct.corpus import IngestConfig, build_index
from npstruct.morphology import PRONOUNS
from npstruct.tagging import TinyTagger, write_tagged_corpus


def make_tagger(small_lex):
    return TinyTagger(
        verbs=frozenset({"include", "hold"}),
        adjectives=frozenset({"rare"}),
        lex=small_lex,
    )


def test_closed_classes(small_lex):
    tagger = make_tagger(small_lex)
    assert tagger.tag_word("the") == "D"
    assert tagger.tag_word("of") == "P"
    assert tagger.tag_word("and") == "C"
    assert tagger.tag_word("which") == "W"
    assert tagger.tag_word("because") == "S"
    assert tagger.tag_word("should") == "M"
    assert tagger.tag_word("was") == "A"
    assert tagger.tag_word("they") == "PRO"
    assert tagger.tag_word("yourselves") == "PRO"
    assert all(tagger.tag_word(w) == "PRO" for w in PRONOUNS)


def test_open_classes(small_lex):
    tagger = make_tagger(small_lex)
    assert tagger.tag_word("includes") == "V"  # inflected form of a known verb
    assert tagger.tag_word("held") == "V"
    assert tagger.tag_word("rare") == "J"
    assert tagger.tag_word("quickly") == "R"
    assert tagger.tag_word("committee") == "N"  # noun by default


def test_tag_line_format(small_lex):
    tagger = make_tagger(small_lex)
    assert tagger.tag_line("the committee includes") == "the_D committee_N includes_V"


def test_written_corpus_is_indexable(tmp_path, small_lex):
    tagger = make_tagger(small_lex)
    path = tmp_path / "tagged.txt"
    write_tagged_corpus(["The committee includes members ."], tagger, path)
    index = build_index(path, IngestConfig(tagged=True))
    assert index.tagged
    _toks, tags = index.sentence_codes(0)
    assert [index.tag_vocab[t] for t in tags] == ["D", "N", "V", "N"]
