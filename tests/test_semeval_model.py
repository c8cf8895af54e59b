"""The SemEval model fitted once, and ``semeval_classify``'s reuse of a fit."""

import gc
import weakref
from collections import Counter

import pytest

from npstruct import datasets, relsim
from npstruct.corpus import IngestConfig, build_index
from npstruct.relsim import (
    SemevalModel,
    TfidfWeights,
    extract_pair_features,
    knn_classify,
    semeval_classify,
    semeval_vector,
)
from perfbench import inputs

SEED, SENTENCES = 2, 1_000  # two of the twelve training examples are positive


def refit_reference(example, train, lex, index):
    """Classify ``example`` by fitting on ``train`` anew, as each call once did."""
    train_vecs = [(semeval_vector(ex, lex, index), label) for ex, label in train]
    weights = TfidfWeights.fit([v for v, _ in train_vecs])
    weighted_train = [
        (weights.weight(v), "true" if label else "false") for v, label in train_vecs
    ]
    label = knn_classify(weighted_train, weights.weight(semeval_vector(example, lex, index)))
    if label is None:
        trues = sum(1 for _, lab in train if lab)
        label = "true" if trues >= len(train) - trues else "false"
    result = label == "true"
    if relsim.lemma(lex, example.entity_head(1)) == relsim.lemma(lex, example.entity_head(2)):
        result = False
    return result


def build(tmp_path, data, name="corpus.txt"):
    path = tmp_path / name
    data.write_corpus(path)
    return build_index(path, IngestConfig(tagged=True))


@pytest.fixture(scope="module")
def data():
    return inputs.generate("relsim", SEED, SENTENCES)


@pytest.fixture
def index(tmp_path, data):
    return build(tmp_path, data)


@pytest.fixture
def lex():
    return datasets.default_lexicon()


@pytest.fixture
def fits(monkeypatch):
    """The index of every ``SemevalModel.fit`` call, in order."""
    calls = []
    fit = SemevalModel.fit

    def counting(train, lex, index=None):
        calls.append(index)
        return fit(train, lex, index)

    monkeypatch.setattr(SemevalModel, "fit", staticmethod(counting))
    return calls


def semeval_tests(data):
    return [item.args[0] for item in data.items if item.kind == "semeval"]


def test_model_matches_a_refit_per_example(data, index, lex):
    train = data.semeval_train
    assert {label for _, label in train} == {True, False}
    model = SemevalModel.fit(train, lex, index)
    want = [refit_reference(ex, train, lex, index) for ex in semeval_tests(data)]
    assert [model.classify(ex) for ex in semeval_tests(data)] == want
    assert [semeval_classify(ex, train, lex, index=index) for ex in semeval_tests(data)] == want
    assert set(want) == {True, False}


def test_model_extracts_only_the_test_example(data, index, lex, monkeypatch):
    model = SemevalModel.fit(data.semeval_train, lex, index)
    calls = Counter()

    def counting(index, noun1, noun2, lex):
        calls[noun1, noun2] += 1
        return extract_pair_features(index, noun1, noun2, lex)

    monkeypatch.setattr(relsim, "extract_pair_features", counting)
    example = semeval_tests(data)[0]
    model.classify(example)
    assert calls == {(example.entity_head(1), example.entity_head(2)): 1}


def test_fit_rejects_an_empty_training_set(lex):
    with pytest.raises(ValueError, match="train must be nonempty"):
        SemevalModel.fit([], lex)


def test_an_equal_training_list_reuses_the_fit(data, index, lex, fits):
    for ex in semeval_tests(data)[:3]:
        semeval_classify(ex, data.semeval_train, lex, index=index)
        semeval_classify(ex, list(data.semeval_train), lex, index=index)
    assert fits == [index]


def test_a_changed_training_list_refits(data, index, lex, fits):
    example = semeval_tests(data)[0]
    semeval_classify(example, data.semeval_train, lex, index=index)
    semeval_classify(example, data.semeval_train[1:], lex, index=index)
    semeval_classify(example, data.semeval_train, lex, index=index)
    assert len(fits) == 3


def test_another_lexicon_refits(data, index, lex, fits):
    example = semeval_tests(data)[0]
    semeval_classify(example, data.semeval_train, lex, index=index)
    semeval_classify(example, data.semeval_train, datasets.default_lexicon(), index=index)
    assert len(fits) == 2


def test_another_index_refits(tmp_path, data, index, lex, fits):
    other = build(tmp_path, data, "other.txt")
    example = semeval_tests(data)[0]
    for idx in (index, other, index):
        semeval_classify(example, data.semeval_train, lex, index=idx)
    assert fits == [index, other, index]


def test_no_index_refits(data, index, lex, fits):
    example = semeval_tests(data)[0]
    semeval_classify(example, data.semeval_train, lex, index=index)
    semeval_classify(example, data.semeval_train, lex)
    semeval_classify(example, data.semeval_train, lex)
    assert fits == [index, None, None]


def test_a_used_index_and_lexicon_are_not_kept_alive(tmp_path, data):
    index, lex = build(tmp_path, data), datasets.default_lexicon()
    semeval_classify(semeval_tests(data)[0], data.semeval_train, lex, index=index)
    refs = weakref.ref(index), weakref.ref(lex)
    del index, lex
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
