"""Metamorphic checks: rewrite the corpus in a way whose effect is known.

Every voter of the three voting tasks runs, through a recording
provider, on a small seeded ``perfbench`` corpus and on three rewrites
of it.  The original corpus is the reference, so no oracle is needed:

- every line written twice: each count doubles, and no label and no
  ``surface`` score changes;
- lines shuffled: no count and no label changes;
- lines upper-cased: no count changes, nor the label of any voter but
  ``surface``, whose capitalization cues read the raw case.

On these corpora the snippet limit never binds, so a surface voter sees
every matching sentence whatever the line order.  Every task's snippets
are deduplicated by text, so a doubled corpus gives each ``surface``
voter the same snippets, and its scores stay the same.

The ``sat`` and ``semeval`` solvers run on a seeded tagged ``relsim``
corpus, doubled and shuffled: doubling doubles each SAT pair's joining
features, and neither rewrite changes a feature set or an answer.
Upper-casing would change the tags, so it is left out there.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from npstruct import bracketer, coordination, datasets, ppattach, relsim
from npstruct.corpus import IngestConfig, build_index
from perfbench import inputs
from tests.conftest import CountRecorder, make_provider

SEED = 1001
# Corpus size of each workload, and how many of its items are decided.
SENTENCES = {"bracket": 1_000, "attach": 4_000}
ITEMS = {"bracket": 60, "attach": 120}
RELSIM_SENTENCES = 1_000

REWRITES = {
    "doubled": lambda lines: [line for line in lines for _ in range(2)],
    "shuffled": lambda lines: random.Random(SEED).sample(lines, len(lines)),
    "upper": lambda lines: [line.upper() for line in lines],
}

# Item kind -> (voter names, run one voter).
TASKS = {
    "bracket": (bracketer.VOTERS, bracketer.run_voter),
    "pp": (ppattach.VOTERS, ppattach.run_pp_voter),
    "coord": (coordination.VOTERS, coordination.run_coord_voter),
}


@pytest.fixture(scope="module")
def decide(tmp_path_factory):
    """(workload, rewrite) -> {(item number, voter): (item kind, decision, counts)},
    where counts are the voter's [(query, count), ...] in order."""
    lex = datasets.default_lexicon()
    done = {}

    def get(workload: str, rewrite: str | None = None):
        if (workload, rewrite) not in done:
            generated = inputs.generate(workload, SEED, SENTENCES[workload])
            lines = REWRITES[rewrite](generated.lines) if rewrite else generated.lines
            tmp = tmp_path_factory.mktemp(f"{workload}-{rewrite}")
            recorder = CountRecorder(make_provider(tmp, lines))
            out = {}
            for i, item in enumerate(generated.items[: ITEMS[workload]]):
                voters, run = TASKS[item.kind]
                for name in voters:
                    recorder.counts = []
                    d = run(name, item.args[0], recorder, lex)
                    out[i, name] = (item.kind, d, recorder.counts)
            done[workload, rewrite] = out
        return done[workload, rewrite]

    return get


def _labels(decisions, skip=()):
    return {key: d.label for key, (_kind, d, _counts) in decisions.items() if key[1] not in skip}


def _counts(decisions):
    return {key: counts for key, (_kind, _d, counts) in decisions.items()}


def _surface_scores(decisions):
    """Item kind -> {item number: the ``surface`` voter's scores}."""
    out = {}
    for (i, name), (kind, d, _counts) in decisions.items():
        if name == "surface":
            out.setdefault(kind, {})[i] = (d.left_score, d.right_score)
    return out


@pytest.mark.parametrize("workload", sorted(SENTENCES))
def test_the_reference_run_counts_and_decides(workload, decide):
    base = decide(workload)
    assert any(n for counts in _counts(base).values() for _query, n in counts)
    assert any(label != "abstain" for label in _labels(base).values())


@pytest.mark.parametrize("workload", sorted(SENTENCES))
def test_doubled_lines_double_every_count_and_keep_every_label(workload, decide):
    base, doubled = decide(workload), decide(workload, "doubled")
    twice = {k: [(query, 2 * n) for query, n in counts] for k, counts in _counts(base).items()}
    assert _counts(doubled) == twice
    assert _labels(doubled) == _labels(base)


@pytest.mark.parametrize("workload", sorted(SENTENCES))
def test_doubled_lines_keep_every_surface_score(workload, decide):
    base, doubled = _surface_scores(decide(workload)), _surface_scores(decide(workload, "doubled"))
    assert sorted(base) == {"bracket": ["bracket"], "attach": ["coord", "pp"]}[workload]
    # Each task has cues to double.
    assert all(any(map(any, scores.values())) for scores in base.values())
    assert doubled == base


@pytest.mark.parametrize("workload", sorted(SENTENCES))
def test_shuffled_lines_keep_every_count_and_label(workload, decide):
    base, shuffled = decide(workload), decide(workload, "shuffled")
    assert _counts(shuffled) == _counts(base)
    assert _labels(shuffled) == _labels(base)


@pytest.mark.parametrize("workload", sorted(SENTENCES))
def test_upper_cased_lines_keep_every_count_and_all_but_surface_labels(workload, decide):
    base, upper = decide(workload), decide(workload, "upper")
    assert _counts(upper) == _counts(base)
    assert _labels(upper, skip={"surface"}) == _labels(base, skip={"surface"})


@pytest.fixture(scope="module")
def relate(tmp_path_factory):
    """rewrite -> ({SAT pair: its joining features}, SAT answers, SemEval answers)
    on the seeded ``relsim`` corpus so rewritten."""
    lex = datasets.default_lexicon()
    generated = inputs.generate("relsim", SEED, RELSIM_SENTENCES)
    sat = [item.args for item in generated.items if item.kind == "sat"]
    semeval = [item.args[0] for item in generated.items if item.kind == "semeval"]
    done = {}

    def get(rewrite: str | None = None):
        if rewrite not in done:
            lines = REWRITES[rewrite](generated.lines) if rewrite else generated.lines
            path = tmp_path_factory.mktemp(f"relsim-{rewrite}") / "corpus.txt"
            replace(generated, lines=lines).write_corpus(path)
            index = build_index(path, IngestConfig(tagged=True))
            model = relsim.SemevalModel.fit(generated.semeval_train, lex, index)
            done[rewrite] = (
                {pair: relsim.extract_pair_features(index, *pair, lex)
                 for stem, candidates in sat for pair in (stem, *candidates)},
                [relsim.solve_sat(stem, candidates, index, lex) for stem, candidates in sat],
                [model.classify(example) for example in semeval],
            )
        return done[rewrite]

    return get


def test_the_relsim_reference_run_finds_features_and_answers(relate):
    features, sat, semeval = relate()
    assert sum(map(bool, features.values())) > len(features) * 0.9
    assert any(answer is not None for answer in sat)
    assert len(set(semeval)) == 2


def test_doubled_lines_double_every_pair_feature_and_keep_every_answer(relate):
    (features, *answers), (doubled, *doubled_answers) = relate(), relate("doubled")
    assert doubled == {pair: {f: 2 * n for f, n in c.items()} for pair, c in features.items()}
    assert doubled_answers == answers


def test_shuffled_lines_keep_every_pair_feature_and_answer(relate):
    assert relate("shuffled") == relate()
