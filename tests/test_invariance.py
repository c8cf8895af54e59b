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
"""

from __future__ import annotations

import random

import pytest

from npstruct import bracketer, coordination, datasets, ppattach
from perfbench import inputs
from tests.conftest import CountRecorder, make_provider

SEED = 1001
# Corpus size of each workload, and how many of its items are decided.
SENTENCES = {"bracket": 1_000, "attach": 4_000}
ITEMS = {"bracket": 60, "attach": 120}

REWRITES = {
    "doubled": lambda lines: [line for line in lines for _ in range(2)],
    "shuffled": lambda lines: random.Random(SEED).sample(lines, len(lines)),
    "upper": lambda lines: [line.upper() for line in lines],
}

# Item kind -> (voter names, run one voter).
TASKS = {
    "bracket": (
        bracketer.VOTERS,
        lambda name, item, provider, lex: bracketer.run_voter(
            name, item, provider, lex, bracketer.VoteConfig()
        ),
    ),
    "pp": (
        ppattach.VOTERS,
        lambda name, item, provider, lex: ppattach.run_pp_voter(
            name, item, provider, lex, ppattach.PPVoteConfig()
        ),
    ),
    "coord": (
        coordination.VOTERS,
        lambda name, item, provider, lex: coordination.run_coord_voter(
            name, item, provider, lex, coordination.CoordVoteConfig()
        ),
    ),
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
