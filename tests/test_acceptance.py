"""Acceptance gate: one test per headline criterion.

Each test here pins down a user-visible guarantee of the toolkit:
reference statistics values, bundled-dataset integrity, count-provider
correctness against an independent scanner, recorded-count decision
traces, algebraic properties, and end-to-end pipelines on rigged
corpora.
"""

from __future__ import annotations

import random
import re
import time

import pytest

from npstruct.assoc import NounTriple, assoc_bracketing
from npstruct.bracketer import DEFAULT_VOTERS, bracket, run_voter
from npstruct.coordination import (
    CoordQuad,
    coord_heuristic,
    number_agreement_decision,
)
from npstruct.corpus import (
    CountQuery,
    IndexProvider,
    IngestConfig,
    MappingProvider,
    build_index,
)
from npstruct.datasets import biomedical_bracketing, treebank_coordination
from npstruct.decisions import (
    ABSTAIN,
    LEFT,
    NOUN,
    NOUN_COORD,
    NP_COORD,
    RIGHT,
    Decision,
    majority_vote,
)
from npstruct.morphology import MorphLexicon, inflections
from npstruct.ppattach import PPQuad, pp_pipeline, run_pp_voter
from npstruct.relsim import dice, knn_classify, solve_sat
from npstruct.stats import (
    EvalReport,
    pearson_chi2,
    wilson_interval,
)
from npstruct.tagging import TinyTagger, write_tagged_corpus

# ---------------------------------------------------------------------------
# Shared lexicon covering every word the acceptance fixtures use.

LEX = MorphLexicon.from_entries(
    {
        # bracketing fixture vocabulary
        "brain": ["brains"], "stem": ["stems"], "cell": ["cells"],
        "field": ["fields"], "goal": ["goals"], "kick": ["kicks"],
        "world": ["worlds"], "health": ["healths"], "report": ["reports"],
        "night": ["nights"], "shift": ["shifts"], "worker": ["workers"],
        "peer": ["peers"], "group": ["groups"], "review": ["reviews"],
        "donor": ["donors"], "kidney": ["kidneys"], "graft": ["grafts"],
        "steel": ["steels"], "pipe": ["pipes"], "fitting": ["fittings"],
        "glass": ["glasses"], "fiber": ["fibers"], "wire": ["wires"],
        "town": ["towns"], "hall": ["halls"], "budget": ["budgets"],
        "farm": ["farms"], "equipment": [], "yard": ["yards"],
        # attachment / coordination / analogy vocabulary
        "customer": ["customers"], "demand": ["demands"],
        "bus": ["buses"], "train": ["trains"], "station": ["stations"],
        "member": ["members"], "committee": ["committees"],
        "meeting": ["meetings"], "team": ["teams"], "player": ["players"],
        "analysis": ["analyses"],
        "include": ["includes", "included", "including"],
        "hold": ["holds", "held", "holding"],
        "meet": ["meets", "met", "meeting"],
        "chair": ["chairs", "chaired", "chairing"],
        "be": ["is", "are", "was", "were", "am", "been", "being"],
    }
)


def _key(*positions) -> str:
    return CountQuery.of(*positions).canonical()


def _gapped_key(left, right, lo, hi) -> str:
    return CountQuery.gapped(left, right, lo, hi).canonical()


def _provider(tmp_path, lines, tagged=False, name="corpus.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return IndexProvider(build_index(path, IngestConfig(tagged=tagged)))


# ---------------------------------------------------------------------------
# 1. Statistics reference values.


def test_statistics_reference_values():
    start = time.monotonic()

    low, high = wilson_interval(195, 244)
    report = EvalReport(correct=195, wrong=49, abstained=0)
    assert report.accuracy == pytest.approx(0.7992, abs=5e-4)
    assert report.margin == report.accuracy - low
    assert report.margin == pytest.approx(0.0547, abs=1e-3)
    assert 0.0 <= low < high <= 1.0

    _, p = pearson_chi2(189, 55, 195, 49)
    assert p == pytest.approx(0.5072, abs=2e-3)
    chi2, p = pearson_chi2(197, 47, 218, 26)
    assert chi2 == pytest.approx(7.104, abs=1e-2)
    assert p == pytest.approx(0.0077, abs=5e-4)
    chi2, p = pearson_chi2(218, 26, 203, 41)
    assert chi2 == pytest.approx(3.893, abs=1e-2)
    assert p == pytest.approx(0.0485, abs=1e-3)

    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Bundled-dataset integrity.


def test_bundled_dataset_integrity():
    start = time.monotonic()

    rows = biomedical_bracketing()
    lefts = sum(1 for _, label in rows if label == LEFT)
    rights = sum(1 for _, label in rows if label == RIGHT)
    # The source table documents 430 rows (361 left / 69 right); one
    # right-bracketed row is missing from the available text, so the
    # bundled file carries 429.
    assert (len(rows), lefts, rights) == (429, 361, 68)
    assert (430 - len(rows), 361 - lefts, 69 - rights) == (1, 0, 1)
    assert lefts / len(rows) == pytest.approx(0.8395, abs=1e-2)

    coord = treebank_coordination()
    assert len(coord) == 428
    noun = sum(1 for _, label in coord if label == NOUN_COORD)
    assert noun / len(coord) == pytest.approx(0.5654, abs=1e-2)

    report = EvalReport(correct=183, wrong=31, abstained=30)
    assert report.accuracy == pytest.approx(0.8551, abs=5e-4)
    assert report.coverage == pytest.approx(0.8770, abs=5e-4)

    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 3. Count-provider equivalence with an independent scanner.


def test_count_provider_matches_reference_scanner(tmp_path):
    start = time.monotonic()
    rng = random.Random(20240817)
    vocab = [f"w{i}" for i in range(40)]
    sentences = [
        [rng.choice(vocab) for _ in range(rng.randint(3, 12))] for _ in range(5000)
    ]
    provider = _provider(tmp_path, [" ".join(s) for s in sentences], name="big.txt")

    # Reference scanner: overlapping regex matches over a single string
    # with newline sentence separators (which no token pattern can cross).
    text = " " + " \n ".join(" ".join(s) for s in sentences) + " "

    def scan(query: CountQuery) -> int:
        def pos(alts):
            return "(?:" + "|".join(re.escape(a) for a in sorted(alts)) + ")"

        if query.gap is None:
            patterns = [" ".join(pos(p) for p in query.phrase)]
        else:
            left = " ".join(pos(p) for p in query.phrase[: query.split])
            right = " ".join(pos(p) for p in query.phrase[query.split :])
            lo, hi = query.gap
            patterns = [
                left + " [a-z0-9]+" * g + " " + right for g in range(lo, hi + 1)
            ]
        return sum(len(re.findall(f"(?= {p} )", text)) for p in patterns)

    def random_position():
        if rng.random() < 0.3:
            return frozenset(rng.sample(vocab, rng.randint(2, 4)))
        return rng.choice(vocab)

    mismatches = 0
    for i in range(1000):
        if rng.random() < 0.5:
            # Half the queries are drawn from real sentences so they hit.
            sent = rng.choice(sentences)
            k = rng.randint(1, min(4, len(sent)))
            at = rng.randint(0, len(sent) - k)
            positions = sent[at : at + k]
        else:
            positions = [random_position() for _ in range(rng.randint(1, 4))]
        if len(positions) >= 2 and rng.random() < 0.4:
            split = rng.randint(1, len(positions) - 1)
            lo = rng.randint(1, 3)
            query = CountQuery.gapped(
                positions[:split], positions[split:], lo, lo + rng.randint(0, 2)
            )
        else:
            query = CountQuery.of(*positions)
        if provider.count(query) != scan(query):
            mismatches += 1
    assert mismatches == 0

    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 4. Direct-count decision traces from recorded counts.


def test_direct_count_decisions_from_recorded_counts():
    start = time.monotonic()
    triple = NounTriple("brain", "stem", "cells")
    i1 = inflections(LEX, "brain")
    i2 = inflections(LEX, "stem")
    i3 = inflections(LEX, "cells")

    concat = MappingProvider(
        {
            _key({"brain" + s for s in i2}): 98_633_000,
            _key({"stem" + s for s in i3}): 498,
        }
    )
    assert run_voter("concat-adjacency", triple, concat, LEX).label == LEFT

    triples = MappingProvider(
        {
            _key({"brain" + s for s in i2}, i3): 745_700,
            _key(i1, {"stem" + s for s in i3}): 304,
        }
    )
    assert run_voter("concat-triple", triple, triples, LEX).label == LEFT

    wildcard = MappingProvider(
        {
            _gapped_key(["brain", i2], [i3], 1, 1): 635_701,
            _gapped_key([i1], ["stem", i3], 1, 1): 272_601,
        }
    )
    assert run_voter("wildcard-adjacency", triple, wildcard, LEX).label == LEFT

    reorder = MappingProvider(
        {_key(i3, "brain", i2): 138_010, _key("stem", i3, i1): 25_020}
    )
    assert run_voter("reorder", triple, reorder, LEX).label == LEFT

    genitive = MappingProvider(
        {_key("brain", "s", "stem", i3): 285, _key("brain", "stem", "s", i3): 5}
    )
    assert run_voter("genitive", triple, genitive, LEX).label == LEFT

    variability = MappingProvider({_key("brain", i2 - {"stem"}, i3): 882})
    assert run_voter("inflection-variability", triple, variability, LEX).label == LEFT

    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 5. Algebraic property suites.


def test_property_suites():
    start = time.monotonic()
    rng = random.Random(7)

    # Dice coefficient: symmetric, bounded, 1 on identical nonzero vectors.
    features = [f"f{i}" for i in range(12)]
    for _ in range(10_000):
        a = {f: rng.uniform(0.0, 5.0) for f in rng.sample(features, rng.randint(1, 6))}
        b = {f: rng.uniform(0.0, 5.0) for f in rng.sample(features, rng.randint(1, 6))}
        ab = dice(a, b)
        assert ab == pytest.approx(dice(b, a))
        assert 0.0 <= ab <= 1.0 + 1e-12
        assert dice(a, a) == pytest.approx(1.0)

    # Majority vote ignores voter order.
    for _ in range(300):
        labels = [rng.choice([LEFT, RIGHT, ABSTAIN]) for _ in range(rng.randint(0, 9))]
        decisions = [Decision(label) for label in labels]
        baseline = majority_vote(decisions, default=LEFT).label
        shuffled = list(decisions)
        rng.shuffle(shuffled)
        assert majority_vote(shuffled, default=LEFT).label == baseline

    # PMI and conditional-probability scores rank the same way when the
    # compared pairs share the first word (the dependency comparison).
    triple = NounTriple("alpha", "beta", "gamma")
    plain = MorphLexicon()
    for _ in range(1000):
        counts = {}
        for w in ("alpha", "beta", "gamma"):
            counts[f"{w}|{w}s"] = rng.randint(1, 1000)
        for wi, wj in (("alpha", "beta"), ("beta", "gamma"), ("alpha", "gamma")):
            counts[f"{wi} {wj}|{wj}s"] = rng.randint(1, 500)
        provider = MappingProvider(counts, total_tokens=10_000)
        via_prob = assoc_bracketing("prob", "dependency", triple, provider, plain)
        via_pmi = assoc_bracketing("pmi", "dependency", triple, provider, plain)
        assert via_prob.label == via_pmi.label

    # Chi-squared is invariant under simultaneous row and column swap,
    # and never negative.
    for _ in range(1000):
        a, b, c, d = (rng.randint(1, 10**6) for _ in range(4))
        x = pearson_chi2(a, b, c, d)[0]
        assert x >= 0
        assert pearson_chi2(d, c, b, a)[0] == pytest.approx(x, rel=1e-9)

    # Wilson interval stays inside the unit interval.
    for _ in range(1000):
        total = rng.randint(1, 10_000)
        correct = rng.randint(0, total)
        low, high = wilson_interval(correct, total)
        assert 0.0 <= low <= high <= 1.0

    # Nearest-neighbour classification ignores training order.
    train = [
        ({f: rng.uniform(0, 3) for f in rng.sample(features, 4)}, rng.choice("xy"))
        for _ in range(12)
    ]
    query = {f: rng.uniform(0, 3) for f in rng.sample(features, 4)}
    baseline = knn_classify(train, query)
    for _ in range(50):
        shuffled = list(train)
        rng.shuffle(shuffled)
        assert knn_classify(shuffled, query) == baseline

    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 6. End-to-end pipelines on rigged corpora.

LEFT_TRIPLES = [
    ("brain", "stem", "cells", "bs"),
    ("field", "goal", "kicks", "fg"),
    ("world", "health", "reports", "wh"),
    ("night", "shift", "workers", "ns"),
    ("peer", "group", "reviews", "pg"),
]

RIGHT_TRIPLES = [
    ("donor", "kidney", "grafts", "kg"),
    ("steel", "pipe", "fittings", "pf"),
    ("glass", "fiber", "wires", "fw"),
    ("town", "hall", "budgets", "hb"),
    ("farm", "equipment", "yards", "ey"),
]


def _left_lines(w1, w2, w3, abbr12):
    return (
        [f"{w1} {w2}"] * 6
        + [f"{w3} of the {w1} {w2}"] * 3
        + [f"the {w1}-{w2} {w3} grew"] * 3
        + [f"{w1}'s {w2} {w3}"]
        + [f"{w1}{w2}"] * 2
        + [f"{w1}{w2} {w3}"] * 2
        + [f"{w1} {w2} {abbr12} {w3}"]
    )


def _right_lines(w1, w2, w3, abbr23):
    return (
        [f"{w2} {w3}"] * 6
        + [f"{w2} {w3} of the {w1}"] * 3
        + [f"the {w1} {w2}-{w3} grew"] * 3
        + [f"{w1} {w2}'s {w3}"]
        + [f"{w1}{w3}"] * 2
        + [f"{w1} {w2}{w3}"] * 2
        + [f"{w1} {w2} {w3} {abbr23}"]
        + [f"{w1} {w3}"] * 4
    )


def test_end_to_end_pipelines(tmp_path):
    start = time.monotonic()

    # Bracketing: ten triples over one rigged corpus, full default vote.
    lines = []
    for w1, w2, w3, abbr in LEFT_TRIPLES:
        lines.extend(_left_lines(w1, w2, w3, abbr))
    for w1, w2, w3, abbr in RIGHT_TRIPLES:
        lines.extend(_right_lines(w1, w2, w3, abbr))
    provider = _provider(tmp_path, lines, name="bracketing.txt")
    correct = 0
    for (w1, w2, w3, _), expected in [(t, LEFT) for t in LEFT_TRIPLES] + [
        (t, RIGHT) for t in RIGHT_TRIPLES
    ]:
        result = bracket(NounTriple(w1, w2, w3), provider, LEX)
        assert set(result.votes) == set(DEFAULT_VOTERS)
        if result.final.label == expected:
            correct += 1
    assert correct == 10

    # Attachment: every of-quad resolves to the noun via the short-circuit
    # rule, and each paraphrase pattern fires on its rigged sentence.
    for v, n1, n2 in [
        ("eat", "slice", "cake"),
        ("hold", "review", "budget"),
        ("meet", "member", "committee"),
    ]:
        result = pp_pipeline(PPQuad(v, n1, "of", n2), MappingProvider({}), LEX)
        assert result.final.label == NOUN
        assert list(result.votes) == ["of-rule"]

    quad = PPQuad("meet", "demands", "from", "customers")
    pattern_fixtures = {
        1: (["they meet the customer demands daily"], NOUN),
        3: (["from customers we often meet demands"], "verb"),
        4: (["demands from customers met"], NOUN),
    }
    for pattern, (sentences, label) in pattern_fixtures.items():
        p = _provider(tmp_path, sentences, name=f"pp{pattern}.txt")
        d = run_pp_voter(f"paraphrase-{pattern}", quad, p, LEX)
        assert d.label == label

    # Coordination: number agreement and the repeated-word heuristic.
    agree = CoordQuad("buses", "and", "trains", "station")
    assert number_agreement_decision(agree, LEX).label == NOUN_COORD
    split = CoordQuad("president", "and", "members", "board")
    assert number_agreement_decision(split, LEX).label == NP_COORD
    repeated = CoordQuad("milk", "and", "milk", "products")
    assert coord_heuristic(repeated, "h1").label == NP_COORD

    # Analogy: the rigged block is solved; a tie between equally bad
    # candidates abstains.
    verbs = frozenset({"include", "hold", "chair", "meet"})
    tagger = TinyTagger(verbs=verbs, adjectives=frozenset(), lex=LEX)
    sentences = (
        ["The committee includes all members ."] * 3
        + ["The team includes all players ."] * 3
        + ["the meeting was chaired by members ."] * 2
    )
    tagged_path = tmp_path / "tagged.txt"
    write_tagged_corpus(sentences, tagger, tagged_path)
    index = build_index(tagged_path, IngestConfig(tagged=True))
    assert (
        solve_sat(
            ("committee", "member"),
            [("team", "player"), ("meeting", "member")],
            index,
            LEX,
        )
        == 0
    )
    assert (
        solve_sat(
            ("committee", "member"),
            [("meeting", "player"), ("meeting", "analysis")],
            index,
            LEX,
        )
        is None
    )

    assert time.monotonic() - start < 60.0

