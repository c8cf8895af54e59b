"""Whole CLI reports, pinned byte for byte.

The ``bracket``, ``ppattach`` and ``coord`` corpus is written from fixed
sentences chosen so that, for each task, n-gram, paraphrase, heuristic
and surface voters fire on evidence.  The ``sat`` and ``semeval`` corpus
is tagged, so that pair features join the vectors.  Each report's sha256
and summary line are reference values: a change in any label, column,
separator or line order changes them.
"""

import hashlib

import pytest

from npstruct import bracketer, coordination, datasets, ppattach, relsim
from npstruct.cli import _example, run
from npstruct.corpus import CorpusIndex, IndexProvider
from npstruct.morphology import lemma

SENTENCES = [
    # Bracketing: brain stem cells (left), human growth hormone (right).
    "The brain stem is small.",
    "A brain stem lesion.",
    "Stem cells of the brain stem grew.",
    "Cells in the brain stem divide.",
    "The brain-stem cells grew.",
    "The brain stem bs cells were counted.",
    "Brainstem cells and brainstem tissue.",
    "The brain's stem cells.",
    "Growth hormone levels rose.",
    "The growth hormone of humans.",
    "Growth hormones in humans vary.",
    "A human growth-hormone assay.",
    "The human growth hormone gh test.",
    "Human growth matters.",
    # PP attachment.
    "They meet the customer demands daily.",
    "Demands from customers met targets.",
    "Demands from suppliers grew.",
    "We meet at noon.",
    "She ate pizza, with a fork.",
    "(ate pizza) with fork.",
    "With a fork she ate pizza.",
    "He saw him with a telescope.",
    "There is a report on trade.",
    "Eat a slice of cake.",
    # Coordination.
    "The buses station opened.",
    "A buses station and a buses station.",
    "Trains and buses station.",
    "Buses and trains: station.",
    "The chief executive and president spoke.",
    "President and chief executive.",
    "Cars and cars dealers.",
    "Dogs and cat food.",
]

DATASETS = {
    "bracket": ["brain\tstem\tcells\tleft", "human\tgrowth\thormone\tright"],
    "ppattach": [
        "meet\tdemands\tfrom\tcustomers\tN",
        "ate\tpizza\twith\tfork\tV",
        "saw\thim\twith\ttelescope\tV",
        "is\treport\ton\ttrade\tN",
        "eat\tslice\tof\tcake\tN",
    ],
    "coord": [
        "buses\tand\ttrains\tstation\tnoun",
        "president\tand\tchief\texecutive\tNP",
        "cars\tand\tcars\tdealers\tNP",
        "dogs\tand\tcat\tfood\tnoun",
    ],
}

# Task -> (report sha256, summary line).
EXPECTED = {
    "bracket": (
        "90b78cfa3c9d92bb01ca444974bc05c751cbda0e374bf18e53da399016a1fac6",
        "2\t0\t0\t100.00±65.76\t100.00\n",
    ),
    "ppattach": (
        "0b171714e1baca556f0848fd21d3e0e20a08b1f4084ade17b879690d458cbf06",
        "4\t1\t0\t80.00±42.45\t100.00\n",
    ),
    "coord": (
        "fc4972a80ceab32a826c1e997108a4afce1fd9649f03f4adc270226e8a6ac630",
        "3\t1\t0\t75.00±44.94\t100.00\n",
    ),
}

# Voters that must fire on evidence somewhere in each task's dataset.
FIRING = {
    "bracket": ("chi2-adjacency", "paraphrases", "genitive", "abbreviation", "surface"),
    "ppattach": ("ngram-2", "paraphrase-4", "pronoun-n1", "verb-be", "of-rule", "surface"),
    "coord": ("ngram-i", "coord-paraphrase-1", "coord-paraphrase-2", "h1",
              "number-agreement", "surface"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    corpus = tmp / "corpus.txt"
    corpus.write_text("\n".join(SENTENCES) + "\n", encoding="utf-8")
    index = tmp / "corpus.idx"
    assert run(["index", "--corpus", str(corpus), "--out", str(index)]) == 0
    paths = {"index": index}
    for task, rows in DATASETS.items():
        paths[task] = tmp / f"{task}.tsv"
        paths[task].write_text("\n".join(rows) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("task", sorted(EXPECTED))
def test_report_and_summary_are_pinned(task, files, tmp_path, capsys):
    capsys.readouterr()
    report = tmp_path / "report.tsv"
    argv = [task, "--index", str(files["index"]), "--dataset", str(files[task])]
    assert run(argv + ["--report", str(report)]) == 0
    digest, summary = EXPECTED[task]
    assert capsys.readouterr().out == summary
    assert report.read_text(encoding="utf-8").count("\n") == len(DATASETS[task])
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("task", sorted(FIRING))
def test_corpus_makes_each_kind_of_voter_fire(task, files):
    provider = IndexProvider(CorpusIndex.load(files["index"]))
    lex = datasets.default_lexicon()
    if task == "bracket":
        inv = datasets.default_inventory()
        results = [
            bracketer.bracket(t, provider, lex, inventory=inv)
            for t, _ in datasets.BRACKETING.load(files[task])
        ]
    elif task == "ppattach":
        results = [
            ppattach.pp_pipeline(q, provider, lex)
            for q, _ in datasets.PP_ATTACHMENT.load(files[task])
        ]
    else:
        results = [
            coordination.coord_pipeline(q, provider, lex)
            for q, _ in datasets.COORDINATION.load(files[task])
        ]
    fired = {
        name
        for r in results
        for name, d in r.votes.items()
        if not d.abstained and d.note != "below threshold"
    }
    assert set(FIRING[task]) <= fired


TAGGED_SENTENCES = [
    "The_D committee_N includes_V all_D members_N",
    "The_D team_N includes_V all_D players_N",
    "The_D committee_N holds_V meetings_N",
    "The_D committees_N hold_V sessions_N",
    "The_D players_N ignore_V rules_N",
    "The_D chair_N of_P the_D meeting_N",
    "The_D members_N of_P the_D committee_N",
    "The_D players_N of_P the_D team_N",
]

# Answered right, answered wrong, answered on a reversed stem, and a tie.
SAT_ROWS = [
    "committee member\tteam player\tmeeting chair\t0",
    "committee member\tteam player\tmeeting chair\t1",
    "member committee\tplayer team\tchair meeting\t0",
    "committee session\tteam rule\tdog bone\t1",
]

# Both labels once each, so that a test sharing no feature with either
# ties, and the tie falls to the majority.
SEMEVAL_TRAIN = [
    "committees hold meetings\t0:0\t2:2\trel\ttrue",
    "players ignore rules\t0:0\t2:2\trel\tfalse",
]

# Nearest neighbour (twice), majority fallback, and same-lemma negative.
SEMEVAL_TEST = [
    "committees hold sessions\t0:0\t2:2\trel\ttrue",
    "players ignore laws\t0:0\t2:2\trel\tfalse",
    "alpha links beta\t0:0\t2:2\trel\tfalse",
    "member meets members\t0:0\t2:2\trel\ttrue\tcommittee member",
]

# Command -> (report sha256, summary line).
RELSIM_EXPECTED = {
    "sat": (
        "2f0866dc7444368c86fc4aa3976c2bc800ca9b2de3b04416328a2a12ba06de73",
        "answered 3, correct 2\n",
    ),
    "semeval": (
        "3bc2b8a19beaa8295d0de42d968d5000e991d2475d36c4a2fc9832e39700b17d",
        "P 0.5000 R 0.5000 F 0.5000 Acc 0.5000\n",
    ),
}


@pytest.fixture(scope="module")
def tagged_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden-tagged")
    corpus = tmp / "tagged.txt"
    corpus.write_text("\n".join(TAGGED_SENTENCES) + "\n", encoding="utf-8")
    index = tmp / "tagged.idx"
    assert run(["index", "--corpus", str(corpus), "--out", str(index), "--tagged"]) == 0
    paths = {"index": index}
    for name, rows in (("sat", SAT_ROWS), ("train", SEMEVAL_TRAIN), ("test", SEMEVAL_TEST)):
        paths[name] = tmp / f"{name}.tsv"
        paths[name].write_text("\n".join(rows) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("command", sorted(RELSIM_EXPECTED))
def test_relsim_report_and_summary_are_pinned(command, tagged_files, tmp_path, capsys):
    capsys.readouterr()
    report = tmp_path / "report.tsv"
    argv = [command, "--index", str(tagged_files["index"]), "--report", str(report)]
    if command == "sat":
        argv += ["--dataset", str(tagged_files["sat"])]
        rows = SAT_ROWS
    else:
        argv += ["--train", str(tagged_files["train"]), "--test", str(tagged_files["test"])]
        rows = SEMEVAL_TEST
    assert run(argv) == 0
    digest, summary = RELSIM_EXPECTED[command]
    assert capsys.readouterr().out == summary
    assert report.read_text(encoding="utf-8").count("\n") == len(rows)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_semeval_tests_take_each_path(tagged_files):
    lex = datasets.default_lexicon()
    model = relsim.SemevalModel.fit(
        [_example(row.split("\t")) for row in SEMEVAL_TRAIN],
        lex,
        CorpusIndex.load(tagged_files["index"]),
    )
    paths = []
    for row in SEMEVAL_TEST:
        example, _ = _example(row.split("\t"))
        if lemma(lex, example.entity_head(1)) == lemma(lex, example.entity_head(2)):
            paths.append("same lemma")
        elif relsim.knn_classify(model.neighbours, model.vector(example)) is None:
            paths.append("majority")
        else:
            paths.append("neighbour")
    assert paths == ["neighbour", "neighbour", "majority", "same lemma"]
