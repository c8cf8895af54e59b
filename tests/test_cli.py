"""Exit codes, subcommand wiring, and report determinism."""

from pathlib import Path

import pytest

from npstruct.cli import run
from npstruct.corpus import _HEADER, _SECTIONS, CorpusIndex
from npstruct.datasets import default_lexicon
from npstruct.decisions import NOUN
from npstruct.ppattach import pp_bootstrap
from perfbench import inputs


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(
        "\n".join(
            ["brain stem"] * 6
            + ["cells of the brain stem"] * 3
            + ["the brain-stem cells grew"] * 3
            + ["brain's stem cells"]
        )
        + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def index_file(tmp_path, corpus):
    out = tmp_path / "toy.idx"
    assert run(["index", "--corpus", str(corpus), "--out", str(out)]) == 0
    return out


@pytest.fixture
def bracketing_dataset(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("brain\tstem\tcells\tleft\n", encoding="utf-8")
    return path


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert run(["index", "--corpus", "x", "--out", "y", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["transmogrify"]) == 1
        capsys.readouterr()

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.idx"
        assert run(["index", "--corpus", str(tmp_path / "no.txt"), "--out", str(out)]) == 2
        capsys.readouterr()

    def test_missing_dataset_is_data_error(self, index_file, tmp_path, capsys):
        code = run(
            [
                "bracket",
                "--index", str(index_file),
                "--dataset", str(tmp_path / "missing.tsv"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_version_1_index_is_data_error(self, index_file, bracketing_dataset, capsys):
        data = bytearray(index_file.read_bytes())
        data[4] = 1
        index_file.write_bytes(bytes(data))
        code = run(["bracket", "--index", str(index_file), "--dataset", str(bracketing_dataset)])
        assert code == 2
        assert "unsupported index format version 1" in capsys.readouterr().err

    def test_format_3_index_must_be_rebuilt(self, index_file, capsys):
        data = bytearray(index_file.read_bytes())
        data[4] = 3
        index_file.write_bytes(bytes(data))
        assert run(["info", "--index", str(index_file)]) == 2
        err = capsys.readouterr().err
        assert "rebuilt with `npstruct index`" in err
        assert "unsupported index format version 3" in err

    def test_truncated_index_is_data_error(self, index_file, bracketing_dataset, capsys):
        index_file.write_bytes(index_file.read_bytes()[:40])
        code = run(["bracket", "--index", str(index_file), "--dataset", str(bracketing_dataset)])
        assert code == 2
        assert "truncated index file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "--out", "{tmp}/x.idx", "--corpus"],
            ["bracket", "--dataset", "{dataset}", "--index"],
            ["bracket", "--index", "{index}", "--dataset"],
            ["bracket", "--index", "{index}", "--dataset", "{dataset}", "--lexicon"],
            ["relsim", "--index", "{index}", "--out", "{tmp}/f.tsv", "--pairs"],
            ["semeval", "--test", "{examples}", "--train"],
            ["semeval", "--train", "{examples}", "--test"],
            ["eval", "--pred", "{dataset}", "--gold"],
            ["eval", "--gold", "{dataset}", "--pred"],
        ],
        ids=lambda argv: argv[-1],
    )
    def test_missing_input_file_names_its_path(
        self, index_file, bracketing_dataset, tmp_path, capsys, argv
    ):
        missing = str(tmp_path / "missing.tsv")
        examples = tmp_path / "examples.tsv"
        examples.write_text("brain stem cells\t0:0\t2:2\trel\ttrue\n", encoding="utf-8")
        paths = {"tmp": tmp_path, "index": index_file, "dataset": bracketing_dataset,
                 "examples": examples}
        assert run([*(a.format(**paths) for a in argv), missing]) == 2
        assert capsys.readouterr().err == f"missing file: {missing}\n"

    def test_missing_output_directory_names_the_output(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "nodir" / "x.idx")
        assert run(["index", "--corpus", str(corpus), "--out", out]) == 2
        assert capsys.readouterr().err == f"missing file: {out}\n"

    @pytest.mark.parametrize(
        "command, valid, rejected",
        [
            ("bracket", "brain\tstem\tcells\tleft", "brain\t\tcells\tleft"),
            ("ppattach", "meet\tdemands\tfrom\tcustomers\tN", "meet\t\tfrom\tcustomers\tN"),
            ("coord", "buses\tand\ttrains\tstation\tnoun", "bar\tbut\tpie\tgraph\tnoun"),
        ],
        ids=["bracket", "ppattach", "coord"],
    )
    def test_row_its_item_rejects_names_its_line(
        self, index_file, tmp_path, capsys, command, valid, rejected
    ):
        dataset = tmp_path / "rows.tsv"
        dataset.write_text(f"{valid}\n\n{rejected}\n", encoding="utf-8")
        assert run([command, "--index", str(index_file), "--dataset", str(dataset)]) == 2
        assert capsys.readouterr().err == "bad dataset row on line 3\n"

    @pytest.mark.parametrize(
        "argv, row, message",
        [
            (["bracket", "--voters", "genitive,genitive,reorder"],
             "brain\tstem\tcells\tleft", "duplicate voters: ['genitive']"),
            (["bracket", "--voters", "genitive,astrology"],
             "brain\tstem\tcells\tleft", "unknown voters: ['astrology']"),
            (["ppattach", "--voters", "ngram-2,astrology"],
             "meet\tdemands\tfrom\tcustomers\tN", "unknown voters: ['astrology']"),
            (["coord", "--voters", "h1,astrology"],
             "buses\tand\ttrains\tstation\tnoun", "unknown voters: ['astrology']"),
        ],
        ids=["duplicate-voters", "bracket-unknown-voters", "ppattach-unknown-voters",
             "coord-unknown-voters"],
    )
    def test_setting_is_checked_before_the_index(self, tmp_path, capsys, argv, row, message):
        dataset = tmp_path / "rows.tsv"
        dataset.write_text(f"{row}\n", encoding="utf-8")
        index = str(tmp_path / "missing.idx")
        assert run([*argv, "--index", index, "--dataset", str(dataset)]) == 2
        assert capsys.readouterr() == ("", f"{message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bracket", "--margin", "1"],
            ["coord", "--threshold", "2"],
            ["bracket", "--inventory", "x"],
            ["ppattach", "--threshold", "2"],
            ["coord", "--bootstrap"],
        ],
        ids=["bracket-margin", "coord-threshold", "bracket-inventory", "ppattach-threshold",
             "coord-bootstrap"],
    )
    def test_no_voting_option_beyond_bootstrap(self, index_file, bracketing_dataset, capsys, argv):
        """No voting subcommand takes a tie margin, a match threshold or an
        inventory file, and only ``ppattach`` takes ``--bootstrap``."""
        code = run([*argv, "--index", str(index_file), "--dataset", str(bracketing_dataset)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bracket", "--dataset", "{triples}", "--report"],
            ["sat", "--dataset", "{analogies}", "--report"],
            ["semeval", "--train", "{examples}", "--test", "{examples}", "--report"],
            ["relsim", "--pairs", "{pairs}", "--out"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_output_is_checked_before_the_index(self, tmp_path, capsys, argv):
        rows = {
            "triples": "brain\tstem\tcells\tleft",
            "analogies": "committee member\tteam player\tmeeting chair\t0",
            "examples": "brain stem cells\t0:0\t2:2\trel\ttrue",
            "pairs": "committee\tmember",
        }
        paths = {}
        for name, row in rows.items():
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text(f"{row}\n", encoding="utf-8")
        out = str(tmp_path / "nodir" / "r.tsv")
        index = str(tmp_path / "missing.idx")
        argv = [*(a.format(**paths) for a in argv), out, "--index", index]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"missing file: {out}\n")


class TestInfo:
    def test_prints_one_name_value_line_each(self, index_file, capsys):
        assert run(["info", "--index", str(index_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        info = dict(line.split(" ") for line in lines)
        assert len(info) == len(lines)
        assert info["format"] == "5"
        assert info["provenance"].startswith("sha256:")
        assert (info["sentences"], info["tokens"], info["vocabulary"], info["tags"]) == (
            "13", "46", "7", "0"
        )
        # "" (before a first word and after a last one), " ", "-" and "'"
        assert (info["separators"], info["most_spellings"]) == ("4", "1")
        # Postings per token, sorted: s 1, grew 3, of 3, the 6, cells 7, brain 13, stem 13.
        assert info["blocks"] == "1"
        percentiles = [info[f"postings.{name}"] for name in ("p50", "p90", "p99", "max")]
        assert percentiles == ["6", "13", "13", "13"]
        sizes = {name[len("bytes."):]: int(v) for name, v in info.items() if name.startswith("bytes.")}
        assert list(sizes) == list(_SECTIONS)
        assert _HEADER.size + sum(sizes.values()) == index_file.stat().st_size

    def test_missing_and_bad_files_are_data_errors(self, index_file, tmp_path, capsys):
        missing = str(tmp_path / "missing.idx")
        assert run(["info", "--index", missing]) == 2
        assert capsys.readouterr().err == f"missing file: {missing}\n"
        index_file.write_bytes(index_file.read_bytes()[:-1])
        assert run(["info", "--index", str(index_file)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "truncated index file\n")


class TestBracket:
    def test_happy_path(self, index_file, bracketing_dataset, tmp_path, capsys):
        report = tmp_path / "out.tsv"
        code = run(
            [
                "bracket",
                "--index", str(index_file),
                "--dataset", str(bracketing_dataset),
                "--report", str(report),
            ]
        )
        assert code == 0
        line = report.read_text().strip()
        assert line.startswith("brain\tstem\tcells\t")
        assert line.endswith("\tleft")
        summary = capsys.readouterr().out
        assert "100.00" in summary

    def test_reports_are_deterministic(self, index_file, bracketing_dataset, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        for report in (r1, r2):
            argv = [
                "bracket",
                "--index", str(index_file),
                "--dataset", str(bracketing_dataset),
                "--report", str(report),
            ]
            assert run(argv) == 0
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_default_decides_unseen_triples(self, index_file, tmp_path, capsys):
        dataset = tmp_path / "unseen.tsv"
        dataset.write_text("xylo\tphone\tcase\tright\n", encoding="utf-8")
        report = tmp_path / "default.tsv"
        code = run(
            [
                "bracket",
                "--index", str(index_file),
                "--dataset", str(dataset),
                "--report", str(report),
                "--default", "right",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert report.read_text().strip().endswith("\tright")


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "--default", "banana"],
        ["coord", "--default", "banana"],
        # No task has a --preset flag any more; --default names the label.
        ["coord", "--preset", "biomedical"],
        ["ppattach", "--preset", "encyclopedia"],
        ["bracket", "--preset", "biomedical"],
    ],
    ids=["bracket-default", "coord-default", "coord-preset", "ppattach-preset", "bracket-preset"],
)
def test_default_and_preset_outside_the_task_are_usage_errors(argv, index_file, tmp_path, capsys):
    dataset = tmp_path / "data.tsv"
    dataset.write_text("", encoding="utf-8")
    report = tmp_path / "out.tsv"
    code = run(argv + ["--index", str(index_file), "--dataset", str(dataset), "--report", str(report)])
    assert code == 1
    assert not report.exists()
    capsys.readouterr()


class TestPPAttach:
    def test_happy_path(self, tmp_path, capsys):
        corpus = tmp_path / "pp.txt"
        corpus.write_text("they meet the customers demands daily\n", encoding="utf-8")
        idx = tmp_path / "pp.idx"
        assert run(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        dataset = tmp_path / "pp.tsv"
        dataset.write_text("meet\tdemands\tfrom\tcustomers\tN\n", encoding="utf-8")
        report = tmp_path / "pp_out.tsv"
        code = run(
            [
                "ppattach",
                "--index", str(idx),
                "--dataset", str(dataset),
                "--report", str(report),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert report.read_text().strip().endswith("\tnoun")

    def test_bootstrap_reports_the_second_vote(self, tmp_path, capsys):
        # On this seeded corpus the second vote changes some labels.
        generated = inputs.generate("attach", 1, 300)
        corpus = tmp_path / "attach.txt"
        generated.write_corpus(corpus)
        idx = tmp_path / "attach.idx"
        assert run(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        items = [item for item in generated.items if item.kind == "pp"]
        quads = [item.args[0] for item in items]
        tags = ["N" if item.gold == NOUN else "V" for item in items]
        dataset = tmp_path / "quads.tsv"
        dataset.write_text(
            "".join(f"{q.v}\t{q.n1}\t{q.p}\t{q.n2}\t{tag}\n" for q, tag in zip(quads, tags)),
            encoding="utf-8",
        )
        finals = {}
        for flags in ([], ["--bootstrap"]):
            report = tmp_path / "report.tsv"
            argv = ["ppattach", "--index", str(idx), "--dataset", str(dataset), "--report", str(report)]
            assert run([*argv, *flags]) == 0
            finals[tuple(flags)] = [line.split("\t")[-1] for line in report.read_text().splitlines()]
        capsys.readouterr()
        results, _model = pp_bootstrap(quads, CorpusIndex.load(idx), default_lexicon())
        assert finals[("--bootstrap",)] == [r.final.label for r in results]
        assert finals[()] != finals[("--bootstrap",)]


class TestCoord:
    def test_happy_path(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("buses station\ntrains and buses station\n", encoding="utf-8")
        idx = tmp_path / "c.idx"
        assert run(["index", "--corpus", str(corpus), "--out", str(idx)]) == 0
        dataset = tmp_path / "c.tsv"
        dataset.write_text("buses\tand\ttrains\tstation\tnoun\n", encoding="utf-8")
        report = tmp_path / "c_out.tsv"
        code = run(
            [
                "coord",
                "--index", str(idx),
                "--dataset", str(dataset),
                "--report", str(report),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert report.read_text().strip().endswith("\tnoun-coord")


class TestRelsimCommands:
    def _tagged_index(self, tmp_path):
        corpus = tmp_path / "tagged.txt"
        corpus.write_text(
            "The_D committee_N includes_V all_D members_N\n"
            "The_D team_N includes_V all_D players_N\n",
            encoding="utf-8",
        )
        idx = tmp_path / "tagged.idx"
        assert run(["index", "--corpus", str(corpus), "--out", str(idx), "--tagged"]) == 0
        return idx

    def test_relsim_dump(self, tmp_path, capsys):
        idx = self._tagged_index(tmp_path)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("committee\tmember\n", encoding="utf-8")
        out = tmp_path / "features.tsv"
        code = run(
            ["relsim", "--index", str(idx), "--pairs", str(pairs), "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert "include\tV\t1->2\t1" in out.read_text()

    def test_sat(self, tmp_path, capsys):
        idx = self._tagged_index(tmp_path)
        dataset = tmp_path / "sat.tsv"
        dataset.write_text(
            "committee member\tteam player\tmeeting chair\t0\n", encoding="utf-8"
        )
        report = tmp_path / "sat_out.tsv"
        code = run(
            ["sat", "--index", str(idx), "--dataset", str(dataset), "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "answered 1, correct 1" in out

    def test_sat_bad_row_is_data_error(self, tmp_path, capsys):
        idx = self._tagged_index(tmp_path)
        dataset = tmp_path / "sat.tsv"
        dataset.write_text("committee member\t0\n", encoding="utf-8")
        assert run(["sat", "--index", str(idx), "--dataset", str(dataset)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "row",
        [
            "a b\tc d\t7",
            "a b\tc d\t-1",
            "a b\tc d\tx",
            "a b\t" + "c d\t" * 6 + "0",
        ],
        ids=["gold-past-candidates", "negative-gold", "gold-not-an-integer", "six-candidates"],
    )
    def test_sat_row_outside_the_format_names_its_line(self, tmp_path, capsys, row):
        idx = self._tagged_index(tmp_path)
        dataset = tmp_path / "sat.tsv"
        dataset.write_text(f"committee member\tteam player\t0\n{row}\n", encoding="utf-8")
        assert run(["sat", "--index", str(idx), "--dataset", str(dataset)]) == 2
        assert capsys.readouterr().err == "bad analogy row on line 2\n"

    def test_relsim_row_with_one_column_names_its_line(self, tmp_path, capsys):
        idx = self._tagged_index(tmp_path)
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("committee\tmember\n\nteam\n", encoding="utf-8")
        out = tmp_path / "features.tsv"
        code = run(["relsim", "--index", str(idx), "--pairs", str(pairs), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "bad pair row on line 3\n"

    @pytest.mark.parametrize("span", ["0:3", "3:3", "0:x", "x", "-1:0", "2:1", "0:1:2"])
    def test_semeval_span_outside_the_sentence_names_its_line(self, tmp_path, capsys, span):
        train = tmp_path / "train.tsv"
        train.write_text(
            "committees hold meetings\t0:0\t2:2\trel\ttrue\n"
            f"players ignore rules\t0:0\t{span}\trel\tfalse\n",
            encoding="utf-8",
        )
        test = tmp_path / "test.tsv"
        test.write_text("committees hold sessions\t0:0\t2:2\trel\ttrue\n", encoding="utf-8")
        assert run(["semeval", "--train", str(train), "--test", str(test)]) == 2
        assert capsys.readouterr().err == "bad example on line 2\n"

    def test_semeval_on_an_untagged_index_is_data_error(self, index_file, tmp_path, capsys):
        examples = tmp_path / "examples.tsv"
        examples.write_text("brain stem cells\t0:0\t2:2\trel\ttrue\n", encoding="utf-8")
        argv = ["semeval", "--index", str(index_file), "--train", str(examples),
                "--test", str(examples)]
        assert run(argv) == 2
        assert capsys.readouterr().err == "tags required\n"

    def test_semeval_fits_before_reading_an_empty_test_set(self, index_file, tmp_path, capsys):
        examples = tmp_path / "examples.tsv"
        examples.write_text("brain stem cells\t0:0\t2:2\trel\ttrue\n", encoding="utf-8")
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        argv = ["semeval", "--train", str(empty), "--test", str(empty)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "train must be nonempty\n")
        argv = ["semeval", "--index", str(index_file), "--train", str(examples),
                "--test", str(empty)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "tags required\n")

    def test_semeval(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text(
            "committees hold meetings\t0:0\t2:2\trel\ttrue\n"
            "players ignore rules\t0:0\t2:2\trel\tfalse\n",
            encoding="utf-8",
        )
        test = tmp_path / "test.tsv"
        test.write_text(
            "committees hold sessions\t0:0\t2:2\trel\ttrue\n", encoding="utf-8"
        )
        code = run(["semeval", "--train", str(train), "--test", str(test)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Acc 1.0000" in out


class TestEvalAndCompare:
    def _labels(self, tmp_path, name, labels):
        path = tmp_path / name
        path.write_text("\n".join(labels) + "\n", encoding="utf-8")
        return path

    def test_eval_prints_summary(self, tmp_path, capsys):
        gold = self._labels(tmp_path, "gold.tsv", ["left"] * 4)
        pred = self._labels(tmp_path, "pred.tsv", ["left", "left", "right", "abstain"])
        assert run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
        out = capsys.readouterr().out
        assert "2\t1\t1" in out
        assert "66.67" in out
        assert "75.00" in out

    def test_eval_and_compare_score_a_report_like_its_summary(
        self, index_file, bracketing_dataset, tmp_path, capsys
    ):
        report = tmp_path / "report.tsv"
        argv = ["bracket", "--index", str(index_file), "--dataset", str(bracketing_dataset)]
        assert run([*argv, "--report", str(report)]) == 0
        summary = capsys.readouterr().out
        assert run(["eval", "--gold", str(bracketing_dataset), "--pred", str(report)]) == 0
        assert capsys.readouterr().out == "correct\twrong\tn/a\taccuracy\tcoverage\n" + summary
        argv = ["compare", "--gold", str(bracketing_dataset), "--pred", f"bracket={report}"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "bracket\t" + summary.rstrip("\n")

    def test_eval_length_mismatch_is_data_error(self, tmp_path, capsys):
        gold = self._labels(tmp_path, "gold.tsv", ["left"])
        pred = self._labels(tmp_path, "pred.tsv", ["left", "right"])
        assert run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 2
        capsys.readouterr()

    def test_compare(self, tmp_path, capsys):
        gold = self._labels(tmp_path, "gold.tsv", ["left"] * 10)
        a = self._labels(tmp_path, "a.tsv", ["left"] * 9 + ["right"])
        b = self._labels(tmp_path, "b.tsv", ["left"] * 5 + ["right"] * 5)
        code = run(
            ["compare", "--gold", str(gold), "--pred", f"first={a}", "--pred", str(b)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "first" in out and "b" in out
        assert "first vs b" in out

    def test_compare_splits_a_named_pred_at_its_first_equals_sign(self, tmp_path, capsys):
        """In ``NAME=PATH``, the path may hold ``=``; the name may not."""
        gold = self._labels(tmp_path, "gold.tsv", ["left"] * 4)
        (tmp_path / "lr=0.1").mkdir()
        pred = self._labels(tmp_path / "lr=0.1", "r.tsv", ["left"] * 3 + ["right"])
        argv = ["compare", "--gold", str(gold), "--pred", f"base={pred}"]
        assert str(pred).count("=") == 1
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1].startswith("base\t3\t1\t0\t")

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_no_confidence_level_option(self, tmp_path, capsys, command):
        """Intervals are 95% Wilson intervals; no command takes ``--level``."""
        gold = self._labels(tmp_path, "gold.tsv", ["left"])
        argv = [command, "--gold", str(gold), "--pred", str(gold), "--level", "0.9"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --level 0.9" in err
