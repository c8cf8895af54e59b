"""Confidence intervals, significance tests, and reports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npstruct.stats import (
    DegenerateTableError,
    EvalReport,
    chi2_sf1,
    compare_reports,
    comparison_table,
    evaluate,
    pearson_chi2,
    wilson_interval,
)


class TestIntervals:
    def test_wilson_bounds(self):
        low, high = wilson_interval(195, 244)
        assert low == pytest.approx(0.74445, abs=1e-4)
        assert high == pytest.approx(0.84463, abs=1e-4)

    def test_wilson_margin_matches_reported_value(self):
        # The table presentation is accuracy +/- (accuracy - lower bound).
        low, _ = wilson_interval(195, 244)
        p = 195 / 244
        assert p == pytest.approx(0.7992, abs=5e-4)
        assert p - low == pytest.approx(0.0547, abs=1e-3)

    def test_wilson_boundaries(self):
        low, _ = wilson_interval(0, 50)
        assert low >= 0.0
        _, high = wilson_interval(50, 50)
        assert high <= 1.0
        # Unclamped, these spill past p: a lower bound of 8.7e-19 above 0
        # and an upper bound just below 1.
        assert wilson_interval(0, 429)[0] == 0.0
        assert wilson_interval(13, 13)[1] == 1.0
        assert EvalReport(0, 10, 0).summary() == "0\t10\t0\t0.00±0.00\t100.00"

    def test_z_quantile(self):
        from npstruct.stats import _Z

        assert _Z == pytest.approx(1.96, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10_000), st.data())
def test_wilson_stays_inside_unit_interval(total, data):
    correct = data.draw(st.integers(0, total))
    low, high = wilson_interval(correct, total)
    assert 0.0 <= low <= high <= 1.0
    assert low <= correct / total <= high


class TestChi2:
    def test_golden_p_values(self):
        _, p = pearson_chi2(189, 55, 195, 49)
        assert p == pytest.approx(0.5072, abs=2e-3)
        chi2, p = pearson_chi2(197, 47, 218, 26)
        assert chi2 == pytest.approx(7.104, abs=1e-2)
        assert p == pytest.approx(0.0077, abs=5e-4)
        chi2, p = pearson_chi2(218, 26, 203, 41)
        assert chi2 == pytest.approx(3.893, abs=1e-2)
        assert p == pytest.approx(0.0485, abs=1e-3)

    def test_degenerate_table(self):
        with pytest.raises(ValueError, match="degenerate table"):
            pearson_chi2(0, 0, 5, 5)
        with pytest.raises(DegenerateTableError, match="degenerate table"):
            pearson_chi2(0, 0, 5, 5)
        with pytest.raises(ValueError):
            pearson_chi2(-1, 2, 3, 4)

    def test_identical_rows_score_zero(self):
        chi2, p = pearson_chi2(50, 10, 50, 10)
        assert chi2 == 0.0
        assert p == 1.0

    def test_tail_probability_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        grid = [0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
                2.5, 3.0, 3.84, 5.0, 6.63, 7.88, 10.0, 15.0, 20.0, 30.0]
        for x in grid:
            assert chi2_sf1(x) == pytest.approx(
                float(scipy_stats.chi2.sf(x, df=1)), abs=1e-6
            ), x

    def test_tail_validation(self):
        with pytest.raises(ValueError):
            chi2_sf1(-0.5)


class TestEvalReport:
    def test_accuracy_and_coverage(self):
        report = EvalReport(183, 31, 30)
        assert report.accuracy == pytest.approx(0.8551, abs=1e-4)
        assert report.coverage == pytest.approx(0.8770, abs=1e-4)
        assert report.total == 244
        assert report.predicted == 214

    def test_summary_line(self):
        line = EvalReport(183, 31, 30).summary("model")
        assert line == "model\t183\t31\t30\t85.51±5.34\t87.70"

    def test_no_predictions_reported_as_undefined(self):
        report = EvalReport(0, 0, 10)
        assert report.accuracy is None
        assert report.interval is None
        assert report.coverage == 0.0
        assert "undefined" in report.summary()

    def test_interval_inside_unit(self):
        low, high = EvalReport(9, 1, 0).interval
        assert 0.0 <= low <= high <= 1.0

    def test_evaluate_counts_abstentions(self):
        report = evaluate(["left", "abstain", "right", "n/a"], ["left", "left", "left", "left"])
        assert (report.correct, report.wrong, report.abstained) == (1, 1, 2)

    def test_evaluate_is_case_insensitive(self):
        report = evaluate(["Left"], ["LEFT"])
        assert report.correct == 1

    def test_evaluate_alignment(self):
        with pytest.raises(ValueError):
            evaluate(["left"], [])


class TestComparison:
    def test_identical_reports_not_significant(self):
        reports = {"a": EvalReport(50, 10, 0), "b": EvalReport(50, 10, 0)}
        ((_, _, chi2, p, marker),) = compare_reports(reports)
        assert chi2 == 0.0 and p == 1.0 and marker == ""

    def test_markers(self):
        reports = {
            "a": EvalReport(197, 47, 0),
            "b": EvalReport(218, 26, 0),
        }
        ((_, _, _, p, marker),) = compare_reports(reports)
        assert p < 0.01 and marker == "**"
        reports = {
            "a": EvalReport(218, 26, 0),
            "b": EvalReport(203, 41, 0),
        }
        ((_, _, _, p, marker),) = compare_reports(reports)
        assert 0.01 < p < 0.05 and marker == "*"

    def test_table_layout(self):
        table = comparison_table(
            {"a": EvalReport(8, 2, 0), "b": EvalReport(5, 5, 0)}
        )
        lines = table.splitlines()
        assert lines[0].startswith("name\t")
        assert any(line.startswith("a vs b\t") for line in lines)
