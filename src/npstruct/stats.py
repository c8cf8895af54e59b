"""Evaluation statistics: intervals, significance tests, reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist


# Two-sided standard-normal quantile of the 95% confidence level.
_Z = NormalDist().inv_cdf(0.975)


def wilson_interval(correct: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Unlike the Wald interval it stays inside [0, 1] and behaves well
    near 0 and 1 and for small samples.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    if not 0 <= correct <= total:
        raise ValueError("correct must be in [0, total]")
    p = correct / total
    denom = 1 + _Z * _Z / total
    center = (p + _Z * _Z / (2 * total)) / denom
    half = (_Z / denom) * math.sqrt(p * (1 - p) / total + _Z * _Z / (4 * total * total))
    # Clamp floating-point spill: by construction the interval lies in
    # [0, 1] and holds p (at p = 0 the lower bound can come out 1e-18).
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


def chi2_sf1(x: float) -> float:
    """Upper tail probability of the chi-squared distribution with 1 df."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return math.erfc(math.sqrt(x / 2))


class DegenerateTableError(ValueError):
    """A chi-squared contingency table has a zero marginal."""


def pearson_chi2(a: int, b: int, c: int, d: int) -> tuple[float, float]:
    """Chi-squared test of a 2x2 table by the shortcut formula, with p-value.

    Rows are the two systems' (correct, wrong) counts.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("cells must be nonnegative")
    n = a + b + c + d
    denom = (a + c) * (b + d) * (a + b) * (c + d)
    if denom == 0:
        raise DegenerateTableError("degenerate table")
    chi2 = n * (a * d - b * c) ** 2 / denom
    return chi2, chi2_sf1(chi2)


@dataclass(frozen=True)
class EvalReport:
    """Correct/wrong/abstained counts with accuracy, coverage, and interval."""

    correct: int
    wrong: int
    abstained: int

    @property
    def predicted(self) -> int:
        return self.correct + self.wrong

    @property
    def total(self) -> int:
        return self.predicted + self.abstained

    @property
    def accuracy(self) -> float | None:
        """Accuracy over predictions made; None when nothing was predicted."""
        if self.predicted == 0:
            return None
        return self.correct / self.predicted

    @property
    def coverage(self) -> float:
        if self.total == 0:
            return 0.0
        return self.predicted / self.total

    @property
    def interval(self) -> tuple[float, float] | None:
        if self.predicted == 0:
            return None
        return wilson_interval(self.correct, self.predicted)

    @property
    def margin(self) -> float | None:
        """Distance from the accuracy down to the Wilson lower bound.

        This is the ± value the summary tables display next to the
        accuracy.
        """
        if self.predicted == 0:
            return None
        low, _high = self.interval
        return self.accuracy - low

    def summary(self, name: str = "") -> str:
        """One line in the table layout Correct/Wrong/N-A/Accuracy±/Coverage."""
        if self.accuracy is None:
            acc = "undefined"
        else:
            acc = f"{100 * self.accuracy:.2f}±{100 * self.margin:.2f}"
        label = f"{name}\t" if name else ""
        return (
            f"{label}{self.correct}\t{self.wrong}\t{self.abstained}"
            f"\t{acc}\t{100 * self.coverage:.2f}"
        )


ABSTAIN_MARKS = {"abstain", "n/a", "na", "-", ""}


def evaluate(predictions: list[str], gold: list[str]) -> EvalReport:
    """Score predictions against gold labels; abstentions are uncovered."""
    if len(predictions) != len(gold):
        raise ValueError("predictions and gold must align")
    correct = wrong = abstained = 0
    for pred, truth in zip(predictions, gold):
        if pred.lower() in ABSTAIN_MARKS:
            abstained += 1
        elif pred.lower() == truth.lower():
            correct += 1
        else:
            wrong += 1
    return EvalReport(correct, wrong, abstained)


def compare_reports(
    reports: dict[str, EvalReport],
) -> list[tuple[str, str, float, float, str]]:
    """Pairwise chi-squared comparison of report accuracies.

    Returns rows (name1, name2, chi2, p, marker) with ``*`` for
    p < 0.05 and ``**`` for p < 0.01. Pairs whose contingency table is
    degenerate (a zero marginal, e.g. both reports fully correct or one
    report without predictions) are skipped.
    """
    names = list(reports)
    rows = []
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            r1, r2 = reports[first], reports[second]
            try:
                chi2, p = pearson_chi2(r1.correct, r1.wrong, r2.correct, r2.wrong)
            except ValueError:
                continue
            marker = "**" if p < 0.01 else "*" if p < 0.05 else ""
            rows.append((first, second, chi2, p, marker))
    return rows


def comparison_table(reports: dict[str, EvalReport]) -> str:
    """Human-readable comparison: one summary per report plus pairwise tests."""
    lines = ["name\tcorrect\twrong\tn/a\taccuracy\tcoverage"]
    for name, report in reports.items():
        lines.append(report.summary(name))
    lines.append("")
    lines.append("pair\tchi2\tp\tsignificance")
    for first, second, chi2, p, marker in compare_reports(reports):
        lines.append(f"{first} vs {second}\t{chi2:.3f}\t{p:.4f}\t{marker}")
    return "\n".join(lines)
