"""Crawl verification: did we really extract the entire bag?

Problem 1 demands the *entire* hidden bag ``D`` -- duplicates included.
:func:`verify_complete` compares a crawl result against the ground-truth
dataset with multiset semantics and reports exactly what is missing or
spurious; every test in the suite funnels through it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.crawl.base import CrawlResult
from repro.dataspace.dataset import Dataset
from repro.server.response import Row

__all__ = ["VerificationReport", "verify_complete", "assert_complete"]


@dataclass
class VerificationReport:
    """Outcome of checking a crawl result against the ground truth."""

    complete: bool
    expected: int
    extracted: int
    #: Tuples of the hidden bag the crawl failed to produce (with counts).
    missing: Counter[Row] = field(default_factory=Counter)
    #: Tuples the crawl produced too often / that do not exist (with counts).
    spurious: Counter[Row] = field(default_factory=Counter)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.complete:
            return (
                f"complete: all {self.expected} tuples extracted exactly once"
            )
        return (
            f"INCOMPLETE: expected {self.expected}, extracted "
            f"{self.extracted}; {sum(self.missing.values())} missing, "
            f"{sum(self.spurious.values())} spurious"
        )


def verify_complete(
    result: CrawlResult, dataset: Dataset
) -> VerificationReport:
    """Compare a crawl result with the hidden dataset, bag-to-bag."""
    truth = dataset.multiset()
    got: Counter[Row] = Counter(result.rows)
    # Neither bag holds a zero count, so plain dict equality (C-level,
    # unlike Counter's) decides completeness exactly; the subtractions
    # only run to describe a failure.
    if dict.__eq__(truth, got):
        return VerificationReport(True, dataset.n, len(result.rows))
    missing = truth - got
    spurious = got - truth
    return VerificationReport(
        complete=not missing and not spurious,
        expected=dataset.n,
        extracted=len(result.rows),
        missing=missing,
        spurious=spurious,
    )


def assert_complete(result: CrawlResult, dataset: Dataset) -> None:
    """Raise ``AssertionError`` with a diagnostic if the crawl is not exact."""
    report = verify_complete(result, dataset)
    if not report.complete:
        examples_missing = list(report.missing.items())[:5]
        examples_spurious = list(report.spurious.items())[:5]
        raise AssertionError(
            f"{report.summary()}\n  missing (first 5): {examples_missing}"
            f"\n  spurious (first 5): {examples_spurious}"
        )
