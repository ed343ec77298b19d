"""Tests for crawl verification (bag comparison)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawl.base import CrawlResult
from repro.crawl.verify import (
    VerificationReport,
    assert_complete,
    verify_complete,
)
from repro.dataspace.space import DataSpace
from tests.conftest import make_dataset


@pytest.fixture
def space():
    return DataSpace.categorical([3, 3])


@pytest.fixture
def dataset(space):
    return make_dataset(space, [[1, 1], [2, 2], [2, 2], [3, 1]])


def result_with(space, rows):
    return CrawlResult(
        algorithm="test",
        space=space,
        rows=list(rows),
        cost=1,
        complete=True,
        progress=[],
    )


class TestVerifyComplete:
    def test_exact_bag_passes(self, space, dataset):
        result = result_with(space, [(2, 2), (1, 1), (3, 1), (2, 2)])
        report = verify_complete(result, dataset)
        assert report.complete
        assert "complete" in report.summary()

    def test_missing_tuple_detected(self, space, dataset):
        result = result_with(space, [(1, 1), (2, 2), (3, 1)])
        report = verify_complete(result, dataset)
        assert not report.complete
        assert report.missing[(2, 2)] == 1
        assert not report.spurious

    def test_wrong_multiplicity_detected(self, space, dataset):
        rows = [(1, 1), (2, 2), (2, 2), (2, 2), (3, 1)]
        report = verify_complete(result_with(space, rows), dataset)
        assert not report.complete
        assert report.spurious[(2, 2)] == 1

    def test_spurious_tuple_detected(self, space, dataset):
        rows = [(1, 1), (2, 2), (2, 2), (3, 1), (3, 3)]
        report = verify_complete(result_with(space, rows), dataset)
        assert not report.complete
        assert report.spurious[(3, 3)] == 1

    def test_assert_complete_raises_with_diagnostics(self, space, dataset):
        result = result_with(space, [(1, 1)])
        with pytest.raises(AssertionError) as info:
            assert_complete(result, dataset)
        assert "missing" in str(info.value)

    def test_assert_complete_passes(self, space, dataset):
        assert_complete(
            result_with(space, [(1, 1), (2, 2), (2, 2), (3, 1)]), dataset
        )


def reference_verify(result, dataset):
    """The two-``Counter`` verification, frozen before equality-first."""
    truth = Counter(tuple(int(v) for v in row) for row in dataset.rows)
    got = Counter(result.rows)
    missing = truth - got
    spurious = got - truth
    return VerificationReport(
        complete=not missing and not spurious,
        expected=dataset.n,
        extracted=len(result.rows),
        missing=missing,
        spurious=spurious,
    )


def reference_message(report):
    """The frozen ``assert_complete`` diagnostic for an incomplete report."""
    return (
        f"{report.summary()}\n  missing (first 5): "
        f"{list(report.missing.items())[:5]}"
        f"\n  spurious (first 5): {list(report.spurious.items())[:5]}"
    )


@st.composite
def crawl_outcomes(draw):
    """A hidden bag and a crawl answer that may miss, add or repeat rows."""
    space = DataSpace.categorical([3, 2])
    point = st.tuples(st.integers(1, 3), st.integers(1, 2))
    truth = draw(st.lists(point, max_size=25))
    got = list(truth)
    for index in sorted(
        draw(st.sets(st.integers(0, max(len(got) - 1, 0)), max_size=4)),
        reverse=True,
    ):
        if index < len(got):
            del got[index]  # missing
    got += draw(st.lists(point, max_size=4))  # spurious or duplicated
    if got and draw(st.booleans()):
        got.append(draw(st.sampled_from(got)))  # one more duplicate
    got = draw(st.permutations(got))
    return make_dataset(space, truth), result_with(space, got)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(crawl_outcomes())
    def test_report_matches_two_counter_reference(self, outcome):
        dataset, result = outcome
        report = verify_complete(result, dataset)
        expected = reference_verify(result, dataset)
        assert report == expected
        assert list(report.missing.items()) == list(expected.missing.items())
        assert list(report.spurious.items()) == list(
            expected.spurious.items()
        )
        assert report.summary() == expected.summary()
        if expected.complete:
            assert_complete(result, dataset)
        else:
            with pytest.raises(AssertionError) as info:
                assert_complete(result, dataset)
            assert str(info.value) == reference_message(expected)

    def test_permuted_exact_bag_is_complete(self, space, dataset):
        rows = [tuple(int(v) for v in row) for row in dataset.rows[::-1]]
        report = verify_complete(result_with(space, rows), dataset)
        assert report == reference_verify(result_with(space, rows), dataset)
        assert report.complete and not report.missing and not report.spurious
