"""Derived queries meet the checked constructor's contract.

``with_value``, ``with_range`` and ``intersect`` (and everything built
on them: splits, slice queries) skip re-validating the predicates they
inherit and check only the one they change.  These tests pin that the
shortcut changes nothing observable: every derived query is one the
checked constructor accepts and compares equal to, and every invalid
refinement still raises :class:`SchemaError`.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.query.query import Query, slice_query
from tests.conftest import small_spaces


def _rechecked(query: Query) -> Query:
    """The same query rebuilt through the checked constructor."""
    return Query(query.predicates, query.space)


def _bound(draw) -> int | None:
    return draw(st.none() | st.integers(-20, 20))


@st.composite
def derivation_chains(draw):
    """Every query of a random chain of derivations over a random space."""
    space = draw(small_spaces())
    query = Query.full(space)
    derived = []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, space.dimensionality - 1))
        attr = space[i]
        step = draw(st.sampled_from(["refine", "slice", "intersect"]))
        if attr.is_categorical:
            value = draw(st.none() | st.integers(1, attr.domain_size))
            if step == "slice" and value is not None:
                derived.append(slice_query(space, i, value))
                continue
            candidate = query.with_value(i, value)
        else:
            lo, hi = query.extent(i)
            if step == "slice":
                # A split point inside the current extent.
                x = draw(
                    st.integers(
                        -20 if lo is None else lo, 20 if hi is None else hi
                    )
                )
                if lo is None or x > lo:
                    derived.extend(query.split_2way(i, x))
                derived.extend(q for q in query.split_3way(i, x) if q)
                continue
            a, b = _bound(draw), _bound(draw)
            if a is not None and b is not None and a > b:
                a, b = b, a
            candidate = query.with_range(i, a, b)
        if step == "intersect":
            merged = query.intersect(candidate)
            if merged is not None:
                derived.append(merged)
        derived.append(candidate)
        query = candidate
    return derived


class TestDerivedQueriesPassTheCheckedConstructor:
    @given(derived=derivation_chains())
    @settings(max_examples=200, deadline=None)
    def test_every_derived_query_rebuilds_equal(self, derived):
        for query in derived:
            rebuilt = _rechecked(query)
            assert rebuilt == query
            assert hash(rebuilt) == hash(query)
            assert rebuilt.predicates == query.predicates
            assert pickle.dumps(rebuilt) == pickle.dumps(query)


@pytest.fixture
def space():
    return DataSpace.mixed([("make", 3), ("body", 4)], ["price", "year"])


class TestInvalidRefinementsStillRaise:
    def test_out_of_domain_values(self, space):
        q = Query.full(space)
        for value in (0, 4, -1, 10**9):
            with pytest.raises(SchemaError, match="outside the domain"):
                q.with_value(0, value)
        with pytest.raises(SchemaError):
            slice_query(space, 1, 5)

    def test_kind_mismatches(self, space):
        q = Query.full(space)
        with pytest.raises(SchemaError):
            q.with_value(2, 1)
        with pytest.raises(SchemaError):
            q.with_range(0, 1, 2)

    def test_empty_ranges(self, space):
        q = Query.full(space)
        with pytest.raises(SchemaError, match="empty range"):
            q.with_range(2, 5, 4)

    def test_cross_space_intersect(self, space):
        other = DataSpace.mixed([("make", 3), ("body", 5)], ["price", "year"])
        with pytest.raises(SchemaError):
            Query.full(space).intersect(Query.full(other))


class TestFullQueryCache:
    def test_full_query_is_built_once_per_space(self, space):
        assert Query.full(space) is Query.full(space)

    def test_equal_spaces_get_equal_full_queries(self, space):
        twin = DataSpace(space.attributes)
        assert Query.full(twin) == Query.full(space)
        assert Query.full(twin).space is twin

    def test_cache_stays_out_of_pickles(self, space):
        before = pickle.dumps(space)
        Query.full(space)
        assert pickle.dumps(space) == before
        restored = pickle.loads(before)
        assert restored == space
        assert Query.full(restored) == Query.full(space)
        assert Query.full(restored).space is restored
