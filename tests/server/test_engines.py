"""Engine tests: correctness of both engines and their equivalence."""

import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.query import Query
from repro.server.engines import (
    IndexedEngine,
    LinearScanEngine,
    VectorEngine,
    make_engine,
)
from tests.conftest import small_instances


@pytest.fixture
def matrix():
    # Already in "priority order": earlier rows are returned first.
    return np.asarray(
        [[1, 10], [2, 20], [1, 30], [2, 40], [1, 50]], dtype=np.int64
    )


@pytest.fixture
def space():
    from repro.dataspace.space import DataSpace

    return DataSpace.mixed([("c", 2)], ["v"])


@pytest.mark.parametrize(
    "engine_cls", [LinearScanEngine, VectorEngine, IndexedEngine]
)
class TestEngines:
    def test_full_query_overflow(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        rows, overflow = engine.top(Query.full(space), 3)
        assert overflow
        assert rows == [(1, 10), (2, 20), (1, 30)]

    def test_full_query_resolved(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        rows, overflow = engine.top(Query.full(space), 5)
        assert not overflow
        assert len(rows) == 5

    def test_equality_filter(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_value(0, 1)
        rows, overflow = engine.top(q, 10)
        assert not overflow
        assert rows == [(1, 10), (1, 30), (1, 50)]

    def test_range_filter(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_range(1, 20, 40)
        rows, overflow = engine.top(q, 10)
        assert rows == [(2, 20), (1, 30), (2, 40)]
        assert not overflow

    def test_half_open_ranges(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        low = Query.full(space).with_range(1, None, 20)
        rows, _ = engine.top(low, 10)
        assert rows == [(1, 10), (2, 20)]
        high = Query.full(space).with_range(1, 40, None)
        rows, _ = engine.top(high, 10)
        assert rows == [(2, 40), (1, 50)]

    def test_point_range(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_range(1, 30, 30)
        rows, overflow = engine.top(q, 1)
        assert rows == [(1, 30)]
        assert not overflow

    def test_empty_result(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_range(1, 1000, None)
        rows, overflow = engine.top(q, 3)
        assert rows == []
        assert not overflow

    def test_overflow_returns_exactly_k(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_value(0, 1)
        rows, overflow = engine.top(q, 2)
        assert overflow
        assert rows == [(1, 10), (1, 30)]

    def test_empty_matrix(self, engine_cls, space):
        engine = engine_cls(np.empty((0, 2), dtype=np.int64))
        rows, overflow = engine.top(Query.full(space), 3)
        assert rows == [] and not overflow


class TestFactory:
    def test_make_engine(self, matrix):
        assert isinstance(make_engine("linear", matrix), LinearScanEngine)
        assert isinstance(make_engine("vector", matrix), VectorEngine)
        assert isinstance(make_engine("indexed", matrix), IndexedEngine)
        with pytest.raises(ValueError):
            make_engine("gpu", matrix)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            VectorEngine(np.zeros(3, dtype=np.int64))


class TestEquivalence:
    """Property: the reference, vector and indexed engines agree."""

    @given(instance=small_instances())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_structured_queries(self, instance):
        dataset, k = instance
        linear = LinearScanEngine(dataset.rows)
        vector = VectorEngine(dataset.rows)
        indexed = IndexedEngine(dataset.rows)
        queries = [Query.full(dataset.space)]
        # Probe a few single-attribute refinements of each kind.
        for i, attr in enumerate(dataset.space):
            if attr.is_categorical:
                for v in range(1, attr.domain_size + 1):
                    queries.append(queries[0].with_value(i, v))
            else:
                queries.append(queries[0].with_range(i, 0, 5))
                queries.append(queries[0].with_range(i, None, -1))
                queries.append(queries[0].with_range(i, 2, None))
                queries.append(queries[0].with_range(i, 3, 3))
        for q in queries:
            expected = linear.top(q, k)
            assert vector.top(q, k) == expected
            assert indexed.top(q, k) == expected

    @given(instance=small_instances())
    @settings(max_examples=15, deadline=None)
    def test_engines_agree_under_concurrent_top(self, instance):
        """Racing top() calls (lazy indexes built mid-race) stay exact.

        Fresh vector/indexed engines are hammered by several threads at
        once, so the lazily built sorted-column indexes (and the
        lock guarding their first touch) are exercised *during* the
        race; every response must still equal the single-threaded
        linear-scan reference.
        """
        dataset, k = instance
        queries = [Query.full(dataset.space)]
        for i, attr in enumerate(dataset.space):
            if attr.is_categorical:
                for v in range(1, attr.domain_size + 1):
                    queries.append(queries[0].with_value(i, v))
            else:
                queries.append(queries[0].with_range(i, 0, 5))
                queries.append(queries[0].with_range(i, None, -1))
                queries.append(queries[0].with_range(i, 2, None))
        linear = LinearScanEngine(dataset.rows)
        expected = [linear.top(q, k) for q in queries]
        for engine in (
            VectorEngine(dataset.rows),
            IndexedEngine(dataset.rows),
        ):
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(engine.top, q, k)
                    for _ in range(4)
                    for q in queries
                ]
                answers = [f.result() for f in futures]
            assert answers == expected * 4


class TestBatchSeam:
    """``top_batch`` answers exactly like a per-query ``top`` loop."""

    @pytest.mark.parametrize(
        "engine_cls", [LinearScanEngine, VectorEngine, IndexedEngine]
    )
    def test_empty_batch(self, engine_cls, matrix):
        assert engine_cls(matrix).top_batch([], 3) == []

    @pytest.mark.parametrize(
        "engine_cls", [LinearScanEngine, VectorEngine, IndexedEngine]
    )
    def test_sibling_slices(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        queries = [Query.full(space).with_value(0, v) for v in (1, 2)]
        queries += [
            Query.full(space).with_value(0, v).with_range(1, 15, 45)
            for v in (1, 2)
        ]
        assert engine.top_batch(queries, 2) == [
            engine.top(q, 2) for q in queries
        ]

    @pytest.mark.parametrize(
        "engine_cls", [LinearScanEngine, VectorEngine, IndexedEngine]
    )
    def test_repeated_queries_share_cached_work(
        self, engine_cls, matrix, space
    ):
        # The same query twice in one batch must hit the context's
        # mask cache (where the engine has one) and still answer
        # identically.
        engine = engine_cls(matrix)
        query = Query.full(space).with_value(0, 1).with_range(1, 10, 50)
        first, second = engine.top_batch([query, query], 2)
        assert first == second == engine.top(query, 2)

    @given(instance=small_instances())
    @settings(max_examples=40, deadline=None)
    def test_batch_agrees_across_engines(self, instance):
        dataset, k = instance
        queries = [Query.full(dataset.space)]
        for i, attr in enumerate(dataset.space):
            if attr.is_categorical:
                for v in range(1, attr.domain_size + 1):
                    queries.append(queries[0].with_value(i, v))
            else:
                queries.append(queries[0].with_range(i, 0, 5))
                queries.append(queries[0].with_range(i, 3, 3))
        linear = LinearScanEngine(dataset.rows)
        expected = [linear.top(q, k) for q in queries]
        for engine in (
            LinearScanEngine(dataset.rows),
            VectorEngine(dataset.rows),
            IndexedEngine(dataset.rows),
        ):
            assert engine.top_batch(queries, k) == expected


class TestSortedColumnIndex:
    """The vector engine's per-value rows come from a sorted column."""

    @given(
        column=st.lists(st.integers(-3, 6), max_size=60),
        value=st.integers(-6, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_index_equals_flatnonzero(self, column, value):
        matrix = np.asarray(column, dtype=np.int64).reshape(-1, 1)
        engine = VectorEngine(matrix)
        # Present, absent and beyond-domain values alike.
        for probe in (
            value,
            *column[:3],
            min(column, default=0) - 1,
            max(column, default=0) + 1,
        ):
            rows = engine._index_for(0, probe)
            expected = np.flatnonzero(matrix[:, 0] == probe)
            assert rows.tolist() == expected.tolist()
            assert np.all(np.diff(rows) > 0)

    @pytest.mark.parametrize("engine_cls", [VectorEngine, IndexedEngine])
    def test_pickles_ship_no_index(self, engine_cls, matrix, space):
        fresh = pickle.dumps(engine_cls(matrix))
        used = engine_cls(matrix)
        for value in (1, 2):
            used.top(Query.full(space).with_value(0, value), 2)
        used.top(Query.full(space).with_range(1, 15, 45), 2)
        assert used._columns and used._rows_cache is not None
        assert pickle.dumps(used) == fresh
        copy = pickle.loads(pickle.dumps(used))
        assert copy._columns == {} and copy._rows_cache is None
        query = Query.full(space).with_value(0, 2)
        assert copy.top(query, 1) == used.top(query, 1)
