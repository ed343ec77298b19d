"""Tests for TopKServer: the Section 1.1 interface contract."""

import pickle

import pytest

from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import QueryBudgetExhausted, SchemaError
from repro.query.query import Query
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from tests.conftest import make_dataset


@pytest.fixture
def space():
    return DataSpace.categorical([3])


@pytest.fixture
def dataset(space):
    return make_dataset(space, [[1]] * 5 + [[2]] * 2 + [[3]])


class TestContract:
    def test_resolved_query_returns_everything(self, dataset):
        server = TopKServer(dataset, k=10)
        resp = server.run(Query.full(dataset.space))
        assert resp.resolved
        assert len(resp.rows) == 8

    def test_overflow_returns_exactly_k_and_flag(self, dataset):
        server = TopKServer(dataset, k=3)
        resp = server.run(Query.full(dataset.space))
        assert resp.overflow
        assert len(resp.rows) == 3

    def test_repeating_a_query_returns_the_same_response(self, dataset):
        """Crucial: re-issuing an overflowing query never reveals more."""
        server = TopKServer(dataset, k=3)
        q = Query.full(dataset.space)
        first = server.run(q)
        for _ in range(5):
            assert server.run(q) == first

    def test_determinism_across_server_instances(self, dataset):
        q = Query.full(dataset.space)
        a = TopKServer(dataset, k=3, priority_seed=42).run(q)
        b = TopKServer(dataset, k=3, priority_seed=42).run(q)
        assert a == b

    def test_different_seeds_may_return_different_tuples(self, dataset):
        q = Query.full(dataset.space).with_value(0, 1)
        responses = {
            TopKServer(dataset, k=3, priority_seed=seed).run(q).rows
            for seed in range(20)
        }
        # 5 identical tuples at value 1 are indistinguishable; probe a
        # mixed query instead.
        q2 = Query.full(dataset.space)
        responses = {
            TopKServer(dataset, k=3, priority_seed=seed).run(q2).rows
            for seed in range(20)
        }
        assert len(responses) > 1

    def test_explicit_priorities(self, dataset):
        # Highest priority wins; row order breaks ties.
        priorities = [0, 1, 2, 3, 4, 10, 11, 12]
        server = TopKServer(dataset, k=3, priorities=priorities)
        resp = server.run(Query.full(dataset.space))
        assert resp.rows == ((3,), (2,), (2,))

    def test_priority_length_validated(self, dataset):
        with pytest.raises(SchemaError):
            TopKServer(dataset, k=3, priorities=[1, 2])

    def test_k_validated(self, dataset):
        with pytest.raises(SchemaError):
            TopKServer(dataset, k=0)

    def test_space_mismatch_rejected(self, dataset):
        server = TopKServer(dataset, k=3)
        other = Query.full(DataSpace.categorical([4]))
        with pytest.raises(SchemaError):
            server.run(other)


class TestAccounting:
    def test_stats_count_queries(self, dataset):
        server = TopKServer(dataset, k=3)
        q = Query.full(dataset.space)
        server.run(q)
        server.run(q.with_value(0, 3))
        assert server.stats.queries == 2
        assert server.stats.overflowed == 1
        assert server.stats.resolved == 1

    def test_budget_enforced_and_query_not_counted(self, dataset):
        server = TopKServer(dataset, k=3, limits=[QueryBudget(1)])
        server.run(Query.full(dataset.space))
        with pytest.raises(QueryBudgetExhausted):
            server.run(Query.full(dataset.space).with_value(0, 1))
        assert server.stats.queries == 1

    def test_engines_give_same_answers(self, dataset):
        q = Query.full(dataset.space).with_value(0, 1)
        vec = TopKServer(dataset, k=3, engine="vector").run(q)
        lin = TopKServer(dataset, k=3, engine="linear").run(q)
        assert vec == lin

    def test_empty_dataset(self, space):
        server = TopKServer(Dataset(space, []), k=3)
        resp = server.run(Query.full(space))
        assert resp.resolved and resp.rows == ()


class TestSharedEngine:
    """Sibling servers over one dataset answer through one engine."""

    def test_same_seed_and_engine_share_one_engine(self, dataset):
        servers = [TopKServer(dataset, k=3, priority_seed=7) for _ in "abcd"]
        engines = {id(server._engine) for server in servers}
        assert len(engines) == 1

    @pytest.mark.parametrize(
        "other",
        [
            dict(priority_seed=8),
            dict(priority_seed=7, engine="indexed"),
            dict(priority_seed=7, priorities=[8, 7, 6, 5, 4, 3, 2, 1]),
        ],
        ids=["seed", "engine", "priorities"],
    )
    def test_other_key_gets_its_own_engine(self, dataset, other):
        first = TopKServer(dataset, k=3, priority_seed=7)
        second = TopKServer(dataset, k=3, **other)
        assert second._engine is not first._engine

    def test_explicit_priorities_never_share(self, dataset):
        priorities = list(range(dataset.n))
        a = TopKServer(dataset, k=3, priorities=priorities)
        b = TopKServer(dataset, k=3, priorities=priorities)
        assert a._engine is not b._engine
        # ... and leave the seeded memo alone.
        seeded = TopKServer(dataset, k=3)
        assert TopKServer(dataset, k=3)._engine is seeded._engine

    def test_one_slot_keeps_the_most_recent_key(self, dataset):
        first = TopKServer(dataset, k=3, priority_seed=1)
        TopKServer(dataset, k=3, priority_seed=2)
        again = TopKServer(dataset, k=3, priority_seed=1)
        assert again._engine is not first._engine
        sibling = TopKServer(dataset, k=3, priority_seed=1)
        assert sibling._engine is again._engine

    def test_shared_engine_answers_like_a_private_one(self, dataset):
        root = Query.full(dataset.space)
        queries = [root] + [root.with_value(0, v) for v in (1, 2, 3)]
        for seed in range(5):
            shared = TopKServer(dataset, k=3, priority_seed=seed)
            TopKServer(dataset, k=3, priority_seed=seed)  # a sibling
            copy = Dataset(dataset.space, dataset.rows)
            private = TopKServer(copy, k=3, priority_seed=seed)
            expected = [private.run(q) for q in queries]
            assert [shared.run(q) for q in queries] == expected

    def test_accounting_stays_per_server(self, dataset):
        budget = QueryBudget(1)
        limited = TopKServer(dataset, k=2, limits=[budget])
        free = TopKServer(dataset, k=5)
        assert free._engine is limited._engine
        q = Query.full(dataset.space)
        assert len(limited.run(q).rows) == 2
        assert len(free.run(q).rows) == 5
        with pytest.raises(QueryBudgetExhausted):
            limited.run(q)
        free.run(q)
        assert limited.stats.queries == 1
        assert free.stats.queries == 2
        assert (limited.k, free.k) == (2, 5)

    def test_dataset_pickle_leaves_the_engine_out(self, dataset):
        fresh = make_dataset(dataset.space, dataset.rows)
        before = pickle.dumps(fresh)
        server = TopKServer(fresh, k=3)
        server.run(Query.full(fresh.space))
        assert pickle.dumps(fresh) == before
        restored = pickle.loads(before)
        assert restored == fresh
        assert restored._engine_memo is None

    def test_unpickled_siblings_still_share(self, dataset):
        servers = [TopKServer(dataset, k=3) for _ in range(3)]
        clones = pickle.loads(pickle.dumps(servers))
        assert len({id(clone._engine) for clone in clones}) == 1
        q = Query.full(dataset.space)
        assert [c.run(q) for c in clones] == [s.run(q) for s in servers]
