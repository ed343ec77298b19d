"""Concurrency stress tests: exact accounting under thread contention.

The serving stack claims to be safe for concurrent crawl sessions:

* a :class:`CachingClient` issues each distinct query to the server
  *exactly once* -- racing threads on a cold query never double-charge,
  and cache hits cost zero;
* :class:`QueryStats` totals stay exact (``queries == resolved +
  overflowed``, tuple counts consistent) however calls interleave;
* limits never over-admit: exactly ``per_day`` / ``max_queries``
  admissions succeed no matter how many threads race on ``admit``.

Every test here uses a fixed seed and a thread barrier so the workload
(which queries, from how many threads) is deterministic even though the
interleaving is not; the assertions hold for *every* interleaving.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import QueryBudgetExhausted
from repro.query.query import Query
from repro.server.client import CachingClient
from repro.server.limits import DailyRateLimit, QueryBudget, SimulatedClock
from repro.server.server import TopKServer

THREADS = 8
SEED = 1234


def stress_dataset(n=600, seed=SEED):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 9), ("body", 4)],
        ["price"],
        numeric_bounds=[(0, 499)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 10, n),
            rng.integers(1, 5, n),
            rng.integers(0, 500, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


def query_pool(space, seed=SEED):
    """A deterministic pool of distinct queries over ``space``."""
    rng = np.random.default_rng(seed)
    root = Query.full(space)
    queries = [root]
    for make in range(1, 10):
        queries.append(root.with_value(0, make))
        for body in range(1, 5):
            queries.append(root.with_value(0, make).with_value(1, body))
    for _ in range(40):
        lo = int(rng.integers(0, 450))
        queries.append(root.with_range(2, lo, lo + int(rng.integers(1, 80))))
    # Distinctness matters: the cache-exactness assertion counts them.
    assert len(set(queries)) == len(queries)
    return queries


def hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on a barrier-synchronised pool."""
    barrier = threading.Barrier(threads)

    def run(i):
        barrier.wait()
        return worker(i)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        tasks = [pool.submit(run, i) for i in range(threads)]
        return [task.result() for task in tasks]


class TestCachingClientExactlyOnce:
    def test_racing_threads_never_double_charge(self):
        dataset = stress_dataset()
        server = TopKServer(dataset, k=16)
        client = CachingClient(server)
        queries = query_pool(dataset.space)

        # Every thread runs the whole pool in a thread-specific order,
        # so every query is raced by all 8 threads.
        def worker(i):
            order = np.random.default_rng(SEED + i).permutation(len(queries))
            return [client.run(queries[j]) for j in order]

        hammer(worker)

        # Exactly one server round trip per distinct query.
        assert client.cost == len(queries)
        assert server.stats.queries == len(queries)
        assert len(client.history) == len(queries)
        assert set(client.history) == set(queries)

        # Re-running the pool now costs nothing: all hits.
        before = client.cost
        for q in queries:
            client.run(q)
        assert client.cost == before

    def test_responses_match_single_threaded_reference(self):
        dataset = stress_dataset()
        queries = query_pool(dataset.space)
        reference = {q: TopKServer(dataset, k=16).run(q) for q in queries}
        client = CachingClient(TopKServer(dataset, k=16))

        def worker(i):
            order = np.random.default_rng(SEED + i).permutation(len(queries))
            return {queries[j]: client.run(queries[j]) for j in order}

        for answers in hammer(worker):
            assert answers == reference

    def test_stats_totals_are_exact(self):
        dataset = stress_dataset()
        server = TopKServer(dataset, k=16)
        client = CachingClient(server)
        queries = query_pool(dataset.space)

        def worker(i):
            order = np.random.default_rng(SEED + i).permutation(len(queries))
            for j in order:
                client.run(queries[j])

        hammer(worker)
        for stats in (client.stats, server.stats):
            assert stats.queries == len(queries)
            assert stats.resolved + stats.overflowed == stats.queries
        expected_tuples = sum(len(client.peek(q).rows) for q in queries)
        assert client.stats.tuples_returned == expected_tuples
        assert server.stats.tuples_returned == expected_tuples


class TestBareServerExactness:
    def test_server_counts_every_concurrent_query(self):
        dataset = stress_dataset()
        server = TopKServer(dataset, k=16)
        queries = query_pool(dataset.space)

        def worker(i):
            for q in queries:
                server.run(q)

        hammer(worker)
        assert server.stats.queries == THREADS * len(queries)
        assert (
            server.stats.resolved + server.stats.overflowed
            == server.stats.queries
        )


class TestLimitsNeverOverAdmit:
    def test_query_budget_admits_exactly_max(self):
        budget = QueryBudget(100)
        admitted = []

        def worker(i):
            count = 0
            for _ in range(40):
                try:
                    budget.admit()
                    count += 1
                except QueryBudgetExhausted:
                    pass
            admitted.append(count)

        hammer(worker)
        assert sum(admitted) == 100
        assert budget.remaining == 0 and budget.used == 100

    def test_daily_rate_limit_admits_exactly_per_day(self):
        clock = SimulatedClock()
        limit = DailyRateLimit(50, clock)
        results = []

        def worker(i):
            count = 0
            for _ in range(20):
                try:
                    limit.admit()
                    count += 1
                except QueryBudgetExhausted:
                    pass
            results.append(count)

        hammer(worker)
        assert sum(results) == 50
        assert limit.remaining_today == 0

        # The quota resets atomically on the day boundary.
        clock.sleep_until_next_day()
        results.clear()
        hammer(worker)
        assert sum(results) == 50


class TestSharedEngineBuild:
    def test_servers_built_concurrently_answer_like_linear_scan(self):
        """Racing constructors over one dataset: every answer exact.

        Each thread builds its own server over the shared dataset (so
        the engine memo and the engine's lazy indexes are raced) and
        answers the whole pool; every response must equal the
        reference linear scan's.
        """
        dataset = stress_dataset()
        queries = query_pool(dataset.space)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleavings
        try:
            for engine in ("vector", "indexed"):
                reference = TopKServer(
                    dataset, k=25, priority_seed=SEED, engine="linear"
                )
                expected = [reference.run(q) for q in queries]

                def worker(i, engine=engine):
                    server = TopKServer(
                        dataset, k=25, priority_seed=SEED, engine=engine
                    )
                    return [server.run(q) for q in queries[i::2] + queries]

                for i, answers in enumerate(hammer(worker)):
                    assert answers == expected[i::2] + expected
        finally:
            sys.setswitchinterval(interval)
