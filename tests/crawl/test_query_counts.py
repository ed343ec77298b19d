"""Exact server-charged query counts of the paper's crawlers.

Query count is the paper's cost metric, so a change to any crawler,
query builder or engine that moves it must show up as a test failure,
not only as a benchmark diff.  Each case crawls a small Bernoulli
sample of a paper dataset with a fresh :class:`TopKServer` and pins
``server.stats.queries`` to the count the crawler charged when the
table was recorded.  A deliberate change of a count updates the table
and says why.
"""

import pytest

from repro.crawl.spec import ALGORITHMS
from repro.crawl.verify import verify_complete
from repro.datasets.adult import adult, adult_numeric
from repro.datasets.nsf import nsf
from repro.datasets.yahoo import yahoo_autos
from repro.server.server import TopKServer

SEED = 7
FRACTION = 0.02

DATASETS = {
    "nsf": nsf,
    "yahoo": yahoo_autos,
    "adult": adult,
    "adult-numeric": adult_numeric,
}

#: (dataset, algorithm, k, server-charged queries).
COUNTS = [
    ("nsf", "dfs", 32, 340),
    ("nsf", "dfs", 128, 46),
    ("nsf", "slice-cover", 32, 34159),
    ("nsf", "slice-cover", 128, 34082),
    ("nsf", "lazy-slice-cover", 32, 145),
    ("nsf", "lazy-slice-cover", 128, 19),
    ("adult-numeric", "rank-shrink", 32, 76),
    ("adult-numeric", "rank-shrink", 128, 20),
    ("yahoo", "hybrid", 32, 229),
    ("yahoo", "hybrid", 128, 109),
    ("adult", "hybrid", 32, 127),
    ("adult", "hybrid", 128, 31),
]


@pytest.fixture(scope="module")
def samples():
    return {
        name: make().sample_fraction(FRACTION, seed=SEED)
        for name, make in DATASETS.items()
    }


@pytest.mark.parametrize(
    ("data", "algorithm", "k", "queries"),
    COUNTS,
    ids=[f"{d}-{a}-k{k}" for d, a, k, _ in COUNTS],
)
def test_server_charged_queries_are_pinned(
    samples, data, algorithm, k, queries
):
    dataset = samples[data]
    server = TopKServer(dataset, k, priority_seed=SEED)
    result = ALGORITHMS[algorithm](server).crawl()
    assert verify_complete(result, dataset).complete
    assert server.stats.queries == queries
    assert result.cost == queries
