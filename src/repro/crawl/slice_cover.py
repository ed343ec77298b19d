"""``slice-cover`` and ``lazy-slice-cover`` (paper Section 3.2).

A *slice query* pins exactly one categorical attribute, ``Ai = c``, and
wildcards everything else; there are only ``sum_i Ui`` of them.  The
algorithm:

1. **Slice table.**  Eager mode runs every slice query up front and
   remembers each response (a resolved slice's full result, or just an
   overflow bit).  Lazy mode -- the paper's practical winner -- issues a
   slice query the first time its answer is needed.  Both share the
   response cache of :class:`~repro.server.client.CachingClient`, which
   *is* the lookup table.
2. **Extended DFS.**  Walk the data space tree, but before descending
   into a child ``v`` (which refines its parent with ``A(l+1) = c``),
   consult the slice ``A(l+1) = c``: if that slice *resolved*, the
   child's entire subtree is answered locally by filtering the slice's
   rows -- no query issued, no descent.  Only children whose slice
   overflowed are visited, and Lemma 4 bounds their number by
   ``(n/k) * min(Ui, n/k)`` per level.

Total cost (Lemma 4): ``U1`` when ``d = 1``; otherwise at most
``sum Ui + (n/k) * sum min(Ui, n/k)`` -- optimal by Theorem 4.

The extended-DFS core is shared with the ``hybrid`` algorithm (Section
5), which replaces the categorical leaf handler with a rank-shrink
sub-crawl over the numeric suffix.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.crawl.base import Crawler
from repro.dataspace.space import SpaceKind
from repro.exceptions import InfeasibleCrawlError, SchemaError
from repro.query.predicates import compile_matcher
from repro.query.query import Query, slice_query
from repro.server.response import QueryResponse, Row

__all__ = ["SliceCover", "LazySliceCover"]

#: Handler invoked on a categorical-leaf query (all ``cat`` attributes
#: pinned) whose slice overflowed; must extract that subspace in full.
LeafHandler = Callable[[Query], None]


def preprocess_slice_table(crawler: Crawler) -> None:
    """Eagerly run every slice query (slice-cover's first phase).

    Each attribute's slices are siblings by construction, so they go
    out as one battery -- the identical queries in the identical order
    as the plain loop, sharing one engine context per attribute.
    """
    space = crawler.space
    crawler.client.begin_phase("slice-table")
    try:
        for index in range(space.cat):
            attr = space[index]
            assert attr.domain_size is not None
            crawler._run_battery(
                [
                    slice_query(space, index, value)
                    for value in range(1, attr.domain_size + 1)
                ]
            )
    finally:
        crawler.client.end_phase()


def slice_response(
    crawler: Crawler, index: int, value: int, *, lazy: bool
) -> QueryResponse:
    """The slice table entry for ``A_index = value``.

    Eager mode requires the entry to exist (preprocessing ran); lazy
    mode issues the slice query on first use -- "there is no harm to run
    the query at the first time such a need arises".
    """
    query = slice_query(crawler.space, index, value)
    response = crawler.client.peek(query)
    if response is None:
        if not lazy:
            raise SchemaError(
                "slice table consulted before preprocessing; "
                "run preprocess_slice_table first"
            )
        response = crawler._run_query(query)
    return response


def categorical_point_handler(crawler: Crawler) -> LeafHandler:
    """Leaf handler for purely categorical spaces: issue the point query.

    A point of the data space can hold at most ``k`` tuples in any
    solvable instance, so an overflow here proves infeasibility.
    """

    def handle(leaf_query: Query) -> None:
        response = crawler._run_query(leaf_query)
        if response.overflow:
            raise InfeasibleCrawlError(
                f"point query {leaf_query} overflowed: more than "
                f"k={crawler.k} duplicates at one point"
            )
        crawler._confirm(response.rows)

    return handle


#: Local filter of one tree node: ``(slice rows, value)`` -> the rows
#: matching the child that refines the node with ``A(level+1) = value``.
SliceFilter = Callable[[Sequence[Row], int], list[Row]]


def slice_filter(node_query: Query, level: int) -> SliceFilter:
    """The local filter for the children of ``node_query``.

    A child differs from its node only in ``A(level+1) = value``, so the
    node's predicates are compiled once (:func:`compile_matcher`) and
    each child adds one inline equality test.  A row passes exactly
    when ``child_query.matches(row)`` holds.
    """
    match = compile_matcher(node_query.predicates, skip=level)
    if match is None:
        return lambda rows, value: [row for row in rows if row[level] == value]
    return lambda rows, value: [
        row for row in rows if row[level] == value and match(row)
    ]


def extended_dfs(
    crawler: Crawler,
    node_query: Query,
    level: int,
    *,
    lazy: bool,
    leaf_handler: LeafHandler,
) -> None:
    """Process the children of an (assumed overflowing) tree node.

    ``level`` is the node's depth: attributes ``A1 .. A_level`` are
    pinned on ``node_query``.  For each child (refining ``A(level+1)``):

    * slice resolved  -> answer locally by filtering the slice's rows
      (:func:`slice_filter`, compiled once per node);
    * slice overflowed -> visit the child: hand categorical leaves to
      ``leaf_handler``, issue inner nodes' queries and recurse on
      overflow.
    """
    space = crawler.space
    cat = space.cat
    attr = space[level]
    assert attr.domain_size is not None
    if lazy:
        # Lazy mode consults the slice of *every* child below, so
        # prefetching the uncached ones as one sibling battery issues
        # exactly the queries the loop would -- grouped up front,
        # sharing one engine context, instead of interleaved with the
        # descents.
        uncached = []
        for value in range(1, attr.domain_size + 1):
            slice_q = slice_query(space, level, value)
            if crawler.client.peek(slice_q) is None:
                uncached.append(slice_q)
        crawler._run_battery(uncached)
    local_filter: SliceFilter | None = None
    for value in range(1, attr.domain_size + 1):
        child_query = node_query.with_value(level, value)
        table_entry = slice_response(crawler, level, value, lazy=lazy)
        if table_entry.resolved:
            if local_filter is None:
                local_filter = slice_filter(node_query, level)
            crawler._confirm(local_filter(table_entry.rows, value))
            continue
        if level + 1 == cat:
            leaf_handler(child_query)
            continue
        child_response = crawler._run_query(child_query)
        if child_response.resolved:
            crawler._confirm(child_response.rows)
        else:
            extended_dfs(
                crawler,
                child_query,
                level + 1,
                lazy=lazy,
                leaf_handler=leaf_handler,
            )


class SliceCover(Crawler):
    """Eager slice-cover: full slice table first, then extended DFS.

    The all-wildcard root query is never issued: once the slice table is
    known, the root's processing needs only the table (the paper's
    Section 3.2 example issues no query at the root either).
    """

    name = "slice-cover"

    def __init__(
        self,
        source,
        *,
        max_queries: int | None = None,
        batteries: bool = True,
    ):
        super().__init__(source, max_queries=max_queries, batteries=batteries)
        if self.space.kind is not SpaceKind.CATEGORICAL:
            raise SchemaError(
                "slice-cover handles purely categorical spaces; use Hybrid "
                f"for {self.space.kind.value} spaces"
            )

    def _execute(self) -> None:
        preprocess_slice_table(self)
        self.client.begin_phase("traversal")
        try:
            extended_dfs(
                self,
                Query.full(self.space),
                0,
                lazy=False,
                leaf_handler=categorical_point_handler(self),
            )
        finally:
            self.client.end_phase()


class LazySliceCover(Crawler):
    """Lazy slice-cover: slices are fetched on first use (Section 3.2).

    Shares slice-cover's worst-case bound, but on practical data skips
    most of the slice table -- the paper's clear experimental winner
    (Figure 11).  Faithful to extended-DFS, the root query is issued
    (nothing is known before it).
    """

    name = "lazy-slice-cover"

    def __init__(
        self,
        source,
        *,
        max_queries: int | None = None,
        batteries: bool = True,
    ):
        super().__init__(source, max_queries=max_queries, batteries=batteries)
        if self.space.kind is not SpaceKind.CATEGORICAL:
            raise SchemaError(
                "lazy-slice-cover handles purely categorical spaces; use "
                f"Hybrid for {self.space.kind.value} spaces"
            )

    def _execute(self) -> None:
        root = Query.full(self.space)
        response = self._run_query(root)
        if response.resolved:
            self._confirm(response.rows)
            return
        extended_dfs(
            self,
            root,
            0,
            lazy=True,
            leaf_handler=categorical_point_handler(self),
        )
