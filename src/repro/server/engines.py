"""Query-evaluation engines backing the simulated hidden-database server.

The server stores its tuples sorted by descending priority; an engine's
single job is, given a query and the limit ``k``, to find the first
``k`` matching tuples in that order and report whether more exist.

Three interchangeable implementations are provided:

* :class:`LinearScanEngine` -- the obviously correct reference: walk the
  rows in priority order, stop at the ``k+1``-st match.  Used in tests
  as ground truth.
* :class:`VectorEngine` -- numpy-vectorised predicate masks, used for the
  paper-scale experiments (tens of thousands of tuples, tens of
  thousands of queries).
* :class:`IndexedEngine` -- per-column sorted indexes answering both
  range and equality predicates by binary search; the candidate set of
  the most selective predicate is verified row-wise.  Fastest when
  queries are selective (deep crawl queries usually are), degrades to a
  full scan otherwise.

Two hot-path mechanisms are shared by all engines (profiled in
``docs/performance.md``):

* **Compiled predicate evaluation** -- row-wise verification goes
  through :func:`repro.query.compile_matcher`: one codegen pass per
  query instead of one predicate-method dispatch per row per attribute.
* **Cached row materialisation** -- the priority-ordered rows are
  converted from the numpy matrix to plain-int tuples once
  (:meth:`QueryEngine._rows`) instead of per response, so returning
  rows is list slicing.  The cache is derived data and is dropped from
  pickles.  Seeded servers over one dataset share one engine
  (:class:`~repro.server.server.TopKServer` memoises it on the
  dataset), so a partitioned crawl builds this cache and the lazy
  column indexes once, not once per session.

Engines also expose a **batched top-k seam**: :meth:`QueryEngine.batch`
returns a :class:`BatchTopK` evaluation context whose per-query answers
are bit-identical to :meth:`QueryEngine.top`; on the vector engine,
sibling queries (same plan prefix, one varying attribute) share
per-(attribute, predicate) masks -- mirroring how lease batching
amortised admission round trips.  :meth:`QueryEngine.top_batch`
answers a whole vector of queries through one such context.

A property-based test (``tests/server/test_engines.py``) checks all
engines agree on arbitrary datasets and queries -- including under
concurrent ``top()`` calls and between batched and per-query
evaluation: engines hold no per-query mutable state, and the lazily
built index structures are guarded by a lock so racing builders
produce one consistent index.

Engines are picklable (the index lock is dropped and rebuilt; indexes
already built travel with the engine), so a whole server can be
shipped to a process-pool worker for CPU-bound crawls
(:class:`~repro.crawl.executors.ProcessExecutor`).
"""

from __future__ import annotations

import abc
import threading
from typing import Sequence

import numpy as np

from repro.query.predicates import (
    EqualityPredicate,
    Predicate,
    compile_matcher,
)
from repro.query.query import Query
from repro.server.pickling import LocklessPickle
from repro.server.response import Row

__all__ = [
    "QueryEngine",
    "BatchTopK",
    "LinearScanEngine",
    "VectorEngine",
    "IndexedEngine",
    "make_engine",
]


class QueryEngine(abc.ABC):
    """Evaluates queries against a fixed priority-ordered tuple matrix."""

    def __init__(self, matrix: np.ndarray):
        if matrix.ndim != 2:
            raise ValueError("engine expects an (n, d) matrix")
        self._matrix = matrix
        self._rows_cache: list[Row] | None = None

    @property
    def n(self) -> int:
        """Number of tuples visible to the engine."""
        return int(self._matrix.shape[0])

    @abc.abstractmethod
    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        """First ``k`` matches in priority order and an overflow flag."""

    # ------------------------------------------------------------------
    # Batched top-k seam
    # ------------------------------------------------------------------
    def batch(self) -> "BatchTopK":
        """A fresh evaluation context for a vector of sibling queries.

        The context's :meth:`BatchTopK.top` answers exactly like
        :meth:`top`, but engines with shareable per-predicate work
        (the vector engine's masks) reuse it across the queries
        evaluated through one context.  Contexts are cheap, single-use and not
        thread-safe -- make one per batch.
        """
        return BatchTopK(self)

    def top_batch(
        self, queries: Sequence[Query], k: int
    ) -> list[tuple[list[Row], bool]]:
        """Answer a vector of queries in one call, sharing predicate work.

        Equivalent to ``[self.top(q, k) for q in queries]`` -- same
        rows, same order, same overflow flags -- but sibling queries
        evaluated together reuse per-(attribute, predicate) masks and
        candidate sets through one :meth:`batch` context.

        Examples
        --------
        >>> import numpy as np
        >>> from repro import DataSpace
        >>> from repro.query import slice_query
        >>> space = DataSpace.mixed([("color", 3)], [])
        >>> engine = VectorEngine(np.array([[1], [2], [2], [3]]))
        >>> queries = [slice_query(space, 0, value) for value in (1, 2, 3)]
        >>> engine.top_batch(queries, k=2)
        [([(1,)], False), ([(2,), (2,)], False), ([(3,)], False)]
        """
        evaluator = self.batch()
        return [evaluator.top(query, k) for query in queries]

    # ------------------------------------------------------------------
    # Row materialisation (cached, derived data)
    # ------------------------------------------------------------------
    def _rows(self) -> list[Row]:
        """The matrix as plain-int tuples in priority order (cached).

        Built lazily on first use; concurrent builders race benignly
        (both produce the identical list).  The cache never travels in
        pickles -- it is rebuilt on the other side on demand.
        """
        rows = self._rows_cache
        if rows is None:
            rows = [tuple(values) for values in self._matrix.tolist()]
            self._rows_cache = rows
        return rows

    def _row(self, i: int) -> Row:
        return self._rows()[i]

    # ------------------------------------------------------------------
    # Pickling: the row cache is derived data and must not travel.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_rows_cache"] = None
        return state

    def _pickle_trim(self, state: dict) -> dict:
        # Same policy for LocklessPickle subclasses (their __getstate__
        # routes through this hook instead).
        state["_rows_cache"] = None
        return state


class BatchTopK:
    """Evaluation context for answering a vector of sibling queries.

    The base context shares nothing -- it simply forwards to the
    engine's :meth:`~QueryEngine.top`, so answers are trivially
    identical to per-query evaluation.  :class:`VectorEngine` returns a
    subclass that caches per-(attribute, predicate) masks across the
    queries of one context.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DataSpace
    >>> from repro.query import full_query
    >>> space = DataSpace.mixed([("color", 2)], [])
    >>> engine = LinearScanEngine(np.array([[1], [2]]))
    >>> context = engine.batch()
    >>> context.top(full_query(space), k=5)
    ([(1,), (2,)], False)
    """

    def __init__(self, engine: QueryEngine):
        self._engine = engine

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        """Answer one query of the batch (identical to ``engine.top``)."""
        return self._engine.top(query, k)


class LinearScanEngine(QueryEngine):
    """Reference engine: compiled-conjunction scan in pure Python.

    Per query, :func:`repro.query.compile_matcher` emits one closure
    with the predicate constants inlined; the scan then walks the
    cached plain-int row tuples in priority order and stops at the
    ``k+1``-st match.  Semantics are the paper's reference evaluation
    -- only the per-row interpretation cost is gone.
    """

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        rows = self._rows()
        match = compile_matcher(query.predicates)
        if match is None:
            # The all-wildcard query: every tuple matches.
            return rows[:k], len(rows) > k
        out: list[Row] = []
        for row in rows:
            if match(row):
                if len(out) == k:
                    return out, True
                out.append(row)
        return out, False


class _VectorBatch(BatchTopK):
    """Vector-engine context: full-column masks shared across queries."""

    def __init__(self, engine: "VectorEngine"):
        super().__init__(engine)
        self._masks: dict = {}

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        return self._engine._top(query, k, self._masks)  # noqa: SLF001


class _SortedColumnsEngine(LocklessPickle, QueryEngine):
    """Base of the engines that look predicates up in sorted columns.

    For each attribute a query first constrains, the column is sorted
    once (stable, so the row ids of one value stay ascending, which is
    priority order) and kept as its distinct values, where each one's
    run of row ids starts, and the row ids in sorted order.  A predicate
    then maps to a contiguous run of row ids via two
    :func:`numpy.searchsorted` calls over the distinct values --
    equality is the degenerate range ``[c, c]``.  A column costs one
    4-byte row id per tuple plus two entries per distinct value.  The
    indexes are derived data: built lazily under a lock (racing first
    touches build one index) and dropped from pickles.
    """

    _pickle_lock_attr = "_index_lock"

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix)
        #: attribute index -> (distinct values ascending, start of each
        #: value's run in ``order`` plus a final ``n``, row ids ``order``)
        self._columns: dict[int, tuple[np.ndarray, ...]] = {}
        self._index_lock = threading.Lock()

    def _column_index(self, attribute: int) -> tuple[np.ndarray, ...]:
        index = self._columns.get(attribute)
        if index is None:
            with self._index_lock:
                index = self._columns.get(attribute)
                if index is None:
                    column = self._matrix[:, attribute]
                    order = np.argsort(column, kind="stable")
                    ordered = column[order]
                    if order.size <= np.iinfo(np.int32).max:
                        order = order.astype(np.int32)  # half the bytes
                    new_run = np.empty(ordered.size, dtype=bool)
                    new_run[:1] = True
                    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
                    starts = np.flatnonzero(new_run)
                    index = (
                        ordered[starts],
                        np.append(starts, ordered.size),
                        order,
                    )
                    self._columns[attribute] = index
        return index

    def _rows_between(
        self, attribute: int, lo: int | None, hi: int | None
    ) -> np.ndarray:
        """Ids of the rows whose ``attribute`` lies in ``[lo, hi]``.

        ``None`` ends are unbounded.  Ids come in column-value order,
        ascending within one value.
        """
        distinct, starts, order = self._column_index(attribute)
        left = 0 if lo is None else starts[distinct.searchsorted(lo, "left")]
        right = (
            order.size
            if hi is None
            else starts[distinct.searchsorted(hi, "right")]
        )
        return order[left:right]

    def _pickle_trim(self, state: dict) -> dict:
        # Route through QueryEngine's trim explicitly (the MRO puts
        # LocklessPickle's no-op hook first, which silently shipped the
        # row-tuple cache) and drop the sorted column indexes -- both
        # are derived data, rebuilt lazily in the worker.
        state = QueryEngine._pickle_trim(self, state)
        state["_columns"] = {}
        return state


class VectorEngine(_SortedColumnsEngine):
    """Vectorised engine: numpy boolean masks over the tuple matrix.

    Unconstrained predicates (wildcards, infinite ranges) contribute no
    mask at all, so a typical crawl query that touches only a prefix of
    the attributes costs a handful of vector comparisons.

    Equality predicates additionally narrow the rows through the sorted
    column index: the query is evaluated only on the rows matching its
    most selective equality, which makes the deep, rare-prefix queries
    of DFS/slice-cover crawls orders of magnitude cheaper than a
    full-column scan.  Each value's rows come from two binary searches
    in priority order, so the top-``k`` semantics are untouched.

    Batched evaluation (:meth:`~QueryEngine.batch`) caches full-column
    predicate masks by ``(attribute, predicate)``: sibling queries that
    differ in one attribute recompute only that attribute's mask.
    """

    #: Use the value-index path only when the candidate set is this much
    #: smaller than the full matrix (otherwise masks are cheaper).
    _INDEX_SELECTIVITY = 4

    def _index_for(self, attribute: int, value: int) -> np.ndarray:
        """Ids of the rows holding ``value`` on ``attribute``, ascending."""
        return self._rows_between(attribute, value, value)

    def batch(self) -> BatchTopK:
        return _VectorBatch(self)

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        return self._top(query, k, None)

    def _top(
        self, query: Query, k: int, mask_cache: dict | None
    ) -> tuple[list[Row], bool]:
        # Keep only the constraining predicates, and pick the most
        # selective equality as the candidate set.
        constrained: list[tuple[int, Predicate]] = []
        candidates: np.ndarray | None = None
        skip_attribute = -1
        for j, pred in enumerate(query.predicates):
            if isinstance(pred, EqualityPredicate):
                if pred.value is None:
                    continue
                rows = self._index_for(j, pred.value)
                if candidates is None or rows.size < candidates.size:
                    candidates = rows
                    skip_attribute = j
            elif pred.lo is None and pred.hi is None:
                continue
            constrained.append((j, pred))
        if candidates is not None and (
            candidates.size * self._INDEX_SELECTIVITY <= self.n
        ):
            return self._top_on_subset(
                constrained, k, candidates, skip_attribute, mask_cache
            )
        return self._top_full_scan(constrained, k, mask_cache)

    def _full_mask(
        self, attribute: int, pred: Predicate, mask_cache: dict | None
    ) -> np.ndarray:
        """Full-column mask for ``pred``, cached per batch context."""
        if mask_cache is None:
            return self._predicate_mask(pred, self._matrix[:, attribute])
        key = (attribute, pred)
        if key in mask_cache:
            return mask_cache[key]
        part = self._predicate_mask(pred, self._matrix[:, attribute])
        mask_cache[key] = part
        return part

    def _top_on_subset(
        self,
        constrained: list[tuple[int, Predicate]],
        k: int,
        candidates: np.ndarray,
        skip_attribute: int,
        mask_cache: dict | None = None,
    ) -> tuple[list[Row], bool]:
        mask: np.ndarray | None = None
        for j, pred in constrained:
            if j == skip_attribute:
                continue
            if mask_cache is None:
                part = self._predicate_mask(pred, self._matrix[candidates, j])
            else:
                part = self._full_mask(j, pred, mask_cache)[candidates]
            mask = part if mask is None else mask & part
        indices = candidates if mask is None else candidates[mask]
        overflow = indices.size > k
        if overflow:
            indices = indices[:k]
        rows = self._rows()
        return [rows[i] for i in indices.tolist()], overflow

    def _top_full_scan(
        self,
        constrained: list[tuple[int, Predicate]],
        k: int,
        mask_cache: dict | None = None,
    ) -> tuple[list[Row], bool]:
        rows = self._rows()
        if not constrained:
            # The all-wildcard query: every tuple matches.
            return rows[:k], self.n > k
        mask: np.ndarray | None = None
        for j, pred in constrained:
            part = self._full_mask(j, pred, mask_cache)
            mask = part if mask is None else mask & part
        indices = np.flatnonzero(mask)
        overflow = indices.size > k
        if overflow:
            indices = indices[:k]
        return [rows[i] for i in indices.tolist()], overflow

    @staticmethod
    def _predicate_mask(pred: Predicate, column: np.ndarray) -> np.ndarray:
        """Boolean mask of ``column`` values satisfying ``pred``.

        ``pred`` constrains its attribute: callers drop wildcards first.
        """
        if isinstance(pred, EqualityPredicate):
            return column == pred.value
        if pred.lo is None:
            return column <= pred.hi
        if pred.hi is None:
            return column >= pred.lo
        if pred.lo == pred.hi:
            return column == pred.lo
        return (column >= pred.lo) & (column <= pred.hi)


class IndexedEngine(_SortedColumnsEngine):
    """Binary-search engine over lazily built per-column sorted indexes.

    Every constrained predicate maps to its exact candidate set through
    the sorted column index (:class:`_SortedColumnsEngine`).  The query
    is answered from the *smallest* candidate set among its constrained
    attributes: the ids are re-sorted into priority order (the matrix is
    stored priority-descending) and the remaining predicates are
    verified only on those rows, through one compiled matcher per query.
    Wildcard-heavy but selective crawl queries therefore cost
    ``O(log n + m log m)`` for a candidate count ``m``, independent of
    ``n``.  A query with no constrained attribute falls back to "first
    ``k`` rows".
    """

    def _candidates(
        self, attribute: int, pred: Predicate
    ) -> np.ndarray | None:
        """Row ids matching ``pred``, or ``None`` if it is unconstrained."""
        if isinstance(pred, EqualityPredicate):
            if pred.value is None:
                return None
            return self._rows_between(attribute, pred.value, pred.value)
        if pred.lo is None and pred.hi is None:
            return None
        return self._rows_between(attribute, pred.lo, pred.hi)

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        best: np.ndarray | None = None
        best_attribute = -1
        for j, pred in enumerate(query.predicates):
            rows = self._candidates(j, pred)
            if rows is not None and (best is None or rows.size < best.size):
                best = rows
                best_attribute = j
        all_rows = self._rows()
        if best is None:
            # All-wildcard query: the first k rows in priority order.
            return all_rows[:k], self.n > k
        # ascending row id == descending priority
        ordered = np.sort(best).tolist()
        match = compile_matcher(query.predicates, skip=best_attribute)
        if match is None:
            return [all_rows[i] for i in ordered[:k]], len(ordered) > k
        matches: list[Row] = []
        for i in ordered:
            if match(all_rows[i]):
                if len(matches) == k:
                    return matches, True
                matches.append(all_rows[i])
        return matches, False


def make_engine(name: str, matrix: np.ndarray) -> QueryEngine:
    """Engine factory: ``"linear"``, ``"vector"`` (default) or ``"indexed"``."""
    if name == "linear":
        return LinearScanEngine(matrix)
    if name == "vector":
        return VectorEngine(matrix)
    if name == "indexed":
        return IndexedEngine(matrix)
    raise ValueError(
        f"unknown engine {name!r}; expected 'linear', 'vector' or 'indexed'"
    )
