"""Concurrent partitioned crawling over the pluggable executor layer.

:func:`crawl_partitioned_parallel` is the stable front door to
:mod:`repro.crawl.executors`: it builds the backend a
:class:`~repro.crawl.spec.CrawlSpec` names (``"thread"`` by default,
``"process"`` for CPU-bound simulated engines) and runs the plan with
that spec.

Whatever the backend and stealing schedule, the **determinism
contract** holds: ``result.rows`` is ordered by (session index, region
index, extraction order), ``result.cost`` is the sum of per-session
costs, and ``result.progress`` is the canonical
:func:`~repro.crawl.base.merge_progress` interleaving of the
per-session curves -- byte-identical to the sequential executor on the
same plan.  Only the live feed of an attached
:class:`~repro.crawl.base.ProgressAggregator` reflects actual
scheduling.
"""

from __future__ import annotations

from typing import Sequence

from repro.crawl.executors import default_workers, make_executor
from repro.crawl.partition import PartitionedResult, PartitionPlan
from repro.crawl.spec import CrawlSpec

__all__ = ["crawl_partitioned_parallel", "default_workers"]


def crawl_partitioned_parallel(
    sources: Sequence,
    plan: PartitionPlan,
    *,
    spec: CrawlSpec | None = None,
) -> PartitionedResult:
    """Crawl every region of ``plan``, sessions running concurrently.

    Parameters
    ----------
    sources:
        One query source per bundle, exactly as for
        :func:`~repro.crawl.partition.crawl_partitioned`.
    plan:
        The partition plan.
    spec:
        The whole configuration, a :class:`~repro.crawl.spec.CrawlSpec`
        (default: a default spec, i.e. the thread backend with
        :func:`~repro.crawl.executors.default_workers` workers, static
        dispatch and :class:`~repro.crawl.hybrid.Hybrid` per region).
        Its backend half picks and sizes the executor
        (:func:`~repro.crawl.executors.make_executor`); its run half is
        passed to :meth:`~repro.crawl.executors.CrawlExecutor.run`.

    Raises
    ------
    SchemaError
        If ``sources`` does not match ``plan.sessions``.
    QueryBudgetExhausted
        When a limit fires and ``spec.allow_partial`` is ``False`` (the
        lowest failing plan position's exception, after all workers
        drained).

    Examples
    --------
    Three identities crawl a plan concurrently, stealing subtrees of
    whatever region turns out heaviest::

        plan = partition_space(dataset.space, 3)
        sources = [TopKServer(dataset, k=32) for _ in range(3)]
        spec = CrawlSpec(rebalance=True, shard_subtrees=8)
        merged = crawl_partitioned_parallel(sources, plan, spec=spec)
        assert sorted(merged.rows) == sorted(dataset.iter_rows())
    """
    if spec is None:
        spec = CrawlSpec()
    return make_executor(spec=spec).run(sources, plan, spec)
