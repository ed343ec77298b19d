"""Pluggable crawl transports: sequential, thread and process.

A partitioned crawl is a grid of region crawls -- ``plan.bundles[s][i]``
-- each of which is a pure function of (session source, region): a
fresh crawler with a fresh response cache is built per region (see
:func:`~repro.crawl.partition._crawl_region`), and the sources are
deterministic.  Every executor in this module exploits that purity: it
may run the grid in any order, on any substrate, and the merged
:class:`~repro.crawl.partition.PartitionedResult` -- rows ordered by
plan position, costs summed, progress canonically interleaved -- is
byte-identical to the sequential executor's.

The dispatch logic itself lives in :mod:`repro.crawl.runtime`: one
transport-agnostic drive loop (static sessions or work stealing) over
:class:`~repro.crawl.runtime.UnitRunner` /
:class:`~repro.crawl.runtime.ResultSink` protocols.  This module only
supplies the transports -- how workers are spawned, how a unit's code
reaches them, and how the sources' limits are shared:

:class:`SequentialExecutor`
    One region after another, in plan order, in the calling thread.
    The reference the others are tested against.
:class:`ThreadExecutor`
    A thread pool in the parent process; sources are shared by
    reference.  Wins on latency-bound sessions: threads overlap the
    per-query round trips.
:class:`ProcessExecutor`
    A :class:`concurrent.futures.ProcessPoolExecutor`; sources and the
    crawler factory are pickled once into each worker (the serving
    stack's lock-dropping ``__getstate__`` paths make servers, clients
    and limits picklable).  Wins on CPU-bound simulated workloads,
    where the GIL caps the thread backend at a single core.  The
    sources' limits, clocks and stats live in a shared-state control
    plane (:mod:`repro.crawl.coordinator`) for the whole crawl, with
    lease-batched exactly-once admission across the pool, so the
    caller's ``QueryBudget`` and ``server.stats`` read the exact
    charged totals on this backend too.

Adaptive rebalancing
--------------------
``rebalance=True`` replaces static session dispatch with the
:class:`~repro.crawl.rebalance.WorkStealingScheduler`: an idle worker
steals the tail region of the session with the largest estimated
remaining cost (estimates start from a prior and are updated with the
exact observed cost of every finished region).  A stolen region is
still crawled against *its own session's* source -- its identity keeps
paying the queries -- and its result is filed under its original plan
position, so rebalancing changes wall-clock behaviour only, never the
result.  The one caveat: a source-side *limit* (budget, daily quota)
fires by cumulative query order, which stealing reorders -- parity with
the sequential executor is guaranteed for crawls that complete within
their limits.

Subtree sharding
----------------
``shard_subtrees=N`` drops the unit of scheduling below the region:
regions are *presplit* (:func:`~repro.crawl.sharding.presplit_region`)
into a trunk plus independently crawlable subtree shards, and with
``rebalance=True`` the
:class:`~repro.crawl.rebalance.SubtreeScheduler` lets idle workers
steal whole regions first and then *subqueries of the costliest live
region* -- the only lever that helps when a single heavy region
dominates the plan.  ``shard_subtrees="auto"`` switches from the fixed
per-region target to the estimator-driven
:meth:`~repro.crawl.runtime.ShardPolicy.adaptive` planner, which
presplits only regions whose estimated cost exceeds the fleet's fair
share.  Whichever worker completes a region's last shard splices the
results back in canonical order
(:func:`~repro.crawl.sharding.merge_region_shards`), so the merged
result remains byte-identical to the unsharded sequential executor's
on every backend, under every policy.

Failure semantics (all backends): every region is drained before a
failure propagates, and the exception of the lowest (session, region)
plan position is raised -- except the sequential executor, which stops
at the first failure exactly as it always did.  With
``allow_partial=True`` a budget-interrupted region yields a partial
result instead and the merge is marked incomplete.
"""

from __future__ import annotations

import abc
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Mapping, Sequence

from repro.crawl.base import Crawler, CrawlResult
from repro.crawl.partition import (
    PartitionedResult,
    PartitionPlan,
    _check_sources,
    _merge_session_results,
)
from repro.crawl.rebalance import CostEstimator, RegionKey
from repro.crawl.runtime import (
    AggregatorFeed,
    BatchSink,
    GridSink,
    LocalUnitRunner,
    ShardPolicy,
    drain_elastic,
    drive_session,
    drive_stealing,
    steal_setup,
)
from repro.crawl.spec import CrawlSpec
from repro.exceptions import SchemaError

__all__ = [
    "CrawlExecutor",
    "SequentialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
    "default_workers",
    "pickle_payload",
]


def default_workers(sessions: int) -> int:
    """A sensible worker count: one per session, capped at 4x the CPUs.

    Sessions are typically latency-bound, not CPU-bound, so
    oversubscribing the cores is fine; the cap only guards against
    absurd plans.
    """
    return max(1, min(sessions, 4 * (os.cpu_count() or 1)))


def _completed_costs(
    completed: Mapping[RegionKey, CrawlResult],
) -> dict[RegionKey, int]:
    """Exact per-region costs of a resumed crawl's pre-filed results.

    What the schedulers need from a checkpoint: the keys are excluded
    from the queues, the costs seed the stealing estimator with truth
    instead of priors.
    """
    return {key: result.cost for key, result in completed.items()}


class CrawlExecutor(abc.ABC):
    """Runs a partition plan's region grid and merges deterministically.

    Subclasses implement :meth:`_execute` -- the *transport*: spawn
    workers on some substrate and point them at the runtime's drive
    loops (:mod:`repro.crawl.runtime`), which own all scheduling
    semantics.  :meth:`run` owns validation, shard-policy resolution,
    the deterministic merge, and the drain-then-raise failure contract.

    Examples
    --------
    Pick a backend by registry name and crawl a plan; whatever backend
    runs, the merged result is byte-identical::

        from repro import CrawlSpec, TopKServer, make_executor
        from repro import partition_space

        plan = partition_space(dataset.space, 4)
        sources = [TopKServer(dataset, k=64) for _ in range(4)]
        spec = CrawlSpec(
            executor="process", max_workers=4,
            rebalance=True, shard_subtrees=8,
        )
        executor = make_executor(spec=spec)
        merged = executor.run(sources, plan, spec)
        assert merged.complete
    """

    #: Registry name of the backend; subclasses override.
    name: str = "executor"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be positive, got {max_workers}"
            )
        self._max_workers = max_workers

    def _workers(self, upper: int) -> int:
        """The effective worker count, capped at ``upper`` tasks."""
        workers = self._max_workers
        if workers is None:
            workers = default_workers(upper)
        return max(1, min(workers, upper))

    def _policy_fleet(self, plan: PartitionPlan, rebalance: bool) -> int:
        """Concurrency the adaptive shard planner should assume.

        The fair-share rule only makes sense against workers that can
        actually *take* a heavy region's shards: without work stealing
        a presplit region's shards are crawled serially by its own
        session's worker, so static dispatch reports a fleet of 1 and
        ``shard_subtrees="auto"`` correctly presplits nothing.
        Single-worker backends override this to 1 outright.
        """
        if not rebalance:
            return 1
        return self._workers(
            max(1, sum(len(bundle) for bundle in plan.bundles))
        )

    def run(
        self,
        sources: Sequence,
        plan: PartitionPlan,
        spec: CrawlSpec | None = None,
    ) -> PartitionedResult:
        """Crawl every region of ``plan`` and merge deterministically.

        Parameters
        ----------
        sources:
            One query source per bundle, exactly as for
            :func:`~repro.crawl.partition.crawl_partitioned`.
        plan:
            The partition plan; the unit of scheduling is one region
            (or, with ``spec.shard_subtrees``, one subtree shard of
            one).
        spec:
            The crawl configuration, a
            :class:`~repro.crawl.spec.CrawlSpec` (default: a default
            spec).  Its *run half* is consumed here; the field
            semantics are documented on the spec.  A spec whose
            ``executor`` field names a different backend than this
            instance is rejected -- build the instance with
            :func:`make_executor(spec=spec) <make_executor>` so the
            two cannot disagree.

        Raises
        ------
        SchemaError
            If ``sources`` does not match ``plan.sessions``, or a
            ``completed`` key lies outside the plan.
        QueryBudgetExhausted
            When a limit fires and ``allow_partial`` is ``False`` (the
            exception of the lowest failing plan position, after every
            worker drained).
        """
        if spec is None:
            spec = CrawlSpec()
        if spec.executor is not None and spec.executor != self.name:
            raise ValueError(
                f"spec names executor {spec.executor!r} but run() was "
                f"called on the {self.name!r} backend; build the "
                "executor with make_executor(spec=spec) so they cannot "
                "disagree"
            )
        _check_sources(sources, plan)
        aggregator = spec.aggregator
        if aggregator is not None and aggregator.sessions != plan.sessions:
            raise ValueError(
                f"aggregator tracks {aggregator.sessions} sessions but "
                f"the plan has {plan.sessions}"
            )
        completed = dict(spec.completed or {})
        for session, index in completed:
            if not (
                0 <= session < plan.sessions
                and 0 <= index < len(plan.bundles[session])
            ):
                raise SchemaError(
                    f"completed region ({session}, {index}) lies outside "
                    f"the plan"
                )
        policy = ShardPolicy.resolve(
            spec.shard_subtrees,
            plan,
            spec.estimator,
            self._policy_fleet(plan, spec.rebalance),
        )
        feed = AggregatorFeed(aggregator, plan)
        sink = GridSink(plan, feed, completed, spec.on_region)
        self._execute(
            sources,
            plan,
            sink,
            spec.crawler_factory,
            spec.allow_partial,
            spec.rebalance,
            spec.estimator,
            policy,
            completed,
        )
        if sink.failures:
            sink.failures.sort(key=lambda failure: failure[0])
            raise sink.failures[0][1]
        return _merge_session_results(
            plan, tuple(tuple(session) for session in sink.grid)
        )

    @abc.abstractmethod
    def _execute(
        self,
        sources: Sequence,
        plan: PartitionPlan,
        sink: GridSink,
        crawler_factory: Callable[..., Crawler],
        allow_partial: bool,
        rebalance: bool,
        estimator: CostEstimator | None,
        policy: ShardPolicy | None,
        completed: Mapping[RegionKey, CrawlResult],
    ) -> None:
        """Spawn workers and point them at the runtime's drive loops."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self._max_workers})"


class SequentialExecutor(CrawlExecutor):
    """The reference backend: plan order, in the calling thread.

    ``rebalance`` is accepted and ignored -- with a single worker there
    is nothing to steal, and the scheduler would hand out exactly the
    plan order anyway.  Stops at the first failure, like the original
    sequential :func:`~repro.crawl.partition.crawl_partitioned`.
    """

    name = "sequential"

    def _policy_fleet(self, plan, rebalance):
        # One worker: no region can be the straggler relative to a
        # fleet, so the adaptive shard planner must presplit nothing.
        return 1

    def _execute(
        self,
        sources,
        plan,
        sink,
        crawler_factory,
        allow_partial,
        rebalance,
        estimator,
        policy,
        completed,
    ):
        runner = LocalUnitRunner(
            sources, crawler_factory, allow_partial, feed=sink.feed
        )
        skip = frozenset(completed)
        for session in range(plan.sessions):
            ok = drive_session(
                session, plan.bundles[session], runner, sink, policy, skip
            )
            if not ok:
                # Stopping at the first failure abandons the remaining
                # sessions; mark them cancelled so aggregator snapshots
                # never show a never-started session as running.
                for later in range(session + 1, plan.sessions):
                    sink.feed.cancelled(later)
                return


class ThreadExecutor(CrawlExecutor):
    """One worker thread per session; work stealing when rebalancing.

    Without ``rebalance`` the pool runs one static
    :func:`~repro.crawl.runtime.drive_session` per session; with it,
    ``max_workers`` threads run the shared
    :func:`~repro.crawl.runtime.drive_stealing` loop (worker ``j``
    calls session ``j % sessions`` home).  Sources are shared by
    reference, so limits and stats are exact without any coordination.

    The rebalanced pool is *elastic*
    (:func:`~repro.crawl.runtime.drain_elastic`): a worker whose loop
    departs (:class:`~repro.exceptions.WorkerDeparted`) has already
    re-queued its in-flight unit, and the parent submits a replacement
    worker in its place.
    """

    name = "thread"

    def _execute(
        self,
        sources,
        plan,
        sink,
        crawler_factory,
        allow_partial,
        rebalance,
        estimator,
        policy,
        completed,
    ):
        runner = LocalUnitRunner(
            sources, crawler_factory, allow_partial, feed=sink.feed
        )
        if not rebalance:
            workers = self._workers(plan.sessions)
            skip = frozenset(completed)
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="crawl-session"
            ) as pool:
                tasks = [
                    pool.submit(
                        drive_session,
                        session,
                        plan.bundles[session],
                        runner,
                        sink,
                        policy,
                        skip,
                    )
                    for session in range(plan.sessions)
                ]
                for task in tasks:
                    task.result()
            return
        scheduler, upper = steal_setup(
            plan, estimator, policy, _completed_costs(completed)
        )
        workers = self._workers(upper)
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="crawl-steal"
        ) as pool:
            drain_elastic(
                scheduler,
                sink,
                lambda worker: pool.submit(
                    drive_stealing,
                    scheduler,
                    worker % plan.sessions,
                    runner,
                    sink,
                    policy,
                ),
                bool,
                workers=workers,
                units=scheduler.total_tasks,
            )


# ----------------------------------------------------------------------
# Process transport: coordinator-shared limits, units over pickle
# ----------------------------------------------------------------------
_WORKER_SOURCES: tuple | None = None
_WORKER_FACTORY: Callable[..., Crawler] | None = None
_WORKER_STUBS: list = []


def pickle_payload(sources, crawler_factory, stubs=()) -> bytes:
    """Pickle ``(sources, crawler_factory, stubs)`` in one stream.

    One stream matters: pickle memoisation preserves object identity
    *within* a payload, so the shared-limit stubs referenced by the
    source clones unpickle as the very objects in the ``stubs`` tuple --
    flushing those flushes the sources' leases.  The same memo ships
    the one engine that seeded sibling sources share once, and the
    engines' derived caches (row tuples, lazy indexes) are trimmed by
    their pickle hooks -- the payload carries data, not rebuildable
    state.  Raises a :class:`TypeError` naming the usual culprit (a
    lambda factory) when anything in the payload refuses to pickle.
    """
    try:
        return pickle.dumps(
            (tuple(sources), crawler_factory, tuple(stubs)),
            protocol=pickle.DEFAULT_PROTOCOL,
        )
    except Exception as exc:
        raise TypeError(
            "the process executor needs picklable sources and a "
            "picklable crawler_factory (a class or functools.partial, "
            f"not a lambda): {exc}"
        ) from exc


def _process_init(payload: bytes) -> None:
    """Pool initializer: unpickle the sources once per worker process.

    The payload also carries the coordinator's shared-limit stubs;
    pickled in one stream with the sources, the unpickled stubs are
    exactly the objects the source clones reference, so the worker's
    runners can flush leases and buffered stats at every region
    boundary.
    """
    global _WORKER_SOURCES, _WORKER_FACTORY, _WORKER_STUBS
    _WORKER_SOURCES, _WORKER_FACTORY, stubs = pickle.loads(payload)
    _WORKER_STUBS = list(stubs)


def _flush_worker_stubs() -> None:
    """Return leases / land buffered stats for this worker's stubs."""
    for stub in _WORKER_STUBS:
        stub.flush()


def _worker_runner(allow_partial: bool) -> LocalUnitRunner:
    """This pool worker's runner over its unpickled source clones."""
    assert _WORKER_SOURCES is not None and _WORKER_FACTORY is not None
    return LocalUnitRunner(
        _WORKER_SOURCES,
        _WORKER_FACTORY,
        allow_partial,
        flush=_flush_worker_stubs if _WORKER_STUBS else None,
    )


def _pool_session(
    session: int,
    bundle,
    allow_partial: bool,
    policy,
    skip: frozenset = frozenset(),
):
    """Wire form of :func:`~repro.crawl.runtime.drive_session`."""
    sink = BatchSink()
    drive_session(
        session, bundle, _worker_runner(allow_partial), sink, policy, skip
    )
    return sink.batch


def _pool_steal(
    scheduler, plane, home_session: int, allow_partial: bool, policy
):
    """Wire form of :func:`~repro.crawl.runtime.drive_stealing`.

    The scheduler lives in the coordinator process; ``acquire`` /
    ``complete`` / ``publish`` go through its proxy, so this worker
    steals regions -- and, under a shard policy, subtree shards of live
    regions -- from *other workers' sessions* the moment its own run
    dry, across process boundaries.  Completed results are batched into
    the return value (they would be dead weight in the coordinator);
    completions and failures are additionally pushed to the control
    plane as compact progress events for the parent's live aggregator
    feed.

    Returns ``(results, failures, drained)``; ``drained=False`` means
    the worker *departed* mid-crawl (its in-flight unit is already back
    on the shared queue, its leases flushed) and the parent should
    submit a replacement to keep the fleet at strength.
    """
    sink = BatchSink(plane)
    drained = drive_stealing(
        scheduler, home_session, _worker_runner(allow_partial), sink, policy
    )
    results, failures = sink.batch
    return results, failures, drained


class ProcessExecutor(CrawlExecutor):
    """Region crawls on a process pool, for CPU-bound simulated engines.

    Sources and the crawler factory are pickled once and shipped to
    each worker via the pool initializer (so per-task overhead is a few
    integers, not a dataset).  Requires the serving stack's picklable
    paths: servers, clients, limits and engines all drop their locks on
    pickle and rebuild them on load.  Cache listeners do not survive
    the trip.

    For the duration of the crawl a
    :class:`~repro.crawl.coordinator.LimitCoordinator` process owns the
    authoritative limits, clocks and server stats of every source
    (:mod:`repro.crawl.coordinator`); the pool receives rewired source
    clones whose admissions all charge it with **lease-batched**
    exactly-once semantics (budget chunks sized from the estimator's
    per-region cost estimates, or ``lease_chunk`` explicitly).  The
    caller's original limit and stats objects read the exact charged
    totals -- and the fleet's coordinator ``round_trips`` -- after the
    crawl, also after an exhaustion failure.

    Without ``rebalance``, one pool task per session preserves the
    thread backend's dispatch shape.  With ``rebalance``, the scheduler
    is hosted in the coordinator and every worker runs the runtime's
    pull loop against it (two-level when a shard policy is set).

    Progress reporting is completion-grained: the aggregator sees a
    session advance when a region (or, without rebalancing, a bundle)
    finishes, not per query.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        mp_context=None,
        lease_chunk: int | None = None,
    ):
        super().__init__(max_workers)
        self._mp_context = mp_context
        if lease_chunk is not None and lease_chunk < 1:
            raise ValueError(
                f"lease_chunk must be positive, got {lease_chunk}"
            )
        self._lease_chunk = lease_chunk
        #: Bytes of the last payload shipped to the pool initializer.
        self.payload_bytes = 0

    def _workers(self, upper: int) -> int:
        """Default to the core count, not the thread executor's 4x cap.

        Oversubscription pays off for latency-bound threads; worker
        *processes* exist for CPU-bound work, where anything beyond the
        cores adds only spawn time and a per-worker copy of the
        sources.
        """
        workers = self._max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return max(1, min(workers, upper))

    def _payload(self, sources, crawler_factory, stubs) -> bytes:
        payload = pickle_payload(sources, crawler_factory, stubs)
        # Operator-side introspection: the bytes shipped per worker at
        # pool start-up (benchmarks gate this; see bench_hot_path.py).
        self.payload_bytes = len(payload)
        return payload

    @staticmethod
    def _pool_upper(plan, rebalance, policy) -> int:
        """How many pool workers the plan can possibly keep busy."""
        if rebalance:
            upper = sum(len(bundle) for bundle in plan.bundles)
            if policy is not None:
                upper = max(upper, policy.max_budget)
            return max(1, upper)
        return max(1, plan.sessions)

    def _execute(
        self,
        sources,
        plan,
        sink,
        crawler_factory,
        allow_partial,
        rebalance,
        estimator,
        policy,
        completed,
    ):
        """Crawl against one authoritative copy of every limit.

        Whatever happens, the coordinator's counters are written back
        into the caller's original objects, so ``budget.used`` is exact
        even after an exhaustion failure.
        """
        from repro.crawl.coordinator import (
            LimitCoordinator,
            lease_chunk_for_plan,
        )

        with LimitCoordinator(mp_context=self._mp_context) as coordinator:
            try:
                shared_sources = coordinator.share_sources(sources)
                workers = self._workers(
                    self._pool_upper(plan, rebalance, policy)
                )
                chunk = self._lease_chunk
                if chunk is None:
                    chunk = coordinator.clamp_lease_chunk(
                        lease_chunk_for_plan(plan, estimator), workers
                    )
                coordinator.set_lease_chunk(chunk)
                payload = self._payload(
                    shared_sources,
                    crawler_factory,
                    coordinator.shared_stubs(),
                )
                with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=self._mp_context,
                    initializer=_process_init,
                    initargs=(payload,),
                ) as pool:
                    if rebalance:
                        self._drain_stealing(
                            pool,
                            workers,
                            plan,
                            sink,
                            allow_partial,
                            estimator,
                            policy,
                            coordinator,
                            completed,
                        )
                    else:
                        self._drain_static(
                            pool, plan, sink, allow_partial, policy, completed
                        )
            finally:
                coordinator.writeback()

    def _drain_static(
        self, pool, plan, sink, allow_partial, policy, completed
    ):
        """One pool task per session, each a worker-side session loop."""
        skip = frozenset(completed)
        tasks = {
            pool.submit(
                _pool_session,
                session,
                plan.bundles[session],
                allow_partial,
                policy,
                skip,
            ): session
            for session in range(plan.sessions)
        }
        for future, session in tasks.items():
            bundle = plan.bundles[session]
            try:
                results, failures = future.result()
            except Exception as exc:  # noqa: BLE001 - re-raised by run()
                if bundle:
                    sink.region_failed((session, 0), session, exc)
                else:
                    # An empty bundle has no region to attribute a pool
                    # failure to (its session is already marked done).
                    sink.file_batch(
                        [], [((session, 0), exc)], update_feed=False
                    )
                continue
            sink.file_batch(results, failures)

    def _drain_stealing(
        self,
        pool,
        workers,
        plan,
        sink,
        allow_partial,
        estimator,
        policy,
        coordinator,
        completed,
    ):
        """Worker-pull dispatch over a coordinator-hosted scheduler.

        Every pool worker runs the runtime's
        :func:`~repro.crawl.runtime.drive_stealing` loop against the
        shared scheduler, so stealing decisions and exact observed-cost
        feedback cross process boundaries without a parent round trip
        per task.  The parent meanwhile relays the workers' progress
        events into the aggregator feed and collects each worker's
        result batch as its loop drains.  The fleet is *elastic*
        (:func:`~repro.crawl.runtime.drain_elastic`): a worker whose
        loop departed (``drained=False``) already re-queued its unit
        and flushed its leases, and the parent submits a replacement
        pull loop in its place.
        """
        scheduler = coordinator.make_scheduler(
            plan.bundles,
            estimator,
            subtree=policy is not None and policy.sharded,
            completed=_completed_costs(completed),
        )
        # Per-region progress events exist only for a live aggregator
        # view; without one, streaming them would be pure control-plane
        # chatter (one round trip per region for nobody to read).
        plane = coordinator.plane if sink.feed.active else None

        def spawn(worker: int):
            return pool.submit(
                _pool_steal,
                scheduler,
                plane,
                worker % plan.sessions,
                allow_partial,
                policy,
            )

        def collect(batch) -> bool:
            results, failures, drained = batch
            # Progress already reached the feed as relayed events.
            sink.file_batch(results, failures, update_feed=False)
            return drained

        drain_elastic(
            scheduler,
            sink,
            spawn,
            collect,
            workers=workers,
            units=sum(len(bundle) for bundle in plan.bundles)
            - len(completed),
            poll=lambda: self._relay_events(coordinator, sink.feed),
        )
        if estimator is not None:
            for key, cost in scheduler.completed_costs().items():
                estimator.record(key, cost)

    @staticmethod
    def _relay_events(coordinator, feed):
        """Translate worker progress events into aggregator updates."""
        if not feed.active:
            return
        for event in coordinator.plane.pop_events():
            if event[0] == "region":
                _, session, index, cost, tuples = event
                feed.region_counts(session, index, cost, tuples)
            elif event[0] == "failed":
                feed.failed_session(event[1])


#: Backend registry, keyed by the CLI's ``--executor`` names.
EXECUTORS: dict[str, type[CrawlExecutor]] = {
    "sequential": SequentialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(
    name: str | None = None,
    *,
    max_workers: int | None = None,
    spec: CrawlSpec | None = None,
) -> CrawlExecutor:
    """Build a backend by registry name (see :data:`EXECUTORS`).

    With ``spec=`` the backend half of a
    :class:`~repro.crawl.spec.CrawlSpec` drives construction: the
    registry name comes from ``spec.executor`` (explicit ``name`` wins,
    ``"thread"`` if neither is set), ``spec.max_workers`` fills in when
    ``max_workers`` is not given, and backend-specific knobs ride along
    -- today ``spec.lease_chunk`` reaches the process backend's
    constructor, which has no other spec-able home.

    Examples
    --------
    ::

        spec = CrawlSpec(executor="process", max_workers=4, lease_chunk=8)
        executor = make_executor(spec=spec)
        merged = executor.run(sources, plan, spec)
    """
    if spec is not None:
        if name is None:
            name = spec.executor or "thread"
        if max_workers is None:
            max_workers = spec.max_workers
    elif name is None:
        raise TypeError("make_executor() needs a name or a spec")
    try:
        cls = EXECUTORS[name]
    except KeyError:
        known = ", ".join(sorted(EXECUTORS))
        raise ValueError(
            f"unknown executor {name!r}; expected one of: {known}"
        ) from None
    if (
        spec is not None
        and spec.lease_chunk is not None
        and cls is ProcessExecutor
    ):
        return cls(max_workers=max_workers, lease_chunk=spec.lease_chunk)
    return cls(max_workers=max_workers)
