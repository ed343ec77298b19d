"""The job service under contention: jobs/sec and time-to-first-row.

The service's pitch over the batch CLI is *multiplexing*: many
tenants' jobs share one worker fleet, the round-robin dispatcher keeps
every tenant progressing, and the SQLite store makes rows queryable the
moment their region commits.  This benchmark submits one job per
tenant -- more tenants than fleet workers, so the fleet is genuinely
contended -- against latency-wrapped sources (a fixed simulated round
trip per server query, so the wall-clock is dominated by the modelled
network, not the host machine) and measures:

* ``jobs_per_sec`` -- completed jobs over the makespan of the burst;
  the throughput the shared fleet sustains under contention,
* ``p99_time_to_first_row_s`` -- per job, submission to the first
  region commit (the moment ``rows`` starts answering); the fairness
  rotation is what keeps the tail short, since FIFO dispatch would
  leave the last tenant waiting for every earlier job's regions.

A second, CPU-bound burst (no latency wrapper: every query is pure
computation) runs identically under ``backend=thread`` and
``backend=process`` and records each backend's makespan and
``jobs_per_sec`` under ``backends``, plus their ratio as
``service_process_over_thread`` -- the multi-core win of shipping
region units to worker processes while the thread fleet is
GIL-serialized.  The ratio is asserted >= 1.5 only on multi-core
hosts, and the ``compare_bench`` gate for it requires >= 2 CPUs on
both sides, so a single-core runner records an honest baseline
instead of a vacuous pass.  The burst also re-checks the service
acceptance contract where it is cheapest to see: every tenant's rows
byte-identical to the standalone crawl, every tenant charged exactly
the standalone crawl's server queries.

All metrics land in ``BENCH_service.json`` (path overridable via
``REPRO_BENCH_SERVICE_OUT``; tests merge into the same report) and
are gated by ``tools/compare_bench.py`` against the committed
baseline.
"""

import json
import os
import threading
import time

import numpy as np

from benchmarks.conftest import bench_scale
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.server.latency import LatencySource
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from repro.service.api import CrawlService
from repro.service.jobs import JobState

K = 24
SESSIONS = 2
FLEET = 4
TENANTS = 8
#: Simulated per-query round trip.  Dominates the measured wall-clock
#: (a region costs ~10 queries), which is what makes the two gated
#: metrics properties of the scheduler rather than of the host.
RTT_SECONDS = 0.002


def crawl_dataset(n: int, seed: int = 31) -> Dataset:
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 5), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 499)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 6, n),
            rng.integers(1, 4, n),
            rng.integers(0, 500, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


def write_report(update: dict) -> str:
    """Merge ``update`` into the report file (two tests, one report)."""
    path = os.environ.get("REPRO_BENCH_SERVICE_OUT", "BENCH_service.json")
    report = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    report.update(update)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return path


def test_contended_fleet_throughput_and_first_row(benchmark, tmp_path):
    """8 tenants, 4 workers: throughput up, first-row tail bounded."""
    n = max(300, int(1500 * bench_scale()))
    dataset = crawl_dataset(n)
    plan = partition_space(dataset.space, SESSIONS)
    reference = crawl_partitioned(
        [TopKServer(dataset, K, priority_seed=0) for _ in range(SESSIONS)],
        plan,
    )
    tenants = [f"tenant-{i}" for i in range(TENANTS)]
    measurements = {}

    def serve_burst():
        first_commit = {}
        submitted = {}
        lock = threading.Lock()

        def recorder(tenant):
            def on_region(key, result):
                with lock:
                    if tenant not in first_commit:
                        first_commit[tenant] = time.perf_counter()

            return on_region

        with CrawlService(
            tmp_path / "bench.db", workers=FLEET
        ) as service:
            for tenant in tenants:
                service.register_tenant(tenant)
            start = time.perf_counter()
            jobs = {}
            for tenant in tenants:
                submitted[tenant] = time.perf_counter()
                jobs[tenant] = service.submit(
                    tenant,
                    dataset,
                    K,
                    name="burst",
                    spec=CrawlSpec(on_region=recorder(tenant)),
                    sessions=SESSIONS,
                    wrap_source=lambda server: LatencySource(
                        server, RTT_SECONDS
                    ),
                )
            for tenant, job in jobs.items():
                status = service.wait(job, timeout=600)
                assert status.state is JobState.DONE, status
            makespan = time.perf_counter() - start
            # Every tenant's stored rows match the standalone crawl.
            for job in jobs.values():
                assert service.rows(job) == list(reference.rows)
        measurements["makespan"] = makespan
        measurements["first_row"] = {
            tenant: first_commit[tenant] - submitted[tenant]
            for tenant in tenants
        }

    benchmark.pedantic(serve_burst, rounds=1, iterations=1)

    makespan = measurements["makespan"]
    first_row = measurements["first_row"]
    times = sorted(first_row.values())
    p99 = float(np.percentile(times, 99))
    jobs_per_sec = TENANTS / makespan

    report = {
        "workload": (
            f"{TENANTS} tenants x 1 job over a {FLEET}-worker fleet, "
            f"{RTT_SECONDS * 1000:.1f}ms simulated RTT per query"
        ),
        "cpu_count": os.cpu_count(),
        "scale": bench_scale(),
        "n": dataset.n,
        "sessions": SESSIONS,
        "regions_per_job": len(plan.regions),
        "cost_per_job": reference.cost,
        "makespan_s": round(makespan, 3),
        "jobs_per_sec": round(jobs_per_sec, 3),
        "p99_time_to_first_row_s": round(p99, 4),
        "mean_time_to_first_row_s": round(float(np.mean(times)), 4),
    }
    path = write_report(report)
    benchmark.extra_info.update(report)
    benchmark.extra_info["report_path"] = path

    # The fairness bound: every tenant saw a first row well before the
    # whole burst finished.  A FIFO fleet would park the last tenant
    # behind every earlier job, pushing its first row toward the
    # makespan.
    assert p99 < makespan, (
        f"p99 first-row {p99:.3f}s is not below the makespan "
        f"{makespan:.3f}s; dispatch is starving late tenants"
    )


def test_process_backend_beats_threads_on_cpu_bound_burst(
    benchmark, tmp_path
):
    """Same 8-tenant burst, CPU-bound, thread fleet vs process fleet.

    No simulated RTT: every server query is pure numpy over the
    dataset, so the thread fleet is GIL-serialized while the process
    backend crawls region units on real cores.  The measured ratio is
    ``service_process_over_thread``; each backend's burst must also
    satisfy the service acceptance contract exactly (byte-identical
    rows, exact per-tenant charges), so the speedup is never bought
    with correctness.
    """
    n = max(1200, int(6000 * bench_scale()))
    dataset = crawl_dataset(n, seed=47)
    plan = partition_space(dataset.space, SESSIONS)
    meter = QueryBudget(1_000_000_000)
    reference = crawl_partitioned(
        [
            TopKServer(dataset, K, priority_seed=0, limits=[meter])
            for _ in range(SESSIONS)
        ],
        plan,
    )
    reference_queries = meter.used
    tenants = [f"tenant-{i}" for i in range(TENANTS)]

    def burst(backend):
        with CrawlService(
            tmp_path / f"bench-{backend}.db",
            workers=FLEET,
            backend=backend,
        ) as service:
            for tenant in tenants:
                service.register_tenant(tenant, budget=1_000_000_000)
            start = time.perf_counter()
            jobs = {
                tenant: service.submit(
                    tenant, dataset, K, name="burst", sessions=SESSIONS
                )
                for tenant in tenants
            }
            for job in jobs.values():
                status = service.wait(job, timeout=600)
                assert status.state is JobState.DONE, status
            makespan = time.perf_counter() - start
            if backend == "process":
                # What the dispatcher pickled per region unit: the
                # per-session sources and their one shared engine.  Gated
                # lower-is-better so rebuildable engine caches can
                # never creep back into worker payloads.
                measurements["payload_bytes"] = (
                    service.manager.last_payload_bytes
                )
            # The acceptance contract, per backend: byte-identical
            # rows and exact admission charges for every tenant.
            for job in jobs.values():
                assert service.rows(job) == list(reference.rows)
            for tenant in tenants:
                used = service.registry.budget(tenant).used
                assert used == reference_queries, (
                    backend,
                    tenant,
                    used,
                    reference_queries,
                )
        return makespan

    measurements = {}

    def run_both():
        measurements["thread"] = burst("thread")
        measurements["process"] = burst("process")

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    thread_s = measurements["thread"]
    process_s = measurements["process"]
    ratio = thread_s / process_s
    report = {
        "cpu_bound_workload": (
            f"{TENANTS} tenants x 1 CPU-bound job over a "
            f"{FLEET}-worker fleet, thread vs process backend"
        ),
        "cpu_bound_n": dataset.n,
        "cpu_bound_cost_per_job": reference.cost,
        "backends": {
            "thread": {
                "makespan_s": round(thread_s, 3),
                "jobs_per_sec": round(TENANTS / thread_s, 3),
            },
            "process": {
                "makespan_s": round(process_s, 3),
                "jobs_per_sec": round(TENANTS / process_s, 3),
            },
        },
        "service_process_over_thread": round(ratio, 3),
        "payload_bytes": measurements["payload_bytes"],
    }
    path = write_report(report)
    benchmark.extra_info.update(report)
    benchmark.extra_info["report_path"] = path

    # The multi-core contract.  On a single-core host the process
    # backend is pure overhead; the committed baseline's cpu_count
    # makes the compare_bench gate skip there too -- loudly.
    if (os.cpu_count() or 1) >= 2:
        assert ratio >= 1.5, (
            f"process backend is only {ratio:.2f}x the thread fleet "
            f"on {os.cpu_count()} CPUs (thread {thread_s:.2f}s, "
            f"process {process_s:.2f}s); expected >= 1.5x"
        )
