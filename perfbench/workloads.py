"""The benchmark's three closed-loop workloads.

Each workload turns its seed into a fixed list of ops (one list per
client), builds its inputs in :meth:`Workload.setup` -- the timed
set-up -- and runs one op at a time through the public API of
:mod:`repro`, checking every op's output against the ground truth.

* ``paper-sweep``: the paper's k-sweep (Figures 10a, 11a and 12), one
  point per op, one client.
* ``cli-crawl``: what ``python -m repro.crawl X.csv --k K --workers 4
  --executor thread --rebalance --budget N`` does, in-process, one
  client.
* ``service-jobs``: two tenants' clients submitting to one
  process-backed :class:`~repro.service.api.CrawlService` and waiting
  for each job; every third job resubmits a finished one.

An op reports ``charged`` -- the queries a server answered, read where
the server lives (``TopKServer.stats.queries`` in-process, the tenant's
charge on the process backend) -- and ``issued``, the cost the program
itself reports (``CrawlResult.cost`` / ``JobStatus.cost``), which also
counts queries a :class:`~repro.crawl.partition.SubspaceView` answered
locally.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.crawl import verify
from repro.crawl.__main__ import build_parser
from repro.crawl.parallel import crawl_partitioned_parallel
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import ALGORITHMS, spec_from_args
from repro.datasets.adult import adult, adult_numeric
from repro.datasets.io import load_csv, save_csv
from repro.datasets.nsf import nsf
from repro.datasets.yahoo import yahoo_autos
from repro.exceptions import InfeasibleCrawlError
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from repro.service.api import CrawlService
from repro.service.jobs import JobState

#: A query budget no workload comes near: present so admission runs.
GENEROUS = 10**9


@dataclass
class OpResult:
    """What one op did and whether its output was right."""

    ok: bool
    charged: int = 0
    issued: int = 0
    #: Regions the op committed to the service's store.
    regions: int = 0
    error: str = ""


class Workload:
    """One workload: a seed-derived op list plus the code to run it."""

    name = ""
    #: Closed-loop clients, each running its own op list.
    clients = 1
    #: Passes over the op list a run always makes, so that the tail
    #: percentile is the same in every run (see ``run.py``).
    min_passes = 1
    #: Set-ups per run; the reported ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """Build the inputs the ops run on (timed)."""

    def prepare_checks(self) -> None:
        """Compute reference answers after set-up (not timed)."""

    def pass_ops(self) -> list[list[tuple]]:
        """One pass: an op list per client, the same in every pass."""
        raise NotImplementedError

    def run_op(self, client: int, op: tuple, pass_index: int) -> OpResult:
        raise NotImplementedError

    def inputs(self) -> list:
        """A description of the generated inputs (for the self-tests)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
class PaperSweep(Workload):
    """Figures 10a, 11a and 12: every series at every k, one point per op.

    A point is a fresh :class:`TopKServer`, one ``crawl()`` and a
    bag-to-bag verification.  The seed picks the Bernoulli sample of
    each dataset and the server's tuple priorities.
    """

    name = "paper-sweep"
    min_passes = 3
    setup_repeats = 9
    SERIES = (
        ("nsf", "dfs"),
        ("nsf", "slice-cover"),
        ("nsf", "lazy-slice-cover"),
        ("adult-numeric", "binary-shrink"),
        ("adult-numeric", "rank-shrink"),
        ("yahoo", "hybrid"),
        ("adult", "hybrid"),
    )
    KS = (64, 128, 256, 512, 1024)

    def __init__(self, seed: int, out_dir: Path, *, scale: float = 0.05,
                 ks: tuple[int, ...] = KS):
        super().__init__(seed, out_dir)
        self.scale = scale
        self.ks = ks
        self.datasets: dict = {}

    def setup(self) -> None:
        sample = dict(fraction=self.scale, seed=self.seed)
        self.datasets = {
            "nsf": nsf().sample_fraction(**sample),
            "adult-numeric": adult_numeric()
            .sample_fraction(**sample)
            .with_bounds_from_data(),
            "yahoo": yahoo_autos().sample_fraction(**sample),
            "adult": adult().sample_fraction(**sample),
        }

    def pass_ops(self) -> list[list[tuple]]:
        return [[(data, algo, k) for data, algo in self.SERIES
                 for k in self.ks]]

    def run_op(self, client: int, op: tuple, pass_index: int) -> OpResult:
        data, algo, k = op
        dataset = self.datasets[data]
        server = TopKServer(dataset, k, priority_seed=self.seed)
        try:
            result = ALGORITHMS[algo](server).crawl()
        except InfeasibleCrawlError as exc:
            # The paper reports no value for such a point (Yahoo at
            # k = 64); it is a completed op when the data really holds
            # more than k identical tuples.
            charged = server.stats.queries
            return OpResult(dataset.min_feasible_k() > k, charged, charged,
                            error=str(exc))
        report = verify.verify_complete(result, dataset)
        return OpResult(report.complete, server.stats.queries, result.cost,
                        error="" if report.complete else report.summary())

    def inputs(self) -> list:
        return [(name, ds.n, ds.dimensionality, ds.rows[:5].tolist())
                for name, ds in sorted(self.datasets.items())]


# ----------------------------------------------------------------------
# cli-crawl
# ----------------------------------------------------------------------
class CliCrawl(Workload):
    """The partitioned CLI crawl, called through the library in-process.

    Per op: load the CSV, build one server per session behind one
    shared :class:`QueryBudget`, partition the space 4 ways, crawl with
    a thread executor of 2 workers and work stealing, verify.  The seed
    draws the Yahoo-like datasets (n = 20000) and the op order.
    """

    name = "cli-crawl"
    min_passes = 4
    setup_repeats = 7
    KS = (128, 256, 512)
    WORKERS = 4
    MAX_WORKERS = 2

    def __init__(self, seed: int, out_dir: Path, *, datasets: int = 4,
                 n: int = 20000, ks: tuple[int, ...] = KS):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng([seed, 1])
        self.n = n
        self.data_seeds = [int(s) for s in rng.integers(0, 2**31, datasets)]
        self.paths = [out_dir / f"cli-crawl-{seed}-{i}.csv"
                      for i in range(datasets)]
        ops = [(i, k) for i in range(datasets) for k in ks]
        self.ops = [ops[j] for j in rng.permutation(len(ops))]
        self.parser = build_parser()

    def setup(self) -> None:
        for data_seed, path in zip(self.data_seeds, self.paths):
            save_csv(yahoo_autos(n=self.n, seed=data_seed), path)

    def pass_ops(self) -> list[list[tuple]]:
        return [list(self.ops)]

    def run_op(self, client: int, op: tuple, pass_index: int) -> OpResult:
        index, k = op
        args = self.parser.parse_args([
            str(self.paths[index]), "--k", str(k),
            "--workers", str(self.WORKERS), "--executor", "thread",
            "--rebalance", "--budget", str(GENEROUS),
        ])
        dataset = load_csv(args.csv)
        budget = QueryBudget(args.budget)
        plan = partition_space(dataset.space, args.workers,
                               max_regions=args.max_regions)
        sources = [
            TopKServer(dataset, args.k, priority_seed=args.seed,
                       limits=[budget])
            for _ in range(plan.sessions)
        ]
        spec = spec_from_args(args).replace(max_workers=self.MAX_WORKERS)
        merged = crawl_partitioned_parallel(sources, plan, spec=spec)
        report = verify.verify_complete(merged.as_crawl_result(), dataset)
        charged = sum(source.stats.queries for source in sources)
        ok = report.complete and budget.used == charged
        error = "" if ok else (
            f"{report.summary()}; budget.used={budget.used}, "
            f"summed stats.queries={charged}"
        )
        return OpResult(ok, charged, merged.cost, error=error)

    def inputs(self) -> list:
        return [(self.n, seed) for seed in self.data_seeds]

    def close(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# service-jobs
# ----------------------------------------------------------------------
@dataclass
class _Reference:
    rows: list
    charged: int


class ServiceJobs(Workload):
    """Two tenants' clients against one process-backed crawl service.

    Each client runs ``new, new, resubmit`` twice per pass: a new job
    crawls one of the seed's Yahoo-like datasets (n = 5000) and must
    end DONE with exactly the rows of a standalone crawl, charged
    exactly that crawl's server queries; a resubmission names the
    client's previous job, reads it back from the store and must charge
    nothing.  Set-up generates the datasets, starts the service,
    registers both tenants with a budget and runs one warm-up job per
    tenant, which starts the worker pool and the limit coordinator.
    """

    name = "service-jobs"
    clients = 2
    min_passes = 9
    TENANTS = ("tenant-a", "tenant-b")
    K = 128
    FLEET = 2

    def __init__(self, seed: int, out_dir: Path, *, datasets: int = 4,
                 n: int = 5000, k: int = K):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng([seed, 2])
        self.n = n
        self.data_seeds = [int(s) for s in rng.integers(0, 2**31, datasets)]
        self.k = k
        self.db = out_dir / f"service-jobs-{seed}.db"
        self.datasets: list = []
        self.references: list[_Reference] = []
        self.service: CrawlService | None = None
        self.ops = []
        for client in range(self.clients):
            entries = [(client + i) % datasets for i in range(4)]
            self.ops.append([
                ("new", entries[0], 0), ("new", entries[1], 1),
                ("resubmit", entries[1], 1),
                ("new", entries[2], 3), ("new", entries[3], 4),
                ("resubmit", entries[3], 4),
            ])

    def _remove_store(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            Path(f"{self.db}{suffix}").unlink(missing_ok=True)

    def setup(self) -> None:
        self.close()
        self.datasets = [
            yahoo_autos(n=self.n, seed=data_seed, duplicates=0)
            for data_seed in self.data_seeds
        ]
        self.service = CrawlService(self.db, workers=self.FLEET,
                                    backend="process")
        for tenant in self.TENANTS:
            self.service.register_tenant(tenant, budget=GENEROUS)
        jobs = [
            self.service.submit(tenant, self.datasets[0], self.k,
                                name="warm-up",
                                seed=self.seed)
            for tenant in self.TENANTS
        ]
        for job in jobs:
            status = self.service.wait(job, timeout=60)
            if status.state is not JobState.DONE:
                raise RuntimeError(f"warm-up job failed: {status}")

    def prepare_checks(self) -> None:
        self.references = []
        for dataset in self.datasets:
            plan = partition_space(dataset.space, self.FLEET)
            servers = [TopKServer(dataset, self.k, priority_seed=self.seed)
                       for _ in range(plan.sessions)]
            merged = crawl_partitioned(servers, plan)
            self.references.append(_Reference(
                list(merged.rows),
                sum(server.stats.queries for server in servers),
            ))

    def pass_ops(self) -> list[list[tuple]]:
        return [list(ops) for ops in self.ops]

    def _charge(self, tenant: str) -> int:
        charge = self.service.store.tenant_charge(tenant)
        return charge["budget"]["used"] if charge else 0

    def run_op(self, client: int, op: tuple, pass_index: int) -> OpResult:
        kind, entry, slot = op
        tenant = self.TENANTS[client]
        before = self._charge(tenant)
        job = self.service.submit(
            tenant, self.datasets[entry], self.k,
            name=f"pass-{pass_index}-job-{slot}", seed=self.seed,
        )
        status = self.service.wait(job, timeout=60)
        rows = self.service.rows(job)
        charged = self._charge(tenant) - before
        reference = self.references[entry]
        expected = reference.charged if kind == "new" else 0
        problems = []
        if status.state is not JobState.DONE:
            problems.append(f"job ended {status.state.value}: {status.error}")
        if rows != reference.rows:
            problems.append("rows differ from the standalone crawl")
        if charged != expected:
            problems.append(f"charged {charged} queries, expected {expected}")
        new = kind == "new"
        return OpResult(
            not problems, charged,
            status.cost if new else 0,
            regions=status.regions_done if new else 0,
            error="; ".join(problems),
        )

    def store_bytes_per_row(self) -> float:
        """Store file bytes per committed row."""
        size = sum(Path(f"{self.db}{suffix}").stat().st_size
                   for suffix in ("", "-wal")
                   if Path(f"{self.db}{suffix}").exists())
        with closing(sqlite3.connect(f"file:{self.db}?mode=ro",
                                     uri=True)) as conn:
            (count,) = conn.execute("SELECT COUNT(*) FROM rows").fetchone()
        return size / count if count else 0.0

    def inputs(self) -> list:
        return [(self.n, seed) for seed in self.data_seeds]

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        self._remove_store()


WORKLOADS = {cls.name: cls for cls in (PaperSweep, CliCrawl, ServiceJobs)}


def make(name: str, seed: int, out_dir: Path, **sizes) -> Workload:
    """The workload ``name`` for ``seed``, writing files to ``out_dir``.

    ``sizes`` shrink a workload for the self-tests.
    """
    return WORKLOADS[name](seed, out_dir, **sizes)
