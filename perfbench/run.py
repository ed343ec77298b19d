"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 \\
        --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it measures half the time untraced and
half with every layer wrapped, and prints the per-layer table instead
(see ``perfbench/README.md``).

The host the benchmark runs on may be shared, and its speed drifts.
So every end-to-end time is scaled to a reference host speed: an op's
wall clock is multiplied by ``(REFERENCE_PROBE_S / probe) **
HOST_EXPONENT``, where ``probe`` is the time :func:`host_probe_s` takes
around the op (around the pass when several clients run), and a set-up
likewise.  The raw wall clocks go to the report.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Files the run writes (CSV inputs, the service's SQLite store, the
report and the span dump) go to ``.perfbench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: What :func:`host_probe_s` takes at the reference host speed.  Every
#: reported time is scaled to that speed (see ``perfbench/README.md``).
REFERENCE_PROBE_S = 1.4e-3

#: The program's wall clock grows as the probe's time to this power
#: when the host changes speed: fitted on runs of all three workloads
#: in a slow and a fast phase of the host (1.5 to 1.8; see the README).
HOST_EXPONENT = 1.5

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: End-to-end metrics and their units.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("queries", "count"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: Per-layer metrics that are not summed per pass.
NOT_PER_PASS = {
    "client.hit_ratio",
    "view.charged_ratio",
    "service.first_commit_p50_s",
    "store.bytes_per_row",
    "transport.pool_starts",
    "transport.pool_start_s",
    "trace.overhead_frac",
}


def tail_percentile(min_ops: int) -> float:
    """The highest ladder percentile with >= 10 of ``min_ops`` beyond it.

    The choice rests on the op count every run is guaranteed (its
    minimum passes), not the count a run happened to reach, so the same
    percentile is reported by every run of a workload.
    """
    for pct in TAIL_LADDER:
        if min_ops * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    raise ValueError(f"{min_ops} ops are too few for any tail percentile")


@dataclass
class Record:
    """One op of one pass."""

    #: Wall clock of the op.
    latency: float
    result: object
    #: The op's id in the tracer (-1 when untraced).
    op: int
    #: :func:`host_probe_s` around the op (or its pass).
    host: float


def to_reference(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe``, at the
    reference host speed."""
    return seconds * (REFERENCE_PROBE_S / probe) ** HOST_EXPONENT


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed."""
    times = []
    for _ in range(3):
        begin = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        times.append(perf_counter() - begin)
    return statistics.median(times)


def run_pass(workload, pass_index: int, tracer=None) -> list[Record]:
    """One pass of every client's op list, clients in parallel threads.

    With one client the host is probed around each op, when nothing
    else runs; with several, around the whole pass, when every client
    is idle.  A record's ``host`` is the mean of the two probes.
    """
    from workloads import OpResult

    plan = workload.pass_ops()
    records: list = [None] * len(plan)
    alone = len(plan) == 1

    def client(index: int) -> None:
        out = []
        for position, op in enumerate(plan[index]):
            before = host_probe_s() if alone else 0.0
            label = f"pass {pass_index} client {index} op {position}"
            span = tracer.op_span(label) if tracer else nullcontext(-1)
            with span as op_id:
                start = perf_counter()
                try:
                    result = workload.run_op(index, op, pass_index)
                except Exception as exc:  # noqa: BLE001 - a failed op
                    result = OpResult(False, error=f"{type(exc).__name__}: "
                                      f"{exc}")
                latency = perf_counter() - start
            host = (before + host_probe_s()) / 2 if alone else 0.0
            out.append(Record(latency, result, op_id, host))
        records[index] = out

    if alone:
        client(0)
        return records[0]
    before = host_probe_s()
    threads = [threading.Thread(target=client, args=(index,))
               for index in range(len(plan))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    host = (before + host_probe_s()) / 2
    flat = [record for out in records for record in out]
    for record in flat:
        record.host = host
    return flat


@dataclass
class Measured:
    """The passes of one measured phase."""

    clients: int
    passes: list
    #: Wall clock of each pass.
    walls: list
    #: Peak RSS of the process once the guaranteed passes had run.
    peak_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, min_passes: int,
            tracer=None) -> Measured:
    """Whole passes until ``seconds`` have passed and ``min_passes`` ran.

    The peak RSS is read after the ``min_passes``-th pass: a workload
    that keeps state per op (the service keeps every job) would
    otherwise report more memory on a faster host, which fits more
    passes into the same time.
    """
    run = Measured(workload.clients, [], [])
    start = perf_counter()
    while len(run.passes) < min_passes or perf_counter() - start < seconds:
        begin = perf_counter()
        run.passes.append(run_pass(workload, len(run.passes), tracer))
        run.walls.append(perf_counter() - begin)
        if len(run.passes) == min_passes:
            run.peak_rss_mb = peak_rss_mb()
    return run


def check_passes(passes: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors); every pass must charge like the first."""
    attempted = failed = 0
    errors = []
    first = passes[0]
    for number, records in enumerate(passes):
        for position, record in enumerate(records):
            result = record.result
            attempted += 1
            expected = first[position].result.charged
            problem = result.error if not result.ok else ""
            if result.ok and result.charged != expected:
                problem = (f"charged {result.charged} queries, "
                           f"{expected} in the first pass")
            if problem:
                failed += 1
                errors.append(f"pass {number} op {position}: {problem}")
    return attempted, failed, errors


def scaled_pass_seconds(run: Measured) -> list[float]:
    """Each pass's time at the reference host speed.

    One client runs its ops back to back, so a pass is the sum of its
    scaled ops; with several clients the pass wall clock is scaled by
    the probes taken around it.
    """
    if run.clients > 1:
        return [to_reference(wall, records[0].host)
                for wall, records in zip(run.walls, run.passes)]
    return [sum(to_reference(record.latency, record.host)
                for record in records) for records in run.passes]


def end_to_end(workload, setups, run: Measured) -> tuple[dict, dict]:
    """The end-to-end metrics, at the reference host speed.

    ``setups`` are (wall clock, host probe) pairs.  Every wall clock is
    scaled by :func:`to_reference`; the raw values go to the report.
    """
    passes = run.passes
    records = [record for records in passes for record in records]
    latencies = [to_reference(r.latency, r.host) for r in records]
    ok = sum(record.result.ok for record in records)
    pct = tail_percentile(workload.min_passes * len(passes[0]))
    first = [record.result for record in passes[0]]
    metrics = {
        "setup_s": statistics.median(to_reference(wall, host)
                                     for wall, host in setups),
        "ops_per_s": ok / sum(scaled_pass_seconds(run)),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": float(np.percentile(latencies, pct)),
        "queries": sum(result.charged for result in first),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_frac": ok / len(records),
    }
    raw = [record.latency for record in records]
    extra = {
        "tail_percentile": pct,
        "tail_samples_beyond": sum(
            lat > metrics["latency_tail_s"] for lat in latencies
        ),
        "ops": len(records),
        "passes": len(passes),
        "ops_per_pass": len(passes[0]),
        "clients": workload.clients,
        "issued_per_pass": sum(result.issued for result in first),
        "raw_ops_per_s": ok / sum(run.walls),
        "raw_latency_p50_s": statistics.median(raw),
        "raw_latency_tail_s": float(np.percentile(raw, pct)),
        "raw_setup_s": statistics.median(wall for wall, _ in setups),
        "host_probe_median_s": statistics.median(r.host for r in records),
        "setups": setups,
        "pass_walls_s": run.walls,
        "op_latencies_s": [[r.latency for r in records] for records in passes],
        "op_host_probes_s": [[r.host for r in records] for records in passes],
    }
    return metrics, extra


def traced(workload, seconds: float) -> tuple[dict, dict, list, list]:
    """Half the time untraced, half traced: the per-layer table."""
    from spans import LAYER_METRICS, Tracer

    plain = measure(workload, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        # Set up again under the tracer, so a service's pool start is
        # seen; the inputs are rebuilt from the same seed.
        with tracer.op_span("setup"):
            workload.setup()
        traced_run = measure(workload, seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    passes = traced_run.passes
    measured = [record.op for records in passes for record in records]
    metrics = tracer.layer_metrics(measured)
    regions = sum(record.result.regions for records in passes
                  for record in records)
    problems = tracer.consistency(metrics, measured, regions)
    count = len(passes)
    metrics["crawl.issued"] = sum(record.result.issued for records in passes
                                  for record in records)
    for name, _ in LAYER_METRICS:
        if name in metrics and name not in NOT_PER_PASS:
            metrics[name] /= count
    metrics["view.charged_ratio"] = (
        metrics["server.calls"] / metrics["crawl.issued"]
        if metrics["crawl.issued"] else 0.0
    )
    bytes_per_row = getattr(workload, "store_bytes_per_row", None)
    metrics["store.bytes_per_row"] = bytes_per_row() if bytes_per_row else 0
    metrics["trace.overhead_frac"] = (
        statistics.mean(scaled_pass_seconds(traced_run))
        / statistics.mean(scaled_pass_seconds(plain)) - 1.0
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}-{workload.seed}.npz")
    extra = {
        "traced_passes": count,
        "untraced_passes": len(plain.passes),
        "spans": metrics.pop("spans"),
        "orphan_spans": metrics.pop("orphans"),
        "consistency_problems": problems,
    }
    layer = {name: metrics[name] for name, _ in LAYER_METRICS}
    return layer, extra, plain.passes + passes, problems


def host_record(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(sorted(workloads.WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of: {known}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    try:
        setups = []
        # A traced run reports no set-up time: one set-up will do.
        for _ in range(1 if args.trace else workload.setup_repeats):
            before = host_probe_s()
            start = perf_counter()
            workload.setup()
            wall = perf_counter() - start
            setups.append((wall, (before + host_probe_s()) / 2))
        workload.prepare_checks()
        if args.trace:
            metrics, extra, passes, problems = traced(workload, args.seconds)
            units = dict(spans.LAYER_METRICS)
        else:
            run = measure(workload, args.seconds, workload.min_passes)
            passes = run.passes
            metrics, extra = end_to_end(workload, setups, run)
            problems = []
            units = dict(END_TO_END)
    finally:
        workload.close()
    attempted, failed, errors = check_passes(passes)
    report = {
        "host": host_record(args),
        "metrics": metrics,
        **extra,
        "errors": errors[:20],
    }
    (OUT_DIR / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=2))
    print(f"host: {json.dumps(report['host'])}")
    for key, value in extra.items():
        if not isinstance(value, list) or key == "consistency_problems":
            print(f"{key}: {value}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for line in errors[:20]:
        print(f"FAILED {line}")
    for line in problems:
        print(f"INCONSISTENT {line}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
