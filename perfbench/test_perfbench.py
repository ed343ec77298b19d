"""Self-tests of the benchmark itself, on tiny instances.

Run from the repository root::

    python3 -m pytest perfbench -q

(The repository's own test suite collects only ``tests/``.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "paper-sweep": dict(scale=0.01, ks=(256,)),
    "cli-crawl": dict(datasets=2, n=1500, ks=(128,)),
    "service-jobs": dict(datasets=2, n=600, k=64),
}


def tiny(name: str, seed: int, tmp_path: Path) -> workloads.Workload:
    tmp_path.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, seed, tmp_path, **TINY[name])
    workload.setup()
    workload.prepare_checks()
    return workload


def one_pass(workload, tracer=None) -> list:
    try:
        return run.run_pass(workload, 0, tracer)
    finally:
        workload.close()


@pytest.mark.parametrize("name", ["paper-sweep", "cli-crawl"])
def test_queries_equal_summed_server_stats(name, tmp_path):
    """``queries`` is what the servers counted, not what crawlers issued."""
    tracer = spans.Tracer()
    workload = tiny(name, 3, tmp_path)
    tracer.install()
    try:
        records = one_pass(workload, tracer)
    finally:
        tracer.uninstall()
    assert all(record.result.ok for record in records)
    queries = sum(record.result.charged for record in records)
    ops = [record.op for record in records]
    assert queries == sum(tracer.server_queries[op] for op in ops)
    metrics = tracer.layer_metrics(ops)
    assert metrics["server.calls"] == queries
    assert tracer.consistency(metrics, ops, 0) == []


def test_service_charges_match_standalone_crawls(tmp_path):
    """New jobs charge a standalone crawl's queries; resubmits charge 0."""
    workload = tiny("service-jobs", 3, tmp_path)
    plan = workload.pass_ops()
    records = one_pass(workload)
    assert all(record.result.ok for record in records), [
        record.result.error for record in records
    ]
    ops = [op for client in plan for op in client]
    for record, (kind, entry, _) in zip(records, ops):
        expected = workload.references[entry].charged if kind == "new" else 0
        assert record.result.charged == expected
        assert (record.result.regions > 0) == (kind == "new")


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_ops_and_queries(name, tmp_path):
    first = tiny(name, 5, tmp_path / "a")
    second = tiny(name, 5, tmp_path / "b")
    assert first.pass_ops() == second.pass_ops()
    assert first.inputs() == second.inputs()
    charged = [
        [record.result.charged for record in one_pass(workload)]
        for workload in (first, second)
    ]
    assert charged[0] == charged[1]


@pytest.mark.parametrize("name", sorted(TINY))
def test_other_seed_other_inputs_same_shape(name, tmp_path):
    first = tiny(name, 5, tmp_path / "a")
    other = tiny(name, 6, tmp_path / "b")
    try:
        assert first.inputs() != other.inputs()
        assert len(first.inputs()) == len(other.inputs())
        shape = [[op[0] if name == "service-jobs" else op[-1]
                  for op in client] for client in first.pass_ops()]
        other_shape = [[op[0] if name == "service-jobs" else op[-1]
                        for op in client] for client in other.pass_ops()]
        if name == "cli-crawl":
            shape, other_shape = sorted(shape[0]), sorted(other_shape[0])
        assert shape == other_shape
    finally:
        first.close()
        other.close()


def test_traced_service_pass_is_consistent(tmp_path):
    """Commits seen by the wrappers match the jobs' own region counts."""
    workload = tiny("service-jobs", 4, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # As in a traced run: set up again under the tracer, so the
        # pool start is seen.
        with tracer.op_span("setup"):
            workload.setup()
        records = one_pass(workload, tracer)
    finally:
        tracer.uninstall()
    assert all(record.result.ok for record in records)
    ops = [record.op for record in records]
    metrics = tracer.layer_metrics(ops)
    regions = sum(record.result.regions for record in records)
    assert regions > 0
    assert tracer.consistency(metrics, ops, regions) == []
    assert metrics["transport.tasks"] == regions
    assert metrics["transport.pool_starts"] == 1
    assert metrics["server.calls"] == 0  # servers live in pool workers


class _Failing(workloads.Workload):
    name = "failing"

    def pass_ops(self):
        return [[("boom",), ("fine",)]]

    def run_op(self, client, op, pass_index):
        if op[0] == "boom":
            raise RuntimeError("boom")
        return workloads.OpResult(True, charged=1)


def test_failed_op_is_counted_not_fatal(tmp_path):
    passes = [run.run_pass(_Failing(0, tmp_path), 0) for _ in range(2)]
    attempted, failed, errors = run.check_passes(passes)
    assert (attempted, failed) == (4, 2)
    assert "RuntimeError: boom" in errors[0]


def test_charge_drift_between_passes_is_a_failure():
    ok = workloads.OpResult(True, charged=7)
    drifted = workloads.OpResult(True, charged=8)
    attempted, failed, _ = run.check_passes([[run.Record(0.1, ok, -1, 1.0)],
                                             [run.Record(0.1, drifted, -1,
                                                         1.0)]])
    assert (attempted, failed) == (2, 1)


@pytest.mark.parametrize("ops,pct", [(105, 90.0), (48, 75.0), (108, 90.0),
                                     (200, 95.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(ops, pct):
    assert run.tail_percentile(ops) == pct
    assert ops * (100 - pct) / 100 >= 10


def _spans(rows):
    """Tracer-shaped arrays from (start, end, parent, thread) rows."""
    start, end, parent, thread = map(np.array, zip(*rows))
    return {"start": start.astype(float), "end": end.astype(float),
            "parent": parent.astype(np.int64),
            "thread": thread.astype(np.uint64)}


def test_self_time_subtracts_nested_and_merges_cross_thread_children():
    rows = [
        (0.0, 10.0, -1, 1),  # op root
        (1.0, 3.0, 0, 1),    # same-thread child
        (1.5, 2.5, 1, 1),    # grandchild
        (4.0, 9.0, 0, 1),    # executor run, anchors helper threads
        (4.0, 8.0, 3, 2),    # helper thread A
        (5.0, 9.0, 3, 3),    # helper thread B, overlaps A
    ]
    own = spans.Tracer().self_times(_spans(rows))
    np.testing.assert_allclose(own, [3.0, 1.0, 1.0, 0.0, 4.0, 4.0])


def test_wrappers_restore_and_stay_out_of_results(tmp_path):
    from repro.server.client import CachingClient

    original = CachingClient.__dict__["run"]
    tracer = spans.Tracer()
    workload = tiny("paper-sweep", 2, tmp_path)
    plain = [r.result.charged for r in run.run_pass(workload, 0)]
    tracer.install()
    try:
        traced = [r.result.charged
                  for r in run.run_pass(workload, 0, tracer)]
    finally:
        tracer.uninstall()
    assert CachingClient.__dict__["run"] is original
    assert traced == plain


def test_ops_of_two_clients_get_their_own_spans():
    tracer = spans.Tracer()
    seen = {}

    def client(label):
        with tracer.op_span(label) as op:
            seen[label] = op

    threads = [threading.Thread(target=client, args=(f"c{i}",))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert sorted(seen.values()) == [0, 1]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-crawl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
