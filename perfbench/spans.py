"""Layer spans for the traced benchmark run.

:class:`Tracer` wraps the public boundary of every layer -- class
attributes and module functions of :mod:`repro` -- from outside the
program, records one span per call (name, start, end, parent, op id,
thread) in flat in-memory arrays, and after the run splits each op's
wall clock into per-layer self time plus an ``unattributed`` remainder.

Self time is a span's duration minus the part of it its child spans
cover.  Children on the parent's own thread are nested and disjoint, so
their durations add; children on other threads (regions crawled by an
executor's pool threads, region commits and pool tasks of a service
job) may overlap each other, so their intervals are merged first.
Spans on those other threads find their parent in one of two ways: an
open ``runtime.run`` span (or, failing that, the one op in flight)
adopts them, and the service layer's spans, which run while two ops
are in flight, are matched to their op through the job id
(``ResultStore.open_job``) or the payload object
(``pickle_payload``) the op created.

Only the benchmark process is observed.  Pool workers forked while the
wrappers are installed inherit them, but the tracer is switched off in
every forked child, so work done inside pool workers shows up in the
parent as ``transport.task`` time and as unattributed time.
"""

from __future__ import annotations

import functools
import os
import threading
from array import array
from concurrent.futures.process import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Per-layer metrics of one traced run, in report order, with units.
LAYER_METRICS = (
    ("crawl.calls", "count"),
    ("crawl.self_s", "s"),
    ("crawl.issued", "count"),
    ("query.full_calls", "count"),
    ("query.full_s", "s"),
    ("client.calls", "count"),
    ("client.hits", "count"),
    ("client.hit_ratio", "ratio"),
    ("client.self_s", "s"),
    ("view.calls", "count"),
    ("view.local_answers", "count"),
    ("view.self_s", "s"),
    ("view.charged_ratio", "ratio"),
    ("server.calls", "count"),
    ("server.admission_s", "s"),
    ("server.build_s", "s"),
    ("engine.calls", "count"),
    ("engine.busy_s", "s"),
    ("runtime.regions", "count"),
    ("runtime.self_s", "s"),
    ("transport.payload_bytes", "bytes"),
    ("transport.pickle_s", "s"),
    ("transport.pool_starts", "count"),
    ("transport.pool_start_s", "s"),
    ("transport.tasks", "count"),
    ("transport.task_wait_s", "s"),
    ("store.commits", "count"),
    ("store.commit_s", "s"),
    ("store.read_s", "s"),
    ("store.bytes_per_row", "bytes"),
    ("service.submit_s", "s"),
    ("service.first_commit_p50_s", "s"),
    ("verify.s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: Which self-time metric every span name feeds.  Every name a wrapper
#: records appears here, so all traced time lands in exactly one row
#: (op roots feed ``unattributed_s``).
SELF_TIME_METRIC = {
    "op": "unattributed_s",
    "crawl": "crawl.self_s",
    "query.full": "query.full_s",
    "client.hit": "client.self_s",
    "client.miss": "client.self_s",
    "view.run": "view.self_s",
    "view.local": "view.self_s",
    "server.run": "server.admission_s",
    "server.build": "server.build_s",
    "engine.top": "engine.busy_s",
    "runtime.run": "runtime.self_s",
    "runtime.region": "runtime.self_s",
    "transport.pickle": "transport.pickle_s",
    "transport.pool_start": "transport.pool_start_s",
    "transport.task": "transport.task_wait_s",
    "store.commit": "store.commit_s",
    "store.open_new": "store.commit_s",
    "store.open_read": "store.read_s",
    "store.completed": "store.read_s",
    "store.rows": "store.read_s",
    "service.submit": "service.submit_s",
    "verify": "verify.s",
}

#: Span names counted by the ``*.calls``-style metrics.
CALL_COUNTS = {
    "crawl.calls": ("crawl",),
    "query.full_calls": ("query.full",),
    "client.calls": ("client.hit", "client.miss"),
    "client.hits": ("client.hit",),
    "view.calls": ("view.run", "view.local"),
    "view.local_answers": ("view.local",),
    "server.calls": ("server.run",),
    "engine.calls": ("engine.top",),
    "runtime.regions": ("runtime.region",),
    "transport.tasks": ("transport.task",),
    "transport.pool_starts": ("transport.pool_start",),
    "store.commits": ("store.commit",),
}

#: The tracer forked children must not record into (see module doc).
_INSTALLED: list = []


def _disable_in_child() -> None:
    for tracer in _INSTALLED:
        tracer.active = False


os.register_at_fork(after_in_child=_disable_in_child)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use :meth:`install` / :meth:`uninstall` around the traced phase and
    :meth:`op_span` around each operation; :meth:`layer_metrics` then turns
    the spans into the per-layer table.
    """

    def __init__(self):
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.thread = array("Q")
        self.has_child = bytearray()
        #: Op labels; the index is the op id.
        self.ops: list[str] = []
        #: Op id -> its root span.
        self._roots: dict[int, int] = {}
        self._open_roots: set[int] = set()
        #: Open ``runtime.run`` span adopting spans of helper threads.
        self._anchor = -1
        self._job_op: dict[int, int] = {}
        self._payload_op: dict[int, int] = {}
        #: Bytes of the process payloads each op pickled.
        self.payload_bytes: dict[int, int] = {}
        #: Per open op: the clients and servers that answered queries.
        self._objects: dict[int, dict[str, dict]] = {}
        #: Summed over finished ops: client ``cost`` and server
        #: ``stats.queries`` -- the program's own counters.
        self.client_cost: dict[int, int] = {}
        self.server_queries: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._op_id = self._id("op")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopter(self) -> int:
        if self._anchor >= 0:
            return self._anchor
        roots = tuple(self._open_roots)  # one C call: atomic under the GIL
        return roots[0] if len(roots) == 1 else -1

    def _record(self, nid: int, parent: int, op: int, start: float) -> int:
        with self._lock:
            sid = len(self.start)
            self.start.append(start)
            self.end.append(start)
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(op)
            self.thread.append(threading.get_ident())
            self.has_child.append(0)
        if parent >= 0:
            self.has_child[parent] = 1
        return sid

    def open(self, nid: int, parent: int | None = None) -> int:
        """Open a span on this thread and push it on its stack."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self._adopter()
        op = self.op[parent] if parent >= 0 else -1
        sid = self._record(nid, parent, op, perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack().pop()

    def current_op(self) -> int:
        stack = self._stack()
        return self.op[stack[-1]] if stack else -1

    @contextmanager
    def op_span(self, label: str):
        """One operation: a root span every layer span hangs off."""
        with self._lock:
            op = len(self.ops)
            self.ops.append(label)
        root = self._record(self._op_id, -1, op, perf_counter())
        self._roots[op] = root
        self._objects[op] = {"clients": {}, "servers": {}}
        self._stack().append(root)
        self._open_roots.add(root)
        try:
            yield op
        finally:
            self._open_roots.discard(root)
            self.close(root)
            objects = self._objects.pop(op)
            self.client_cost[op] = sum(
                client.cost for client in objects["clients"].values()
            )
            self.server_queries[op] = sum(
                server.stats.queries for server in objects["servers"].values()
            )

    def _register(self, kind: str, obj) -> None:
        objects = self._objects.get(self.current_op())
        if objects is not None:
            objects[kind][id(obj)] = obj

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, fn, name: str, *, after=None):
        """``fn`` wrapped in a span; ``after(sid, result)`` on return."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(sid, result)
                return result
            finally:
                tracer.close(sid)

        return wrapper

    def _wrap(self, owner, attr: str, name: str, **kwargs) -> None:
        self._patch(
            owner, attr, self._timed(getattr(owner, attr), name, **kwargs)
        )

    def install(self) -> None:
        """Wrap every layer boundary and start recording."""
        from repro.crawl import verify
        from repro.crawl.base import Crawler
        from repro.crawl.executors import CrawlExecutor
        from repro.crawl.partition import SubspaceView
        from repro.crawl.runtime import LocalUnitRunner
        from repro.query.query import Query
        from repro.server.client import CachingClient
        from repro.server.engines import BatchTopK, QueryEngine
        from repro.server.server import TopKServer
        from repro.service import jobs
        from repro.service.api import CrawlService
        from repro.service.store import ResultStore

        tracer = self
        self._wrap(Crawler, "crawl", "crawl")
        full = Query.__dict__["full"].__func__
        self._patch(Query, "full",
                    classmethod(self._timed(full, "query.full")))

        client_run = CachingClient.run
        hit_id, miss_id = self._id("client.hit"), self._id("client.miss")

        @functools.wraps(client_run)
        def traced_client_run(client, query):
            if not tracer.active:
                return client_run(client, query)
            hit = client.peek(query) is not None
            sid = tracer.open(hit_id if hit else miss_id)
            if not hit:
                tracer._register("clients", client)
            try:
                return client_run(client, query)
            finally:
                tracer.close(sid)

        self._patch(CachingClient, "run", traced_client_run)

        view_run = SubspaceView.run
        view_id, local_id = self._id("view.run"), self._id("view.local")

        @functools.wraps(view_run)
        def traced_view_run(view, query):
            if not tracer.active:
                return view_run(view, query)
            sid = tracer.open(view_id)
            try:
                return view_run(view, query)
            finally:
                # No child span: the view answered without its source.
                if not tracer.has_child[sid]:
                    tracer.name[sid] = local_id
                tracer.close(sid)

        self._patch(SubspaceView, "run", traced_view_run)

        server_run = TopKServer.run
        server_id = self._id("server.run")

        @functools.wraps(server_run)
        def traced_server_run(server, query):
            if not tracer.active:
                return server_run(server, query)
            sid = tracer.open(server_id)
            tracer._register("servers", server)
            try:
                return server_run(server, query)
            finally:
                tracer.close(sid)

        self._patch(TopKServer, "run", traced_server_run)
        self._wrap(TopKServer, "__init__", "server.build")

        for base in (QueryEngine, BatchTopK):
            pending = list(base.__subclasses__())
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if "top" in cls.__dict__:
                    self._wrap(cls, "top", "engine.top")

        executor_run = CrawlExecutor.run
        runtime_id = self._id("runtime.run")

        @functools.wraps(executor_run)
        def traced_executor_run(*args, **kwargs):
            if not tracer.active:
                return executor_run(*args, **kwargs)
            sid = tracer.open(runtime_id)
            outer, tracer._anchor = tracer._anchor, sid
            try:
                return executor_run(*args, **kwargs)
            finally:
                tracer._anchor = outer
                tracer.close(sid)

        self._patch(CrawlExecutor, "run", traced_executor_run)
        self._wrap(LocalUnitRunner, "region", "runtime.region")

        def payload_made(sid, payload):
            op = tracer.op[sid]
            tracer.payload_bytes[op] = (
                tracer.payload_bytes.get(op, 0) + len(payload)
            )
            tracer._payload_op[id(payload)] = op

        self._wrap(jobs, "pickle_payload", "transport.pickle",
                   after=payload_made)
        self._wrap(ProcessPoolExecutor, "__init__", "transport.pool_start")

        submit = ProcessPoolExecutor.submit
        task_id = self._id("transport.task")

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            if not tracer.active:
                return submit(pool, fn, *args, **kwargs)
            payload = args[1] if len(args) > 1 else None
            op = tracer._payload_op.get(id(payload), -1)
            parent = tracer._roots[op] if op >= 0 else tracer._adopter()
            sid = tracer._record(task_id, parent, tracer.op[parent]
                                 if parent >= 0 else -1, perf_counter())
            future = submit(pool, fn, *args, **kwargs)

            def done(_):
                tracer.end[sid] = perf_counter()

            future.add_done_callback(done)
            return future

        self._patch(ProcessPoolExecutor, "submit", traced_submit)

        commit = ResultStore.region_done
        commit_id = self._id("store.commit")

        @functools.wraps(commit)
        def traced_commit(store, job_id, *args, **kwargs):
            if not tracer.active:
                return commit(store, job_id, *args, **kwargs)
            parent = None
            if not tracer._stack():
                op = tracer._job_op.get(job_id, -1)
                parent = tracer._roots[op] if op >= 0 else -1
            sid = tracer.open(commit_id, parent)
            try:
                return commit(store, job_id, *args, **kwargs)
            finally:
                tracer.close(sid)

        self._patch(ResultStore, "region_done", traced_commit)

        open_read = self._id("store.open_read")

        def job_opened(sid, result):
            job_id, completed = result
            tracer._job_op[job_id] = tracer.op[sid]
            if completed:
                tracer.name[sid] = open_read

        self._wrap(ResultStore, "open_job", "store.open_new",
                   after=job_opened)
        self._wrap(ResultStore, "completed", "store.completed")
        self._wrap(ResultStore, "rows", "store.rows")
        self._wrap(CrawlService, "submit", "service.submit")
        self._wrap(verify, "verify_complete", "verify")
        _INSTALLED.append(self)
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and restore every wrapped attribute."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self in _INSTALLED:
            _INSTALLED.remove(self)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.uint64).copy(),
        }

    def self_times(self, spans: dict[str, np.ndarray]) -> np.ndarray:
        """Each span's duration minus the part its children cover."""
        start, end, parent = spans["start"], spans["end"], spans["parent"]
        duration = end - start
        covered = np.zeros(len(start))
        child = np.flatnonzero(parent >= 0)
        cross = spans["thread"][child] != spans["thread"][parent[child]]
        merged = np.unique(parent[child[cross]])
        same = child[~np.isin(parent[child], merged)]
        np.add.at(covered, parent[same], duration[same])
        # Parents with children on other threads: merge the intervals.
        for p in merged:
            kids = child[parent[child] == p]
            lo = np.clip(start[kids], start[p], end[p])
            hi = np.clip(end[kids], start[p], end[p])
            order = np.argsort(lo)
            total, reach = 0.0, start[p]
            for a, b in zip(lo[order], hi[order]):
                if b > reach:
                    total += b - max(a, reach)
                    reach = b
            covered[p] = total
        return duration - covered

    def layer_metrics(self, measured_ops: list[int]) -> dict[str, float]:
        """Per-layer totals over ``measured_ops`` (pool starts: all)."""
        spans = self.arrays()
        own = self.self_times(spans)
        ids = spans["name"]
        measured = np.isin(spans["op"], measured_ops)

        def named(*names: str) -> np.ndarray:
            wanted = [self._name_ids.get(name, -1) for name in names]
            return np.isin(ids, wanted)

        metrics: dict[str, float] = dict.fromkeys(
            SELF_TIME_METRIC.values(), 0.0
        )
        for name, metric in SELF_TIME_METRIC.items():
            mask = named(name)
            if not metric.startswith("transport.pool_start"):
                mask &= measured
            metrics[metric] += float(own[mask].sum())
        for metric, members in CALL_COUNTS.items():
            mask = named(*members)
            if metric != "transport.pool_starts":
                mask &= measured
            metrics[metric] = int(mask.sum())
        # Time from a job's submission to its first region commit.
        submits = np.flatnonzero(named("service.submit") & measured)
        commits = np.flatnonzero(named("store.commit") & measured)
        first_commit = []
        for sid in submits:
            mine = commits[spans["op"][commits] == spans["op"][sid]]
            if len(mine):
                first_commit.append(
                    spans["end"][mine].min() - spans["start"][sid]
                )
        metrics["service.first_commit_p50_s"] = (
            float(np.median(first_commit)) if first_commit else 0.0
        )
        calls = metrics["client.calls"]
        metrics["client.hit_ratio"] = (
            metrics["client.hits"] / calls if calls else 0.0
        )
        metrics["transport.payload_bytes"] = sum(
            self.payload_bytes.get(op, 0) for op in measured_ops
        )
        metrics["orphans"] = int((spans["op"] < 0).sum())
        metrics["spans"] = len(ids)
        return metrics

    def consistency(
        self, metrics: dict, measured_ops: list[int], regions_done: int
    ) -> list[str]:
        """Wrapper counts that disagree with the program's own counters."""
        problems = []
        queries = sum(self.server_queries[op] for op in measured_ops)
        if metrics["server.calls"] != queries:
            problems.append(
                f"server.calls {metrics['server.calls']} != summed "
                f"TopKServer.stats.queries {queries}"
            )
        misses = metrics["client.calls"] - metrics["client.hits"]
        cost = sum(self.client_cost[op] for op in measured_ops)
        if misses != cost:
            problems.append(
                f"client misses {misses} != summed CachingClient.cost {cost}"
            )
        if metrics["store.commits"] != regions_done:
            problems.append(
                f"store.commits {metrics['store.commits']} != summed "
                f"JobStatus.regions_done {regions_done}"
            )
        if metrics["orphans"]:
            problems.append(f"{metrics['orphans']} spans without an op")
        return problems

    def save(self, path) -> None:
        """Write every span (and the name and op tables) to ``path``."""
        np.savez(
            path,
            names=np.array(self._names),
            ops=np.array(self.ops),
            **self.arrays(),
        )
