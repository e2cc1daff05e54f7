"""Wall-clock spans around the calls into each layer of ``repro``.

Everything here wraps public functions and methods from outside the
package: a :class:`Patcher` swaps a module or class attribute for a
wrapper and puts the original back on exit, so ``src/`` is never
edited.  Two users share it:

* :class:`Tracer` records one span per call at every point in
  :data:`POINTS` (name, start, end, parent), keeps the spans in memory
  and derives busy time, self time and counts per point.  The untraced
  run, where the end-to-end metrics come from, enables one point only:
  ``loop.step``, which times each job-round.
* :func:`inject_delay` makes one point slower by a fixed share of its
  own time; the sensitivity self-check uses it.

The driver is single-threaded on every workload (the serial executor
runs tasks inline; the process executor's workers are separate
processes that were forked before any patch went in), so one span stack
per tracer is enough.
"""

from __future__ import annotations

import time
from collections import Counter
from importlib import import_module
from typing import Any, Callable

from repro.apps.jacobi import JacobiBlockSpec
from repro.apps.kmeans import KMeansBlockSpec
from repro.apps.pagerank import PageRankBlockSpec, PageRankKVSpec
from repro.cluster.accountant import RoundAccountant
from repro.cluster.statestore import OnlineStateStore, StateStore
from repro.core.async_backend import AsyncBackend
from repro.engine.counters import SHUFFLE_BYTES, SPECULATIVE_BACKUPS, TASK_RETRIES

# Modules by path: some share a name with a function the package exports.
gmap, jobsched, loop = (import_module(f"repro.core.{m}")
                        for m in ("gmap", "jobsched", "loop"))
runtime, shm, shuffle, task = (import_module(f"repro.engine.{m}")
                               for m in ("runtime", "shm", "shuffle", "task"))

now = time.perf_counter


class Patcher:
    """Replace attributes with wrappers; :meth:`restore` undoes all of them."""

    def __init__(self) -> None:
        self._saved: "list[tuple[Any, str, Any]]" = []

    def wrap(self, target: Any, attr: str,
             make: "Callable[[Callable], Callable]") -> None:
        # Read through __dict__ on classes so an inherited method is
        # wrapped on the class that defines it, and restored exactly.
        owner = target
        if isinstance(target, type):
            owner = next(c for c in target.__mro__ if attr in c.__dict__)
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------
# Trace points
# ---------------------------------------------------------------------

def _localmr_after(counts: Counter, args: tuple, result: Any) -> None:
    # run_local_mapreduce(spec, xs, *, max_local_iters)
    counts["localmr.record_iters"] += len(args[1]) * result.local_iters


def _engine_after(counts: Counter, args: tuple, result: Any) -> None:
    # MapReduceRuntime.run(self, job, splits, ...)
    job, splits = args[1], args[2]
    tasks = len(splits) + job.conf.num_reducers
    c = result.counters
    counts["engine.tasks"] += tasks
    counts["engine.attempts"] += (tasks + c.get(TASK_RETRIES)
                                  + c.get(SPECULATIVE_BACKUPS))
    counts["shuffle.bytes"] += c.get(SHUFFLE_BYTES)


def _export_after(counts: Counter, args: tuple, result: Any) -> None:
    # export_*(obj, name, min_bytes) returns obj itself below the threshold
    if result is not args[0]:
        counts["shm.export_bytes"] += result.nbytes


_CHARGES = ("charge_job_startup", "charge_shuffle", "charge_overlapped_shuffle",
            "charge_barrier", "charge_dfs_roundtrip", "charge_fixed",
            "charge_recovery", "charge_state_restore", "charge_state_round",
            "charge_state_checkpoint", "charge_state_tail", "charge_async_step",
            "charge_map_phase", "charge_global_sync", "charge_rack_phase",
            "run_map_phase", "run_reduce_phase", "state_publish_seconds",
            "state_consume_seconds", "local_solve_seconds")
_BLOCK_SPECS = (PageRankBlockSpec, JacobiBlockSpec, KMeansBlockSpec)

#: (span name, [(target, attribute)], after-hook, runs inside map/reduce
#: tasks).  Task-side points are left out where tasks run in worker
#: processes: they cannot be observed from the driver there (their time
#: shows up as ``engine.pool_wait``), and a wrapped task runner would not
#: pickle.
POINTS: "list[tuple[str, list, Any, bool]]" = [
    ("sched.step", [(jobsched.SessionScheduler, "step")], None, False),
    ("loop.step", [(loop.IterationLoop, "step")], None, False),
    ("async.round", [(AsyncBackend, "run_round")], None, False),
    ("engine.run", [(runtime.MapReduceRuntime, "run")], _engine_after, False),
    ("task.map", [(runtime, "run_map_task")], None, True),
    ("task.reduce", [(runtime, "run_reduce_task")], None, True),
    ("localmr.run", [(gmap, "run_local_mapreduce")], _localmr_after, True),
    ("columnar.route_combine", [(task, "route_combine_columnar")], None, True),
    ("shuffle.add", [(shuffle.ShuffleBuffer, "add")], None, False),
    ("shuffle.seal", [(shuffle.ShuffleBuffer, "columnar_groups"),
                      (shuffle.ShuffleBuffer, "groups")], None, False),
    ("shm.export", [(runtime, "export_pickled"), (runtime, "export_groups")],
     _export_after, False),
    ("shm.take", [(shm.ShmBlockRef, "take")], None, False),
    ("apps.partition_input", [(PageRankKVSpec, "partition_input")], None, False),
    ("apps.state_fold", [(PageRankKVSpec, "state_from_columnar"),
                         (PageRankKVSpec, "state_from_output")], None, False),
    ("apps.local_solve", [(c, "local_solve") for c in _BLOCK_SPECS], None, False),
    ("apps.global_combine", [(c, "global_combine") for c in _BLOCK_SPECS],
     None, False),
    ("apps.converged", [(c, "global_converged")
                        for c in (PageRankKVSpec, *_BLOCK_SPECS)], None, False),
    ("cluster.charge", [(RoundAccountant, m) for m in _CHARGES], None, False),
    ("store.round_trip", [(StateStore, "round_trip")], None, False),
    ("store.checkpoint", [(StateStore, "checkpoint"),
                          (OnlineStateStore, "checkpoint")], None, False),
    ("store.publish", [(OnlineStateStore, "publish")], None, False),
    ("store.consume", [(OnlineStateStore, "consume")], None, False),
]


def _targets(name: str) -> list:
    for pname, targets, _, _ in POINTS:
        if pname == name:
            return targets
    raise KeyError(f"unknown trace point {name!r}")


# ---------------------------------------------------------------------
# Delay injection (self-check)
# ---------------------------------------------------------------------

def _spin(seconds: float) -> None:
    # Busy-wait: a sleep cannot resolve the tens of microseconds some
    # points take per call.
    end = now() + seconds
    while now() < end:
        pass


def inject_delay(patcher: Patcher, point: str, frac: float) -> None:
    """Make every call at ``point`` take ``1 + frac`` times as long."""

    def make(orig):
        def slowed(*args, **kwargs):
            t0 = now()
            try:
                return orig(*args, **kwargs)
            finally:
                _spin(frac * (now() - t0))
        return slowed

    for target, attr in _targets(point):
        patcher.wrap(target, attr, make)


# ---------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------

class Tracer:
    """Records a span per call at every enabled point, in memory.

    ``spans`` holds ``(name, start, end, parent)`` tuples, ``parent``
    being the index of the enclosing span or -1.  :meth:`take` hands the
    spans and counts of one solve to the caller and starts afresh.
    """

    def __init__(self, *, worker_side: bool = True,
                 only: "tuple[str, ...] | None" = None) -> None:
        self.spans: "list[Any]" = []
        self.counts: Counter = Counter()
        self._stack: "list[int]" = []
        self._patcher = Patcher()
        self._points = [p for p in POINTS if (worker_side or not p[3])
                        and (only is None or p[0] in only)]

    def _make(self, name: str, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        def make(orig):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = now()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    spans[idx] = (name, t0, now(), parent)
                    stack.pop()
                if after is not None:
                    after(counts, args, result)
                return result
            return traced
        return make

    def __enter__(self) -> "Tracer":
        for name, targets, after, _ in self._points:
            for target, attr in targets:
                self._patcher.wrap(target, attr, self._make(name, after))
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def take(self) -> "tuple[list, Counter]":
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans: list) -> "dict[str, dict[str, float]]":
    """Per point: ``calls``, ``busy`` (outermost spans only, so recursion
    and nested charges are not counted twice) and ``self`` (duration
    minus time covered by child spans)."""
    names = sorted({s[0] for s in spans})
    bit = {n: 1 << i for i, n in enumerate(names)}
    child = [0.0] * len(spans)
    mask = [0] * len(spans)
    out = {n: {"calls": 0, "busy": 0.0, "self": 0.0} for n in names}
    for i, (name, t0, t1, parent) in enumerate(spans):
        dur = t1 - t0
        above = mask[parent] if parent >= 0 else 0
        mask[i] = above | bit[name]
        if parent >= 0:
            child[parent] += dur
        row = out[name]
        row["calls"] += 1
        if not above & bit[name]:
            row["busy"] += dur
    for i, (name, t0, t1, _) in enumerate(spans):
        out[name]["self"] += (t1 - t0) - child[i]
    return out


def coverage(spans: list) -> float:
    """Share of job-round wall time covered by layer spans below it."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    rounds = [(t1 - t0, child[i]) for i, (name, t0, t1, _) in enumerate(spans)
              if name == "loop.step"]
    total = sum(d for d, _ in rounds)
    return sum(c for _, c in rounds) / total if total else 0.0
