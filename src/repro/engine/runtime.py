"""The MapReduce runtime: persistent executors, retries, time accounting.

``MapReduceRuntime.run(job, splits)`` executes the full map -> shuffle ->
reduce pipeline and returns a :class:`JobResult` with outputs, merged
counters, and (when a :class:`~repro.cluster.SimCluster` is attached) the
simulated-time breakdown of the run.

Three executors share identical semantics:

* ``"serial"`` — in-process, single-threaded; the reference.
* ``"threads"`` — a thread pool; map tasks that release the GIL (NumPy
  kernels) genuinely overlap.
* ``"processes"`` — a process pool; requires picklable user functions.

Pool lifecycle
--------------
The runtime owns **one long-lived worker pool**: it is created lazily on
the first parallel batch and reused across phases, retry attempts, and
jobs — an iterative driver running hundreds of tiny jobs pays the pool
start-up cost once, not twice per global iteration.  Call :meth:`close`
(or use the runtime as a context manager) to release the workers; a
closed runtime transparently re-creates its pool on the next ``run``.
``reuse_pool=False`` restores the historical pool-per-batch behaviour
and exists for benchmarking the churn it used to cost.

Streaming shuffle
-----------------
Map results stream into an incremental
:class:`~repro.engine.shuffle.ShuffleBuffer` as each task completes, so
reducer tables are built concurrently with the map phase instead of
after a full-list barrier.  With ``JobConf.eager_reduce`` set, the whole
job additionally runs through an event-driven pipeline: failed attempts
are resubmitted immediately (no per-attempt barrier) and reduce tasks
launch the instant the buffer completes.

Failed task attempts (see :mod:`repro.engine.faults`) are retried up to
``JobConf.max_attempts`` times by deterministic replay; because tasks are
pure functions of their input split, a replay produces identical output,
and the cross-executor/fault-equivalence property tests assert exactly
that.
"""

from __future__ import annotations

import concurrent.futures
import math
import time
from typing import Any, Callable, Sequence

from repro.cluster import SimCluster, SpeculationConfig, late_threshold
from repro.engine.columnar import ColumnarBlock, MergeScratch
from repro.engine.counters import (
    Counters,
    LOST_MAP_OUTPUTS,
    NODE_DEATHS,
    SHUFFLE_BYTES,
    SPECULATIVE_BACKUPS,
    SPECULATIVE_WASTED_TASKS,
    SPECULATIVE_WINS,
    TASK_RETRIES,
)
from repro.engine.faults import FaultPlan, NodeFaultPlan, SimulatedTaskFailure
from repro.engine.job import Job
from repro.engine.shm import (
    SHM_MIN_BYTES,
    SegmentRegistry,
    ShmBlockRef,
    _unlink_quietly,
    export_groups,
    export_pickled,
)
from repro.engine.shuffle import ShuffleBuffer
from repro.engine.task import TaskResult, run_map_task, run_reduce_task

__all__ = ["JobResult", "MapReduceRuntime", "JobFailedError"]

_EXECUTORS = ("serial", "threads", "processes")

#: Replay attempts a single map task may take in one round (bounds the
#: abort sweep's attempt-name probe; one per fire event, and a round
#: has at most a handful of scripted deaths).
_REPLAY_ATTEMPT_CAP = 8


class JobFailedError(RuntimeError):
    """A task exhausted its attempts; the job cannot complete."""


class JobResult:
    """Everything a completed job hands back.

    Columnar jobs return their output as one typed block
    (:attr:`columnar_output`); the classic :attr:`output` pair list is
    materialised lazily on first access, so array-consuming callers
    (e.g. a columnar-capable iterative spec) never pay for it.
    """

    def __init__(self, output: "list | None" = None,
                 counters: "Counters | None" = None,
                 sim_times: "dict | None" = None, *,
                 columnar_output: "ColumnarBlock | None" = None,
                 output_nbytes: int = 0) -> None:
        self._output = output
        #: Typed output block (columnar jobs only; None otherwise).
        self.columnar_output = columnar_output
        self.counters = counters if counters is not None else Counters()
        #: Simulated seconds, split by phase (empty without a cluster).
        self.sim_times = sim_times if sim_times is not None else {}
        #: Output bytes, measured worker-side by the reduce tasks.
        self.output_nbytes = int(output_nbytes)

    @property
    def output(self) -> list:
        """Final output pairs, concatenated over reducers (key-sorted per
        reducer when the job requests sorting)."""
        if self._output is None:
            self._output = (self.columnar_output.to_pairs()
                            if self.columnar_output is not None else [])
        return self._output

    @property
    def sim_time_total(self) -> float:
        return float(sum(self.sim_times.values()))

    def as_dict(self) -> dict:
        """Output pairs as a dict (duplicate keys: last write wins)."""
        return dict(self.output)


class MapReduceRuntime:
    """Executes jobs with a chosen executor and optional cluster accounting.

    Parameters
    ----------
    executor:
        One of ``"serial"``, ``"threads"``, ``"processes"``.
    workers:
        Pool size for the parallel executors (default: CPU count).
    cluster:
        Optional :class:`SimCluster`; when present, every job charges
        job startup, map/reduce phase makespans (from measured op
        counts), shuffle bytes, the barrier, and the DFS round trip.
    fault_plan:
        Failure injection plan applied to every job this runtime runs.
    reuse_pool:
        Keep one persistent worker pool for the runtime's lifetime
        (default).  ``False`` re-creates the pool for every batch — the
        pre-streaming behaviour, kept for churn benchmarks.
    shm_transport:
        Ship fat job functions and large columnar payloads through
        named shared-memory segments instead of pickling them through
        the task and result pipes (see :mod:`repro.engine.shm`).
        Defaults to on for the
        ``"processes"`` executor and off otherwise (serial and thread
        workers share the driver's address space already).
    shm_min_bytes:
        Minimum payload bytes before a block rides shared memory;
        smaller blocks stay on the pickle path.
    speculate:
        LATE-style speculative re-execution (``True`` for defaults, or a
        :class:`~repro.cluster.SpeculationConfig`).  Once enough tasks
        of a phase have finished to estimate its completion percentile,
        any in-flight task running past ``slowdown_threshold`` x that
        estimate gets a *backup* attempt submitted to the pool; the
        first attempt to finish wins and the loser is cancelled (or its
        result — and any shared-memory segments it parked — discarded).
        Tasks are pure functions of their split, so both attempts
        produce identical output and first-result-wins is safe; the
        serial executor has no idle workers to race on and ignores the
        flag.
    node_faults:
        Correlated-failure injection
        (:class:`~repro.engine.NodeFaultPlan`).  Map tasks are placed on
        notional nodes round-robin (task ``i`` on node ``i %
        num_nodes``); a scripted node death fires once the round's
        completed-map count reaches the death's ``after_completions``
        and atomically (1) cancels every in-flight attempt placed on the
        dead domain — un-cancellable ones run to completion and their
        results are discarded, shm segments unlinked — and (2)
        *invalidates* the domain's completed map outputs in the shuffle
        buffer, re-running the lost tasks: lineage-based replay, not
        just retry.  Replay attempts take the namespace ``2 *
        max_attempts + k`` so fault scripting, speculation backups, and
        shm segment names never collide.  Needs a pool executor (the
        serial path has no in-flight set to kill).
    """

    def __init__(
        self,
        executor: str = "serial",
        *,
        workers: "int | None" = None,
        cluster: "SimCluster | None" = None,
        fault_plan: "FaultPlan | None" = None,
        reuse_pool: bool = True,
        shm_transport: "bool | None" = None,
        shm_min_bytes: int = SHM_MIN_BYTES,
        speculate: "SpeculationConfig | bool | None" = None,
        node_faults: "NodeFaultPlan | None" = None,
    ) -> None:
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if shm_min_bytes < 0:
            raise ValueError("shm_min_bytes must be >= 0")
        if (node_faults is not None and not node_faults.is_empty
                and executor == "serial"):
            raise ValueError(
                "node_faults needs a pool executor: the serial path has "
                "no in-flight attempts for a node death to kill")
        self.speculation: "SpeculationConfig | None" = None
        if speculate:
            self.speculation = (speculate
                                if isinstance(speculate, SpeculationConfig)
                                else SpeculationConfig())
        self.executor = executor
        self.workers = workers
        self.cluster = cluster
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.none()
        self.reuse_pool = bool(reuse_pool)
        self.shm_transport = (executor == "processes" if shm_transport is None
                              else bool(shm_transport))
        self.shm_min_bytes = int(shm_min_bytes)
        self.node_faults = (node_faults if node_faults is not None
                            else NodeFaultPlan.none())
        #: (round, node) deaths already fired: a checkpoint-rollback
        #: replay of a round must not re-kill the node (the machine died
        #: once; the replay runs on the survivors).
        self._fired_deaths: "set[tuple[int, int]]" = set()
        #: Driver-side ledger of live shared-memory segments (see
        #: :class:`~repro.engine.shm.SegmentRegistry`): reduce-input
        #: segments are registered here and unlinked in ``run``'s
        #: ``finally`` — and, as a backstop, on :meth:`close`/``__del__``.
        self.segments = SegmentRegistry()
        #: Reused concat buffers for the columnar shuffle seal (one
        #: sealing thread per runtime; run() is not reentrant).
        self._merge_scratch = MergeScratch()
        self._pool: "concurrent.futures.Executor | None" = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> "concurrent.futures.Executor | None":
        """The live persistent pool (None for serial / before first use)."""
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool and join its workers.

        Idempotent; a later :meth:`run` lazily re-creates the pool.
        Also unlinks any shared-memory segments still registered (none
        after a cleanly completed job).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.segments.release_all()

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _acquire_pool(self) -> "tuple[concurrent.futures.Executor, bool]":
        """Return ``(pool, transient)``; transient pools are shut down by
        the caller after one batch (the ``reuse_pool=False`` mode)."""
        pool_cls = (
            concurrent.futures.ThreadPoolExecutor
            if self.executor == "threads"
            else concurrent.futures.ProcessPoolExecutor
        )
        if not self.reuse_pool:
            return pool_cls(max_workers=self.workers), True
        if self._pool is None:
            self._pool = pool_cls(max_workers=self.workers)
        return self._pool, False

    def _discard_if_broken(self, pool: "concurrent.futures.Executor",
                           transient: bool, exc: BaseException) -> None:
        """Drop a persistent pool killed by a worker crash.

        A dead worker (segfault, OOM-kill, ``os._exit`` in user code)
        leaves the executor permanently broken; without this, every
        later ``run()`` would keep failing with ``BrokenExecutor`` —
        the pool-per-batch behaviour recovered for free, so the
        persistent runtime must too.
        """
        if (isinstance(exc, concurrent.futures.BrokenExecutor)
                and not transient and pool is self._pool):
            pool.shutdown(wait=False)
            self._pool = None

    def _abort_batch(self, futures: "dict[concurrent.futures.Future, int]",
                     pool: "concurrent.futures.Executor", transient: bool,
                     exc: BaseException) -> None:
        """Common error-path cleanup: cancel what hasn't started, wait
        out what has, drop a pool the error has broken (the caller
        re-raises)."""
        for fut in futures:
            fut.cancel()
        # A running attempt (e.g. a stalled primary whose backup is
        # racing) cannot be cancelled and keeps parking segments; the
        # abort sweep must not run until no task of this job can still
        # write.  Cancelled futures complete immediately.
        if futures:
            concurrent.futures.wait(list(futures))
        self._discard_if_broken(pool, transient, exc)

    # ------------------------------------------------------------------
    def run(self, job: Job, splits: "Sequence[Sequence[tuple[Any, Any]]]", *,
            accountant=None, round_index: int = 0) -> JobResult:
        """Run ``job`` over ``splits`` (one map task per split).

        ``accountant`` optionally routes this job's simulated charges
        through a caller-owned
        :class:`~repro.cluster.accountant.RoundAccountant` (over this
        runtime's cluster) instead of a fresh anonymous one — how a
        multi-job session attributes engine-path charges, applies the
        scheduler's slot share, and prefixes trace labels per job.

        ``round_index`` names the global iteration this job implements,
        which is what the :class:`NodeFaultPlan` keys its scripted
        deaths on (a standalone job is round 0).
        """
        conf = job.conf
        if conf.lint != "off":
            # Deferred import: the analysis package inspects engine/core
            # types, so importing it at module scope would be circular.
            from repro.analysis import enforce, lint_job

            enforce(lint_job(job), conf.lint)
        splits = [list(s) for s in splits]
        counters = Counters()
        # Scripted node deaths for this round: known up front, so only
        # rounds that actually lose a node pay the defer-merge mode
        # (invalidation needs contributions to stay retractable).
        deaths = self.node_faults.deaths_in_round(round_index)
        deaths = {n: d for n, d in deaths.items()
                  if (round_index, n) not in self._fired_deaths}
        buffer = ShuffleBuffer(len(splits), conf.num_reducers,
                               sort_keys=conf.sort_keys,
                               merge_scratch=self._merge_scratch,
                               defer_merge=bool(deaths))
        # Shared-memory transport: fat job functions and, on the
        # columnar path, large array payloads ride named segments; only
        # refs (names + metadata) cross the task and result pipes.
        shm = self.shm_transport
        shm_threshold = (self.shm_min_bytes if shm and conf.columnar
                         else None)
        shm_prefix = self.segments.new_prefix() if shm else None
        # Park fat job functions once per run instead of pickling them
        # into every task submission; workers key their copy by the
        # pickle's digest, so a function whose bytes did not change
        # since an earlier run (the next round's spec) is not reloaded.
        map_fn, reduce_fn = job.map_fn, job.reduce_fn
        if shm:
            map_fn = export_pickled(job.map_fn, f"{shm_prefix}f",
                                    self.shm_min_bytes)
            if map_fn is not job.map_fn:
                self.segments.adopt(f"{shm_prefix}f")
            reduce_fn = export_pickled(job.reduce_fn, f"{shm_prefix}rf",
                                       self.shm_min_bytes)
            if reduce_fn is not job.reduce_fn:
                self.segments.adopt(f"{shm_prefix}rf")
        # Event-driven pipeline only helps when there is a pool to keep
        # busy; the serial executor runs the classic batch loop either
        # way.  Speculation needs the event loop too (backups launch
        # from progress checks between completions), so it forces the
        # streaming path on pool executors even without eager_reduce —
        # and so does a round with scripted node deaths (the kill /
        # invalidate / replay machinery lives in the event loop).
        run_phase = (
            self._run_tasks_streaming
            if (conf.eager_reduce or self.speculation is not None or deaths)
            and self.executor != "serial"
            else self._run_tasks
        )
        death_stats = {"node_deaths": 0, "lost_map_outputs": 0,
                       "killed_in_flight": 0, "lost_ops": 0}

        def consume_map(i: int, res: TaskResult) -> None:
            if shm_threshold is not None:
                # take() copies the bucket out of its segment and
                # unlinks it — each map output is consumed exactly once.
                res.data = [b.take() if isinstance(b, ShmBlockRef) else b
                            for b in res.data]
            buffer.add(i, res.data)

        try:
            map_results = run_phase(
                phase="map",
                count=len(splits),
                make_args=lambda i, attempt: (
                    i, attempt, splits[i], map_fn, job.combine_fn,
                    job.partitioner, conf.num_reducers, self.fault_plan,
                    conf.columnar, conf.combine_crossover, shm_threshold,
                    shm_prefix,
                ),
                runner=run_map_task,
                max_attempts=conf.max_attempts,
                counters=counters,
                consume=consume_map,
                deaths=deaths or None,
                round_index=round_index,
                buffer=buffer,
                death_stats=death_stats,
            )
            for res in map_results:
                counters.merge(res.counters)

            sbytes = sum(res.nbytes for res in map_results)
            counters.incr(SHUFFLE_BYTES, sbytes)
            # Columnar shuffles hand reducers grouped arrays (declarative
            # reduces run vectorised; callable reduces materialise the exact
            # object groups worker-side).  Object shuffles group as before.
            grouped = (buffer.columnar_groups() if buffer.columnar
                       else buffer.groups())
            if shm and buffer.columnar:
                # Reduce inputs must survive task retries, so their
                # segments are driver-owned: registered here, unlinked
                # in the finally below once the phase is over.
                exported = []
                for r, g in enumerate(grouped):
                    ref = export_groups(g, f"{shm_prefix}g{r}",
                                        self.shm_min_bytes)
                    if ref is not g:
                        self.segments.adopt(ref.name)
                    exported.append(ref)
                grouped = exported

            reduce_results = run_phase(
                phase="reduce",
                count=conf.num_reducers,
                make_args=lambda i, attempt: (
                    i, attempt, grouped[i], reduce_fn, self.fault_plan,
                    self.cluster is not None,  # output bytes feed the charges
                    shm_threshold, shm_prefix,
                ),
                runner=run_reduce_task,
                max_attempts=conf.max_attempts,
                counters=counters,
            )
            output: "list | None" = None
            columnar_output: "ColumnarBlock | None" = None
            out_nbytes = 0
            out_blocks: "list[ColumnarBlock]" = []
            for res in reduce_results:
                counters.merge(res.counters)
                out_nbytes += res.nbytes
                if isinstance(res.data, ShmBlockRef):
                    res.data = res.data.take()
                if isinstance(res.data, ColumnarBlock):
                    out_blocks.append(res.data)
            if len(out_blocks) == len(reduce_results) and reduce_results:
                columnar_output = ColumnarBlock.concat(out_blocks)
            else:
                output = []
                for res in reduce_results:
                    output.extend(res.data)
        except BaseException:
            if shm:
                # Abort path: completed-but-unconsumed sibling tasks may
                # have parked segments whose refs never reached us; the
                # deterministic name sweep reclaims every segment this
                # job could possibly have created.
                # Backup attempts park under attempt numbers offset by
                # max_attempts, node-death replays under 2*max_attempts;
                # widen the probe to whatever namespaces were live.
                extra = conf.max_attempts if self.speculation is not None else 0
                if deaths:
                    extra = conf.max_attempts + _REPLAY_ATTEMPT_CAP
                self.segments.sweep(
                    shm_prefix, num_maps=len(splits),
                    num_reducers=conf.num_reducers,
                    max_attempts=conf.max_attempts,
                    backup_attempts=extra)
            raise
        finally:
            if shm:
                self.segments.release_all()

        sim_times = self._account(job, map_results, reduce_results, sbytes,
                                  out_nbytes, accountant=accountant,
                                  death_stats=death_stats)
        return JobResult(output=output, counters=counters,
                         sim_times=sim_times, columnar_output=columnar_output,
                         output_nbytes=out_nbytes)

    # ------------------------------------------------------------------
    def _run_tasks(self, *, phase: str, count: int, make_args, runner,
                   max_attempts: int, counters: Counters,
                   consume: "Callable[[int, TaskResult], None] | None" = None,
                   deaths=None, round_index: int = 0, buffer=None,
                   death_stats=None) -> "list[TaskResult]":
        """Run ``count`` tasks with round-based retries; preserves order.

        ``consume`` is invoked with each successful result *as it
        completes* (not after the batch), so shuffle grouping overlaps
        the map phase even on this barrier path.  Node deaths always
        route through the streaming path, so the death kwargs are
        accepted (uniform call sites) but must be empty here.
        """
        assert not deaths, "node deaths require the streaming path"
        results: "list[TaskResult | None]" = [None] * count
        pending = list(range(count))
        attempt = 0
        while pending:
            if attempt >= max_attempts:
                raise JobFailedError(
                    f"{phase} tasks {pending} failed {max_attempts} attempts"
                )
            failed: list[int] = []
            outcomes = self._execute_batch(
                [(i, make_args(i, attempt)) for i in pending], runner,
                consume=consume,
            )
            for i, outcome in outcomes:
                if isinstance(outcome, SimulatedTaskFailure):
                    failed.append(i)
                    counters.incr(TASK_RETRIES)
                elif isinstance(outcome, BaseException):
                    raise outcome
                else:
                    results[i] = outcome
            pending = failed
            attempt += 1
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    @staticmethod
    def _discard_result(res: TaskResult) -> None:
        """Throw away a losing attempt's output, unlinking any segments
        it parked (nobody will ever take them)."""
        data = res.data
        refs = data if isinstance(data, (list, tuple)) else [data]
        for ref in refs:
            if isinstance(ref, ShmBlockRef):
                _unlink_quietly(ref.name)

    def _run_tasks_streaming(self, *, phase: str, count: int, make_args,
                             runner, max_attempts: int, counters: Counters,
                             consume: "Callable[[int, TaskResult], None] | None" = None,
                             deaths=None, round_index: int = 0, buffer=None,
                             death_stats=None) -> "list[TaskResult]":
        """Event-driven task execution: no per-attempt barrier.

        All tasks are submitted to the persistent pool at once; a failed
        attempt is resubmitted the moment it is observed, while its
        siblings keep running.  Successful results are handed to
        ``consume`` in completion order (the shuffle buffer restores map
        order internally).

        With speculation enabled, the wait loop doubles as the LATE
        progress monitor: completed attempts feed a per-phase duration
        estimate, and an in-flight task whose elapsed time exceeds
        ``slowdown_threshold`` x the ``percentile`` estimate gets one
        backup attempt (attempt number offset by ``max_attempts`` so its
        retry namespace — fault-plan decisions, shm segment names — is
        disjoint from the primary's).  The first attempt to succeed
        wins; the twin is cancelled if still queued, or its completed
        result discarded and its segments unlinked.  Task runners are
        pure functions of their split, so the winner's bytes are the
        same either way.

        With a ``deaths`` map (node -> :class:`NodeDeath`, map phase
        only) the loop additionally plays the correlated-failure
        scenario: task ``i`` lives on notional node ``i % num_nodes``;
        once the completed count reaches a death's ``after_completions``
        the node's whole domain dies at once — in-flight attempts are
        cancelled (un-cancellable ones become *doomed*: they finish and
        are discarded), completed outputs are invalidated in the
        defer-merge shuffle ``buffer``, and every affected task is
        resubmitted as a replay attempt in the ``2 * max_attempts + k``
        namespace, notionally placed on a surviving node (replays are
        never re-killed).
        """
        results: "list[TaskResult | None]" = [None] * count
        if count == 0:
            return []
        spec = self.speculation
        attempts = [0] * count
        exhausted = [False] * count  # primary retries used up, twin in flight
        has_backup = [False] * count
        task_futs: "list[set[concurrent.futures.Future]]" = [
            set() for _ in range(count)]
        is_backup: "dict[concurrent.futures.Future, bool]" = {}
        submit_time: "dict[concurrent.futures.Future, float]" = {}
        durations: "list[float]" = []
        pool, transient = self._acquire_pool()
        futures: "dict[concurrent.futures.Future, int]" = {}
        # Correlated-failure state: deaths pending this round, attempts
        # condemned by a fired death (completing only to be discarded),
        # per-task replay sequence numbers, and the completion tally the
        # triggers watch.
        pending_deaths = dict(deaths) if deaths else {}
        num_nodes = self.node_faults.num_nodes
        doomed: "set[concurrent.futures.Future]" = set()
        replay_seq = [0] * count
        completed = 0

        def submit(i: int, attempt: int, *, backup: bool = False) -> None:
            fut = pool.submit(runner, *make_args(i, attempt))
            futures[fut] = i
            task_futs[i].add(fut)
            is_backup[fut] = backup
            submit_time[fut] = time.monotonic()

        def forget(fut: "concurrent.futures.Future", i: int) -> None:
            task_futs[i].discard(fut)
            is_backup.pop(fut, None)
            submit_time.pop(fut, None)

        def fire_deaths() -> None:
            """Kill every node whose completion trigger has been met."""
            due = [d for d in pending_deaths.values()
                   if completed >= d.after_completions]
            if not due:
                return
            dead_nodes = set()
            for d in due:
                pending_deaths.pop(d.node, None)
                self._fired_deaths.add((round_index, d.node))
                dead_nodes.add(d.node)
                counters.incr(NODE_DEATHS)
                death_stats["node_deaths"] += 1
            for i in range(count):
                if i % num_nodes not in dead_nodes:
                    continue
                if results[i] is not None:
                    # Lineage loss: the node's completed map outputs
                    # (shuffle partitions) died with it.  Retract the
                    # contribution and re-run the task.
                    buffer.invalidate(i)
                    death_stats["lost_ops"] += results[i].ops
                    death_stats["lost_map_outputs"] += 1
                    counters.incr(LOST_MAP_OUTPUTS)
                    results[i] = None
                for fut in list(task_futs[i]):
                    # In-flight attempts on the domain die with it.
                    if fut.cancel():
                        futures.pop(fut, None)
                        forget(fut, i)
                    else:
                        doomed.add(fut)
                    death_stats["killed_in_flight"] += 1
                has_backup[i] = False
                replay = 2 * max_attempts + replay_seq[i]
                replay_seq[i] += 1
                if replay_seq[i] > _REPLAY_ATTEMPT_CAP:
                    raise JobFailedError(
                        f"{phase} task {i} replayed {replay_seq[i]} times")
                submit(i, replay)

        try:
            for i in range(count):
                submit(i, 0)
            if pending_deaths:
                fire_deaths()  # after_completions=0: die at phase start
            while futures:
                # Completion-count death triggers only advance when a
                # completion arrives, and completions wake the wait —
                # so no extra polling beyond the LATE monitor's.
                done, _ = concurrent.futures.wait(
                    futures,
                    timeout=spec.check_interval if spec is not None else None,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                for fut in done:
                    i = futures.pop(fut)
                    backup = is_backup.get(fut, False)
                    started = submit_time.get(fut, 0.0)
                    forget(fut, i)
                    if fut in doomed:
                        # Condemned by a node death that could not
                        # cancel it: whatever it produced is orphaned.
                        doomed.discard(fut)
                        try:
                            res = fut.result()
                        except (concurrent.futures.CancelledError,
                                SimulatedTaskFailure):
                            pass
                        else:
                            self._discard_result(res)
                        continue
                    try:
                        res = fut.result()
                    except concurrent.futures.CancelledError:
                        continue  # the loser never started; nothing to undo
                    except SimulatedTaskFailure:
                        if results[i] is not None:
                            continue  # the twin already won
                        if backup:
                            # A failed backup just leaves the primary
                            # racing alone; a fresh backup may relaunch.
                            has_backup[i] = False
                            if exhausted[i] and not task_futs[i]:
                                raise JobFailedError(
                                    f"{phase} task {i} failed "
                                    f"{max_attempts} attempts")
                            continue
                        counters.incr(TASK_RETRIES)
                        attempts[i] += 1
                        if attempts[i] >= max_attempts:
                            if task_futs[i]:
                                exhausted[i] = True  # backup may still win
                                continue
                            raise JobFailedError(
                                f"{phase} task {i} failed {max_attempts} attempts"
                            )
                        submit(i, attempts[i])
                    else:
                        if results[i] is not None:
                            # Completed loser: identical bytes, but its
                            # segments are orphans — reclaim them.
                            self._discard_result(res)
                            counters.incr(SPECULATIVE_WASTED_TASKS)
                            continue
                        results[i] = res
                        completed += 1
                        durations.append(time.monotonic() - started)
                        if backup:
                            counters.incr(SPECULATIVE_WINS)
                        if consume is not None:
                            consume(i, res)
                        for twin in list(task_futs[i]):
                            if twin.cancel():
                                futures.pop(twin, None)
                                forget(twin, i)
                            # else: it runs to completion and its result
                            # is discarded above.
                if pending_deaths:
                    fire_deaths()
                if spec is not None and futures:
                    self._launch_late_backups(
                        spec, futures, results, attempts, has_backup,
                        is_backup, submit_time, durations, count,
                        max_attempts, counters, submit)
        except BaseException as exc:
            self._abort_batch(futures, pool, transient, exc)
            raise
        finally:
            if transient:
                pool.shutdown(wait=True)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    @staticmethod
    def _launch_late_backups(spec, futures, results, attempts, has_backup,
                             is_backup, submit_time, durations, count,
                             max_attempts, counters, submit) -> None:
        """The LATE check: back up in-flight tasks running past the
        percentile estimate of completed-attempt durations."""
        min_done = max(1, math.ceil(spec.min_completed_fraction * count))
        if len(durations) < min_done:
            return
        cut = late_threshold(durations,
                             slowdown_threshold=spec.slowdown_threshold,
                             percentile=spec.percentile)
        now = time.monotonic()
        for fut, i in list(futures.items()):
            if is_backup.get(fut) or has_backup[i] or results[i] is not None:
                continue
            if now - submit_time.get(fut, now) > cut:
                has_backup[i] = True
                counters.incr(SPECULATIVE_BACKUPS)
                # Disjoint attempt namespace: fault plans script attempts
                # below max_attempts, and shm names embed the attempt, so
                # a backup never collides with primary retries.
                submit(i, max_attempts + attempts[i], backup=True)

    def _execute_batch(self, indexed_args: "list[tuple[int, tuple]]", runner,
                       consume: "Callable[[int, TaskResult], None] | None" = None):
        """Execute one batch of task attempts under the configured executor."""
        if self.executor == "serial":
            out = []
            for i, args in indexed_args:
                try:
                    res = runner(*args)
                except SimulatedTaskFailure as exc:
                    out.append((i, exc))
                else:
                    if consume is not None:
                        consume(i, res)
                    out.append((i, res))
            return out
        pool, transient = self._acquire_pool()
        out = []
        futures: "dict[concurrent.futures.Future, int]" = {}
        try:
            futures = {pool.submit(runner, *args): i for i, args in indexed_args}
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                try:
                    res = fut.result()
                except SimulatedTaskFailure as exc:
                    out.append((i, exc))
                else:
                    if consume is not None:
                        consume(i, res)
                    out.append((i, res))
        except BaseException as exc:
            self._abort_batch(futures, pool, transient, exc)
            raise
        finally:
            if transient:
                pool.shutdown(wait=True)
        return out

    # ------------------------------------------------------------------
    def _account(self, job: Job, map_results: "list[TaskResult]",
                 reduce_results: "list[TaskResult]", sbytes: int,
                 out_nbytes: int, *, accountant=None,
                 death_stats: "dict | None" = None) -> dict:
        """Charge the simulated cluster for this job; returns the breakdown.

        All charges flow through the shared
        :class:`~repro.cluster.accountant.RoundAccountant` — the same
        audited path the iterative drivers use — either the caller's
        (per-job attribution) or a fresh anonymous one.
        """
        if self.cluster is None:
            # No simulated time to charge, but correlated-failure stats
            # still surface on the caller's ledger (a clusterless engine
            # run should still report its deaths and lost outputs).
            if accountant is not None and death_stats \
                    and death_stats["node_deaths"]:
                accountant.charge_recovery(
                    0.0, node_deaths=death_stats["node_deaths"],
                    lost_map_outputs=death_stats["lost_map_outputs"])
            return {}
        from repro.cluster.accountant import RoundAccountant

        acct = (accountant if accountant is not None
                else RoundAccountant(self.cluster))
        cm = self.cluster.cost_model
        times: dict[str, float] = {}
        times["startup"] = acct.charge_job_startup(
            label=f"{job.conf.name}:startup")
        times["map"] = acct.run_map_phase(
            [cm.map_compute_seconds(r.ops) for r in map_results],
            label=f"{job.conf.name}:map")
        if job.conf.eager_reduce:
            # Streaming copy: the transfer rode along with the map phase;
            # only the residual past the map makespan extends the clock.
            times["shuffle"] = acct.charge_overlapped_shuffle(
                sbytes, overlap_seconds=times["map"],
                label=f"{job.conf.name}:shuffle")
        else:
            times["shuffle"] = acct.charge_shuffle(
                sbytes, label=f"{job.conf.name}:shuffle")
        times["reduce"] = acct.run_reduce_phase(
            [cm.reduce_compute_seconds(r.ops) for r in reduce_results],
            label=f"{job.conf.name}:reduce")
        times["barrier"] = acct.charge_barrier(
            label=f"{job.conf.name}:barrier")
        if death_stats and death_stats["node_deaths"]:
            # The recovery timeline the real executor cannot measure in
            # wall-clock terms: heartbeat silence until the death is
            # *detected*, plus re-executing the work the domain took
            # with it (the map-phase charge above only prices the
            # surviving attempts' final ops).
            times["recovery"] = acct.charge_recovery(
                self.node_faults.heartbeat_seconds
                + cm.map_compute_seconds(death_stats["lost_ops"]),
                node_deaths=death_stats["node_deaths"],
                lost_map_outputs=death_stats["lost_map_outputs"],
                label=f"{job.conf.name}:recovery")
        if acct.config is None:
            # Standalone job: its output round-trips the DFS, charged
            # from the bytes the reduce tasks measured worker-side
            # (shuffle_bytes stays available as the direct-caller
            # oracle).  Iterative drivers pass a DriverConfig-carrying
            # accountant and charge the inter-round state themselves,
            # through the config's partitioned StateStore (see
            # EngineBackend.run_round).
            times["dfs"] = acct.charge_dfs_roundtrip(
                out_nbytes, label=f"{job.conf.name}:dfs")
        return times
