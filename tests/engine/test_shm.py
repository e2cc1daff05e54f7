"""Shared-memory transport: parity, ownership, and leak-freedom.

The shm transport is an *optimisation of the wire*, not of the shuffle:
every job routed through named segments must produce output bitwise
identical to the same job through the pickle pipe, and every segment a
job creates must be gone — clean finish, task retries, or abort — by
the time ``run`` returns (plus ``close()``/``__del__`` as backstops).
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap
from multiprocessing import resource_tracker

import numpy as np
import pytest

import repro

from repro.engine import (
    FaultPlan,
    Job,
    JobConf,
    JobFailedError,
    MapReduceRuntime,
    NodeFaultPlan,
    ShmPickleRef,
)
from repro.cluster import SpeculationConfig
from repro.engine.counters import (
    LOST_MAP_OUTPUTS,
    NODE_DEATHS,
    SPECULATIVE_BACKUPS,
)
from repro.apps.pagerank import PageRankKVSpec
from repro.core import DriverConfig, EngineBackend, IterationLoop
from repro.engine import shm as shm_mod
from repro.engine.shm import _read_segment, _unlink_quietly, export_pickled
from repro.graph import make_paper_graph, multilevel_partition

VOCAB = [f"word{i:03d}" for i in range(40)]


def _emit_block_map(key, value, ctx):
    keys, values = value
    ctx.emit_block(keys, values)


def _emit_words_map(key, value, ctx):
    words, counts = value
    ctx.emit_block(words, counts)


def _splits(num_splits=4, n=3000, seed=11):
    rng = np.random.default_rng(seed)
    return [
        [(m, (rng.integers(0, 500, n), rng.random(n)))]
        for m in range(num_splits)
    ]


def _word_splits(num_splits=3, n=2500, seed=5):
    rng = np.random.default_rng(seed)
    return [
        [(m, (np.array([VOCAB[i] for i in rng.integers(0, len(VOCAB), n)],
                       dtype=object),
              np.ones(n, dtype=np.float64)))]
        for m in range(num_splits)
    ]


def _live_segments() -> "set[str]":
    """Names of this machine's live repro shm segments (POSIX /dev/shm)."""
    return {p.rsplit("/", 1)[1] for p in glob.glob("/dev/shm/*reproshm-*")}


class TestCrossExecutorParity:
    """serial == threads == processes, segments or pipes, bit for bit."""

    @pytest.mark.parametrize("combine", [None, "sum"])
    def test_output_bitwise_identical(self, combine):
        splits = _splits()
        outputs = {}
        for executor in ("serial", "threads", "processes"):
            with MapReduceRuntime(executor, workers=2,
                                  shm_min_bytes=1024) as rt:
                res = rt.run(
                    Job(_emit_block_map, "sum", combine_fn=combine,
                        conf=JobConf(num_reducers=3)), splits)
                assert rt.segments.live_count == 0
            outputs[executor] = res.output
        assert outputs["serial"] == outputs["threads"]
        assert outputs["serial"] == outputs["processes"]

    def test_dictionary_blocks_ride_segments(self):
        """String-key (dictionary-encoded) jobs through the process pool."""
        splits = _word_splits()
        outs = {}
        for executor in ("serial", "processes"):
            with MapReduceRuntime(executor, workers=2,
                                  shm_min_bytes=1024) as rt:
                outs[executor] = rt.run(
                    Job(_emit_words_map, "sum", combine_fn="sum",
                        conf=JobConf(num_reducers=2)), splits).output
        assert outs["serial"] == outs["processes"]
        counts = dict(outs["processes"])
        assert set(counts) <= set(VOCAB)
        assert sum(counts.values()) == 3 * 2500

    def test_retried_tasks_replay_identically(self):
        """Out-of-order + retried arrivals leave the output unchanged."""
        splits = _splits()
        plan = FaultPlan.script({("map", 1): 1, ("map", 3): 2,
                                 ("reduce", 0): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            faulty = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                                conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        with MapReduceRuntime("serial") as rt:
            clean = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                               conf=JobConf(num_reducers=3)), splits)
        assert faulty.output == clean.output


class TestSegmentLifecycle:
    def test_zero_segments_after_clean_job(self):
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                       conf=JobConf(num_reducers=3)), _splits())
            assert rt.segments.live_count == 0
        assert _live_segments() <= before

    def test_zero_segments_after_midjob_failure(self):
        """Task retries park fresh segments; none of them may leak."""
        before = _live_segments()
        plan = FaultPlan.script({("map", 0): 1, ("reduce", 1): 1})
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                       conf=JobConf(num_reducers=3)), _splits())
            assert rt.segments.live_count == 0
        assert _live_segments() <= before

    def test_abort_sweep_reclaims_everything(self):
        """A job that dies mid-flight sweeps its whole namespace."""
        before = _live_segments()
        plan = FaultPlan.script({("map", 2): 99})  # exceeds max_attempts
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            with pytest.raises(JobFailedError):
                rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3, max_attempts=2)),
                       _splits())
            assert rt.segments.live_count == 0
        assert _live_segments() <= before


class TestSpeculativeCancellation:
    """Racing twins park segments under disjoint attempt names; whoever
    loses — cancelled in the queue, or completed and discarded — must
    leave /dev/shm exactly as a speculation-free run would."""

    #: Aggressive LATE knobs so a stalled task is backed up within a few
    #: check intervals of the fast siblings finishing.
    SPEC = SpeculationConfig(slowdown_threshold=1.05, percentile=0.5,
                             min_completed_fraction=0.25,
                             check_interval=0.01)

    def test_losing_twin_segments_swept(self):
        """One map task stalls; its unstalled backup wins, and the
        stalled primary completes later into the discard path."""
        splits = _splits()
        before = _live_segments()
        plan = FaultPlan(stalls={("map", 1): 0.6})
        with MapReduceRuntime("processes", workers=3, fault_plan=plan,
                              shm_min_bytes=1024,
                              speculate=self.SPEC) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert res.counters.get(SPECULATIVE_BACKUPS) >= 1
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        with MapReduceRuntime("serial") as rt:
            oracle = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                                conf=JobConf(num_reducers=3)), splits)
        assert res.output == oracle.output

    def test_job_abort_with_backups_in_flight(self):
        """A task exhausts its attempts while a stalled sibling (and
        possibly its backup twin) is still racing: the abort sweep must
        reclaim primary *and* backup attempt namespaces."""
        splits = _splits()
        before = _live_segments()
        plan = FaultPlan(scripted={("map", 2): 99},
                         stalls={("map", 1): 0.8})
        with MapReduceRuntime("processes", workers=3, fault_plan=plan,
                              shm_min_bytes=1024,
                              speculate=self.SPEC) as rt:
            with pytest.raises(JobFailedError):
                rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                           conf=JobConf(num_reducers=3, max_attempts=2)),
                       splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before


class TestNodeDeathSweep:
    """A node death atomically kills every attempt of its failure
    domain — primaries, LATE backups, and completed outputs alike — and
    the lineage replay must leave /dev/shm exactly as a failure-free
    run would, with the output bit for bit identical."""

    SPEC = SpeculationConfig(slowdown_threshold=1.05, percentile=0.5,
                             min_completed_fraction=0.25,
                             check_interval=0.01)

    def _oracle(self, splits, num_reducers=3):
        with MapReduceRuntime("serial") as rt:
            return rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                              conf=JobConf(num_reducers=num_reducers)),
                          splits)

    def test_node_kill_with_backups_in_flight(self):
        """Task 1 stalls long enough for a speculative twin to launch;
        its node then dies with both attempts in flight.  All domain
        attempts must be cancelled or discarded, the replay attempt must
        win, and no segment may survive."""
        splits = _splits()
        before = _live_segments()
        stall = FaultPlan(stalls={("map", 1): 0.5})
        plan = NodeFaultPlan.kill_node(1, after_completions=1, num_nodes=4)
        with MapReduceRuntime("processes", workers=3, fault_plan=stall,
                              node_faults=plan, shm_min_bytes=1024,
                              speculate=self.SPEC) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(NODE_DEATHS) == 1
        assert res.output == self._oracle(splits).output

    def test_completed_outputs_invalidated_and_replayed(self):
        """The dead node already finished map work: those outputs are
        invalidated (lineage loss) and recomputed, bitwise identically."""
        splits = _splits(num_splits=8)
        before = _live_segments()
        plan = NodeFaultPlan.kill_node(0, after_completions=6, num_nodes=4)
        with MapReduceRuntime("processes", workers=3, node_faults=plan,
                              shm_min_bytes=1024) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(NODE_DEATHS) == 1
        assert res.counters.get(LOST_MAP_OUTPUTS) >= 1
        assert res.output == self._oracle(splits).output

    def test_rack_kill_under_speculation(self):
        """A whole rack dies: every node's domain is swept in one fire,
        and the job still completes identically, leak-free."""
        splits = _splits(num_splits=8)
        before = _live_segments()
        plan = NodeFaultPlan.kill_rack(0, after_completions=2,
                                       num_nodes=4, nodes_per_rack=2)
        with MapReduceRuntime("processes", workers=3, node_faults=plan,
                              shm_min_bytes=1024, speculate=self.SPEC) as rt:
            res = rt.run(Job(_emit_block_map, "sum", combine_fn="sum",
                             conf=JobConf(num_reducers=3)), splits)
            assert rt.segments.live_count == 0
        assert _live_segments() <= before
        assert res.counters.get(NODE_DEATHS) == 2
        assert res.output == self._oracle(splits).output


class TestPickleRef:
    def test_small_objects_pass_through(self):
        assert export_pickled("sum", "reproshm-test-tiny") == "sum"
        assert not glob.glob("/dev/shm/*reproshm-test-tiny*")

    def test_fat_payload_parks_and_caches(self):
        payload = {"arr": np.arange(50_000)}
        ref = export_pickled(payload, "reproshm-test-fat", min_bytes=1024)
        try:
            assert isinstance(ref, ShmPickleRef)
            first = ref.load()
            assert np.array_equal(first["arr"], payload["arr"])
            # Same name -> the cached object, no second attach/unpickle.
            assert ref.load() is first
        finally:
            assert _unlink_quietly("reproshm-test-fat")


class TestContentKeyedCache:
    """Workers cache a parked function by its pickle's digest."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "_PICKLE_CACHE", {})

    @staticmethod
    def _park(obj, name):
        ref = export_pickled(obj, name, min_bytes=1024)
        assert isinstance(ref, ShmPickleRef)
        return ref

    def test_equal_content_gives_equal_key(self):
        a = self._park({"arr": np.arange(20_000)}, "reproshm-test-ka")
        try:
            b = self._park({"arr": np.arange(20_000)}, "reproshm-test-kb")
            _unlink_quietly(b.name)
        finally:
            _unlink_quietly(a.name)
        assert a.name != b.name
        assert a.digest == b.digest

    def test_different_content_gives_different_key(self):
        a = self._park(np.arange(20_000), "reproshm-test-da")
        try:
            b = self._park(np.arange(1, 20_001), "reproshm-test-db")
            _unlink_quietly(b.name)
        finally:
            _unlink_quietly(a.name)
        assert a.digest != b.digest

    def test_equal_content_loads_once(self, monkeypatch):
        first_ref = self._park(np.arange(20_000), "reproshm-test-l1")
        try:
            first = first_ref.load()
        finally:
            _unlink_quietly(first_ref.name)
        second_ref = self._park(np.arange(20_000), "reproshm-test-l2")
        _unlink_quietly(second_ref.name)

        def no_attach(name):
            raise AssertionError(f"attached {name} on a cache hit")

        monkeypatch.setattr(shm_mod, "_UntrackedSegment", no_attach)
        # Both segments are gone: only the content key can serve these.
        assert second_ref.load() is first
        assert first_ref.load() is first

    def test_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "_PICKLE_CACHE_CAP", 3)
        refs = {}
        for tag in "abcd":
            obj = {"tag": tag, "pad": np.arange(20_000)}
            refs[tag] = self._park(obj, f"reproshm-test-lru{tag}")
        try:
            for tag in "abc":
                refs[tag].load()
            refs["a"].load()  # hit: "a" becomes the most recently used
            refs["d"].load()  # full: evicts "b", the least recently used
        finally:
            for ref in refs.values():
                _unlink_quietly(ref.name)
        assert list(shm_mod._PICKLE_CACHE) == [
            refs[t].digest for t in "cad"]

    def test_thread_workers_share_the_cache(self, monkeypatch):
        """Hits, misses and evictions racing on one dict stay correct."""
        monkeypatch.setattr(shm_mod, "_PICKLE_CACHE_CAP", 2)
        splits = [[(i, 0)] for i in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MapReduceRuntime("threads", workers=4, shm_transport=True,
                                  shm_min_bytes=1024) as rt:
                for scale in range(1, 7):
                    fat = _FatWeights()
                    fat.weights *= scale
                    out = rt.run(Job(fat, "sum", conf=JobConf(num_reducers=3)),
                                 splits).output
                    assert dict(out) == {
                        r: float(sum(range(r, 32, 3)) * scale)
                        for r in range(3)}
                assert rt.segments.live_count == 0
        finally:
            sys.setswitchinterval(interval)
        assert len(shm_mod._PICKLE_CACHE) <= 2


class _FatWeights:
    """A map function closing over a fat array."""

    def __init__(self):
        self.weights = np.arange(40_000, dtype=np.float64)

    def __call__(self, key, value, ctx):
        ctx.emit(key % 3, float(self.weights[key]))


class _LoadLoggingPageRank(PageRankKVSpec):
    """kv PageRank appending the loading process's pid to ``log``."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = str(log)

    def __setstate__(self, state):
        self.__dict__.update(state)
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()}\n")


class TestParkedFunctionsOnProcesses:
    @pytest.mark.parametrize("columnar", [True, False])
    def test_driver_mutation_between_runs_is_not_stale(self, columnar):
        fat = _FatWeights()
        splits = [[(i, 0)] for i in range(16)]
        conf = JobConf(num_reducers=3, columnar=columnar)
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            first = rt.run(Job(fat, "sum", conf=conf), splits).output
            fat.weights[:16] *= 10  # in place: same object, new bytes
            second = rt.run(Job(fat, "sum", conf=conf), splits).output
        want = MapReduceRuntime("serial").run(
            Job(fat, "sum", conf=conf), splits).output
        assert second == want
        assert second != first

    def test_object_path_parks_fat_functions(self, monkeypatch):
        import repro.engine.runtime as runtime_mod

        parked = []

        def spy(obj, name, min_bytes):
            ref = export_pickled(obj, name, min_bytes)
            parked.append(ref)
            return ref

        monkeypatch.setattr(runtime_mod, "export_pickled", spy)
        before = _live_segments()
        with MapReduceRuntime("processes", workers=2,
                              shm_min_bytes=1024) as rt:
            res = rt.run(Job(_FatWeights(), "sum",
                             conf=JobConf(num_reducers=3, columnar=False)),
                         [[(i, 0)] for i in range(16)])
            assert rt.segments.live_count == 0
        assert isinstance(parked[0], ShmPickleRef)
        assert parked[0].name.endswith("f")
        assert sorted(res.output) == [(0, 45.0), (1, 35.0), (2, 40.0)]
        assert _live_segments() <= before

    def test_object_path_abort_sweeps_parked_function(self):
        before = _live_segments()
        plan = FaultPlan.script({("map", 2): 99})  # exceeds max_attempts
        with MapReduceRuntime("processes", workers=2, fault_plan=plan,
                              shm_min_bytes=1024) as rt:
            with pytest.raises(JobFailedError):
                rt.run(Job(_FatWeights(), "sum",
                           conf=JobConf(num_reducers=3, max_attempts=2,
                                        columnar=False)),
                       [[(i, 0)] for i in range(16)])
            assert rt.segments.live_count == 0
        assert _live_segments() <= before

    def test_iterative_spec_loads_once_per_worker(self, tmp_path):
        g = make_paper_graph("A", scale=0.005, seed=0)
        part = multilevel_partition(g, 8, seed=0)
        log = tmp_path / "loads.log"
        spec = _LoadLoggingPageRank(g, part, dense_state=True, log=log)
        with MapReduceRuntime("processes", workers=2) as rt:
            res = IterationLoop(EngineBackend(spec, runtime=rt),
                                DriverConfig(mode="general")).run()
        serial = IterationLoop(EngineBackend(spec),
                               DriverConfig(mode="general")).run()
        assert res.global_iters >= 5
        loads = log.read_text().split()
        # Every round ships an equal pickle: each worker unpickles it
        # once, not once per round.
        assert 1 <= len(loads) <= 2
        assert len(set(loads)) == len(loads)
        assert np.array_equal(res.state.rows, serial.state.rows)


#: Starts a resource tracker whose stderr goes to ``argv[1]``, runs
#: ``argv[2]`` jobs whose fat map function every worker reads from one
#: parked segment, and prints how many KeyErrors the tracker reported.
_TRACKER_SCRIPT = textwrap.dedent("""
    import os, sys
    from multiprocessing import resource_tracker

    import numpy as np

    from repro.engine import Job, MapReduceRuntime

    class FatMap:
        def __init__(self):
            self.pad = np.arange(40_000)

        def __call__(self, key, value, ctx):
            ctx.emit(key % 3, 1)

    fd = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    saved = os.dup(2)
    os.dup2(fd, 2)
    try:
        resource_tracker._resource_tracker.ensure_running()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
        os.close(fd)
    with MapReduceRuntime("processes", workers=2) as rt:
        for _ in range(int(sys.argv[2])):
            rt.run(Job(map_fn=FatMap(), reduce_fn="sum"),
                   [[(i, 0)] for i in range(16)])
    resource_tracker._resource_tracker._stop()
    with open(sys.argv[1]) as fh:
        print(sum("KeyError" in line for line in fh))
""")


class TestResourceTracker:
    def test_read_never_registers(self, monkeypatch):
        ref = export_pickled(np.arange(20_000), "reproshm-test-track",
                             min_bytes=1024)
        calls = []
        monkeypatch.setattr(resource_tracker, "register",
                            lambda *a: calls.append(("register", a)))
        monkeypatch.setattr(resource_tracker, "unregister",
                            lambda *a: calls.append(("unregister", a)))
        try:
            [kept] = _read_segment(ref.name, ref.specs, unlink=False)
            [taken] = _read_segment(ref.name, ref.specs, unlink=True)
        finally:
            monkeypatch.undo()
            _unlink_quietly(ref.name)
        assert calls == []
        assert kept.tobytes() == taken.tobytes()
        assert not glob.glob("/dev/shm/*reproshm-test-track*")

    def test_shared_function_segment_keeps_tracker_quiet(self, tmp_path):
        # Two workers attaching the same keep-alive segment used to
        # interleave register/unregister in their shared tracker.
        script = tmp_path / "tracker.py"
        script.write_text(_TRACKER_SCRIPT)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "tracker.log"),
             "150"], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0", (
            (tmp_path / "tracker.log").read_text())
