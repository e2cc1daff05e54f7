"""Block-at-a-time local MapReduce, pinned bitwise to the record loop.

``AsyncMapReduceSpec.local_mapreduce_block`` runs a gmap's whole
Figure-1 loop as array sweeps.  Its contract is
:func:`~repro.core.localmr.run_local_mapreduce`'s result on the same
``xs``: the same table (keys, key order, bit-identical values), the same
iteration count, per-iteration op counts (they reach the simulated
clock) and converged flag.  Every assertion here is equality against
that record-loop oracle, never closeness.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import sssp_reference
from repro.apps.pagerank import PageRankKVSpec
from repro.apps.sssp import SsspKVSpec
from repro.cluster import SimCluster
from repro.core import (
    DenseKVState,
    DriverConfig,
    EngineBackend,
    GmapFunction,
    Session,
    run_local_mapreduce,
)
from repro.engine import MapReduceRuntime
from repro.graph import (
    DiGraph,
    attach_random_weights,
    make_paper_graph,
    multilevel_partition,
    partition_graph,
)

#: Local-iteration caps: the general baseline, two steps, a cap the
#: eager PageRank loop hits before local convergence, and no cap.
CAPS = (1, 2, 5, 10_000)


class RecordPageRank(PageRankKVSpec):
    """The oracle: the same spec with the block hook declining."""

    def local_mapreduce_block(self, part_id, xs, *, max_local_iters):
        return None


class RecordSssp(SsspKVSpec):
    """The oracle: the same spec with the block hook declining."""

    def local_mapreduce_block(self, part_id, xs, *, max_local_iters):
        return None


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def assert_same_run(block, record) -> None:
    """``block`` is exactly the record loop's ``LocalRunResult``."""
    assert block is not None, "the hook declined"
    assert list(block.table) == list(record.table)
    for key, want in record.table.items():
        got = block.table[key]
        assert len(got) == len(want)
        assert [_bits(v) for v in got[:2]] == [_bits(v) for v in want[:2]], key
        assert got[2:] == want[2:]
    assert block.local_iters == record.local_iters
    assert block.per_iter_ops == record.per_iter_ops
    assert block.converged == record.converged


def _both(spec, part_id, xs, cap):
    block = spec.local_mapreduce_block(part_id, xs, max_local_iters=cap)
    record = run_local_mapreduce(spec, xs, max_local_iters=cap)
    assert_same_run(block, record)
    return record


def _states(spec, values: "list[tuple[float, float]]"):
    """The same per-node rows as dict state and as dense state."""
    dense = DenseKVState(np.array(values, dtype=np.float64))
    return [dict(enumerate(values)), dense]


def _pagerank_rows(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return list(zip(rng.uniform(0.15, 3.0, n).tolist(),
                    rng.uniform(0.0, 2.0, n).tolist()))


def _sssp_rows(n: int, seed: int):
    rng = np.random.default_rng(seed)
    dist = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0, 50, n))
    ext = np.where(rng.random(n) < 0.7, np.inf, rng.uniform(0, 50, n))
    return list(zip(dist.tolist(), ext.tolist()))


@pytest.fixture(scope="module")
def graph_a():
    g = make_paper_graph("A", scale=0.005, seed=0)
    return g, multilevel_partition(g, 8, seed=0)


class TestGraphAPartitions:
    """Every partition of graph A, every cap, dict and dense state."""

    def test_pagerank(self, graph_a):
        g, part = graph_a
        spec = PageRankKVSpec(g, part)
        states = [spec.initial_state(),
                  *_states(spec, _pagerank_rows(g.num_nodes, seed=3))]
        outcomes = set()
        for state in states:
            for p in range(part.k):
                xs = spec.partition_input(p, state)
                for cap in CAPS:
                    rec = _both(spec, p, xs, cap)
                    outcomes.add((cap, rec.converged))
        # The cap-hit case really happened, and so did local convergence.
        assert (5, False) in outcomes and (10_000, True) in outcomes

    def test_sssp(self, graph_a):
        g, _ = graph_a
        wg = attach_random_weights(g, low=1.0, high=10.0, seed=11)
        part = multilevel_partition(wg, 8, seed=0)
        spec = SsspKVSpec(wg, part, source=0)
        states = [spec.initial_state(),
                  *_states(spec, _sssp_rows(g.num_nodes, seed=5))]
        outcomes = set()
        for state in states:
            for p in range(part.k):
                xs = spec.partition_input(p, state)
                for cap in CAPS:
                    rec = _both(spec, p, xs, cap)
                    outcomes.add((cap, rec.converged))
        assert (2, False) in outcomes and (10_000, True) in outcomes


@st.composite
def small_instance(draw, max_nodes=25, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.floats(0.0, 20.0, allow_nan=False),
                      min_size=m, max_size=m))
    g = DiGraph(n, src, dst, w)
    k = draw(st.integers(min_value=1, max_value=min(5, n)))
    method = draw(st.sampled_from(["multilevel", "chunk", "hash"]))
    seed = draw(st.integers(0, 2**16))
    cap = draw(st.sampled_from(CAPS))
    return g, partition_graph(g, k, method=method, seed=0), seed, cap


class TestDrawnGraphs:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_instance())
    def test_pagerank(self, inst):
        g, part, seed, cap = inst
        spec = PageRankKVSpec(g, part)
        for state in (spec.initial_state(),
                      *_states(spec, _pagerank_rows(g.num_nodes, seed))):
            for p in range(part.k):
                _both(spec, p, spec.partition_input(p, state), cap)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_instance())
    def test_sssp(self, inst):
        g, part, seed, cap = inst
        spec = SsspKVSpec(g, part, source=seed % g.num_nodes)
        for state in (spec.initial_state(),
                      *_states(spec, _sssp_rows(g.num_nodes, seed))):
            for p in range(part.k):
                _both(spec, p, spec.partition_input(p, state), cap)


class _RecordingCtx:
    """The slice of the engine's task context a gmap touches."""

    def __init__(self):
        self.counters: dict = {}
        self.ops = 0.0
        self.blocks: list = []

    def incr(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def add_ops(self, n):
        self.ops += n

    def emit_block(self, keys, values):
        # Raw bytes: bitwise, and NaN compares equal to itself.
        self.blocks.append((keys.tobytes(), values.tobytes()))


def _gmap(spec, part_id, xs, cap):
    ctx = _RecordingCtx()
    GmapFunction(spec, cap, columnar=True)(part_id, xs, ctx)
    return ctx.counters, ctx.ops, ctx.blocks


class TestDeclines:
    def test_duplicate_key_same_error(self, small_graph, small_partition):
        spec = PageRankKVSpec(small_graph, small_partition)
        xs = spec.partition_input(0, spec.initial_state())
        dup = xs + xs[:1]
        assert spec.local_mapreduce_block(0, dup, max_local_iters=3) is None
        with pytest.raises(ValueError, match="duplicate key in gmap input"):
            run_local_mapreduce(spec, dup, max_local_iters=3)
        with pytest.raises(ValueError, match="duplicate key in gmap input"):
            _gmap(spec, 0, dup, 3)

    @pytest.mark.parametrize("cls,oracle", [(PageRankKVSpec, RecordPageRank),
                                            (SsspKVSpec, RecordSssp)])
    def test_keys_out_of_order_fall_back(self, weighted_graph,
                                         small_partition, cls, oracle):
        spec = cls(weighted_graph, small_partition)
        ref = oracle(weighted_graph, small_partition)
        xs = spec.partition_input(0, spec.initial_state())[::-1]
        assert spec.local_mapreduce_block(0, xs, max_local_iters=4) is None
        assert _gmap(spec, 0, xs, 4) == _gmap(ref, 0, xs, 4)

    def test_other_partitions_keys_declined(self, small_graph,
                                            small_partition):
        spec = PageRankKVSpec(small_graph, small_partition)
        xs = spec.partition_input(1, spec.initial_state())
        assert spec.local_mapreduce_block(0, xs, max_local_iters=2) is None

    @pytest.mark.parametrize("bad", [float("nan"), -0.0])
    def test_sssp_declines_inexact_min(self, weighted_graph, small_partition,
                                       bad):
        # Python's min and np.minimum disagree on NaN and on the sign of
        # zero ties, so the sweep hands such inputs to the record loop.
        spec = SsspKVSpec(weighted_graph, small_partition)
        state = spec.initial_state()
        u = int(small_partition.parts()[0][0])
        state[u] = (bad, state[u][1])
        xs = spec.partition_input(0, state)
        assert spec.local_mapreduce_block(0, xs, max_local_iters=3) is None
        assert (_gmap(spec, 0, xs, 3)
                == _gmap(RecordSssp(weighted_graph, small_partition), 0, xs, 3))

    def test_gmap_uses_hook_and_matches_oracle(self, small_graph,
                                               small_partition):
        spec = PageRankKVSpec(small_graph, small_partition)
        ref = RecordPageRank(small_graph, small_partition)
        for p in range(small_partition.k):
            xs = spec.partition_input(p, spec.initial_state())
            assert _gmap(spec, p, xs, 50) == _gmap(ref, p, xs, 50)


# ----------------------------------------------------------------------
# End to end: Session + EngineBackend on every executor
# ----------------------------------------------------------------------

def _solve(spec, executor: str, mode: str):
    cluster = SimCluster()
    workers = None if executor == "serial" else 2
    with MapReduceRuntime(executor, cluster=cluster, workers=workers) as rt:
        with Session(cluster=cluster, runtime=rt) as session:
            handle = session.submit(EngineBackend(spec, runtime=rt),
                                    DriverConfig(mode=mode))
            session.run()
    return handle.result


def _column0(state) -> np.ndarray:
    if isinstance(state, DenseKVState):
        return state.column(0).copy()
    return np.array([state[u][0] for u in range(len(state))])


#: (app, mode, dense) -> the record oracle's serial run (the fixtures
#: it ran on are session-scoped, so the key pins the input too).
_ORACLE_RUNS: dict = {}


def _oracle(app: str, mode: str, dense: bool, graph, part):
    key = (app, mode, dense)
    if key not in _ORACLE_RUNS:
        cls = RecordPageRank if app == "pagerank" else RecordSssp
        _ORACLE_RUNS[key] = _solve(cls(graph, part, dense_state=dense),
                                   "serial", mode)
    return _ORACLE_RUNS[key]


@pytest.fixture(scope="module")
def sssp_partition(weighted_graph):
    return multilevel_partition(weighted_graph, 4, seed=0)


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("mode", ["eager", "general"])
@pytest.mark.parametrize("app", ["pagerank", "sssp"])
def test_engine_bitwise_equal_to_record_oracle(
        app, mode, dense, executor, small_graph, small_partition,
        weighted_graph, sssp_partition):
    if app == "pagerank":
        graph, part, cls = small_graph, small_partition, PageRankKVSpec
    else:
        graph, part, cls = weighted_graph, sssp_partition, SsspKVSpec
    got = _solve(cls(graph, part, dense_state=dense), executor, mode)
    want = _oracle(app, mode, dense, graph, part)
    assert got.converged and want.converged
    assert isinstance(got.state, DenseKVState) == dense
    np.testing.assert_array_equal(_column0(got.state), _column0(want.state))
    assert got.sim_time == want.sim_time
    assert got.global_iters == want.global_iters
    assert ([r.local_iters for r in got.history]
            == [r.local_iters for r in want.history])
    assert got.history == want.history
    if app == "sssp":
        np.testing.assert_array_equal(_column0(got.state),
                                      sssp_reference(graph, source=0))
