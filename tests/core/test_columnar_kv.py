"""End-to-end tests: the engine path's columnar fast lane vs the oracle.

``EngineBackend`` auto-opts columnar-capable specs (PageRank, SSSP) into
typed-batch shuffles with map-side combiners; ``columnar=False`` forces
the historical object path.  These tests pin that the fast lane changes
*nothing observable* — same fixed point, same round structure — except
the shuffle volume, which the combiner strictly shrinks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.pagerank import PageRankKVSpec, pagerank_reference
from repro.apps.sssp import SsspKVSpec, sssp_reference
from repro.cluster import SimCluster
from repro.core import DenseKVState, DriverConfig, EngineBackend, IterationLoop
from repro.engine import MapReduceRuntime
from repro.graph import (
    attach_random_weights,
    make_paper_graph,
    multilevel_partition,
    preferential_attachment,
)


@pytest.fixture(scope="module")
def setup():
    g = preferential_attachment(200, num_conn=2, locality_prob=0.9,
                                community_mean=25, seed=11)
    part = multilevel_partition(g, 3, seed=0)
    wg = attach_random_weights(g, seed=2)
    return g, part, wg


def _run(spec, *, columnar, mode="eager", runtime=None, **cfg):
    backend = EngineBackend(spec, columnar=columnar, runtime=runtime)
    return IterationLoop(backend, DriverConfig(mode=mode, **cfg)).run()


class TestPageRankColumnar:
    def test_auto_opt_in(self, setup):
        g, part, _ = setup
        assert EngineBackend(PageRankKVSpec(g, part)).columnar is True
        assert EngineBackend(PageRankKVSpec(g, part),
                             columnar=False).columnar is False

    def test_same_fixed_point_as_object_path(self, setup):
        g, part, _ = setup
        fast = _run(PageRankKVSpec(g, part), columnar=True)
        oracle = _run(PageRankKVSpec(g, part), columnar=False)
        assert fast.converged and oracle.converged
        assert fast.global_iters == oracle.global_iters
        ra = np.array([fast.state[u][0] for u in range(g.num_nodes)])
        rb = np.array([oracle.state[u][0] for u in range(g.num_nodes)])
        assert np.allclose(ra, rb)
        assert np.allclose(ra, pagerank_reference(g), atol=1e-3)

    def test_combiner_ships_fewer_shuffle_bytes(self, setup):
        """The partial-aggregation lever (§V-B): every RoundRecord of a
        combiner-enabled columnar run crosses the shuffle with fewer
        bytes than the object path's tagged records."""
        g, part, _ = setup
        fast = _run(PageRankKVSpec(g, part), columnar=True)
        oracle = _run(PageRankKVSpec(g, part), columnar=False)
        assert len(fast.history) == len(oracle.history)
        for rec_f, rec_o in zip(fast.history, oracle.history):
            assert 0 < rec_f.shuffle_bytes < rec_o.shuffle_bytes

    def test_round_records_shape_compatible(self, setup):
        g, part, _ = setup
        spec = PageRankKVSpec(g, part)
        res = _run(spec, columnar=True)
        for rec in res.history:
            assert len(rec.local_iters) == spec.num_partitions()
            assert all(li >= 1 for li in rec.local_iters)
            assert len(rec.state_partition_bytes) == spec.num_partitions()
            assert sum(rec.state_partition_bytes) > 0

    def test_general_mode(self, setup):
        g, part, _ = setup
        res = _run(PageRankKVSpec(g, part), columnar=True, mode="general",
                   max_global_iters=3)
        for rec in res.history:
            assert rec.local_iters == (1, 1, 1)

    def test_sim_time_accumulates_on_cluster(self, setup):
        g, part, _ = setup
        cl = SimCluster()
        rt = MapReduceRuntime("serial", cluster=cl)
        res = _run(PageRankKVSpec(g, part), columnar=True, runtime=rt)
        assert res.sim_time == pytest.approx(cl.clock)
        assert res.sim_time > 0

    def test_threads_executor_matches_serial(self, setup):
        g, part, _ = setup
        serial = _run(PageRankKVSpec(g, part), columnar=True)
        with MapReduceRuntime("threads", workers=2) as rt:
            threaded = _run(PageRankKVSpec(g, part), columnar=True,
                            runtime=rt)
        assert threaded.global_iters == serial.global_iters
        ra = np.array([serial.state[u][0] for u in range(g.num_nodes)])
        rb = np.array([threaded.state[u][0] for u in range(g.num_nodes)])
        assert np.array_equal(ra, rb)

    def test_non_columnar_spec_cannot_force_opt_in(self, setup):
        g, part, _ = setup

        class Stripped(PageRankKVSpec):
            supports_columnar = False

        with pytest.raises(ValueError, match="columnar"):
            EngineBackend(Stripped(g, part), columnar=True)


class TestSsspColumnar:
    def test_identical_distances_and_rounds(self, setup):
        """min-aggregation is exact, so the columnar run is bit-identical
        to the object path, round for round."""
        g, part, wg = setup
        wpart = multilevel_partition(wg, 3, seed=0)
        fast = _run(SsspKVSpec(wg, wpart), columnar=True)
        oracle = _run(SsspKVSpec(wg, wpart), columnar=False)
        assert fast.global_iters == oracle.global_iters
        d_f = np.array([fast.state[u][0] for u in range(wg.num_nodes)])
        d_o = np.array([oracle.state[u][0] for u in range(wg.num_nodes)])
        assert np.array_equal(d_f, d_o)
        ref = sssp_reference(wg, source=0)
        finite = np.isfinite(ref)
        assert np.allclose(d_f[finite], ref[finite])
        # Byte volumes track the different encodings (fixed 2-column
        # rows vs 1-char tags + payload), so unlike PageRank the
        # columnar run is not unconditionally smaller — but once the
        # frontier saturates and the "min" combiner has duplicates to
        # fold, it is.
        assert fast.history[-1].shuffle_bytes < oracle.history[-1].shuffle_bytes


def _per_node_cut_edges(spec, part_id: int, *, weighted: bool = False):
    """Reference build of a partition's out-cut edges, node by node
    from the spec's adjacency lists: ``(nodes, local source index,
    remote target, weight or None)`` in table order.  ``weighted``
    lists hold ``(target, weight)`` pairs (SSSP)."""
    nodes = spec.partition.parts()[part_id].astype(np.int64)
    adj = [spec._external_adj[u] for u in nodes.tolist()]
    src = np.repeat(np.arange(len(nodes)), [len(a) for a in adj])
    edges = [e for a in adj for e in a]
    if not weighted:
        return nodes, src, np.array(edges, dtype=np.int64), None
    dst = np.array([v for v, _ in edges], dtype=np.int64)
    w = np.array([w for _, w in edges], dtype=np.float64)
    return nodes, src, dst, w


def _reference_pagerank_rows(spec, table, part_id):
    nodes, src, dst, _ = _per_node_cut_edges(spec, part_id)
    ranks = np.array([table[u][0] for u in nodes.tolist()], dtype=np.float64)
    keys = np.concatenate([nodes, dst])
    rows = np.zeros((len(keys), 2), dtype=np.float64)
    rows[:len(nodes), 0] = ranks
    rows[len(nodes):, 1] = ranks[src] * spec._inv_outdeg[nodes][src]
    return keys, rows


def _reference_sssp_rows(spec, table, part_id):
    nodes, src, dst, w = _per_node_cut_edges(spec, part_id, weighted=True)
    dists = np.array([table[u][0] for u in nodes.tolist()], dtype=np.float64)
    live = np.isfinite(dists[src])
    keys = np.concatenate([nodes, dst[live]])
    rows = np.full((len(keys), 2), np.inf, dtype=np.float64)
    rows[:len(nodes), 0] = dists
    rows[len(nodes):, 1] = dists[src[live]] + w[live]
    return keys, rows


def _assert_bitwise(got, want):
    (gk, gr), (wk, wr) = got, want
    assert gk.dtype == wk.dtype and np.array_equal(gk, wk)
    assert gr.dtype == wr.dtype and gr.shape == wr.shape
    assert gr.tobytes() == wr.tobytes()


@pytest.fixture(scope="module")
def graph_a():
    g = make_paper_graph("A", scale=0.005, seed=0)
    return g, multilevel_partition(g, 8, seed=0)


class TestEmissionArrays:
    """The specs' vectorised cut-edge arrays against the per-node build,
    and the columnar emission bitwise against the per-node emission."""

    def test_pagerank_every_partition(self, graph_a):
        g, part = graph_a
        spec = PageRankKVSpec(g, part, dense_state=True)
        rng = np.random.default_rng(3)
        state = DenseKVState(rng.uniform(0.1, 3.0, (g.num_nodes, 2)))
        for p in range(part.k):
            nodes, src, dst, _ = _per_node_cut_edges(spec, p)
            csr = spec._csr[p]
            assert np.array_equal(csr.nodes, nodes)
            assert np.array_equal(csr.cut_src, src)
            assert np.array_equal(csr.cut_dst, dst)
            assert len(dst) > 0
            table = dict(spec.partition_input(p, state))
            _assert_bitwise(spec.gmap_emit_columnar(table, p),
                            _reference_pagerank_rows(spec, table, p))

    def test_sssp_every_partition(self, graph_a):
        g, _ = graph_a
        wg = attach_random_weights(g, low=1.0, high=10.0, seed=11)
        part = multilevel_partition(wg, 8, seed=0)
        spec = SsspKVSpec(wg, part, dense_state=True)
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 50.0, (g.num_nodes, 2))
        rows[rng.random(g.num_nodes) < 0.4, 0] = np.inf
        state = DenseKVState(rows)
        for p in range(part.k):
            nodes, src, dst, w = _per_node_cut_edges(spec, p, weighted=True)
            edges = spec._edges[p]
            assert np.array_equal(edges.nodes, nodes)
            assert np.array_equal(edges.cut_src, src)
            assert np.array_equal(edges.cut_dst, dst)
            assert edges.cut_w.tobytes() == w.tobytes()
            assert len(dst) > 0
            table = dict(spec.partition_input(p, state))
            _assert_bitwise(spec.gmap_emit_columnar(table, p),
                            _reference_sssp_rows(spec, table, p))

    def test_pickle_unchanged_by_running(self, graph_a):
        """No lazily filled state: a process worker's cached copy, keyed
        by pickle content, stays valid round after round."""
        g, part = graph_a
        wg = attach_random_weights(g, low=1.0, high=10.0, seed=11)
        for spec in (PageRankKVSpec(g, part, dense_state=True),
                     SsspKVSpec(wg, part, dense_state=True)):
            before = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
            _run(spec, columnar=True, mode="general", max_global_iters=3)
            assert pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL) \
                == before
