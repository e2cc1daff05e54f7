"""RowBlock: a dense spec's gmap input and table as arrays.

With ``dense_state=True`` the kv PageRank and SSSP specs hand each gmap
a :class:`~repro.core.RowBlock` of the partition's ``(rank, ext)`` /
``(dist, ext)`` state rows instead of a list of per-node tuples, and
their block-at-a-time local loops return one as the table.  The record
loop reads the same block through ``.items()`` and stays the oracle:
every assertion here is equality of bits against it, never closeness.
"""

from __future__ import annotations

import pickle
import struct
from collections.abc import Mapping

import numpy as np
import pytest

from repro.apps.pagerank import PageRankKVSpec
from repro.apps.sssp import SsspKVSpec
from repro.core import DenseKVState, GmapFunction, RowBlock, run_local_mapreduce
from repro.graph import attach_random_weights, make_paper_graph, multilevel_partition

#: Local-iteration caps: the general baseline, two steps, a cap the
#: eager PageRank loop hits before local convergence, and no cap.
CAPS = (1, 2, 5, 10_000)

#: A quiet NaN with a payload, -0.0 and both infinities: values whose
#: bits a float conversion could lose.
_NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(np.float64)[0]
SPECIALS = [float(_NAN_PAYLOAD), -0.0, float("inf"), float("-inf"), 0.1]


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _row_bits(row) -> list:
    return [_bits(v) for v in row]


class RecordPageRank(PageRankKVSpec):
    """The oracle: the same spec with the block hook declining."""

    def local_mapreduce_block(self, part_id, xs, *, max_local_iters):
        return None


class RecordSssp(SsspKVSpec):
    """The oracle: the same spec with the block hook declining."""

    def local_mapreduce_block(self, part_id, xs, *, max_local_iters):
        return None


def _special_rows() -> np.ndarray:
    return np.array([SPECIALS, SPECIALS[::-1]], dtype=np.float64).T


class TestPythonFloats:
    """Both containers return rows as tuples of Python floats, bits kept."""

    @pytest.mark.parametrize("make", [
        lambda rows: DenseKVState(rows),
        lambda rows: RowBlock(np.arange(len(rows)), rows),
    ], ids=["DenseKVState", "RowBlock"])
    def test_rows_are_python_floats_with_exact_bits(self, make):
        rows = _special_rows()
        c = make(rows)
        want = [_row_bits(r) for r in rows]
        by_key = [c[u] for u in range(len(rows))]
        by_items = [row for _, row in c.items()]
        by_values = list(c.values())
        for got in (by_key, by_items, by_values):
            assert all(type(row) is tuple for row in got)
            assert all(type(v) is float for row in got for v in row)
            assert [_row_bits(r) for r in got] == want


class TestMappingSurface:
    def test_behaves_like_the_equivalent_dict(self):
        ids = np.array([7, 3, 11])
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        rb = RowBlock(ids, rows)
        oracle = {7: (1.0, 2.0), 3: (3.0, 4.0), 11: (5.0, 6.0)}
        assert isinstance(rb, Mapping)
        assert len(rb) == 3
        assert list(rb) == [7, 3, 11]
        assert all(type(k) is int for k in rb)
        assert list(rb.keys()) == list(oracle.keys())
        assert list(rb.items()) == list(oracle.items())
        assert list(rb.values()) == list(oracle.values())
        assert dict(rb) == oracle and rb == oracle
        assert rb[3] == (3.0, 4.0) and rb[np.int64(11)] == (5.0, 6.0)
        assert 7 in rb and 4 not in rb
        assert rb.get(4) is None
        with pytest.raises(KeyError):
            rb[4]

    def test_read_only(self):
        ids = np.arange(3)
        rows = np.zeros((3, 2))
        rb = RowBlock(ids, rows)
        with pytest.raises(TypeError):
            rb[0] = (1.0, 1.0)  # type: ignore[index]
        with pytest.raises(ValueError):
            rb.rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            rb.ids[0] = 5
        # The caller's arrays stay writable.
        rows[0, 0] = 2.0
        ids[0] = 0

    def test_one_row_per_id(self):
        with pytest.raises(ValueError, match="one row per id"):
            RowBlock(np.arange(3), np.zeros((2, 2)))
        assert RowBlock(np.arange(2), np.array([1.0, 2.0])).rows.shape == (2, 1)

    def test_pickles_as_two_arrays_with_exact_bits(self):
        rows = _special_rows()
        rb = RowBlock(np.array([4, 0, 9, 2, 5]), rows)
        before = pickle.dumps(rb, protocol=pickle.HIGHEST_PROTOCOL)
        rb[9]  # builds the lookup index, which must not be pickled
        assert pickle.dumps(rb, protocol=pickle.HIGHEST_PROTOCOL) == before
        back = pickle.loads(before)
        assert type(back) is RowBlock
        assert back.ids.tobytes() == rb.ids.tobytes()
        assert back.ids.dtype == np.int64
        assert back.rows.tobytes() == rows.tobytes()
        assert not back.rows.flags.writeable and not back.ids.flags.writeable
        assert [(k, _row_bits(v)) for k, v in back.items()] == [
            (k, _row_bits(v)) for k, v in rb.items()]


# ----------------------------------------------------------------------
# The dense specs' input path
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph_a():
    g = make_paper_graph("A", scale=0.005, seed=0)
    return g, multilevel_partition(g, 8, seed=0)


@pytest.fixture(scope="module")
def specs(graph_a):
    """(spec, record oracle, dense state with drawn rows) per app."""
    g, part = graph_a
    rng = np.random.default_rng(3)
    pr_rows = np.column_stack([rng.uniform(0.15, 3.0, g.num_nodes),
                               rng.uniform(0.0, 2.0, g.num_nodes)])
    wg = attach_random_weights(g, low=1.0, high=10.0, seed=11)
    wpart = multilevel_partition(wg, 8, seed=0)
    dist = np.where(rng.random(g.num_nodes) < 0.5, np.inf,
                    rng.uniform(0, 50, g.num_nodes))
    ext = np.where(rng.random(g.num_nodes) < 0.7, np.inf,
                   rng.uniform(0, 50, g.num_nodes))
    return {
        "pagerank": (PageRankKVSpec(g, part, dense_state=True),
                     RecordPageRank(g, part, dense_state=True),
                     DenseKVState(pr_rows)),
        "sssp": (SsspKVSpec(wg, wpart, dense_state=True),
                 RecordSssp(wg, wpart, dense_state=True),
                 DenseKVState(np.column_stack([dist, ext]))),
    }


APPS = ["pagerank", "sssp"]


def _states(spec, drawn):
    return [spec.initial_state(), drawn]


def _table_bits(table) -> list:
    return [(k, _row_bits(v)) for k, v in table.items()]


def _assert_same_run(got, want) -> None:
    assert got is not None, "the hook declined"
    assert _table_bits(got.table) == _table_bits(want.table)
    assert got.local_iters == want.local_iters
    assert got.per_iter_ops == want.per_iter_ops
    assert got.converged == want.converged


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
        self.blocks.append((keys.tobytes(), values.tobytes()))


def _gmap(spec, part_id, xs, cap):
    ctx = _RecordingCtx()
    GmapFunction(spec, cap, columnar=True)(part_id, xs, ctx)
    return ctx.counters, ctx.ops, ctx.blocks


class TestDenseInput:
    @pytest.mark.parametrize("app", APPS)
    def test_partition_input_is_a_row_block(self, specs, app):
        spec, _, drawn = specs[app]
        for p in range(spec.num_partitions()):
            xs = spec.partition_input(p, drawn)
            nodes = spec.partition.parts()[p]
            assert type(xs) is RowBlock
            assert np.array_equal(xs.ids, nodes)
            assert xs.rows.tobytes() == drawn.rows[nodes].tobytes()

    @pytest.mark.parametrize("app", APPS)
    def test_record_loop_same_on_block_and_list(self, specs, app):
        spec, _, drawn = specs[app]
        for state in _states(spec, drawn):
            for p in range(spec.num_partitions()):
                xs = spec.partition_input(p, state)
                pairs = list(xs.items())
                for cap in CAPS:
                    _assert_same_run(
                        run_local_mapreduce(spec, xs, max_local_iters=cap),
                        run_local_mapreduce(spec, pairs, max_local_iters=cap))

    @pytest.mark.parametrize("app", APPS)
    def test_hook_bitwise_equal_to_record_loop(self, specs, app):
        spec, _, drawn = specs[app]
        outcomes = set()
        for state in _states(spec, drawn):
            for p in range(spec.num_partitions()):
                xs = spec.partition_input(p, state)
                for cap in CAPS:
                    got = spec.local_mapreduce_block(p, xs, max_local_iters=cap)
                    want = run_local_mapreduce(spec, xs, max_local_iters=cap)
                    _assert_same_run(got, want)
                    assert type(got.table) is RowBlock
                    outcomes.add((cap, want.converged))
                    # The columnar emission reads the block's column and
                    # matches the per-node lookup on the oracle's table.
                    k1, r1 = spec.gmap_emit_columnar(got.table, p)
                    k2, r2 = spec.gmap_emit_columnar(want.table, p)
                    assert k1.tobytes() == k2.tobytes()
                    assert r1.tobytes() == r2.tobytes()
                    assert spec.gmap_emit(got.table, p) == spec.gmap_emit(
                        want.table, p)
        # The cap-hit case really happened, and so did local convergence.
        assert (2, False) in outcomes and (10_000, True) in outcomes

    @pytest.mark.parametrize("app", APPS)
    def test_gmap_matches_record_oracle(self, specs, app):
        spec, oracle, drawn = specs[app]
        for p in range(spec.num_partitions()):
            xs = spec.partition_input(p, drawn)
            for cap in (1, 10_000):
                assert _gmap(spec, p, xs, cap) == _gmap(oracle, p, xs, cap)

    @pytest.mark.parametrize("app", APPS)
    def test_declines_foreign_and_reordered_ids(self, specs, app):
        spec, oracle, drawn = specs[app]
        other = spec.partition_input(1, drawn)
        assert spec.local_mapreduce_block(0, other, max_local_iters=3) is None
        xs = spec.partition_input(0, drawn)
        flipped = RowBlock(xs.ids[::-1], xs.rows[::-1])
        assert spec.local_mapreduce_block(0, flipped, max_local_iters=3) is None
        assert _gmap(spec, 0, flipped, 3) == _gmap(oracle, 0, flipped, 3)
        narrow = RowBlock(xs.ids, xs.rows[:, :1])
        assert spec.local_mapreduce_block(0, narrow, max_local_iters=3) is None

    @pytest.mark.parametrize("bad", [float("nan"), -0.0])
    def test_sssp_declines_inexact_min(self, specs, bad):
        spec, oracle, drawn = specs["sssp"]
        rows = drawn.rows.copy()
        rows[int(spec.partition.parts()[0][0]), 0] = bad
        xs = spec.partition_input(0, DenseKVState(rows))
        assert spec.local_mapreduce_block(0, xs, max_local_iters=3) is None
        assert _gmap(spec, 0, xs, 3) == _gmap(oracle, 0, xs, 3)

    @pytest.mark.parametrize("app", APPS)
    def test_split_does_not_alias_the_state(self, specs, app):
        spec, _, drawn = specs[app]
        state = DenseKVState(drawn.rows.copy())
        xs = spec.partition_input(0, state)
        before = pickle.dumps(xs)
        state.rows[:] = 7.0
        assert pickle.dumps(xs) == before

    @pytest.mark.parametrize("app", APPS)
    def test_pickled_split_is_compact(self, specs, app):
        spec, _, drawn = specs[app]
        for p in range(spec.num_partitions()):
            xs = spec.partition_input(p, drawn)
            split = [(p, xs)]
            n, width = xs.rows.shape
            size = len(pickle.dumps(split, protocol=pickle.HIGHEST_PROTOCOL))
            assert size <= 16 * n * width + 1024, (p, size)
