"""Array-backed per-node rows for iterative KV specs.

The record-at-a-time specs keep global state as ``node -> tuple`` dicts
— the oracle representation, easy to diff and to reason about, but it
forces every round to rebuild ~``num_nodes`` Python tuples from the
reduce output even when the engine ran fully columnar.
:class:`DenseKVState` stores the same per-node rows as one ``(n, w)``
float64 array keyed by node id, so a columnar round folds its output
block back in with a single fancy-indexed assignment
(:meth:`~DenseKVState.scatter`) and convergence checks vectorise.
:class:`RowBlock` is one partition's slice of those rows, ``(ids,
rows)``: a spec hands it to its gmap as the input ``xs`` and its
block-at-a-time local loop returns one as its table, so a dense round
ships and sweeps arrays instead of per-node tuples.

Both containers are deliberately *Mapping-shaped*: ``c[u]`` returns
the node's row as a tuple of Python floats, ``len`` / ``iter`` /
``items`` behave like the dict they replace, so spec plumbing written
against the dict state (``rank, ext = state[u]``) and the record loop
run unchanged.  Equivalence is bitwise — the arrays hold exactly the
float64 values the dict path's tuples hold — which the dense-state
tests pin against the dict oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterator

import numpy as np

__all__ = ["DenseKVState", "RowBlock", "input_rows"]


def _as_rows(rows: Any) -> np.ndarray:
    """``rows`` as a 2-D float64 array; a 1-D array is one column."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(
            f"rows must be (n,) or (n, width), got shape {arr.shape}")
    return arr


class DenseKVState:
    """Global iterative state as a dense ``(n, width)`` float64 array.

    Node ids are the row index: the container covers the contiguous id
    range ``0..n-1``, which is exactly the key universe of the bundled
    graph specs (graphs number their nodes densely).

    Parameters
    ----------
    rows:
        Array of shape ``(n, width)`` (or ``(n,)``, treated as width 1)
        holding one row per node.  Copied to float64 if needed.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = _as_rows(rows)

    # -- Mapping surface (what the dict-state plumbing reads) ----------
    def __getitem__(self, u: int) -> tuple:
        return tuple(self.rows[u].tolist())

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self) -> "Iterator[int]":
        return iter(range(self.rows.shape[0]))

    def __contains__(self, u: Any) -> bool:
        return isinstance(u, (int, np.integer)) and 0 <= u < len(self)

    def keys(self) -> range:
        return range(self.rows.shape[0])

    def items(self):
        return enumerate(map(tuple, self.rows.tolist()))

    def values(self):
        return map(tuple, self.rows.tolist())

    # -- array surface (what the dense fast paths use) -----------------
    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def column(self, j: int) -> np.ndarray:
        """One state component for all nodes (a view — copy to keep)."""
        return self.rows[:, j]

    def scatter(self, keys: np.ndarray, values: np.ndarray) -> "DenseKVState":
        """New state with ``rows[keys] = values`` (the round's updates).

        The columnar reduce emits one row per touched key; untouched
        nodes carry their previous row forward — exactly the dict
        path's ``dict(prev).update(output)``.
        """
        out = self.rows.copy()
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        out[np.asarray(keys, dtype=np.int64)] = vals
        return DenseKVState(out)

    def scatter_pairs(self, pairs: "list[tuple]") -> "DenseKVState":
        """:meth:`scatter` from object-path ``(key, row_tuple)`` output.

        Keeps the object path available as the oracle even when the
        spec runs with dense state (``conf.columnar=False`` runs land
        here).
        """
        if not pairs:
            return DenseKVState(self.rows.copy())
        keys = np.fromiter((k for k, _ in pairs), dtype=np.int64,
                           count=len(pairs))
        vals = np.array([v for _, v in pairs], dtype=np.float64)
        return self.scatter(keys, vals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseKVState(n={len(self)}, width={self.width})"


class RowBlock(Mapping):
    """Read-only ``id -> row`` mapping over an id vector and its rows.

    ``ids`` (int64, unique) names the nodes in iteration order and
    ``rows`` holds one float64 row per id; both are exposed as read-only
    views.  The Mapping surface matches :class:`DenseKVState`'s: rows
    come back as tuples of Python floats, ``items()`` in ``ids`` order.
    A key lookup builds an id -> position index on first use; the block
    pickles as its two arrays alone.
    """

    __slots__ = ("ids", "rows", "_pos")

    def __init__(self, ids: Any, rows: Any) -> None:
        id_arr = np.asarray(ids, dtype=np.int64)
        row_arr = _as_rows(rows)
        if id_arr.ndim != 1 or len(id_arr) != len(row_arr):
            raise ValueError(
                f"need one row per id: ids {id_arr.shape}, "
                f"rows {row_arr.shape}")
        self.ids = id_arr.view()
        self.ids.flags.writeable = False
        self.rows = row_arr.view()
        self.rows.flags.writeable = False
        self._pos: "dict[int, int] | None" = None

    def __reduce__(self):
        return RowBlock, (self.ids, self.rows)

    def __getitem__(self, key: Any) -> tuple:
        if self._pos is None:
            self._pos = {u: i for i, u in enumerate(self.ids.tolist())}
        return tuple(self.rows[self._pos[key]].tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> "Iterator[int]":
        return iter(self.ids.tolist())

    def items(self):  # type: ignore[override]
        return zip(self.ids.tolist(), map(tuple, self.rows.tolist()))

    def values(self):  # type: ignore[override]
        return map(tuple, self.rows.tolist())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RowBlock(n={len(self)}, width={self.rows.shape[1]})"


def input_rows(xs: Any, ids: np.ndarray, width: int) -> "np.ndarray | None":
    """The ``(len(ids), width)`` rows of a gmap input whose keys are
    exactly ``ids``, in that order; ``None`` for any other input.

    A :class:`RowBlock`'s own (read-only) rows come back as they are; a
    list of ``(key, row)`` pairs is gathered into a new array.  This is
    the key check a block-at-a-time local loop makes before sweeping.
    """
    if isinstance(xs, RowBlock):
        same = np.array_equal(xs.ids, ids) and xs.rows.shape[1] == width
        return xs.rows if same else None
    if (isinstance(xs, Mapping) or len(xs) != len(ids)
            or [k for k, _ in xs] != ids.tolist()):
        return None
    return np.array([v for _, v in xs],
                    dtype=np.float64).reshape(len(ids), width)
