"""The local MapReduce loop — Figure 1 of the paper.

::

    gmap(xs : X list) {
        while(no-local-convergence-intimated) {
            for each element x in xs { lmap(x); }   // emits lkey, lval
            lreduce();    // operates on the output of lmap functions
        }
        for each value in lreduce-output { EmitIntermediate(key, value); }
    }

:func:`run_local_mapreduce` executes that loop over the in-memory
hashtable: every iteration applies ``lmap`` to each entry, groups the
EmitLocalIntermediate pairs by key, applies ``lreduce`` per group, and
folds the EmitLocal pairs back into the hashtable (entries not re-emitted
persist unchanged).  The table holds each node's iterated state only;
static structure such as adjacency lists stays on the spec, which
``lmap``/``lreduce`` read by key.  The input ``xs`` is a list of pairs
or a :class:`~collections.abc.Mapping` (a dense spec's
:class:`~repro.core.state.RowBlock`), read through ``.items()``.
The local synchronization between lmap and lreduce is a plain in-memory
barrier — "the local synchronization does not incur any inter-host
communication delays" (§V-B.2).

A spec may run the same loop as whole-partition array sweeps through
:meth:`~repro.core.api.AsyncMapReduceSpec.local_mapreduce_block`; the
gmap tries that hook first.  Its contract is this function's result:
the same table (any Mapping with the same keys, key order and values),
iteration count, per-iteration op counts and converged flag — the op
counts feed the simulated clock through the engine's map task charges.
This record loop stays the oracle the hooks are pinned to, and the path
for every input a hook declines.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.core.api import AsyncMapReduceSpec
from repro.core.emitter import LocalMapContext, LocalReduceContext

__all__ = ["LocalRunResult", "run_local_mapreduce"]


@dataclass
class LocalRunResult:
    """Outcome of one gmap's local MapReduce loop."""

    #: Final hashtable (local state at local convergence): a dict from
    #: the record loop, any Mapping of the same pairs from a block hook.
    table: Mapping
    #: Number of local iterations executed.
    local_iters: int
    #: Operations per local iteration (hashtable scans + emissions).
    per_iter_ops: list
    #: True when the spec's local criterion stopped the loop (False when
    #: the iteration cap did).
    converged: bool

    @property
    def total_ops(self) -> float:
        return float(sum(self.per_iter_ops))


def run_local_mapreduce(
    spec: AsyncMapReduceSpec,
    xs: "list[tuple[Any, Any]] | Mapping",
    *,
    max_local_iters: int,
) -> LocalRunResult:
    """Execute Figure 1's local loop for one partition input ``xs``.

    Parameters
    ----------
    spec:
        The application spec providing ``lmap``/``lreduce`` and the local
        termination function.
    xs:
        The gmap's key-value input: a list of pairs, whose duplicate
        keys are rejected because the hashtable (dict) semantics of §V-A
        require unique keys, or a Mapping, read in ``.items()`` order.
    max_local_iters:
        Iteration cap; 1 reproduces the general (baseline) behaviour.
    """
    if max_local_iters < 1:
        raise ValueError("max_local_iters must be >= 1")
    table: dict = {}
    for k, v in (xs.items() if isinstance(xs, Mapping) else xs):
        if k in table:
            raise ValueError(f"duplicate key in gmap input: {k!r}")
        table[k] = v

    per_iter_ops: list[float] = []
    converged = False
    iters = 0
    while iters < max_local_iters:
        spec.before_local_iteration(table)
        mctx = LocalMapContext()
        for k, v in table.items():
            spec.lmap(k, v, mctx)
        groups: dict[Any, list] = {}
        for lk, lv in mctx.intermediate:
            groups.setdefault(lk, []).append(lv)
        rctx = LocalReduceContext()
        for lk, lvs in groups.items():
            spec.lreduce(lk, lvs, rctx)
        new_table = dict(table)
        for k, v in rctx.local_output:
            new_table[k] = v
        # One scan of the table + all emissions, as the engine would count.
        per_iter_ops.append(float(len(table)) + mctx.ops + rctx.ops)
        iters += 1
        if spec.local_converged(table, new_table):
            table = new_table
            converged = True
            break
        table = new_table
    return LocalRunResult(table=table, local_iters=iters,
                          per_iter_ops=per_iter_ops, converged=converged)
