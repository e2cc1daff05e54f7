"""Sensitivity self-check: an injected slowdown shows where it should.

    python3 perfbench/selfcheck.py

Run from the repository root.  Each injection slows one layer through
the same wrappers the tracer uses (:func:`tracing.inject_delay`):

* ``localmr``: every ``run_local_mapreduce`` call takes 20% longer;
* ``consume``: every ``OnlineStateStore.consume`` call takes three times
  as long.  Consume is a smaller share of its workload than local
  MapReduce is of its own (about a quarter against nine tenths), so it
  gets the larger delay.

On one instance per workload, every injected solve runs right next to
a baseline solve, and which of the two goes first alternates.  An
injection is *flagged* on a workload when the injected solve is the
slower one in so many pairs that a fair coin would do as well at most
once in a hundred tries (one-sided sign test over 20 pairs, p <= 0.01:
16 of them).  On a small virtual machine shared with other tenants the
speed drifts by tens of percent within seconds, so single solves cannot
also clear a magnitude test.  The targeted workload must be flagged and
the bypassing one, where the delayed code never runs and each pair is a
baseline against itself, unchanged; the exit code is 0 only if all four
hold.

The sign test is not the regression gate.  That gate compares medians
of ``solve_s`` against the bound in ``BENCHMARK.json``, so beside each
verdict the median change is printed together with whether it exceeds
that bound.  A slowdown the sign test flags can still be within it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

#: injection -> (trace point, extra share of its own time, workload it
#: must be flagged on, workload it must leave unchanged)
INJECTIONS = {
    "localmr": ("localmr.run", 0.2, "kv-pagerank-eager", "sim-async-mixed"),
    "consume": ("store.consume", 2.0, "sim-async-mixed", "kv-pagerank-eager"),
}


#: Largest chance, under a fair coin, of the win count a flag needs.
ALPHA = 0.01
#: (baseline, injected) solve pairs per injection and workload; with
#: ALPHA it fixes the flag at 16 wins.
PAIRS = 20
#: The instance every workload is built from (``run.py --seed``).
SEED = 1


def sign_test(wins: int, n: int) -> float:
    """One-sided p-value of ``wins`` or more heads in ``n`` fair tosses."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def measure(workload: str) -> "dict[str, list[tuple[float, float]]]":
    """(baseline, injected) solve_s pairs per injection."""
    from tracing import Patcher, inject_delay
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inst = wl.build(SEED, {})
    out: "dict[str, list[tuple[float, float]]]" = {
        side: [] for side in INJECTIONS}

    def solve(side: str) -> float:
        patcher = Patcher()
        if side in INJECTIONS:
            point, frac, *_ = INJECTIONS[side]
            inject_delay(patcher, point, frac)
        try:
            s = wl.solve(inst)
        finally:
            patcher.restore()
        if s.errors:
            raise RuntimeError(f"{workload} {side}: {s.errors}")
        return s.wall_s

    try:
        wl.prepare(inst)
        for i in range(PAIRS):
            for j, side in enumerate(out):
                if (i + j) % 2:
                    other, base = solve(side), solve("baseline")
                else:
                    base, other = solve("baseline"), solve(side)
                out[side].append((base, other))
    finally:
        inst.close()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    from run import BLAS_ENV, ROOT, SRC

    for var, value in BLAS_ENV.items():
        os.environ.setdefault(var, value)
    sys.path.insert(0, SRC)
    workloads = sorted({w for _, _, *ws in INJECTIONS.values() for w in ws})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "solve_s")
    results = {w: measure(w) for w in workloads}
    ok = True
    print(f"seed {SEED}, {PAIRS} pairs per side and workload, "
          f"solve_s bound {bound:.0%}")
    checks = [(inj, f"+{frac:.0%} on {point}", w, want)
              for inj, (point, frac, target, bypass) in INJECTIONS.items()
              for w, want in ((target, "flagged"), (bypass, "unchanged"))]
    for side, what, workload, want in checks:
        pairs = results[workload][side]
        change = statistics.median(o / b - 1 for b, o in pairs)
        wins = sum(o > b for b, o in pairs)
        got = "flagged" if sign_test(wins, len(pairs)) <= ALPHA else "unchanged"
        gate = "exceeds bound" if change > bound else "within bound"
        ok &= got == want
        print(f"  {side:8s} {what:25s} {workload:18s} solve_s {change:+6.1%} "
              f"({gate}), slower in {wins}/{len(pairs)}: {got} "
              f"(want {want})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
