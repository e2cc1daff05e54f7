"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
After one set-up (graph generation, partitioning, spec construction,
pool start), solves run until ``--seconds`` have passed, each checked
for correctness; further set-ups are timed between the first solves.

``--trace 0`` reports the end-to-end metrics.  Only one hook is active:
the wall clock around each job-round.  ``--trace 1`` alternates untraced
and traced solves and reports the per-layer metrics of the traced ones
(median over solves), the tracing overhead and the span coverage.  Spans
stay in memory and are written to ``perfbench/out/`` when the run ends.

Human-readable tables go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A solve that raises, does not converge, misses its reference or leaves
a ``/dev/shm`` segment behind counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

#: One BLAS thread, set before NumPy loads: BLAS threads would fight
#: the worker processes for the host's cores and make timings wander.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: Timed set-ups per run (at least MIN_SETUPS); ``setup_s`` is their median.
SETUPS, MIN_SETUPS = 5, 3
#: Fewest solves a run makes, whatever ``--seconds`` says.
MIN_SOLVES = 2

now = time.perf_counter


# ---------------------------------------------------------------------
# Host metadata and the resource tracker's stderr
# ---------------------------------------------------------------------

def host_metadata() -> dict:
    import numpy

    commit = "unknown"
    try:
        # The ceiling keeps git from adopting a repository above ROOT.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "machine": platform.machine()}


class TrackerLog:
    """Start multiprocessing's resource tracker with its stderr in a file.

    The tracker is one process shared by the driver and its forked
    workers; it prints a ``KeyError`` traceback when it is told to forget
    a segment it never saw.  :meth:`stop` ends it, waits for it, and
    returns how many such errors it printed.
    """

    def __init__(self, path: str) -> None:
        from multiprocessing import resource_tracker

        self.path = path
        self._tracker = resource_tracker._resource_tracker
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        saved = os.dup(2)
        sys.stderr.flush()
        os.dup2(fd, 2)
        try:
            self._tracker.ensure_running()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
            os.close(fd)

    def stop(self) -> int:
        self._tracker._stop()
        with open(self.path, encoding="utf-8", errors="replace") as fh:
            return sum("KeyError" in line for line in fh)


# ---------------------------------------------------------------------
# Statistics and output
# ---------------------------------------------------------------------

def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def percentile(xs, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(xs, dtype=float), q)) if xs else 0.0


def print_rows(title: str, header: "tuple[str, ...]", rows: list) -> None:
    print(f"\n{title}")
    widths = [max(len(str(r[i])) for r in [header, *rows])
              for i in range(len(header))]
    for r in [header, *rows]:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------

class Run:
    """One run's solves and set-ups, with the failures and exact figures."""

    def __init__(self, wl, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.solves: list = []
        self.failed = 0
        #: (seconds, spans) per timed set-up
        self.setups: "list[tuple[float, dict]]" = []

    def build(self):
        spans: "dict[str, float]" = {}
        t0 = now()
        inst = self.wl.build(self.seed, spans)
        self.setups.append((now() - t0, spans))
        return inst

    def solve(self, inst):
        from workloads import Solve

        try:
            s = self.wl.solve(inst)
        except Exception:
            traceback.print_exc()
            s = Solve(errors=["raised: " + traceback.format_exc(limit=1)])
        if self.solves and not s.errors:
            first = self.solves[0]
            exact = (s.sim_s, s.global_iters, s.local_iters)
            if exact != (first.sim_s, first.global_iters, first.local_iters):
                s.errors.append(f"sim_s/global_iters/local_iters {exact} "
                                f"differ from the first solve's")
        for e in s.errors:
            print(f"FAILED solve {len(self.solves)}: {e}", file=sys.stderr)
        self.failed += bool(s.errors)
        self.solves.append(s)
        return s

    def repeat(self, seconds: float, body) -> None:
        """Call ``body`` until ``seconds`` have passed.  Between calls,
        time further set-ups (discarded), so ``setup_s`` samples the same
        stretch of time as the solves do, not just the start of the run."""
        t0 = now()
        while ((now() - t0 < seconds or len(self.solves) < MIN_SOLVES
                or len(self.setups) < MIN_SETUPS) and not self.broken):
            body()
            if len(self.setups) < SETUPS:
                self.build().close()

    @property
    def broken(self) -> bool:
        """Stop early once a solve has raised: later ones would too."""
        return any(e.startswith("raised") for s in self.solves for e in s.errors)


def end_to_end(run: Run, inst, seconds: float) -> dict:
    from tracing import Tracer

    with Tracer(only=("loop.step",)) as clock:
        run.repeat(seconds, lambda: run.solve(inst))
    ok = [s for s in run.solves if not s.errors] or run.solves
    first = ok[0]
    walls = [s.wall_s for s in ok]
    rounds = [(t1 - t0) * 1e3 for _, t0, t1, _ in clock.spans]
    m = {
        "solve_s": (median(walls), "s", "wall", f"median of {len(walls)} solves"),
        "round_ms_p50": (percentile(rounds, 50), "ms", "wall",
                         f"n={len(rounds)} job-rounds"),
        "round_ms_p90": (percentile(rounds, 90), "ms", "wall",
                         f"n={len(rounds)}, {int(len(rounds) * 0.1)} beyond"),
        "sim_s": (first.sim_s, "sim-s", "sim", "session makespan, exact"),
        "global_iters": (first.global_iters, "count", "sim",
                         "rounds summed over jobs, exact"),
        "local_iters": (first.local_iters, "count", "sim",
                        "local iterations summed over jobs, exact"),
        "setup_s": (median([t for t, _ in run.setups]), "s", "wall",
                    f"median of {len(run.setups)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "wall", "driver process"),
    }
    fail_frac = run.failed / max(1, len(run.solves))
    print_rows("end-to-end (tracing off)", ("metric", "clock", "value", "unit", "note"),
               [(k, c, fmt(v), u, note) for k, (v, u, c, note) in m.items()]
               + [("fail_frac", "-", fmt(fail_frac), "ratio",
                   f"{run.failed} of {len(run.solves)} solves failed")])
    return {k: (v, u) for k, (v, u, _, _) in m.items()}


def traced(run: Run, inst, seconds: float) -> "tuple[dict, list]":
    from tracing import Tracer, coverage, summarize

    untraced, runs = [], []
    tracer = Tracer(worker_side=run.wl.tasks_in_driver)

    def pair() -> None:
        untraced.append(run.solve(inst))
        with tracer:
            s = run.solve(inst)
        spans, counts = tracer.take()
        runs.append((s, spans, counts, summarize(spans)))

    run.repeat(seconds, pair)
    setup_spans = [sp for _, sp in run.setups]

    def per_solve(f) -> float:
        return median([f(s, sm, c, sp) for s, sp, c, sm in runs])

    def busy(name):
        return per_solve(lambda s, sm, c, sp: sm.get(name, {}).get("busy", 0.0))

    def self_(name):
        return per_solve(lambda s, sm, c, sp: sm.get(name, {}).get("self", 0.0))

    def calls(name):
        return per_solve(lambda s, sm, c, sp: sm.get(name, {}).get("calls", 0))

    def count(key):
        return per_solve(lambda s, sm, c, sp: c.get(key, 0))

    def ratio(num, den):
        return per_solve(lambda s, sm, c, sp: c[num] / c[den] if c[den] else 0.0)

    traced_wall = median([s.wall_s for s, *_ in runs])
    untraced_wall = median([s.wall_s for s in untraced])
    metrics = {
        "localmr.s": (busy("localmr.run"), "s"),
        "localmr.calls": (calls("localmr.run"), "count"),
        "localmr.record_iters": (count("localmr.record_iters"), "count"),
        "apps.partition_input_s": (busy("apps.partition_input"), "s"),
        "apps.state_fold_s": (busy("apps.state_fold"), "s"),
        "apps.local_solve_s": (busy("apps.local_solve"), "s"),
        "apps.global_combine_s": (busy("apps.global_combine"), "s"),
        "apps.converged_s": (busy("apps.converged"), "s"),
        "engine.run_s": (busy("engine.run"), "s"),
        "engine.jobs": (calls("engine.run"), "count"),
        "engine.pool_wait_s": (self_("engine.run"), "s"),
        "engine.attempt_ratio": (ratio("engine.tasks", "engine.attempts"), "ratio"),
        "task.map_s": (busy("task.map"), "s"),
        "task.reduce_s": (busy("task.reduce"), "s"),
        "columnar.route_combine_s": (busy("columnar.route_combine"), "s"),
        "shuffle.seal_s": (busy("shuffle.seal"), "s"),
        "shuffle.add_s": (busy("shuffle.add"), "s"),
        "shuffle.bytes": (count("shuffle.bytes"), "bytes"),
        "shm.export_s": (busy("shm.export"), "s"),
        "shm.export_bytes": (count("shm.export_bytes"), "bytes"),
        "shm.take_s": (busy("shm.take"), "s"),
        "shm.leaked_segments": (sum(s.leaked_segments for s in run.solves), "count"),
        "loop.self_s": (self_("loop.step"), "s"),
        "loop.rounds": (calls("loop.step"), "count"),
        "sched.self_s": (self_("sched.step"), "s"),
        "async.self_s": (self_("async.round"), "s"),
        "cluster.charge_s": (busy("cluster.charge"), "s"),
        "cluster.trace_events": (per_solve(lambda s, *_: s.trace_events), "count"),
        "cluster.backup_win_ratio": (per_solve(
            lambda s, *_: s.backups_won / s.backups if s.backups else 0.0), "ratio"),
        "store.consume_s": (busy("store.consume"), "s"),
        "store.publish_s": (busy("store.publish"), "s"),
        "store.round_trip_s": (busy("store.round_trip"), "s"),
        "store.consume_calls": (calls("store.consume"), "count"),
        "store.stale_reads": (per_solve(lambda s, *_: s.stale_reads), "count"),
        "graph.generate_s": (median([sp["graph.generate_s"] for sp in setup_spans]), "s"),
        "graph.partition_s": (median([sp["graph.partition_s"] for sp in setup_spans]), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1 if untraced_wall else 0.0,
                                "ratio"),
        "trace.coverage": (per_solve(lambda s, sm, c, sp: coverage(sp)), "ratio"),
    }

    names = sorted({n for *_, sm in runs for n in sm})
    rows = sorted(((n, calls(n), busy(n), self_(n)) for n in names),
                  key=lambda r: -r[3])
    layer_self: "dict[str, float]" = {}
    for n, _, _, sf in rows:
        layer_self[n.split(".")[0]] = layer_self.get(n.split(".")[0], 0.0) + sf
    e2e = [("solve_s untraced", fmt(untraced_wall)), ("solve_s traced", fmt(traced_wall)),
           ("trace.overhead_frac", fmt(metrics["trace.overhead_frac"][0])),
           ("trace.coverage", fmt(metrics["trace.coverage"][0])),
           ("solves traced/untraced", f"{len(runs)}/{len(untraced)}")]
    table = []
    for i in range(max(len(rows), len(e2e))):
        left = ((rows[i][0], fmt(rows[i][1]), fmt(rows[i][2]), fmt(rows[i][3]),
                 f"{rows[i][3] / traced_wall:.1%}" if traced_wall else "-")
                if i < len(rows) else ("",) * 5)
        right = e2e[i] if i < len(e2e) else ("", "")
        table.append((*left, "|", *right))
    print_rows("per-layer split, median per traced solve (wall clock)",
               ("span", "calls", "busy_s", "self_s", "self/solve", "|",
                "end-to-end", "value"), table)
    print_rows("self time by layer", ("layer", "self_s", "self/solve"),
               [(k, fmt(v), f"{v / traced_wall:.1%}" if traced_wall else "-")
                for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])])
    last_spans = runs[-1][1] if runs else []
    return metrics, last_spans


def write_spans(path: str, meta: dict, spans: list) -> None:
    base = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for i, (name, t0, t1, parent) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                 "start_s": t0 - base, "end_s": t1 - base}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no package at {SRC}/repro; run from the repository root "
              f"of a full checkout", file=sys.stderr)
        return 2
    for var, value in BLAS_ENV.items():
        os.environ.setdefault(var, value)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **host_metadata()}
    print("# " + json.dumps(meta))
    print(f"# why: {wl.why}")
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    tracker = TrackerLog(stem + ".tracker.log")
    run = Run(wl, args.seed)
    inst = None
    try:
        inst = run.build()
        wl.prepare(inst)
        if args.trace:
            metrics, spans = traced(run, inst, args.seconds)
        else:
            metrics = end_to_end(run, inst, args.seconds)
    finally:
        if inst is not None:
            inst.close()
        tracker_errors = tracker.stop()
    if tracker_errors:
        print(f"\nWARNING: resource tracker printed {tracker_errors} KeyError(s); "
              f"see {tracker.path}")
    if args.trace:
        metrics["shm.tracker_errors"] = (tracker_errors, "count")
        write_spans(stem + ".spans.jsonl", meta, spans)
    result = {
        "correct": run.failed == 0 and len(run.solves) > 0,
        "attempted": len(run.solves),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
