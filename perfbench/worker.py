"""One workload in one fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--process P] [--setup-only]

The worker imports the program from ``src/`` of the checkout it lives in,
loads the expected results, generates the seeded inputs and prints
``READY``; the parent times set-up up to that line.  It then runs the
operations and prints one JSON line with per-operation times, failures and
peak memory, and, when traced, the per-layer metrics.

Untraced, the worker runs rounds for its share of ``--seconds``
(``workloads.MEASURE_SHARE``), the last one cut short; every operation is
timed alone and checked after its timer stops, and the host's speed is
sampled between operations (``hostspeed.py``); each execution reports the
reference time around it.  Traced, the same operations run in units (one
operation for the cold workloads, one round for the sweep), each unit
first untraced and then traced, until ``--seconds`` have passed; the median ratio of the two
gives the tracing overhead.  Spans carry the serial number of their
execution, since an operation runs once per round.  They are written to
``perfbench/out/``.
"""

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Speedometer, median_of
from tracing import Tracer, layer_metrics, program_modules, self_times
from workloads import (
    COLD_PER_OP, MEASURE_SHARE, PROCESSES, check, load_expected, make_rounds, repeats,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"
# Runs of the reference task right after set-up, to scale set-up time.
SETUP_REFERENCE_RUNS = 5


def import_program():
    """Import gcladder from this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gcladder
    import gcladder.cli  # noqa: F401  (binds the cli submodule)

    where = Path(gcladder.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"gcladder imported from {where}, not from {SRC}")
    return gcladder


def clear_caches():
    """cache_clear() on every attribute of every gcladder module that has
    one (looking through wrappers), then any public clear_caches()."""
    for mod in program_modules():
        for obj in list(vars(mod).values()):
            while obj is not None:
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
                    break
                obj = getattr(obj, "__wrapped__", None)
        public = getattr(mod, "clear_caches", None)
        if callable(public):
            public()


def memo_info():
    """(hits, misses) of the f-polynomial memo, or None if it has no stats."""
    genfunc = sys.modules.get("gcladder.genfunc")
    info = getattr(getattr(genfunc, "_f_polynomial_reduced", None), "cache_info", None)
    if not callable(info):
        return None
    stats = info()
    return stats.hits, stats.misses


class Runner:
    """Times operations one at a time and checks each output afterwards."""

    def __init__(self, gcladder, expected, speed=None):
        self.gcladder = gcladder
        self.cli = sys.modules["gcladder.cli"]
        self.expected = expected
        self.speed = speed  # a Speedometer, ticked before each operation
        self.errors = []
        self.timeline = []  # (start, end) of every execution

    def execute(self, op):
        """The timed part of an operation: calls into the program only."""
        g = self.gcladder
        if op.kind == "fvector":
            return g.f_vector(op.arg)
        if op.kind == "brute":
            diagram = g.build_diagram(op.arg)
            return g.brute_force_faces(diagram), g.enumerate_faces(diagram)
        if op.kind == "enumerate":
            return g.enumerate_faces(g.build_diagram(op.arg)), g.face_census(op.arg)
        if op.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(op.arg))
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def run_op(self, op, tracer=None, tag=None):
        """(seconds, ok).  A failed operation's time is never used.  Traced,
        the spans are marked with ``tag``."""
        output = None
        error = None
        start = perf_counter()
        try:
            if tracer is not None:
                tracer.begin_op(tag)
                try:
                    output = self.execute(op)
                finally:
                    tracer.end_op()
            else:
                output = self.execute(op)
        except Exception as exc:  # any failure of the program is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        self.timeline.append((start, start + seconds))
        if error is None:
            error = check(op, output, self.expected)
        if error is not None:
            self.errors.append(f"op {op.id} ({op.describe()}): {error}")
        return seconds, error is None

    def run_unit(self, ops, cold_per_op, tracer=None, first_tag=0):
        """Run ops from cold caches (per op or once for the unit); traced,
        the spans of the i-th op are tagged ``first_tag + i``."""
        results = []
        if not cold_per_op:
            clear_caches()
            gc.collect()
        for i, op in enumerate(ops):
            if cold_per_op:
                clear_caches()
                gc.collect()
            if self.speed is not None:
                self.speed.tick()
            results.append(self.run_op(op, tracer, first_tag + i))
        return results


def fitting(ops, last, left_s, cold_per_op):
    """The operations, in order, whose last times fit in ``left_s``.  Without
    cold caches per operation, none after the first that does not fit:
    later operations of a sweep need that one's memo."""
    chosen = []
    for op in ops:
        if last[op.id] <= left_s:
            chosen.append(op)
            left_s -= last[op.id]
        elif not cold_per_op:
            break
    return chosen


def untraced(runner, rounds, cold_per_op, budget_s):
    """Run one round, then further rounds (short cold operations repeated,
    see ``workloads.repeats``) until one does not fit in ``budget_s``; of
    that last round, only the operations whose last times fit in what is
    left run.  Report [op id, seconds, units, ok, reference seconds around
    it] for every execution, and the peak memory after the first round, so
    that the number of rounds the budget allows does not move it."""
    speed = runner.speed = Speedometer()
    runner.timeline = []
    done, last = [], {}
    count = 0
    deadline = perf_counter() + budget_s
    for round_ops in rounds:
        todo = round_ops
        if count:
            if cold_per_op:
                round_ops = [op for op in round_ops for _ in range(repeats(last[op.id]))]
            todo = fitting(round_ops, last, deadline - perf_counter(), cold_per_op)
        if todo:
            results = runner.run_unit(todo, cold_per_op)
            for op, (seconds, _) in zip(todo, results):
                last[op.id] = seconds
            done += zip(todo, results)
            count += 1
            if count == 1:
                peak_rss_mb = peak_rss()
        if len(todo) < len(round_ops):
            break
    speed.tick()
    return {"rounds": count, "peak_rss_mb": peak_rss_mb, "ops": [
        [op.id, seconds, op.units, ok, speed.around(start, end)]
        for (op, (seconds, ok)), (start, end) in zip(done, runner.timeline)
    ]}


def traced(runner, rounds, cold_per_op, seconds, out_path):
    tracer = Tracer()
    if cold_per_op:
        units = ([op] for round_ops in rounds for op in round_ops)
    else:
        units = rounds
    ops, table, ratios = [], [], []
    memo = None if memo_info() is None else [0, 0]
    start = perf_counter()
    for unit in units:
        plain = runner.run_unit(unit, cold_per_op)
        tracer.install()
        try:
            traced_results = runner.run_unit(unit, cold_per_op, tracer, len(table))
            if memo is not None:
                hits, misses = memo_info()
                memo[0] += hits
                memo[1] += misses
        finally:
            tracer.uninstall()
        for op, (p_s, p_ok), (t_s, t_ok) in zip(unit, plain, traced_results):
            ops.append([op.id, p_s, op.units, p_ok])
            ops.append([op.id, t_s, op.units, t_ok])
            table.append({"exec": len(table), "op": op.id, "input": op.describe(),
                          "untraced_s": p_s, "traced_s": t_s})
        ratios.append(sum(t for t, _ in traced_results) / sum(p for p, _ in plain))
        if perf_counter() - start >= seconds:
            break
    spans = tracer.spans
    selfs = self_times(spans)
    per_exec = {}
    for span, own in zip(spans, selfs):
        per_exec[span[4]] = per_exec.get(span[4], 0.0) + own
    for tag, total in per_exec.items():
        if total > table[tag]["traced_s"] + 1e-9:
            raise RuntimeError(
                f"self times of execution {tag} (op {table[tag]['op']}) "
                "exceed its wall time")
    # The median over units keeps one slow untraced or traced pass on a
    # shared host from deciding the overhead.
    metrics = layer_metrics(tracer, memo, statistics.median(ratios) - 1.0)
    slowest = max(table, key=lambda row: row["traced_s"])
    write_trace(out_path, tracer, table)
    return {
        "ops": ops,
        "per_layer": metrics,
        "missing": tracer.missing,
        "slowest": slowest,
        "spans": len(spans),
        "trace_file": os.path.relpath(out_path, ROOT),
    }


def peak_rss():
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_trace(path, tracer, table):
    layers = sorted({span[0] for span in tracer.spans})
    index = {layer: i for i, layer in enumerate(layers)}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "columns": ["layer", "start_s", "end_s", "parent", "exec"],
                "layers": layers,
                "spans": [
                    [index[s[0]], round(s[1] - origin, 7), round(s[2] - origin, 7), s[3], s[4]]
                    for s in tracer.spans
                ],
                "ops": table,
            },
            fh,
            separators=(",", ":"),
        )


def host():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--process", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    gcladder = import_program()
    expected = load_expected()
    rounds = make_rounds(args.workload, args.seed, expected, args.process)
    print("READY", flush=True)
    setup_reference_s = median_of(SETUP_REFERENCE_RUNS)
    if args.setup_only:
        print(json.dumps({"setup_reference_s": setup_reference_s}), flush=True)
        return 0

    runner = Runner(gcladder, expected)
    cold_per_op = args.workload in COLD_PER_OP
    if args.trace:
        out_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        result = traced(runner, rounds, cold_per_op, args.seconds, out_path)
    else:
        result = untraced(runner, rounds, cold_per_op,
                          args.seconds * MEASURE_SHARE / PROCESSES)
    result["setup_reference_s"] = setup_reference_s
    result["errors"] = runner.errors[:20]
    result["host"] = host()
    result.setdefault("peak_rss_mb", peak_rss())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
