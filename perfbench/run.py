"""Layered benchmark of gcladder.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.WORKLOADS``, or ``all`` to run each of them in turn.  Every
workload runs in fresh worker processes of its own (``worker.py``), one at a
time, with BLAS and OpenMP pools pinned to one thread.  Each process runs
the same seeded operation set in rounds for its share of the seconds; every
execution is scaled to the reference host speed (``hostspeed.py``) and an
operation's time is the trimmed mean of its scaled executions.  Set-up time is the median over
``SETUP_SAMPLES`` fresh processes of the time from process start to inputs
ready.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead.  The lines before it give the same numbers for people,
with the tail percentile, the operation count and the failed fraction.  The
exit status is 0 when every operation's output was correct, 1 when some
was not, and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import stats
from hostspeed import REFERENCE_S
from tracing import unit_of
from workloads import PROCESSES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 50
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
THROUGHPUT_UNIT = {
    "fvector-cold": "compositions",
    "fvector-sweep": "compositions",
    "faces": "faces",
    "verify": "checks",
}


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, timeout):
    """Start a worker; return (seconds to READY, parsed result line or None)."""
    cmd = [sys.executable, str(WORKER)] + args
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        tail = (err or "").strip().splitlines()[-3:]
        raise BenchError(
            f"worker {' '.join(args)} failed (exit {proc.returncode}): "
            + " | ".join(tail)
        )
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def op_times(records, scaled, pick):
    """Op id -> (seconds, units) of the correct operations.  Each execution
    is scaled to the reference host speed or not; ``pick`` reduces an
    operation's executions to one time.  An operation that failed in any
    execution is left out."""
    runs, units, failed = {}, {}, set()
    for op_id, seconds, n_units, good, reference_s in records:
        if not good:
            failed.add(op_id)
        factor = REFERENCE_S / reference_s if scaled else 1.0
        runs.setdefault(op_id, []).append(seconds * factor)
        units[op_id] = n_units
    return {i: (pick(t), units[i]) for i, t in runs.items() if i not in failed}


def timing_metrics(times):
    """(throughput, p50, tail percentile, tail) of op id -> (seconds, units)."""
    seconds = [s for s, _ in times.values()]
    pct, tail_s = stats.tail(seconds)
    throughput = sum(u for _, u in times.values()) / sum(seconds)
    return throughput, stats.median(seconds), pct, tail_s


def end_to_end(workload, setup_samples, results):
    """End-to-end metrics from the worker processes of one untraced run.

    Every execution's time is scaled to the reference host speed
    (``hostspeed.py``), and an operation's time is the trimmed mean of its
    scaled executions (``stats.trimmed_mean``).  ``setup_samples`` are
    (seconds to READY, reference seconds right after) of fresh processes.
    """
    records = [op for result in results for op in result["ops"]]
    attempted = len(records)
    failed = sum(1 for op in records if not op[3])
    setup = [ready_s * REFERENCE_S / ref_s for ready_s, ref_s in setup_samples]
    metrics = {"setup_s": (stats.median(setup), "s")}
    notes = [
        f"setup_s is the median of {len(setup)} fresh processes "
        f"(unscaled {stats.median([r for r, _ in setup_samples]):.4f} s)"
    ]
    times = op_times(records, True, stats.trimmed_mean)
    if times:
        throughput, p50, pct, tail_s = timing_metrics(times)
        metrics["throughput"] = (throughput, "1/s")
        metrics["op_p50_s"] = (p50, "s")
        metrics["op_tail_s"] = (tail_s, "s")
        raw = timing_metrics(op_times(records, False, min))
        speed = stats.median([REFERENCE_S / op[4] for op in records])
        rounds = "+".join(str(r["rounds"]) for r in results)
        notes += [
            f"each operation timed as the trimmed mean of its executions "
            f"({attempted / len(times):.1f} on average; {rounds} rounds in "
            f"{len(results)} processes), scaled to the reference host speed",
            f"host speed {speed:.3f} of the reference; unscaled, fastest execution: "
            f"throughput {raw[0]:.6g}, op_p50_s {raw[1]:.6g}, op_tail_s {raw[3]:.6g}",
            f"throughput counts {THROUGHPUT_UNIT[workload]} per second of operation time",
            f"op_tail_s is p{pct:g} of {len(times)} correct operations",
        ]
    metrics["peak_rss_mb"] = (stats.median([r["peak_rss_mb"] for r in results]), "MB")
    notes.append(f"peak_rss_mb is the median over the {len(results)} processes")
    notes.append(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
    return attempted, failed, metrics, notes


def run_workload(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    samples, results = [], []
    for process in range(1 if trace else PROCESSES):
        ready_s, result = spawn(args + ["--process", str(process)], WORKER_TIMEOUT_S)
        if result is None:
            raise BenchError(f"worker for {workload} printed no result")
        samples.append((ready_s, result["setup_reference_s"]))
        results.append(result)
    if trace:
        result = results[0]
        attempted = len(result["ops"])
        failed = sum(1 for op in result["ops"] if not op[3])
        metrics = {k: (v, unit_of(k)) for k, v in result["per_layer"].items()}
        slow = result["slowest"]
        notes = [
            f"{result['spans']} spans in {result['trace_file']}",
            f"slowest traced op {slow['op']} ({slow['input']}): {slow['traced_s']:.4f} s",
        ]
        if result["missing"]:
            notes.append("not in this program: " + ", ".join(result["missing"]))
    else:
        while len(samples) < SETUP_SAMPLES:
            ready_s, result = spawn(args + ["--setup-only"], WORKER_TIMEOUT_S)
            if result is None:
                raise BenchError(f"set-up worker for {workload} printed no result")
            samples.append((ready_s, result["setup_reference_s"]))
        attempted, failed, metrics, notes = end_to_end(workload, samples, results)
    host = results[0]["host"]
    notes.append(
        f"host: python {host['python']}, numpy {host['numpy']}, nproc {host['nproc']}, "
        f"numba {'present' if host['numba'] else 'absent'}"
    )
    errors = [e if len(e) <= 200 else e[:197] + "..." for r in results for e in r["errors"]]
    return attempted, failed, metrics, notes + errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m, notes = run_workload(name, args.seed, args.seconds, args.trace)
            attempted += a
            failed += f
            print(f"workload {name} seed {args.seed}:")
            for key, (value, unit) in m.items():
                print(f"  {key:<34} {value:>16.6g} {unit}")
                metrics[key if len(names) == 1 else f"{name}.{key}"] = {
                    "value": value, "unit": unit,
                }
            for note in notes:
                print(f"  {note}")
            sys.stdout.flush()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
