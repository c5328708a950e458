"""Workload inputs, operations and their correctness checks.

Inputs come only from the seed and from the expected-results files; the
program under test is never consulted to build them.  A run draws one set
of operations from the seed (the rational spectra of ``verify``; the other
workloads have a fixed set) and executes that set once per round, in a
fresh seeded order each round.  An operation keeps its id in every round,
so its time can be taken over all its executions.

An operation calls the program through its public functions or
``cli.main`` and returns its output.  ``check`` compares that output with
the expected result and calls nothing in the program, so it can run after
the timer has stopped.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
GOLDEN = ROOT / "golden" / "fvectors_n6.json"

WORKLOADS = ("fvector-cold", "fvector-sweep", "faces", "verify")

# Every run executes its rounds in PROCESSES fresh worker processes, one
# after the other, each for MEASURE_SHARE / PROCESSES of --seconds (the rest
# is left for starting processes and timing set-up).  A process runs one
# whole round and then no operation it expects to end past its share.
PROCESSES = 2
MEASURE_SHARE = 0.85
# After the first round, an operation of a cold workload that took less
# than SHORT_OP_S runs up to MAX_REPEATS times in a row: the host's jitter
# moves short executions most, and more of them cost little.
SHORT_OP_S = 0.02
MAX_REPEATS = 4
# Workloads whose caches are cleared before every operation; the others
# clear them once at the start of each round.
COLD_PER_OP = {"fvector-cold", "faces", "verify"}

COLD_N = 8  # every second composition of 8, in lexicographic order
SWEEP_MAX_N = 9
BRUTE_FORCE_EDGES = 22
ENUM_EDGES = (28, 40)
ENUM_MAX_FACES = 1_250_000
ISO_MAX_N = 4
SPECTRUM_DENOMINATOR = 6
VERIFY_ALL = ("verify", "all", "--format", "json")
VERIFY_PDE = ("verify", "pde", "--s", "3", "--degree", "8", "--format", "json")


class SetupError(Exception):
    """The expected results are missing or inconsistent."""


@dataclass
class Op:
    id: int
    kind: str  # "fvector", "brute", "enumerate" or "cli"
    arg: tuple  # a composition, or argv for "cli"
    units: int  # work units credited when the output is correct

    def describe(self):
        if self.kind == "cli":
            return "gcladder " + " ".join(self.arg)
        return f"{self.kind} {','.join(map(str, self.arg))}"


@dataclass
class Expected:
    fvectors: dict  # composition -> tuple of ints
    edges: dict  # composition -> diagram edge count
    cli_stdout: dict  # argv -> exact stdout


def load_expected():
    """Load and cross-check the expected results (set-up, untimed)."""
    try:
        data = json.loads((EXPECTED / "fvectors.json").read_text())
        golden = json.loads(GOLDEN.read_text())
        cli_stdout = {
            VERIFY_ALL: (EXPECTED / "verify_all.json").read_text(),
            VERIFY_PDE: (EXPECTED / "verify_pde_s3_d8.json").read_text(),
        }
    except OSError as exc:
        raise SetupError(f"cannot read expected results: {exc}") from exc
    if data.get("format") != "perfbench/expected-fvectors":
        raise SetupError("unexpected format of expected/fvectors.json")
    fvectors, edges = {}, {}
    for entry in data["entries"]:
        comp = tuple(entry["composition"])
        fvectors[comp] = tuple(int(c) for c in entry["coefficients"])
        edges[comp] = entry["edges"]
    for entry in golden["entries"]:
        comp = tuple(entry["composition"])
        if fvectors.get(comp) != tuple(int(c) for c in entry["coefficients"]):
            raise SetupError(f"expected f-vector of {comp} disagrees with {GOLDEN.name}")
    return Expected(fvectors, edges, cli_stdout)


def compositions(n):
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def random_spectrum(rng, comp):
    """Weakly decreasing exact rationals whose blocks of equal values have
    the sizes given by ``comp``.  All values share one denominator, so that
    the size of the numbers, and with it the cost of the exact arithmetic,
    is about the same for every seed."""
    numerators = sorted(rng.sample(range(1, 361), len(comp)), reverse=True)
    out = []
    for num, size in zip(numerators, comp):
        out += [str(Fraction(num, SPECTRUM_DENOMINATOR))] * size
    return ",".join(out)


def _op_set(workload, rng, expected):
    """The (kind, arg, units) tuples every round of a run executes."""
    fv = expected.fvectors
    if workload == "fvector-cold":
        # A fixed set, so that the seed changes only the order: cold costs
        # of compositions with the same n and part count differ up to 20x,
        # and a seeded draw among them moved the tail by 25% between seeds.
        # Every second composition keeps each part count in the set.
        return [("fvector", c, 1) for c in compositions(COLD_N)[::2]]
    if workload == "fvector-sweep":
        return [("fvector", c, 1) for n in range(1, SWEEP_MAX_N + 1)
                for c in compositions(n)]
    if workload == "faces":
        brute = sorted(c for c, e in expected.edges.items() if e <= BRUTE_FORCE_EDGES)
        lo, hi = ENUM_EDGES
        pool = sorted(
            (sum(fv[c]), c) for c, e in expected.edges.items()
            if lo <= e <= hi and sum(fv[c]) <= ENUM_MAX_FACES
        )
        # Every second diagram by face count, and the largest one.
        sample = pool[::2] + ([pool[-1]] if len(pool) % 2 == 0 else [])
        return ([("brute", c, sum(fv[c])) for c in brute]
                + [("enumerate", c, faces) for faces, c in sample])
    if workload == "verify":
        all_checks = len(json.loads(expected.cli_stdout[VERIFY_ALL])["checks"])
        items = [("cli", VERIFY_ALL, all_checks), ("cli", VERIFY_PDE, 1)]
        for n in range(1, ISO_MAX_N + 1):
            for comp in compositions(n):
                argv = ("verify", "iso", "--lambda", random_spectrum(rng, comp),
                        "--format", "json")
                items.append(("cli", argv, 1))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def _shuffled(workload, ops, rng):
    """One round's order of ``ops``.  The sweep goes by increasing n, as
    golden tables are built, so that every composition finds its children
    in the memo; its order is seeded within each n only."""
    if workload != "fvector-sweep":
        order = list(ops)
        rng.shuffle(order)
        return order
    order = []
    for n in sorted({sum(op.arg) for op in ops}):
        level = [op for op in ops if sum(op.arg) == n]
        rng.shuffle(level)
        order += level
    return order


def repeats(last_s):
    """Executions in a row of a cold operation whose last time was last_s."""
    if last_s <= 0:
        return MAX_REPEATS
    return max(1, min(MAX_REPEATS, int(SHORT_OP_S / last_s)))


def make_rounds(workload, seed, expected, process=0):
    """The rounds worker ``process`` of a run executes, without end: the
    run's seeded operation set, in a fresh seeded order each round."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [Op(i, kind, arg, units)
           for i, (kind, arg, units) in enumerate(_op_set(workload, rng, expected))]
    order_rng = random.Random(f"{workload}:{seed}:{process}")
    while True:
        yield _shuffled(workload, ops, order_rng)


# -- checks: pure functions of the output and the expected results ---------

def _fvector_of_composition(expected, comp):
    want = expected.fvectors.get(tuple(p for p in comp if p > 0))
    if want is None:
        raise SetupError(f"no expected f-vector for {comp}")
    return want


def _face_errors(faces, want):
    """Faces must come sorted by strictly increasing mask, with the expected
    number of faces in each dimension."""
    if len(faces) != sum(want):
        return f"{len(faces)} faces, expected {sum(want)}"
    counts = [0] * len(want)
    prev = -1
    for face in faces:
        mask, dim = face.mask, face.dim
        if mask <= prev:
            return f"masks not strictly increasing at {mask:#x}"
        prev = mask
        if not 0 <= dim < len(want):
            return f"face {mask:#x} has dimension {dim}"
        counts[dim] += 1
    if tuple(counts) != want:
        return f"census {counts}, expected {list(want)}"
    return None


def check(op, output, expected):
    """None when the output is correct, else a one-line description."""
    if op.kind == "fvector":
        want = _fvector_of_composition(expected, op.arg)
        got = tuple(output)
        return None if got == want else f"f-vector {got}, expected {want}"
    if op.kind == "brute":
        brute, recursive = output
        want = _fvector_of_composition(expected, op.arg)
        error = _face_errors(recursive, want)
        if error:
            return "recursion: " + error
        if len(brute) != len(recursive):
            return f"brute force found {len(brute)} faces, recursion {len(recursive)}"
        for a, b in zip(brute, recursive):
            if a.mask != b.mask:
                return f"brute force mask {a.mask:#x} vs recursion {b.mask:#x}"
        return None
    if op.kind == "enumerate":
        faces, census = output
        want = _fvector_of_composition(expected, op.arg)
        error = _face_errors(faces, want)
        if error:
            return error
        if dict(census) != {i: c for i, c in enumerate(want) if c}:
            return f"face_census {dict(census)}, expected {list(want)}"
        return None
    if op.kind == "cli":
        code, stdout = output
        if code != 0:
            return f"exit status {code}"
        if op.arg in expected.cli_stdout:
            return None if stdout == expected.cli_stdout[op.arg] else "stdout differs"
        return _iso_errors(op.arg, stdout, expected)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _iso_errors(argv, stdout, expected):
    spectrum = argv[argv.index("--lambda") + 1].split(",")
    comp = []
    for i, value in enumerate(spectrum):
        if i and value == spectrum[i - 1]:
            comp[-1] += 1
        else:
            comp.append(1)
    want = {str(i): c for i, c in enumerate(expected.fvectors[tuple(comp)])}
    try:
        report = json.loads(stdout)
        (iso,) = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    expect = {
        "format": "gcladder/iso-report",
        "composition": comp,
        "spectrum": [str(Fraction(v)) for v in spectrum],
        "diagram_counts": want,
        "polytope_counts": want,
        "face_count": sum(want.values()),
        "bijection": True,
        "order": True,
        "dimension": True,
        "roundtrip": True,
        "counterexample": None,
        "pass": True,
    }
    for key, value in expect.items():
        if iso.get(key) != value:
            return f"{key} is {iso.get(key)!r}, expected {value!r}"
    if report.get("target") != "iso" or report.get("pass") is not True:
        return "report does not pass"
    return None
