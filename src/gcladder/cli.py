"""Command-line interface: f-vectors, face listings and verification suites.

Human-readable tables are the default; ``--format json`` switches every
subcommand to the versioned record format (byte-deterministic, documented
in the README).  Exit status is 0 exactly when every requested check
passes; input that cannot give a verdict is refused with exit 2 and one
``refusal:`` line on stderr.
"""

import argparse
import sys

import numpy as np

from . import records
from .genfunc import (
    _check_pde_args,
    check_operator_expansion,
    check_transform_round_trip,
    check_word_action,
    f_polynomial,
    verify_generating_pde,
    verify_vertex_pde,
)
from .ladder import (
    assignment_of_face,
    brute_force_faces,
    build_diagram,
    compositions_of,
    compositions_with_edge_bound,
    diagram_edge_count,
    enumerate_faces,
)
from .polytope import Spectrum, canonical_spectrum, verify_isomorphism
from .words import child_composition

ORACLE_EDGE_BOUND = 20
# Most edges of a diagram that `faces` lists or `verify oracle --max-n`
# scans; the library's scan is capped by free edges (`ladder.MAX_FREE_EDGES`).
MAX_BRUTE_FORCE_EDGES = 22
# Largest n that `verify iso` and `verify all` send to the polyhedral oracle,
# below the library's `polytope.MAX_ORACLE_N`, so `verify all` stays as pinned.
MAX_ISO_N = 4
# Largest n = k_1 + ... + k_s that `fvector` computes.  On a 2-core Xeon
# the slowest compositions found at n = 12 take about 0.6 s, and at n = 13
# about 1.5 s, in process: each further unit of n costs about 3x more.
MAX_FVECTOR_N = 12
DEFAULT_DEGREE = 6
PDE_S_RANGE = (1, 2, 3)
# Largest --s and --degree that `verify pde`, `gkt` and `all` accept.  The
# series inputs are compositions with n <= degree, so the degree bound is
# the fvector bound.  On a 2-core Xeon the slowest accepted check,
# `verify pde --s 5 --degree 12`, takes about 1.4-1.8 s in a fresh process
# (the word-action check of `verify all --degree 12` about 3-6 ms in
# process); s = 6 takes about 3.4 s at degree 12 in process, and each
# further unit of degree costs about 2-3x more.
MAX_PDE_S = 5
MAX_PDE_DEGREE = MAX_FVECTOR_N
# Smallest --degree that `verify all` accepts: every word of its s = 3
# word-action check has order 2, so below degree 2 it would compare nothing.
MIN_ALL_DEGREE = 2
_WORD_LETTER = {(1, 0): "R", (0, 1): "U", (1, 1): "B"}


def _composition(text):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"composition must be comma-separated integers, got {text!r}"
        )
    if not parts or any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError(
            f"composition parts must be non-negative, got {text!r}"
        )
    return parts


def _emit(args, payload, human_lines):
    if args.format == "json":
        sys.stdout.write(records.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def cmd_fvector(args):
    n = sum(args.k)
    if n > MAX_FVECTOR_N:
        raise ValueError(
            f"cannot compute the f-vector: n = {n} exceeds the bound "
            f"n <= {MAX_FVECTOR_N}"
        )
    golden = records.load_golden(args.golden) if args.golden else None
    poly = f_polynomial(args.k)
    payload = records.fvector_record(args.k)
    lines = [
        f"composition: ({', '.join(str(p) for p in args.k)})",
        f"f = ({', '.join(str(c) for c in poly.coeffs)})",
        f"F(t) = {poly}",
    ]
    status = 0
    if golden is not None:
        entries = {
            tuple(e["composition"]): tuple(e["coefficients"])
            for e in golden["entries"]
        }
        key = tuple(p for p in args.k if p > 0)
        want = entries.get(key)
        got = tuple(str(c) for c in poly.coeffs)
        if want is None:
            lines.append(f"golden: no entry for {key}")
            status = 1
        elif want != got:
            lines.append(f"golden: MISMATCH recorded {want}")
            status = 1
        else:
            lines.append("golden: ok")
        payload["golden_ok"] = status == 0
    _emit(args, payload, lines)
    return status


def _decomposition(face):
    """Assignment word and child composition of one face."""
    word = assignment_of_face(face)
    return word, child_composition(face.diagram.composition, word)


def cmd_faces(args):
    # The closed form refuses a large diagram without building it.
    edges = diagram_edge_count(args.k)
    if edges > MAX_BRUTE_FORCE_EDGES:
        raise ValueError(
            f"cannot list faces: diagram has {edges} edges "
            f"(bound {MAX_BRUTE_FORCE_EDGES}); use `gcladder fvector` for counts"
        )
    diagram = build_diagram(args.k)
    faces = enumerate_faces(diagram)
    decompose = args.decompose and diagram.n > 0
    if args.format == "json":
        payload = records.face_list_record(faces)
        if decompose:
            for rec, (_, face) in zip(payload["faces"], records.listed_faces(faces)):
                word, child = _decomposition(face)
                rec["word"] = [list(letter) for letter in word]
                rec["child_composition"] = list(child)
        sys.stdout.write(records.dumps(payload))
        return 0
    print(f"composition: ({', '.join(str(p) for p in diagram.composition)})")
    print(f"edges: {diagram.num_edges}")
    print(f"faces: {len(faces)}")
    for edges_hex, face in records.listed_faces(faces):
        line = f"  dim {face.dim}  edges 0x{edges_hex}"
        if decompose:
            word, child = _decomposition(face)
            word_str = "".join(_WORD_LETTER[letter] for letter in word) or "-"
            line += f"  word {word_str}  child ({', '.join(map(str, child))})"
        print(line)
    return 0


def _check_oracle_max_n(max_n):
    # (1, ..., 1) has the largest diagram for its n, so a large --max-n is
    # refused at n = 5 without building any diagram.
    for n in range(1, max_n + 1):
        edges = diagram_edge_count((1,) * n)
        if edges > MAX_BRUTE_FORCE_EDGES:
            raise ValueError(
                f"--max-n {max_n}: composition {(1,) * n} has {edges} edges "
                f"(brute-force bound {MAX_BRUTE_FORCE_EDGES})"
            )


def _load_bounded_golden(path):
    # `check_golden` recomputes every entry, so each is held to the fvector bound.
    golden = records.load_golden(path)
    for i, entry in enumerate(golden["entries"]):
        n = sum(entry["composition"])
        if n > MAX_FVECTOR_N:
            raise ValueError(
                f"{path}: entry {i} has n = {n}, above the bound n <= {MAX_FVECTOR_N}"
            )
    return golden


def _verify_oracle(args, golden, lines, details):
    if args.max_n is not None:
        comps = [c for n in range(1, args.max_n + 1) for c in compositions_of(n)]
    else:
        comps = compositions_with_edge_bound(ORACLE_EDGE_BOUND)
    ok = True
    for comp in comps:
        diagram = build_diagram(comp)
        brute = brute_force_faces(diagram)
        recursive = enumerate_faces(diagram)
        # the oracle's cycle-rank dimensions must match the word weights too
        same_sets = np.array_equal(brute.masks, recursive.masks) and np.array_equal(
            brute.dims, recursive.dims
        )
        census = recursive.census()
        poly_ok = tuple(
            census.get(i, 0) for i in range(max(census) + 1)
        ) == tuple(f_polynomial(comp).coeffs)
        good = same_sets and poly_ok
        ok = ok and good
        lines.append(
            f"  {'ok ' if good else 'FAIL'} k={comp} faces={len(brute)} "
            f"edges={diagram.num_edges}"
        )
        details.append(
            {
                "composition": list(comp),
                "faces": len(brute),
                "edge_sets_match": same_sets,
                "fpolynomial_match": poly_ok,
            }
        )
    if golden is not None:
        bad = records.check_golden(golden)
        lines.append(
            f"  golden file {args.golden}: "
            + ("ok" if not bad else f"{len(bad)} mismatches")
        )
        details.append({"golden_mismatches": len(bad)})
        ok = ok and not bad
    return ok


def _pde_s_values(args):
    return [args.s] if args.s is not None else list(PDE_S_RANGE)


def _verify_reports(reports, to_record, lines, details):
    ok = True
    for report in reports:
        ok = ok and report.passed
        lines.append("  " + report.summary())
        details.append(to_record(report))
    return ok


def _verify_pde(args, lines, details, vertex):
    runner = verify_vertex_pde if vertex else verify_generating_pde
    reports = (runner(s, args.degree) for s in _pde_s_values(args))
    return _verify_reports(reports, records.pde_report_record, lines, details)


def _verify_identities(args, lines, details):
    expansion = all(check_operator_expansion(s) for s in (2, 3, 4))
    action = not (check_word_action(2, args.degree) or check_word_action(3, args.degree))
    round_trip = not check_transform_round_trip(5, 4)
    for name, good in (
        ("operator expansion", expansion),
        ("word action on monomials", action),
        ("transform round trip", round_trip),
    ):
        lines.append(f"  {'ok ' if good else 'FAIL'} {name}")
        details.append({"check": name, "pass": good})
    return expansion and action and round_trip


def cmd_verify(args):
    # refuse arguments that cannot give a verdict before any check starts
    spectrum = None if args.spectrum is None else Spectrum.parse(args.spectrum)
    if args.target == "iso" and spectrum is None:
        raise ValueError("verify iso requires --lambda")
    if args.max_n is not None and args.max_n < 1:
        raise ValueError(f"--max-n must be positive, got {args.max_n}")
    # --max-n only lowers the oracle cap, for iso as for the suite of all
    iso_max_n = min(args.max_n or MAX_ISO_N, MAX_ISO_N)
    if args.target in ("iso", "all") and spectrum is not None and spectrum.n > iso_max_n:
        raise ValueError(
            f"polyhedral oracle is capped at n <= {iso_max_n}; got n = {spectrum.n}"
        )
    if args.target in ("pde", "gkt", "all"):
        # the checks of verify_generating_pde, made before the iso suite
        for s in _pde_s_values(args):
            _check_pde_args(s, args.degree)
            if s > MAX_PDE_S or args.degree > MAX_PDE_DEGREE:
                raise ValueError(
                    f"--s {s} --degree {args.degree} exceeds the bound "
                    f"s <= {MAX_PDE_S}, degree <= {MAX_PDE_DEGREE}"
                )
    if args.target == "all" and args.degree < MIN_ALL_DEGREE:
        raise ValueError(
            f"verify all needs --degree >= {MIN_ALL_DEGREE}, got {args.degree}"
        )
    golden = None
    if args.target in ("oracle", "all"):
        if args.max_n is not None:
            _check_oracle_max_n(args.max_n)
        if args.golden:
            golden = _load_bounded_golden(args.golden)
    lines = []
    details = []
    results = []
    if args.target in ("iso", "all"):
        if spectrum is None:  # only `all` runs without --lambda
            lines.append("isomorphism (canonical spectra):")
            spectra = [
                canonical_spectrum(comp)
                for n in range(1, iso_max_n + 1)
                for comp in compositions_of(n)
            ]
        else:
            lines.append("isomorphism:")
            spectra = [spectrum]
        reports = map(verify_isomorphism, spectra)
        results.append(_verify_reports(reports, records.iso_report_record, lines, details))
    if args.target in ("pde", "all"):
        lines.append("generating-function identity:")
        results.append(_verify_pde(args, lines, details, vertex=False))
    if args.target in ("gkt", "all"):
        lines.append("vertex-count identity:")
        results.append(_verify_pde(args, lines, details, vertex=True))
    if args.target in ("oracle", "all"):
        lines.append("enumeration oracle:")
        results.append(_verify_oracle(args, golden, lines, details))
    if args.target == "all":
        lines.append("operator and transform identities:")
        results.append(_verify_identities(args, lines, details))
    passed = all(results)
    lines.append("result: " + ("PASS" if passed else "FAIL"))
    payload = {
        "format": "gcladder/verify-report",
        "version": records.VERSION,
        "target": args.target,
        "checks": details,
        "pass": passed,
    }
    _emit(args, payload, lines)
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcladder",
        description=(
            "Face lattices and f-vectors of Gelfand-Cetlin polytopes through "
            "ladder diagrams, with exact verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fvec = sub.add_parser("fvector", help="f-vector and f-polynomial of a composition")
    p_fvec.add_argument("--k", type=_composition, required=True, metavar="K1,K2,...")
    p_fvec.add_argument("--format", choices=("table", "json"), default="table")
    p_fvec.add_argument("--golden", help="golden f-vector file to check against")
    p_fvec.set_defaults(func=cmd_fvector)

    p_faces = sub.add_parser("faces", help="list all faces of a diagram")
    p_faces.add_argument("--k", type=_composition, required=True, metavar="K1,K2,...")
    p_faces.add_argument("--format", choices=("table", "json"), default="table")
    p_faces.add_argument(
        "--decompose",
        action="store_true",
        help="attach each face's assignment word and child composition",
    )
    p_faces.set_defaults(func=cmd_faces)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "target", choices=("iso", "pde", "gkt", "oracle", "all")
    )
    p_verify.add_argument(
        "--lambda",
        dest="spectrum",
        default=None,
        metavar="L1,L2,...",
        help="weakly decreasing exact rationals, e.g. 2,1,0 or 3/2,3/2,0",
    )
    p_verify.add_argument("--s", type=int, default=None)
    p_verify.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--golden", default=None)
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.set_defaults(func=cmd_verify)

    return parser


# Built once per process: a parse leaves the parser as it was, and
# building one costs about 1 ms.  So argument defaults such as
# DEFAULT_DEGREE, and the cmd_* functions, are read here, at import;
# build_parser() reads them again.
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"refusal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
