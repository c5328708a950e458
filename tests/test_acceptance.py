"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; the runtime bounds are asserted
alongside the mathematical checks.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time
from fractions import Fraction

import numpy as np

from gcladder.cli import main
from gcladder.genfunc import (
    check_operator_expansion,
    check_transform_round_trip,
    check_word_action,
    f_polynomial,
    f_vector,
    verify_generating_pde,
    verify_vertex_pde,
)
from gcladder.ladder import (
    brute_force_faces,
    build_diagram,
    compositions_of,
    compositions_with_edge_bound,
    enumerate_faces,
)
from gcladder.polytope import (
    Spectrum,
    canonical_spectrum,
    verify_isomorphism,
    witness_violations,
)


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"{status}: criterion {number} ({name}) in {elapsed:.2f}s "
        f"(budget {budget:.0f}s)"
    )
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_golden_count(capsys):
    t0 = time.perf_counter()
    code = main(["fvector", "--k", "1,1,1"])
    out = capsys.readouterr().out
    ok = code == 0 and "f = (7, 11, 6, 1)" in out
    ok = ok and f_vector((1, 1, 1)) == (7, 11, 6, 1)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(1, "golden count for (1,1,1)", ok, elapsed, 1.0)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    comps = compositions_with_edge_bound(20)
    for n in range(1, 5):
        for comp in compositions_of(n):
            assert comp in comps
    ok = True
    for comp in comps:
        diagram = build_diagram(comp)
        brute = brute_force_faces(diagram)
        recursive = enumerate_faces(diagram)
        ok = ok and np.array_equal(brute.masks, recursive.masks)
        counts = recursive.census()
        fvec = f_vector(comp)
        ok = ok and tuple(counts.get(i, 0) for i in range(len(fvec))) == fvec
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(2, f"oracle equivalence over {len(comps)} compositions", ok, elapsed, 120.0)


def _second_spectrum(comp):
    values = []
    s = len(comp)
    for i, part in enumerate(comp, start=1):
        values.extend([Fraction(2 * (s - i) + 1, 2)] * part)
    return Spectrum(values)


def test_criterion_3_lattice_isomorphism():
    t0 = time.perf_counter()
    ok = True
    runs = 0
    for n in range(1, 5):
        for comp in compositions_of(n):
            for spectrum in (canonical_spectrum(comp), _second_spectrum(comp)):
                report = verify_isomorphism(spectrum)
                runs += 1
                ok = ok and report.passed
                if not ok:
                    print(report.summary())
                    break
    elapsed = time.perf_counter() - t0
    _report(3, f"lattice isomorphism over {runs} spectra", ok, elapsed, 300.0)


def test_criterion_4_generating_pde():
    t0 = time.perf_counter()
    ok = all(verify_generating_pde(s, 6).passed for s in (1, 2, 3))
    elapsed = time.perf_counter() - t0
    _report(4, "generating-function identity s=1..3 at degree 6", ok, elapsed, 120.0)


def test_criterion_5_vertex_pde():
    t0 = time.perf_counter()
    ok = all(verify_vertex_pde(s, 6).passed for s in (1, 2, 3))
    elapsed = time.perf_counter() - t0
    _report(5, "vertex-count identity s=1..3 at degree 6", ok, elapsed, 60.0)


def test_criterion_6_identity_suite():
    t0 = time.perf_counter()
    ok = all(check_operator_expansion(s) for s in (2, 3, 4))
    ok = ok and check_word_action(2, 6) == []
    ok = ok and check_word_action(3, 6) == []
    ok = ok and check_transform_round_trip(5, 4) == []
    elapsed = time.perf_counter() - t0
    _report(6, "operator and transform identities", ok, elapsed, 60.0)


def test_criterion_7_representative_points():
    t0 = time.perf_counter()
    ok = True
    faces = 0
    for n in range(1, 6):
        for comp in compositions_of(n):
            face_set = enumerate_faces(build_diagram(comp))
            faces += len(face_set)
            ok = ok and not witness_violations(face_set, canonical_spectrum(comp))
    elapsed = time.perf_counter() - t0
    _report(7, f"representative-point strictness over {faces} faces", ok, elapsed, 60.0)


def test_criterion_8_structural_properties():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for comp in compositions_of(n):
            poly = f_polynomial(comp)
            ok = ok and poly(-1) == 1  # alternating face counts
            top = (n * n - sum(p * p for p in comp)) // 2
            ok = ok and poly.degree == top and poly.coeffs[-1] == 1
            ok = ok and poly == f_polynomial(tuple(reversed(comp)))
    elapsed = time.perf_counter() - t0
    _report(8, "structural properties up to n=6", ok, elapsed, 120.0)
