import inspect
import random
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from gcladder import ladder, polytope
from gcladder.genfunc import f_vector
from gcladder.ladder import (
    BOTTOM,
    DiagramFace,
    FaceSet,
    brute_force_faces,
    build_diagram,
    compositions_of,
    compositions_with_edge_bound,
    enumerate_faces,
    is_face,
)
from gcladder.polytope import (
    GCSystem,
    IsoReport,
    PolytopeFace,
    Spectrum,
    _project,
    build_system,
    canonical_spectrum,
    face_counts_by_dim,
    face_lattice,
    inclusion_mismatch,
    phi,
    polytope_vertices,
    psi,
    representative_point,
    verify_isomorphism,
    witness_violations,
)


def halved_spectrum(comp):
    """Second spectrum per composition: strictly decreasing half-integers."""
    values = []
    s = len(comp)
    for i, part in enumerate(comp, start=1):
        values.extend([Fraction(2 * (s - i) + 1, 2)] * part)
    return Spectrum(values)


def sixths_spectrum(comp):
    """Third spectrum per composition: block values over 6, whose reduced
    denominators mix 1, 2, 3 and 6."""
    values = []
    s = len(comp)
    for i, part in enumerate(comp, start=1):
        values.extend([Fraction(5 * (s - i) + 1, 6)] * part)
    return Spectrum(values)


def compositions_up_to(n):
    return [comp for m in range(1, n + 1) for comp in compositions_of(m)]


def only_face(faces, k):
    """The face set holding face k of ``faces`` alone."""
    k = range(len(faces))[k]
    return FaceSet(faces.diagram, faces.masks[k : k + 1], faces.dims[k : k + 1])


def mutated(name, old, new):
    """The polytope function ``name`` recompiled with one fragment of its
    source replaced, in a copy of the module's namespace."""
    source = inspect.getsource(getattr(polytope, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(polytope))
    exec(source.replace(old, new), namespace)
    return namespace[name]


# References: the dense Fraction row of each constraint, the
# square-subsystem vertex scan, the Fraction elimination
# for affine rank, the fraction-free rank of tight rows and the all-pairs
# inclusion scan that the oracle replaced.


def reduce_rows(rows):
    """Reduced row echelon form of Fraction rows: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        top = len(pivots)
        rows[top], rows[piv] = rows[piv], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def dense_row(sys, con):
    """The constraint as (coeffs, const) with coeffs.x + const >= 0, built
    from its kind, its position (i, j) and the spectrum alone."""
    at = {p: t for t, p in enumerate(sys.index_set)}
    lam = sys.spectrum.values
    i, j = con.i, con.j
    coeffs = [Fraction(0)] * sys.d
    const = Fraction(0)
    if con.kind == "up":  # x_{i,j+1} - x_{i,j} >= 0
        coeffs[at[i, j]] -= 1
        if (i, j + 1) in at:
            coeffs[at[i, j + 1]] += 1
        else:
            const = lam[i - 1]
    else:  # x_{i,j} - x_{i+1,j} >= 0
        coeffs[at[i, j]] += 1
        if (i + 1, j) in at:
            coeffs[at[i + 1, j]] -= 1
        else:
            const = -lam[i]
    return tuple(coeffs), const


def dense_value(row, point):
    coeffs, const = row
    return const + sum(c * x for c, x in zip(coeffs, point) if c)


def subsystem_scan_vertices(sys):
    """Vertices as the feasible solutions of all square tight subsystems."""
    dense = [dense_row(sys, c) for c in sys.constraints]
    found = set()
    for subset in combinations(dense, sys.d):
        rows, pivots = reduce_rows([(*coeffs, -const) for coeffs, const in subset])
        if len(pivots) < sys.d:
            continue  # singular
        point = tuple(rows[r][sys.d] for r in range(sys.d))
        if all(dense_value(row, point) >= 0 for row in dense):
            found.add(point)
    return tuple(sorted(found))


def affine_rank(points):
    base = points[0]
    return len(reduce_rows([[a - b for a, b in zip(p, base)] for p in points[1:]])[1])


def reference_rank(rows):
    """Rank of integer rows, by fraction-free elimination."""
    rows = [r for r in rows if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(c for c, a in enumerate(pivot) if a)
        rows = [
            r for r in (_project(r, pivot[col], r[col], pivot) for r in rows) if any(r)
        ]
        rank += 1
    return rank


def all_pairs_mismatch(left, right):
    for a in range(len(left)):
        for b in range(len(left)):
            if (left[a] | left[b] == left[b]) != (right[a] | right[b] == right[b]):
                return a, b
    return None


# The per-face check that the array-native verify_isomorphism replaced: phi
# and psi read the diagram's edge index one constraint at a time.


def reference_phi(sys, face):
    if face.is_empty:
        return BOTTOM
    diagram = build_diagram(sys.spectrum.composition)
    mask = diagram.axes_mask
    for idx, con in enumerate(sys.constraints):
        if face.tight_mask >> idx & 1:
            continue
        bit = diagram.edge_bit(*con.edge)
        if bit == 0:
            raise AssertionError(
                f"non-tight constraint {con.kind}{(con.i, con.j)} pairs with an "
                f"edge outside the diagram"
            )
        mask |= bit
    result = DiagramFace(diagram, mask)
    if not is_face(diagram, mask):
        raise AssertionError("polytope face mapped to a non-face edge set")
    return result


def reference_psi(diagram, face, system):
    face_lattice(system)
    vmask = (1 << len(system._vertices)) - 1
    for con, vs in zip(system.constraints, system._vertex_sets):
        if not face.mask & diagram.edge_bit(*con.edge):
            vmask &= vs
    return system._face_of[vmask]


def reference_verify_isomorphism(spectrum):
    sys = GCSystem(spectrum)
    diagram = build_diagram(spectrum.composition)
    pfaces = [f for f in face_lattice(sys) if not f.is_empty]
    dfaces = enumerate_faces(diagram)
    diagram_masks = set(dfaces.masks.tolist())

    counterexample = None
    images = [reference_phi(sys, f) for f in pfaces]
    image_masks = [g.mask for g in images]
    bijection_ok = (
        len(set(image_masks)) == len(image_masks)
        and set(image_masks) == diagram_masks
    )
    if not bijection_ok and counterexample is None:
        counterexample = (
            f"image count {len(set(image_masks))} vs "
            f"{len(pfaces)} polytope faces, {len(dfaces)} diagram faces"
        )

    dimension_ok = True
    for f, g in zip(pfaces, images):
        if f.dim != g.dim:
            dimension_ok = False
            if counterexample is None:
                counterexample = f"dim {f.dim} face maps to dim {g.dim} face"
            break

    mismatch = all_pairs_mismatch([f.vertex_mask for f in pfaces], image_masks)
    order_ok = mismatch is None
    if not order_ok and counterexample is None:
        counterexample = "inclusion mismatch between faces #{} and #{}".format(*mismatch)

    roundtrip_ok = True
    for f, g in zip(pfaces, images):
        if reference_psi(diagram, g, sys) != f:
            roundtrip_ok = False
            if counterexample is None:
                counterexample = "psi(phi(F)) != F"
            break
    if roundtrip_ok:
        for g in dfaces:
            back = reference_phi(sys, reference_psi(diagram, g, sys))
            if back is BOTTOM or back.mask != g.mask:
                roundtrip_ok = False
                if counterexample is None:
                    counterexample = "phi(psi(gamma)) != gamma"
                break

    return IsoReport(
        spectrum=tuple(str(v) for v in spectrum.values),
        composition=spectrum.composition,
        diagram_counts=tuple(sorted(dfaces.census().items())),
        polytope_counts=tuple(face_counts_by_dim(pfaces).items()),
        face_count=len(pfaces),
        bijection_ok=bijection_ok,
        order_ok=order_ok,
        dimension_ok=dimension_ok,
        roundtrip_ok=roundtrip_ok,
        counterexample=counterexample,
    )


class TestSpectrum:
    def test_parse(self):
        sp = Spectrum.parse("3/2,3/2,0")
        assert sp.values == (Fraction(3, 2), Fraction(3, 2), Fraction(0))
        assert sp.composition == (2, 1)

    def test_rejects_increase(self):
        with pytest.raises(ValueError):
            Spectrum((0, 1))

    def test_blocks(self):
        assert Spectrum((5, 5, 5)).composition == (3,)
        assert Spectrum((2, 1, 0)).composition == (1, 1, 1)

    def test_canonical(self):
        assert canonical_spectrum((1, 1, 1)).values == (2, 1, 0)
        assert canonical_spectrum((2, 1)).values == (2, 2, 1)


class TestSystem:
    def test_shape_210(self):
        sys = build_system(Spectrum((2, 1, 0)))
        assert sys.d == 3 and sys.num_constraints == 6

    def test_constraint_edges_align_with_diagram(self):
        sys = build_system(Spectrum((2, 1, 0)))
        diagram = build_diagram((1, 1, 1))
        for con in sys.constraints:
            assert diagram.edge_bit(*con.edge) != 0
        ups = [c for c in sys.constraints if c.kind == "up"]
        downs = [c for c in sys.constraints if c.kind == "down"]
        assert [c.edge[1] for c in ups] == sorted(c.edge[1] for c in ups)
        assert sys.constraints[: len(ups)] == tuple(ups)
        assert sys.constraints[len(ups) :] == tuple(downs)

    def test_point_polytope(self):
        sys = build_system(Spectrum((4, 4, 4)))
        verts = polytope_vertices(sys)
        assert len(verts) == 1
        assert all(v == 4 for v in verts[0])

    def test_triangle(self):
        sys = build_system(Spectrum((1, 1, 0)))
        assert len(polytope_vertices(sys)) == 3
        counts = face_counts_by_dim(face_lattice(sys))
        assert counts == {0: 3, 1: 3, 2: 1}

    def test_oracle_bound(self):
        sys = build_system(canonical_spectrum((1, 1, 1, 1, 1, 1)))
        with pytest.raises(ValueError, match="capped"):
            face_lattice(sys)

    def test_oracle_bound_does_not_depend_on_what_ran_before(self):
        # psi builds the n = 5 lattice it needs on a fresh system
        d5 = build_diagram((1,) * 5)
        sys5 = GCSystem(canonical_spectrum((1,) * 5))
        top = psi(d5, DiagramFace(d5, d5.full_mask), sys5)
        assert top.vertex_mask == (1 << len(polytope_vertices(sys5))) - 1
        assert top.dim == sys5.d == 10
        # n = 6 is refused by every entry point, although n = 5 just ran
        d6 = build_diagram((1,) * 6)
        for call in (
            polytope_vertices,
            face_lattice,
            lambda sys: psi(d6, DiagramFace(d6, d6.full_mask), sys),
        ):
            with pytest.raises(ValueError, match="capped at n <= 5; got n = 6"):
                call(GCSystem(canonical_spectrum((1,) * 6)))
        with pytest.raises(ValueError, match="capped at n <= 5; got n = 6"):
            verify_isomorphism(canonical_spectrum((1,) * 6))

    @pytest.mark.parametrize(
        "spectrum_of", [canonical_spectrum, halved_spectrum, sixths_spectrum]
    )
    def test_rows_and_values_match_dense_rows(self, spectrum_of):
        # rows and value_at come from each constraint's coordinate pair;
        # the reference is the dense row built from (kind, i, j) and lambda
        for comp in compositions_up_to(5):
            sys = build_system(spectrum_of(comp))
            dense = [dense_row(sys, con) for con in sys.constraints]
            for row, (coeffs, const) in zip(sys.rows, dense):
                scale = const.denominator  # lambda's, or 1 between free entries
                assert row == tuple(q * scale for q in (*coeffs, const)), comp
            for point in polytope_vertices(sys):
                for con, row in zip(sys.constraints, dense):
                    assert con.value_at(point) == dense_value(row, point), comp

    @pytest.mark.parametrize("shift", [0, -1], ids=["sixths", "negative"])
    def test_vertices_are_sorted_fraction_tuples(self, shift):
        # the vertices sort on integers scaled to one common t; read back
        # as Fractions they must sort the same, each with its own tight mask
        for comp in compositions_up_to(4):
            sys = build_system(Spectrum([v + shift for v in sixths_spectrum(comp).values]))
            verts = polytope_vertices(sys)
            assert all(type(x) is Fraction for point in verts for x in point), comp
            assert list(verts) == sorted(set(verts)), comp
            for point, tight in zip(verts, sys._vertex_tight):
                zero = [con.value_at(point) == 0 for con in sys.constraints]
                assert tight == sum(1 << c for c, z in enumerate(zero) if z), comp

    @pytest.mark.parametrize("spectrum_of", [canonical_spectrum, halved_spectrum])
    def test_vertices_match_subsystem_scan(self, spectrum_of):
        comps = compositions_up_to(3) + [(1, 1, 1, 1)]
        for comp in comps:
            sys = build_system(spectrum_of(comp))
            verts = polytope_vertices(sys)
            assert verts == subsystem_scan_vertices(sys), comp
            # the zero sets the enumeration carries are the tight constraints
            for c, con in enumerate(sys.constraints):
                tight = {v for v, p in enumerate(verts) if con.value_at(p) == 0}
                assert {v for v in range(len(verts)) if sys._vertex_sets[c] >> v & 1} == tight


class TestLattice:
    def test_face_counts_at_n5(self):
        # the second independent count of every composition of 5
        comps = list(compositions_of(5))
        assert len(comps) == 16
        for comp in comps:
            faces = face_lattice(build_system(canonical_spectrum(comp)))
            assert face_counts_by_dim(faces) == dict(enumerate(f_vector(comp))), comp

    @pytest.mark.parametrize("spectrum_of", [canonical_spectrum, halved_spectrum])
    def test_dimension_is_affine_rank(self, spectrum_of):
        for comp in compositions_up_to(3):
            sys = build_system(spectrum_of(comp))
            for face in face_lattice(sys):
                if not face.is_empty:
                    assert face.dim == affine_rank(face.vertices()), (comp, face)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dimension_is_d_minus_tight_rank(self, n):
        for comp in compositions_of(n):
            sys = build_system(canonical_spectrum(comp))
            faces = face_lattice(sys)
            assert faces[0].is_empty and faces[0].dim == -1
            for face in faces[1:]:
                rows = [sys.rows[c][:-1] for c in ladder._bits(face.tight_mask)]
                assert face.dim == sys.d - reference_rank(rows), (comp, face)

    def test_210_counts(self):
        sys = build_system(Spectrum((2, 1, 0)))
        counts = face_counts_by_dim(face_lattice(sys))
        assert counts == {0: 7, 1: 11, 2: 6, 3: 1}

    def test_empty_face_present(self):
        sys = build_system(Spectrum((2, 1, 0)))
        empties = [f for f in face_lattice(sys) if f.is_empty]
        assert len(empties) == 1 and empties[0].dim == -1

    def test_single_point(self):
        sys = build_system(Spectrum((3, 3)))
        faces = face_lattice(sys)
        assert face_counts_by_dim(faces) == {0: 1}
        assert len(faces) == 2  # vertex and empty face

    def test_representative_in_relative_interior(self):
        sys = build_system(Spectrum((2, 1, 0)))
        for face in face_lattice(sys):
            if face.is_empty:
                assert face.representative() is None
                continue
            point = face.representative()
            for idx, con in enumerate(sys.constraints):
                val = con.value_at(point)
                assert val >= 0
                if face.tight_mask >> idx & 1:
                    assert val == 0
                else:
                    # interior point is strict on every non-tight constraint
                    assert val > 0


class TestPhiPsi:
    def test_top_maps_to_top(self):
        sys = build_system(Spectrum((2, 1, 0)))
        top = max(face_lattice(sys), key=lambda f: f.dim)
        image = phi(sys, top)
        assert image.is_full()

    def test_empty_maps_to_bottom(self):
        sys = build_system(Spectrum((2, 1, 0)))
        empty = next(f for f in face_lattice(sys) if f.is_empty)
        assert phi(sys, empty) is BOTTOM

    def test_vertices_map_to_vertex_faces(self):
        sys = build_system(Spectrum((2, 1, 0)))
        vertex_faces = [f for f in face_lattice(sys) if f.dim == 0]
        images = {phi(sys, f).mask for f in vertex_faces}
        diagram = build_diagram((1, 1, 1))
        zero_dim = {f.mask for f in enumerate_faces(diagram) if f.dim == 0}
        assert images == zero_dim

    def test_point_spectrum_full_face(self):
        sys = build_system(Spectrum((4, 4, 4)))
        top = max(face_lattice(sys), key=lambda f: f.dim)
        image = phi(sys, top)
        assert image.diagram.composition == (3,)
        assert image.is_full()

    def test_round_trips_210(self):
        sys = build_system(Spectrum((2, 1, 0)))
        diagram = build_diagram((1, 1, 1))
        for face in face_lattice(sys):
            if face.is_empty:
                continue
            assert psi(diagram, phi(sys, face), sys) == face
        for gamma in enumerate_faces(diagram):
            assert phi(sys, psi(diagram, gamma, sys)).mask == gamma.mask

    @pytest.mark.parametrize("comp", compositions_up_to(4), ids=lambda c: "-".join(map(str, c)))
    def test_batches_match_single_faces(self, comp):
        # (1, 2, 1) has 14 vertices, two bytes a row; (1, 1, 1, 1) has 40, five
        sys = build_system(canonical_spectrum(comp))
        diagram = build_diagram(comp)
        pfaces = [f for f in face_lattice(sys) if not f.is_empty]
        images = polytope._face_images(sys, [f.tight_mask for f in pfaces])
        assert images.tolist() == [phi(sys, f).mask for f in pfaces]
        gammas = list(enumerate_faces(diagram))
        back = polytope._preimages(sys, np.array([g.mask for g in gammas]))
        assert back == [psi(diagram, g, sys).vertex_mask for g in gammas]
        assert back == [reference_psi(diagram, g, sys).vertex_mask for g in gammas]
        assert polytope._preimages(sys, images) == [f.vertex_mask for f in pfaces]

    def test_psi_rejects_mismatched_composition(self):
        diagram = build_diagram((1, 1, 1))
        face = enumerate_faces(diagram)[0]
        with pytest.raises(ValueError, match="composition"):
            psi(diagram, face, GCSystem(Spectrum((1, 1, 0))))


class TestRepresentativePoint:
    def test_half_integer_average(self):
        d = build_diagram((1, 1))
        full = DiagramFace(d, d.full_mask)
        pt = representative_point(full, Spectrum((1, 0)))
        assert pt[(1, 1)] == Fraction(1, 2)

    def test_tree_faces_take_boundary_values(self):
        d = build_diagram((1, 1, 1))
        sp = Spectrum((2, 1, 0))
        for face in enumerate_faces(d):
            if face.dim != 0:
                continue
            pt = representative_point(face, sp)
            for (i, j), val in pt.items():
                if i + j <= sp.n:
                    assert val in sp.values

    def test_full_face_all_strict(self):
        d = build_diagram((1, 1, 1))
        full = DiagramFace(d, d.full_mask)
        sp = Spectrum((2, 1, 0))
        pt = representative_point(full, sp)
        ordered = [pt[(1, 1)], pt[(1, 2)], pt[(2, 1)]]
        assert len(set(ordered)) == 3
        assert witness_violations(only_face(enumerate_faces(d), -1), sp) == []

    @pytest.mark.parametrize("comp", [(1, 1), (2, 1), (1, 1, 1), (2, 2)])
    def test_strictness_iff_edges(self, comp):
        sp = canonical_spectrum(comp)
        assert witness_violations(enumerate_faces(build_diagram(comp)), sp) == []

    @pytest.mark.parametrize(
        "shift, violation",
        [
            (0, "horizontal edge into (1, 1): present=True strict=False"),
            (1, "point infeasible at (1, 1)"),
        ],
    )
    def test_strictness_reports_a_moved_entry(self, monkeypatch, shift, violation):
        # (1, 1) of the top face moves onto its neighbour (1, 2), or past it.
        original = polytope._witness

        def moved(sys, masks):
            x, scale, present = original(sys, masks)
            x[1, 1] = x[1, 2] + shift
            return x, scale, present

        monkeypatch.setattr(polytope, "_witness", moved)
        faces = enumerate_faces(build_diagram((1, 1, 1)))
        top = len(faces) - 1
        assert witness_violations(only_face(faces, top), Spectrum((2, 1, 0))) == [
            f"face #0 (0x{faces[top].mask:03x}): {violation}"
        ]

    def test_integral_spectrum_gives_dyadic_coordinates(self):
        # repeated halving of integer boundary values
        for comp in [(1, 1), (1, 1, 1), (2, 2)]:
            sp = canonical_spectrum(comp)
            for face in enumerate_faces(build_diagram(comp)):
                for value in representative_point(face, sp).values():
                    q = value.denominator
                    assert q & (q - 1) == 0

    def test_representative_lies_in_psi_face(self):
        comp = (1, 1, 1)
        sp = Spectrum((2, 1, 0))
        sys = GCSystem(sp)
        diagram = build_diagram(comp)
        for gamma in enumerate_faces(diagram):
            values = representative_point(gamma, sp)
            point = tuple(values[p] for p in sys.index_set)
            target = psi(diagram, gamma, sys)
            for idx, con in enumerate(sys.constraints):
                val = con.value_at(point)
                assert val >= 0
                if target.tight_mask >> idx & 1:
                    assert val == 0


class TestWitnessCheck:
    @pytest.mark.parametrize("spectrum_of", [canonical_spectrum, halved_spectrum, sixths_spectrum])
    def test_every_face_up_to_n5(self, spectrum_of):
        for comp in compositions_up_to(5):
            faces = enumerate_faces(build_diagram(comp))
            assert witness_violations(faces, spectrum_of(comp)) == [], comp

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("_witness", "edge_bits(sys)", "edge_bits(sys)[sys.d:] + edge_bits(sys)[:sys.d]"),
            ("_witness", "above, below = ", "below, above = "),
            (
                "_tight_dims",
                "where=tight[:, c, None]",
                "where=tight[:, c, None] & (sys.d not in (con.a, con.b))",
            ),
        ],
        ids=["swapped-pairing", "wrong-side", "no-ground-node"],
    )
    def test_mutation_fails(self, monkeypatch, name, old, new):
        monkeypatch.setattr(polytope, name, mutated(name, old, new))
        assert any(
            witness_violations(enumerate_faces(build_diagram(comp)), canonical_spectrum(comp))
            for comp in compositions_up_to(4)
        )

    def test_every_flipped_bit_fails(self):
        # A flip onto another face's mask passes the point checks; only the
        # order of the masks and the dimension catch it.
        landed = 0
        for comp in compositions_up_to(3):
            faces = enumerate_faces(build_diagram(comp))
            sp = canonical_spectrum(comp)
            for k, e in product(range(len(faces)), range(faces.diagram.num_edges)):
                masks = faces.masks.copy()
                masks[k] ^= 1 << e
                problems = witness_violations(FaceSet(faces.diagram, masks, faces.dims), sp)
                assert problems, (comp, k, e)
                if masks[k] in faces.masks:
                    landed += 1
                    assert "does not follow a smaller mask" in problems[0]
        assert landed

    def test_accepts_exactly_the_brute_force_faces(self):
        comps = compositions_with_edge_bound(22)
        assert len(comps) == 28
        for comp in comps:
            diagram = build_diagram(comp)
            free = [e for e in range(diagram.num_edges) if not diagram.axes_mask >> e & 1]
            index = np.arange(1 << len(free), dtype=np.int64)
            subsets = np.full(index.shape, diagram.axes_mask, np.int64)
            for p, e in enumerate(free):
                subsets |= (index >> p & 1) << e
            subsets.sort()
            signs, present = polytope._witness_signs(GCSystem(canonical_spectrum(comp)), subsets)
            accepted = subsets[(signs == present).all(axis=1)]
            assert np.array_equal(accepted, brute_force_faces(diagram).masks), comp

    @pytest.mark.parametrize("comp", [(20,), (31,), (12, 1)])
    def test_large_n(self, comp):
        # (20,) and (31,) have d = 190 and 465 coordinates, past one-byte
        # signed union-find labels; (12, 1) has 8,191 faces at n = 13
        faces = enumerate_faces(build_diagram(comp))
        assert witness_violations(faces, canonical_spectrum(comp)) == []

    def test_chunks_name_the_global_offender(self, monkeypatch):
        monkeypatch.setattr(polytope, "_CHUNK", 7)
        comp = (1, 1, 1, 1)
        faces = enumerate_faces(build_diagram(comp))
        assert witness_violations(faces, canonical_spectrum(comp)) == []
        dims = faces.dims.copy()
        dims[100] += 1
        problems = witness_violations(FaceSet(faces.diagram, faces.masks, dims), canonical_spectrum(comp))
        assert len(problems) == 1 and problems[0].startswith("face #100 ")

    def test_refuses_spectra_that_overflow(self):
        d = build_diagram((1, 1))
        faces = enumerate_faces(d)
        # 2^n * lcm = 4: 4 * (2^60 - 1) is the largest value below 2^62
        assert witness_violations(faces, Spectrum((2**60 - 1, 0))) == []
        assert witness_violations(faces, Spectrum((0, -(2**60) + 1))) == []
        for values in [(2**60, 0), (0, -(2**60)), (Fraction(2**60, 3), 0)]:
            with pytest.raises(ValueError, match=r"below 2\^62"):
                witness_violations(faces, Spectrum(values))
            with pytest.raises(ValueError, match=r"below 2\^62"):
                representative_point(faces[0], Spectrum(values))

    def test_rejects_mismatched_composition(self):
        faces = enumerate_faces(build_diagram((1, 1)))
        with pytest.raises(ValueError, match="compositions differ"):
            witness_violations(faces, Spectrum((1, 1)))


class TestIsomorphism:
    def test_210(self):
        report = verify_isomorphism(Spectrum((2, 1, 0)))
        assert report.passed and report.face_count == 25
        assert report.diagram_counts == ((0, 7), (1, 11), (2, 6), (3, 1))

    def test_triangle(self):
        report = verify_isomorphism(Spectrum((1, 1, 0)))
        assert report.passed and report.face_count == 7

    def test_point(self):
        report = verify_isomorphism(Spectrum((2, 2, 2)))
        assert report.passed and report.face_count == 1

    def test_dimension_formula(self):
        for comp in [(1, 1), (2, 1), (1, 1, 1), (2, 2)]:
            sp = canonical_spectrum(comp)
            sys = build_system(sp)
            top = max(f.dim for f in face_lattice(sys))
            n = sp.n
            assert top == (n * n - sum(p * p for p in comp)) // 2

    def test_lattice_depends_only_on_composition(self):
        for comp in [(1, 1, 1), (2, 1), (2, 2)]:
            first = build_system(canonical_spectrum(comp))
            second = build_system(halved_spectrum(comp))
            image_first = {
                (phi(first, f).mask, f.dim)
                for f in face_lattice(first)
                if not f.is_empty
            }
            image_second = {
                (phi(second, f).mask, f.dim)
                for f in face_lattice(second)
                if not f.is_empty
            }
            assert image_first == image_second

    def test_order_check_matches_all_pairs_scan(self):
        def check(left, right):
            # Same verdict as the all-pairs scan, and a named atom pair
            # really disagrees.
            got = inclusion_mismatch(left, right)
            assert (got is None) == (all_pairs_mismatch(left, right) is None)
            if got is not None and got[1] is not None:
                a, b = got
                assert left[b].bit_count() == 1
                assert (left[b] | left[a] == left[a]) != (right[b] | right[a] == right[a])
            return got

        rng = random.Random(7)
        # At n = 5 the edge masks pass 16 bits: (2, 3) has 22 edges and
        # (1, 3, 1) has 24.
        for comp in compositions_up_to(4) + [(2, 3), (1, 3, 1)]:
            sys = build_system(canonical_spectrum(comp))
            pfaces = [f for f in face_lattice(sys) if not f.is_empty]
            left = [f.vertex_mask for f in pfaces]
            right = [phi(sys, f).mask for f in pfaces]
            assert check(left, right) is None
            if len(right) < 2:
                continue
            for _ in range(3):
                a, b = rng.sample(range(len(right)), 2)
                swapped = list(right)
                swapped[a], swapped[b] = right[b], right[a]
                check(left, swapped)
                merged = list(right)
                merged[a] = right[b]
                assert check(left, merged) is not None, comp

    def test_order_check_needs_unions_of_atoms(self):
        # All pairs are ordered alike, but the third image is more than the
        # union of its vertices' images.
        left, right = [0b01, 0b10, 0b11], [0b001, 0b010, 0b111]
        assert all_pairs_mismatch(left, right) is None
        assert inclusion_mismatch(left, right) == (2, None)

    def test_order_check_needs_an_atom_per_vertex(self):
        assert all_pairs_mismatch([0b01, 0b11], [0b01, 0b11]) is None
        assert inclusion_mismatch([0b01, 0b11], [0b01, 0b11]) == (1, None)
        # Here the second image is the union of the one atom's image, and
        # only the missing atom of bit 1 shows that the order is lost.
        assert all_pairs_mismatch([0b01, 0b11], [0b01, 0b01]) is not None
        assert inclusion_mismatch([0b01, 0b11], [0b01, 0b01]) == (1, None)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_compositions_small(self, n):
        for comp in compositions_of(n):
            report = verify_isomorphism(canonical_spectrum(comp))
            assert report.passed, report.summary()

    @pytest.mark.parametrize("spectrum_of", [canonical_spectrum, halved_spectrum])
    def test_matches_reference_up_to_n4(self, spectrum_of):
        for comp in compositions_up_to(4):
            spectrum = spectrum_of(comp)
            assert verify_isomorphism(spectrum) == reference_verify_isomorphism(spectrum)

    @pytest.mark.parametrize("comp", [(1, 3, 1), (2, 3), (3, 1, 1)])
    def test_matches_reference_at_n5(self, comp):
        spectrum = canonical_spectrum(comp)
        report = verify_isomorphism(spectrum)
        assert report.passed and report == reference_verify_isomorphism(spectrum)

    def test_one_recognizer_call_per_face(self, monkeypatch):
        # The images are decided by the enumerator's table alone: no face
        # recognizer runs.
        def no_recognizer(diagram, mask):
            raise AssertionError("a face recognizer ran")

        monkeypatch.setattr(polytope, "is_face", no_recognizer)
        report = verify_isomorphism(canonical_spectrum((1, 1, 1, 1)))
        assert report.passed and report.face_count == 567


# No vacuous PASS: each check fails on a program broken in the way it guards
# against, and names the first offending face.


def _failing_report(spectrum):
    report = verify_isomorphism(spectrum)
    assert not report.passed
    assert report.summary().startswith("FAIL")
    assert re.search(r"#\d+|0x[0-9a-f]+", report.counterexample)
    return report


def _edited_edge_table(monkeypatch, edit):
    original = polytope.edge_bits

    def edited(sys):
        bits = list(original(sys))
        edit(bits)
        return tuple(bits)

    monkeypatch.setattr(polytope, "edge_bits", edited)


def _edited_lattice(monkeypatch, edit):
    original = polytope.face_lattice

    def edited(sys):
        faces = list(original(sys))
        edit(sys, faces)
        return tuple(faces)

    monkeypatch.setattr(polytope, "face_lattice", edited)


class TestMutations:
    def test_two_constraints_on_one_edge(self, monkeypatch):
        # up(1, 1) takes the edge of down(1, 1): a vertex and an edge of the
        # polytope get one image, and the order is lost.
        def edit(bits):
            bits[0] = bits[3]

        _edited_edge_table(monkeypatch, edit)
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.bijection_ok and not report.order_ok
        assert report.counterexample == "faces #0 and #3 both map to 0x3fd"

    def test_swapped_edges_fail_the_bijection(self, monkeypatch):
        # Swapping two constraints' edges relabels two edge bits, which keeps
        # every inclusion, so the order check cannot see it; the bijection
        # check finds the first image missing from the diagram faces, and
        # phi's recognizer rejects that image.
        def edit(bits):
            bits[0], bits[1] = bits[1], bits[0]

        _edited_edge_table(monkeypatch, edit)
        sys = build_system(Spectrum((2, 1, 0)))
        with pytest.raises(AssertionError, match="non-face edge set 0x5fd"):
            phi(sys, face_lattice(sys)[2])  # face #1; #0 of the lattice is empty
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.bijection_ok and report.order_ok
        assert report.counterexample == "face #1 maps to 0x5fd, not a diagram face"

    def test_swapped_images_fail_the_order(self, monkeypatch):
        # Faces #0 and #1 trade images: still a bijection onto the diagram
        # faces with the same dimensions, but the inclusions no longer match.
        original = polytope._face_images

        def swapped(sys, tight_masks):
            images = original(sys, tight_masks)
            images[[0, 1]] = images[[1, 0]]
            return images

        monkeypatch.setattr(polytope, "_face_images", swapped)
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.order_ok
        assert report.bijection_ok and report.dimension_ok
        assert report.counterexample == (
            "inclusion mismatch between faces #4 and #0 (images 0x3ff and 0x5fb)"
        )

    def test_constraint_without_an_edge(self, monkeypatch):
        # up(1, 1) loses its edge: faces on which it is not tight have no image.
        def edit(bits):
            bits[0] = 0

        _edited_edge_table(monkeypatch, edit)
        with pytest.raises(
            AssertionError,
            match=re.escape("non-tight constraint up(1, 1) pairs with an edge outside the diagram"),
        ):
            verify_isomorphism(Spectrum((2, 1, 0)))

    def test_off_by_one_dimension(self, monkeypatch):
        def edit(sys, faces):
            k = next(k for k, f in enumerate(faces) if f.dim == 2)
            f = faces[k]
            faces[k] = PolytopeFace(sys, f.vertex_mask, f.tight_mask, f.dim + 1)

        _edited_lattice(monkeypatch, edit)
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.dimension_ok
        assert report.bijection_ok and report.order_ok and report.roundtrip_ok
        assert re.fullmatch(r"dim 3 face #\d+ maps to dim 2 face 0x[0-9a-f]{3}", report.counterexample)

    def test_corrupted_vertex_set(self, monkeypatch):
        # drop one vertex from the set of the first constraint tight on two
        def edit(sys, faces):
            vs = list(sys._vertex_sets)
            c = next(c for c, v in enumerate(vs) if v.bit_count() > 1)
            vs[c] &= vs[c] - 1
            sys._vertex_sets = tuple(vs)

        _edited_lattice(monkeypatch, edit)
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.roundtrip_ok
        assert report.bijection_ok and report.order_ok and report.dimension_ok
        assert re.fullmatch(r"psi\(phi\(F\)\) != F at face #\d+ \(image 0x[0-9a-f]{3}\)", report.counterexample)

    def test_single_face_psi_losing_the_polytope(self, monkeypatch):
        # The batch preimages are right, but the public psi sends the
        # polytope's image to the empty face: the round trip names the top.
        monkeypatch.setattr(polytope, "psi", lambda diagram, face, system: face_lattice(system)[0])
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.roundtrip_ok
        assert report.bijection_ok and report.order_ok and report.dimension_ok
        assert report.counterexample == "psi(phi(F)) != F at face #24 (image 0xfff)"

    def test_enumeration_with_a_wrong_face(self, monkeypatch):
        # The enumerator lists 0xffe, which lacks an axis edge, with dim 0 in
        # place of the top face 0xfff: the top's image is missing, so its
        # dimension is not compared, and 0xffe does not come back from the
        # round trip.
        original = polytope.enumerate_faces

        def wrong_top(diagram):
            faces = original(diagram)
            masks, dims = faces.masks.copy(), faces.dims.copy()
            masks[-1] ^= 1
            dims[-1] = 0
            return FaceSet(diagram, masks, dims)

        monkeypatch.setattr(polytope, "enumerate_faces", wrong_top)
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.bijection_ok and not report.roundtrip_ok
        assert report.dimension_ok and report.order_ok
        assert report.counterexample == "face #24 maps to 0xfff, not a diagram face"

    def test_enumeration_with_an_extra_face(self, monkeypatch):
        # The enumerator lists 0x001 besides the true faces: it is no face's
        # image, and the round trip from the diagram side loses it.
        original = polytope.enumerate_faces

        def extra_face(diagram):
            faces = original(diagram)
            masks = np.concatenate([np.array([1], dtype=np.int64), faces.masks])
            dims = np.concatenate([np.zeros(1, dtype=faces.dims.dtype), faces.dims])
            return FaceSet(diagram, masks, dims)

        monkeypatch.setattr(polytope, "enumerate_faces", extra_face)
        report = _failing_report(Spectrum((2, 1, 0)))
        assert not report.bijection_ok and not report.roundtrip_ok
        assert report.order_ok and report.dimension_ok
        assert report.counterexample == "diagram face 0x001 is no face's image"
