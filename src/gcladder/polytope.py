"""Exact-rational model of the interlacing polytope of a spectrum, an
independent face-lattice oracle for it, and the correspondence between its
faces and ladder-diagram faces.

A weakly decreasing spectrum of length n pins the top row of a triangular
interlacing pattern; the free entries x_{i,j} (i, j >= 1, i + j <= n) are
constrained by x_{i,j+1} >= x_{i,j} >= x_{i+1,j}, giving a convex polytope
in n(n-1)/2 coordinates.  Each inequality pairs with one grid edge: the UP
constraint of (i,j) with the horizontal edge into (i,j), the DOWN
constraint with the vertical edge into (i,j).

The face-lattice oracle works purely on the inequality system - vertices
by double description, then faces as intersections of the constraints'
vertex sets - and never touches the diagram machinery, so its agreement
with the edge-wise face maps is evidence, not tautology.  All arithmetic is
exact (Python ints and ``fractions.Fraction``); there are no tolerances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .ladder import BOTTOM, DiagramFace, _bits, build_diagram, enumerate_faces, is_face

# Largest n whose vertices the oracle computes; the tests check its face
# counts against the recursion for every composition of this n.
MAX_ORACLE_N = 5


class Spectrum:
    """Weakly decreasing exact rationals; blocks of equal values give the
    composition that controls the whole face structure."""

    __slots__ = ("values", "composition")

    def __init__(self, values):
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ValueError("spectrum must be non-empty")
        for a, b in zip(vals, vals[1:]):
            if a < b:
                raise ValueError(f"spectrum must be weakly decreasing, got {vals}")
        comp = []
        prev = None
        for v in vals:
            if comp and v == prev:
                comp[-1] += 1
            else:
                comp.append(1)
            prev = v
        self.values = vals
        self.composition = tuple(comp)

    @classmethod
    def parse(cls, text):
        """Comma-separated exact rationals, e.g. "2,1,0" or "3/2,3/2,0"."""
        values = []
        for part in text.split(","):
            try:
                values.append(Fraction(part.strip()))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {part.strip()!r}") from None
        return cls(values)

    @property
    def n(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Spectrum({', '.join(str(v) for v in self.values)})"


def canonical_spectrum(k):
    """Integer spectrum with block i at value n - i; distinct block values."""
    comp = tuple(int(p) for p in k if p > 0)
    n = sum(comp)
    values = []
    for i, part in enumerate(comp, start=1):
        values.extend([n - i] * part)
    return Spectrum(values)


@dataclass(frozen=True)
class Constraint:
    """One affine inequality sum(coeffs * x) + const >= 0, tagged with its
    pattern position and the grid edge it gates."""

    kind: str  # "up": x_{i,j+1} >= x_{i,j};  "down": x_{i,j} >= x_{i+1,j}
    i: int
    j: int
    coeffs: tuple
    const: Fraction
    edge: tuple

    def value_at(self, point):
        acc = self.const
        for c, x in zip(self.coeffs, point):
            if c:
                acc += c * x
        return acc


def _integer_row(coeffs, const):
    scale = lcm(*(q.denominator for q in coeffs), const.denominator)
    return tuple(int(q * scale) for q in (*coeffs, const))


class GCSystem:
    """The full inequality system of a spectrum, with deterministic
    constraint indexing: all UP constraints in lexicographic (i, j) order,
    then all DOWN constraints likewise (matching the diagram's
    horizontals-then-verticals edge order).

    ``rows`` holds each constraint as the integer row (a, b) of the
    homogenised inequality a.x + b.t >= 0, scaled to clear denominators.
    """

    __slots__ = (
        "spectrum",
        "n",
        "index_set",
        "var_index",
        "d",
        "constraints",
        "rows",
        "_vertices",
        "_vertex_sets",
        "_faces",
        "_face_of",
    )

    def __init__(self, spectrum):
        if not isinstance(spectrum, Spectrum):
            spectrum = Spectrum(spectrum)
        self.spectrum = spectrum
        n = spectrum.n
        self.n = n
        index_set = sorted(
            (i, j) for i in range(1, n) for j in range(1, n) if i + j <= n
        )
        self.index_set = tuple(index_set)
        self.var_index = {p: t for t, p in enumerate(index_set)}
        self.d = len(index_set)
        lam = spectrum.values
        cons = []
        for kind in ("up", "down"):
            for (i, j) in index_set:
                coeffs = [Fraction(0)] * self.d
                const = Fraction(0)
                if kind == "up":
                    coeffs[self.var_index[(i, j)]] -= 1
                    if (i, j + 1) in self.var_index:
                        coeffs[self.var_index[(i, j + 1)]] += 1
                    else:
                        const = lam[i - 1]
                    edge = ((i - 1, j), (i, j))
                else:
                    coeffs[self.var_index[(i, j)]] += 1
                    if (i + 1, j) in self.var_index:
                        coeffs[self.var_index[(i + 1, j)]] -= 1
                    else:
                        const = -lam[i]
                    edge = ((i, j - 1), (i, j))
                cons.append(
                    Constraint(kind, i, j, tuple(coeffs), const, edge)
                )
        self.constraints = tuple(cons)
        self.rows = tuple(_integer_row(c.coeffs, c.const) for c in cons)
        self._vertices = None
        self._vertex_sets = None
        self._faces = None
        self._face_of = None

    @property
    def num_constraints(self):
        return len(self.constraints)

    def __repr__(self):
        return f"GCSystem(n={self.n}, d={self.d}, constraints={self.num_constraints})"


def build_system(spectrum):
    """Inequality system of a spectrum (accepts a Spectrum or raw values)."""
    return GCSystem(spectrum)


def _holders(masks):
    """For each bit, the bitset of the indices of the masks that contain it."""
    holders = {}
    for index, mask in enumerate(masks):
        for bit in _bits(mask):
            holders[bit] = holders.get(bit, 0) | 1 << index
    return holders


def _containing(holders, mask, everything):
    """Bitset of the indices whose masks contain all of ``mask``."""
    for bit in _bits(mask):
        everything &= holders[bit]
    return everything


def _dot(row, vector):
    return sum(a * b for a, b in zip(row, vector))


def _project(vector, scale, weight, pivot):
    """scale * vector - weight * pivot, divided by the gcd of its entries."""
    if not weight:
        return vector
    out = [scale * a - weight * b for a, b in zip(vector, pivot)]
    g = gcd(*out)
    return tuple(a // g for a in out) if g > 1 else tuple(out)


def _rank(rows):
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


def _extreme_rays(rows, dim):
    """Extreme rays of the cone {y in Q^dim : r.y >= 0 for every row r}, as
    (primitive integer vector, bitmask of the rows tight on it), by double
    description (Fukuda & Prodon 1996); the rows must span Q^dim.

    Lineality goes first: each row that is not zero on the lineality space
    turns one lineality vector into a ray and projects the other generators
    onto its hyperplane, leaving a simplicial cone after dim rows.  Every
    later row keeps the rays on its nonnegative side and adds, for each
    adjacent pair it separates, the pair's combination tight on it.  Rays
    are adjacent iff no third ray is tight on all rows both are tight on
    (Fukuda & Prodon, Proposition 7), which needs dim - 2 such rows.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    applied = 0
    deferred = []
    for c, row in enumerate(rows):
        pivot = next((v for v in lineality if _dot(row, v)), None)
        if pivot is None:
            deferred.append(c)
            continue
        lineality.remove(pivot)
        scale = _dot(row, pivot)
        if scale < 0:
            pivot, scale = tuple(-a for a in pivot), -scale
        lineality = [_project(v, scale, _dot(row, v), pivot) for v in lineality]
        rays = [(_project(v, scale, _dot(row, v), pivot), z | 1 << c) for v, z in rays]
        rays.append((pivot, applied))
        applied |= 1 << c
    if lineality:
        raise ValueError("the rows do not span the space; the cone contains a line")
    for c in deferred:
        row, bit = rows[c], 1 << c
        signs = [_dot(row, v) for v, _ in rays]
        kept = [(v, z | bit if s == 0 else z) for (v, z), s in zip(rays, signs) if s >= 0]
        holders = _holders([z for _, z in rays])
        everything = (1 << len(rays)) - 1
        positive = [i for i, s in enumerate(signs) if s > 0]
        negative = [j for j, s in enumerate(signs) if s < 0]
        for i, j in product(positive, negative):
            (vi, zi), (vj, zj) = rays[i], rays[j]
            common = zi & zj
            if common.bit_count() < dim - 2:
                continue
            if _containing(holders, common, everything) == 1 << i | 1 << j:
                kept.append((_project(vj, signs[i], signs[j], vi), common | bit))
        rays = kept
    return rays


def polytope_vertices(sys):
    """All vertices, sorted: the extreme rays (x, t) of the homogenised cone
    {a.x + b.t >= 0 for every constraint, t >= 0}, read as x / t.  The
    polytope is bounded, so every extreme ray has t > 0."""
    if sys._vertices is not None:
        return sys._vertices
    if sys.n > MAX_ORACLE_N:
        raise ValueError(
            f"polyhedral oracle is capped at n <= {MAX_ORACLE_N}; got n = {sys.n}"
        )
    t_row = (0,) * sys.d + (1,)
    found = sorted(
        (tuple(Fraction(a, v[-1]) for a in v[:-1]), tight)
        for v, tight in _extreme_rays(sys.rows + (t_row,), sys.d + 1)
    )
    holders = _holders([tight for _, tight in found])
    sys._vertices = tuple(point for point, _ in found)
    sys._vertex_sets = tuple(holders.get(c, 0) for c in range(sys.num_constraints))
    return sys._vertices


class PolytopeFace:
    """A face stored by its vertex set and maximal tight constraint set."""

    __slots__ = ("system", "vertex_mask", "tight_mask", "dim")

    def __init__(self, system, vertex_mask, tight_mask, dim):
        self.system = system
        self.vertex_mask = vertex_mask
        self.tight_mask = tight_mask
        self.dim = dim

    @property
    def is_empty(self):
        return self.vertex_mask == 0

    def vertices(self):
        verts = polytope_vertices(self.system)
        return tuple(verts[v] for v in _bits(self.vertex_mask))

    def representative(self):
        """Average of the face's vertices: a relative-interior point."""
        pts = self.vertices()
        if not pts:
            return None
        count = len(pts)
        return tuple(
            sum(p[c] for p in pts) / Fraction(count) for c in range(self.system.d)
        )

    def __eq__(self, other):
        if not isinstance(other, PolytopeFace):
            return NotImplemented
        return self.system is other.system and self.vertex_mask == other.vertex_mask

    def __hash__(self):
        return hash((id(self.system), self.vertex_mask))

    def __repr__(self):
        return f"PolytopeFace(dim={self.dim}, vertices={bin(self.vertex_mask).count('1')})"


def face_lattice(sys):
    """Every face of the polytope (including the empty face and the
    polytope itself), sorted by vertex mask.

    The faces are exactly the intersections of the faces on which single
    constraints are tight: a nonempty face is the intersection of those
    for the constraints tight on all of it, and an intersection of faces is
    a face.  So the vertex sets are all ANDs of constraints' vertex sets.
    The constraints tight on all vertices of a nonempty face cut out its
    affine hull, so its dimension is d minus the rank of their rows.
    """
    if sys._faces is not None:
        return sys._faces
    verts = polytope_vertices(sys)
    found = {(1 << len(verts)) - 1, 0}
    for vs in sys._vertex_sets:
        found |= {f & vs for f in found}
    faces = []
    for vm in sorted(found):
        tight = sum(1 << c for c, vs in enumerate(sys._vertex_sets) if vm & vs == vm)
        dim = sys.d - _rank([sys.rows[c][:-1] for c in _bits(tight)]) if vm else -1
        faces.append(PolytopeFace(sys, vm, tight, dim))
    sys._faces = tuple(faces)
    sys._face_of = {f.vertex_mask: f for f in faces}
    return sys._faces


def face_counts_by_dim(faces):
    """{dimension: number of nonempty faces}, by increasing dimension."""
    return dict(sorted(Counter(f.dim for f in faces if not f.is_empty).items()))


def phi(sys, face):
    """Diagram face of a polytope face: keep the boundary axes plus every
    edge whose paired constraint is not tight on the face.  The empty face
    maps to BOTTOM."""
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


def psi(diagram, face, system):
    """Polytope face of a diagram face: the vertices tight on the
    constraints of all absent edges, looked up in the face lattice."""
    if isinstance(system, Spectrum):
        system = GCSystem(system)
    if system.spectrum.composition != diagram.composition:
        raise ValueError(
            f"spectrum composition {system.spectrum.composition} does not match "
            f"diagram composition {diagram.composition}"
        )
    face_lattice(system)
    vmask = (1 << len(system._vertices)) - 1
    for con, vs in zip(system.constraints, system._vertex_sets):
        if not face.mask & diagram.edge_bit(*con.edge):
            vmask &= vs
    return system._face_of[vmask]


def representative_point(face, spectrum):
    """Rational point in the relative interior of the polytope face matching
    a diagram face, built by averaging inward over anti-diagonals.

    Returns {(i, j): value} covering the free entries and the fixed
    boundary row (i + j = n + 1).
    """
    diagram = face.diagram
    if spectrum.composition != diagram.composition:
        raise ValueError("spectrum and face compositions differ")
    n = spectrum.n
    values = {}
    for i in range(1, n + 1):
        values[(i, n + 1 - i)] = spectrum.values[i - 1]
    for level in range(n, 1, -1):
        for i in range(1, level):
            j = level - i
            h_in = face.mask & diagram.edge_bit((i - 1, j), (i, j))
            v_in = face.mask & diagram.edge_bit((i, j - 1), (i, j))
            if not h_in:
                values[(i, j)] = values[(i, j + 1)]
            elif not v_in:
                values[(i, j)] = values[(i + 1, j)]
            else:
                values[(i, j)] = (values[(i, j + 1)] + values[(i + 1, j)]) / 2
    return values


def representative_strictness(face, spectrum):
    """Check the exact strictness pattern of the representative point:
    strict inequality at a constraint iff the paired edge is in the face.
    Returns a list of violation descriptions (empty = pass)."""
    diagram = face.diagram
    values = representative_point(face, spectrum)
    n = spectrum.n
    bad = []
    for i in range(1, n):
        for j in range(1, n - i + 1):
            here = values[(i, j)]
            up = values[(i, j + 1)]
            down = values[(i + 1, j)]
            if up < here or here < down:
                bad.append(f"point infeasible at {(i, j)}")
                continue
            h_in = bool(face.mask & diagram.edge_bit((i - 1, j), (i, j)))
            v_in = bool(face.mask & diagram.edge_bit((i, j - 1), (i, j)))
            if h_in != (here < up):
                bad.append(
                    f"horizontal edge into {(i, j)}: present={h_in} strict={here < up}"
                )
            if v_in != (here > down):
                bad.append(
                    f"vertical edge into {(i, j)}: present={v_in} strict={here > down}"
                )
    return bad


@dataclass(frozen=True)
class IsoReport:
    """Outcome of the face-lattice correspondence check for one spectrum."""

    spectrum: tuple
    composition: tuple
    diagram_counts: tuple
    polytope_counts: tuple
    face_count: int
    bijection_ok: bool
    order_ok: bool
    dimension_ok: bool
    roundtrip_ok: bool
    counterexample: str | None = None

    @property
    def passed(self):
        return (
            self.bijection_ok
            and self.order_ok
            and self.dimension_ok
            and self.roundtrip_ok
        )

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" counterexample: {self.counterexample}" if self.counterexample else ""
        return (
            f"{status} lattice correspondence for spectrum "
            f"({', '.join(self.spectrum)}): {self.face_count} faces{extra}"
        )


def inclusion_mismatch(left, right):
    """First pair (a, b), in row-major order, on which the two families of
    nonempty masks disagree about left[a] <= left[b] versus right[a] <=
    right[b] as sets; None if they are ordered alike.

    The up-set of a (all b with masks[a] <= masks[b]) is the AND, over the
    bits of masks[a], of the bitsets of the masks holding that bit.  The
    relations agree on all pairs iff the up-sets agree for every a; the
    lowest bit of the first difference is the all-pairs scan's first hit.
    """
    everything = (1 << len(left)) - 1
    held_left, held_right = _holders(left), _holders(right)
    for a, (mask_left, mask_right) in enumerate(zip(left, right)):
        differ = _containing(held_left, mask_left, everything) ^ _containing(
            held_right, mask_right, everything
        )
        if differ:
            return a, (differ & -differ).bit_length() - 1
    return None


def verify_isomorphism(spectrum):
    """Check that the edge-wise face map is a dimension-preserving lattice
    isomorphism between the polytope's nonempty faces and the diagram's
    faces, with two-sided round trips."""
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(spectrum)
    sys = GCSystem(spectrum)
    diagram = build_diagram(spectrum.composition)
    pfaces = [f for f in face_lattice(sys) if not f.is_empty]
    dfaces = enumerate_faces(diagram)
    diagram_masks = set(dfaces.masks.tolist())

    counterexample = None
    images = [phi(sys, f) for f in pfaces]
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

    mismatch = inclusion_mismatch([f.vertex_mask for f in pfaces], image_masks)
    order_ok = mismatch is None
    if not order_ok and counterexample is None:
        counterexample = "inclusion mismatch between faces #{} and #{}".format(*mismatch)

    roundtrip_ok = True
    for f, g in zip(pfaces, images):
        if psi(diagram, g, sys) != f:
            roundtrip_ok = False
            if counterexample is None:
                counterexample = "psi(phi(F)) != F"
            break
    if roundtrip_ok:
        for g in dfaces:
            back = phi(sys, psi(diagram, g, sys))
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
