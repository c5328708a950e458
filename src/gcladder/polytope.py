"""Exact-rational model of the interlacing polytope of a spectrum, an
independent face-lattice oracle for it, and the correspondence between its
faces and ladder-diagram faces.

A weakly decreasing spectrum of length n pins the top row of a triangular
interlacing pattern; the free entries x_{i,j} (i, j >= 1, i + j <= n) are
constrained by x_{i,j+1} >= x_{i,j} >= x_{i+1,j}, giving a convex polytope
in n(n-1)/2 coordinates.  Each inequality pairs with one grid edge: the UP
constraint of (i,j) with the horizontal edge into (i,j), the DOWN
constraint with the vertical edge into (i,j).

The face-lattice oracle works purely on the inequality system - vertex
enumeration over square subsystems, then closure of vertex sets under the
tightness incidence - and never touches the diagram machinery, so its
agreement with the edge-wise face maps is evidence, not tautology.  All
arithmetic is over ``fractions.Fraction``; there are no tolerances.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .ladder import BOTTOM, DiagramFace, build_diagram, enumerate_faces, is_face

# Vertex enumeration scans C(2|I|, d) subsystems; n = 4 means C(12, 6) = 924.
MAX_ORACLE_N = 4


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


class GCSystem:
    """The full inequality system of a spectrum, with deterministic
    constraint indexing: all UP constraints in lexicographic (i, j) order,
    then all DOWN constraints likewise (matching the diagram's
    horizontals-then-verticals edge order)."""

    __slots__ = (
        "spectrum",
        "n",
        "index_set",
        "var_index",
        "d",
        "constraints",
        "_vertices",
        "_tight_masks",
        "_faces",
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
        self._vertices = None
        self._tight_masks = None
        self._faces = None

    @property
    def num_constraints(self):
        return len(self.constraints)

    def constraint_index(self, kind, i, j):
        base = 0 if kind == "up" else self.d
        return base + self.index_set.index((i, j))

    def __repr__(self):
        return f"GCSystem(n={self.n}, d={self.d}, constraints={self.num_constraints})"


def build_system(spectrum):
    """Inequality system of a spectrum (accepts a Spectrum or raw values)."""
    return GCSystem(spectrum)


def solve_square(rows, rhs):
    """Exact solution of a square rational system, or None if singular."""
    d = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(d):
        piv = None
        for r in range(col, d):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[r][d] for r in range(d))


def affine_rank(points):
    """Dimension of the affine hull of exact rational points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    cols = len(base)
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _check_oracle_bound(sys, max_n):
    if sys.n > max_n:
        raise ValueError(
            f"polyhedral oracle is capped at n <= {max_n}; got n = {sys.n}"
        )


def polytope_vertices(sys, max_n=MAX_ORACLE_N):
    """All vertices, by exact enumeration of square tight subsystems."""
    if sys._vertices is not None:
        return sys._vertices
    _check_oracle_bound(sys, max_n)
    cons = sys.constraints
    found = set()
    for subset in combinations(range(len(cons)), sys.d):
        sol = solve_square(
            [cons[c].coeffs for c in subset], [-cons[c].const for c in subset]
        )
        if sol is None:
            continue
        if all(c.value_at(sol) >= 0 for c in cons):
            found.add(sol)
    verts = tuple(sorted(found))
    tight = tuple(
        sum(1 << c for c in range(len(cons)) if cons[c].value_at(v) == 0)
        for v in verts
    )
    sys._vertices = verts
    sys._tight_masks = tight
    return verts


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

    def vertex_ids(self):
        out = []
        m = self.vertex_mask
        while m:
            v = (m & -m).bit_length() - 1
            out.append(v)
            m &= m - 1
        return out

    def vertices(self):
        verts = polytope_vertices(self.system)
        return tuple(verts[v] for v in self.vertex_ids())

    def representative(self):
        """Average of the face's vertices: a relative-interior point."""
        pts = self.vertices()
        if not pts:
            return None
        count = len(pts)
        return tuple(
            sum(p[c] for p in pts) / Fraction(count) for c in range(self.system.d)
        )

    def contains(self, other):
        return self.vertex_mask | other.vertex_mask == self.vertex_mask

    def __eq__(self, other):
        if not isinstance(other, PolytopeFace):
            return NotImplemented
        return self.system is other.system and self.vertex_mask == other.vertex_mask

    def __hash__(self):
        return hash((id(self.system), self.vertex_mask))

    def __repr__(self):
        return f"PolytopeFace(dim={self.dim}, vertices={bin(self.vertex_mask).count('1')})"


def _make_face(sys, vertex_mask):
    verts = polytope_vertices(sys)
    tight = sys._tight_masks
    all_cons = (1 << sys.num_constraints) - 1
    if vertex_mask == 0:
        return PolytopeFace(sys, 0, all_cons, -1)
    t = all_cons
    pts = []
    m = vertex_mask
    while m:
        v = (m & -m).bit_length() - 1
        t &= tight[v]
        pts.append(verts[v])
        m &= m - 1
    return PolytopeFace(sys, vertex_mask, t, affine_rank(pts))


def face_lattice(sys, max_n=MAX_ORACLE_N):
    """Every face of the polytope (including the empty face and the
    polytope itself), enumerated by vertex-set closure.

    A vertex set is closed when it contains every vertex tight on all
    constraints common to the set; faces are exactly the closed sets.
    """
    if sys._faces is not None:
        return sys._faces
    verts = polytope_vertices(sys, max_n)
    tight = sys._tight_masks
    nv = len(verts)
    all_cons = (1 << sys.num_constraints) - 1

    def closure(vmask):
        t = all_cons
        m = vmask
        while m:
            v = (m & -m).bit_length() - 1
            t &= tight[v]
            m &= m - 1
        out = 0
        for u in range(nv):
            if tight[u] & t == t:
                out |= 1 << u
        return out

    seen = set()
    queue = deque()
    for v in range(nv):
        c = closure(1 << v)
        if c not in seen:
            seen.add(c)
            queue.append(c)
    while queue:
        face = queue.popleft()
        for v in range(nv):
            if not face >> v & 1:
                c = closure(face | (1 << v))
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
    seen.add(0)  # the empty face
    faces = tuple(_make_face(sys, vm) for vm in sorted(seen))
    sys._faces = faces
    return faces


def face_counts_by_dim(faces, include_empty=False):
    counts = Counter(
        f.dim for f in faces if include_empty or not f.is_empty
    )
    return dict(sorted(counts.items()))


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
    """Polytope face of a diagram face: set the constraints of all absent
    edges to equality and canonicalize via the vertex incidence."""
    if isinstance(system, Spectrum):
        system = GCSystem(system)
    if system.spectrum.composition != diagram.composition:
        raise ValueError(
            f"spectrum composition {system.spectrum.composition} does not match "
            f"diagram composition {diagram.composition}"
        )
    polytope_vertices(system)
    target = 0
    for idx, con in enumerate(system.constraints):
        if not face.mask & diagram.edge_bit(*con.edge):
            target |= 1 << idx
    tight = system._tight_masks
    vmask = 0
    for v in range(len(system._vertices)):
        if tight[v] & target == target:
            vmask |= 1 << v
    return _make_face(system, vmask)


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


def verify_isomorphism(spectrum, max_n=MAX_ORACLE_N):
    """Check that the edge-wise face map is a dimension-preserving lattice
    isomorphism between the polytope's nonempty faces and the diagram's
    faces, with two-sided round trips."""
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(spectrum)
    sys = GCSystem(spectrum)
    diagram = build_diagram(spectrum.composition)
    pfaces = [f for f in face_lattice(sys, max_n) if not f.is_empty]
    dfaces = enumerate_faces(diagram)
    diagram_masks = set(dfaces.masks.tolist())

    counterexample = None
    images = []
    for f in pfaces:
        images.append(phi(sys, f))

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

    order_ok = True
    for a, fa in enumerate(pfaces):
        for b, fb in enumerate(pfaces):
            lhs = fa.vertex_mask | fb.vertex_mask == fb.vertex_mask
            rhs = image_masks[a] | image_masks[b] == image_masks[b]
            if lhs != rhs:
                order_ok = False
                if counterexample is None:
                    counterexample = (
                        f"inclusion mismatch between faces #{a} and #{b}"
                    )
                break
        if not order_ok:
            break

    roundtrip_ok = True
    for f, g in zip(pfaces, images):
        back = psi(diagram, g, sys)
        if back.vertex_mask != f.vertex_mask:
            roundtrip_ok = False
            if counterexample is None:
                counterexample = "psi(phi(F)) != F"
            break
    if roundtrip_ok:
        for g in dfaces:
            there = psi(diagram, g, sys)
            back = phi(sys, there)
            if back is BOTTOM or back.mask != g.mask:
                roundtrip_ok = False
                if counterexample is None:
                    counterexample = "phi(psi(gamma)) != gamma"
                break

    polytope_counts = Counter(f.dim for f in pfaces)
    return IsoReport(
        spectrum=tuple(str(v) for v in spectrum.values),
        composition=spectrum.composition,
        diagram_counts=tuple(sorted(dfaces.census().items())),
        polytope_counts=tuple(sorted(polytope_counts.items())),
        face_count=len(pfaces),
        bijection_ok=bijection_ok,
        order_ok=order_ok,
        dimension_ok=dimension_ok,
        roundtrip_ok=roundtrip_ok,
        counterexample=counterexample,
    )
