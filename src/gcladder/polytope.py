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
with the edge-wise face maps is evidence, not tautology.  The lattice
check decides the map's images by looking them up in the diagram's face
table (``enumerate_faces``).  All arithmetic is exact (Python ints and
``fractions.Fraction``); there are no tolerances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from math import gcd, lcm

import numpy as np

from .ladder import (
    BOTTOM,
    DiagramFace,
    _bits,
    build_diagram,
    enumerate_faces,
    is_face,
)
from .records import hex_mask

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
                raise ValueError(
                    "spectrum must be weakly decreasing, got "
                    + ", ".join(str(v) for v in vals)
                )
        self.values = vals
        self.composition = tuple(len(list(block)) for _, block in groupby(vals))

    @classmethod
    def parse(cls, text):
        """Comma-separated exact rationals, e.g. "2,1,0" or "3/2,3/2,0".

        An entry with an exponent ("1e-9") is refused: ``Fraction`` expands
        it as a power of ten, which for a large exponent never finishes.
        """
        values = []
        for part in text.split(","):
            part = part.strip()
            if "e" in part.lower():
                raise ValueError(f"exponent in {part!r}; write an integer, decimal or p/q")
            try:
                values.append(Fraction(part))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {part!r}") from None
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
    return Spectrum([n - i for i, part in enumerate(comp, start=1) for _ in range(part)])


@dataclass(frozen=True)
class Constraint:
    """One interlacing inequality x_a - x_b >= 0, tagged with its pattern
    position and the grid edge it gates.  Coordinate d (one past the free
    entries) is the fixed top-row entry, of value ``const``; an inequality
    between two free entries has ``const`` 0."""

    kind: str  # "up": x_{i,j+1} >= x_{i,j};  "down": x_{i,j} >= x_{i+1,j}
    i: int
    j: int
    a: int
    b: int
    const: Fraction
    edge: tuple

    def value_at(self, point):
        x = (*point, self.const)
        return x[self.a] - x[self.b]


class GCSystem:
    """The full inequality system of a spectrum, with deterministic
    constraint indexing: all UP constraints in lexicographic (i, j) order,
    then all DOWN constraints likewise (matching the diagram's
    horizontals-then-verticals edge order).

    ``rows`` holds each constraint as the integer row of the homogenised
    inequality r.(x, t) >= 0, read off its coordinate pair: +1 at a and -1
    at b, with t in place of the top-row entry, whose row is scaled by the
    denominator of its value.
    """

    __slots__ = (
        "spectrum",
        "n",
        "index_set",
        "d",
        "constraints",
        "rows",
        "_vertices",
        "_vertex_sets",
        "_faces",
        "_face_of",
        "_edge_bits",
        "_vertex_tight",
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
        self.d = d = len(index_set)
        # The top-row entry x_{i,n+1-i} is lambda_i, at coordinate d.
        at = {p: t for t, p in enumerate(index_set)}
        at.update(((i, n + 1 - i), d) for i in range(1, n + 1))
        lam = spectrum.values
        cons = []
        for (i, j) in index_set:
            const = lam[i - 1] if i + j == n else Fraction(0)
            edge = ((i - 1, j), (i, j))
            cons.append(Constraint("up", i, j, at[i, j + 1], at[i, j], const, edge))
        for (i, j) in index_set:
            const = lam[i] if i + j == n else Fraction(0)
            edge = ((i, j - 1), (i, j))
            cons.append(Constraint("down", i, j, at[i, j], at[i + 1, j], const, edge))
        self.constraints = tuple(cons)
        # x_a - x_b >= 0 times q, where const = p/q; homogenised, x_d = const * t.
        rows = []
        for c in cons:
            row = [0] * (d + 1)
            row[c.a], row[c.b] = 1, -1
            q, p = c.const.denominator, c.const.numerator
            rows.append(tuple(r * q for r in row[:d]) + (row[d] * p,))
        self.rows = tuple(rows)
        self._vertices = None
        self._vertex_tight = None
        self._vertex_sets = None
        self._faces = None
        self._face_of = None
        self._edge_bits = None

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
    # ``row`` as (index, coefficient) pairs of its nonzero entries
    return sum(a * vector[i] for i, a in row)


def _project(vector, scale, weight, pivot):
    """scale * vector - weight * pivot, divided by the gcd of its entries."""
    if not weight:
        return vector
    out = [scale * a - weight * b for a, b in zip(vector, pivot)]
    g = gcd(*out)
    return tuple(a // g for a in out) if g > 1 else tuple(out)


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
    rows = [tuple((i, a) for i, a in enumerate(row) if a) for row in rows]
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
        positive = [i for i, s in enumerate(signs) if s > 0]
        negative = [j for j, s in enumerate(signs) if s < 0]
        if not (positive and negative):
            # no ray on one side: the row only marks its tight rays
            rays = kept
            continue
        holders = _holders([z for _, z in rays])
        everything = (1 << len(rays)) - 1
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
    polytope is bounded, so every extreme ray has t > 0.

    Each vertex's tight mask comes with it, in the same order; each
    constraint's vertex set is read off them."""
    if sys._vertices is not None:
        return sys._vertices
    if sys.n > MAX_ORACLE_N:
        raise ValueError(
            f"polyhedral oracle is capped at n <= {MAX_ORACLE_N}; got n = {sys.n}"
        )
    t_row = (0,) * sys.d + (1,)
    rays = _extreme_rays(sys.rows + (t_row,), sys.d + 1)
    # Scaled by one common t, the points sort as integers, in the order of
    # their Fraction forms; each of those is then built once.
    common = lcm(*(v[-1] for v, _ in rays))
    rays.sort(key=lambda ray: tuple(a * (common // ray[0][-1]) for a in ray[0][:-1]))
    sys._vertices = tuple(tuple(Fraction(a, v[-1]) for a in v[:-1]) for v, _ in rays)
    sys._vertex_tight = tuple(tight for _, tight in rays)
    holders = _holders(sys._vertex_tight)
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
        return tuple(sum(c) / Fraction(len(pts)) for c in zip(*pts)) if pts else None

    def __eq__(self, other):
        if not isinstance(other, PolytopeFace):
            return NotImplemented
        return self.system is other.system and self.vertex_mask == other.vertex_mask

    def __hash__(self):
        return hash((id(self.system), self.vertex_mask))

    def __repr__(self):
        return f"PolytopeFace(dim={self.dim}, vertices={bin(self.vertex_mask).count('1')})"


def _byte_rows(masks):
    """The masks as rows of little-endian bytes: a uint8 array with one row
    per mask."""
    size = (max(masks, default=0).bit_length() + 7) // 8
    data = b"".join(mask.to_bytes(size, "little") for mask in masks)
    return np.frombuffer(data, np.uint8).reshape(len(masks), size)


def _tight_dims(sys, tight):
    """Dimension of the affine space cut out by each row of ``tight`` (a
    boolean array with one row per face and one column per constraint):
    d minus the rank of the tight constraints' rows, that is the
    components, less one, of the graph on the coordinates and a ground
    node d with an edge between the coordinates a, b of each tight
    constraint.

    Union-find on all rows at once: each node is labelled by the smallest
    node of its component, so a component has one node that is its label.
    Labels take the smallest dtype that holds d: one byte up to n = 23.
    """
    nodes = np.arange(sys.d + 1, dtype=np.min_scalar_type(sys.d))
    labels = np.empty((len(tight), sys.d + 1), nodes.dtype)
    labels[:] = nodes
    for c, con in enumerate(sys.constraints):
        low = np.minimum(labels[:, con.a], labels[:, con.b])[:, None]
        high = np.maximum(labels[:, con.a], labels[:, con.b])[:, None]
        np.copyto(labels, low, where=tight[:, c, None] & (labels == high))
    return (labels == nodes).sum(axis=1, dtype=np.int64) - 1


def face_lattice(sys):
    """Every face of the polytope (including the empty face and the
    polytope itself), sorted by vertex mask.

    The faces are exactly the intersections of the faces on which single
    constraints are tight: a nonempty face is the intersection of those
    for the constraints tight on all of it, and an intersection of faces is
    a face.  So the vertex sets are all ANDs of constraints' vertex sets.
    The constraints tight on all vertices of a nonempty face cut out its
    affine hull, so its dimension is d minus the rank of their rows
    (``_tight_dims``).
    """
    if sys._faces is not None:
        return sys._faces
    verts = polytope_vertices(sys)
    found = {(1 << len(verts)) - 1, 0}
    for vs in sys._vertex_sets:
        found |= {f & vs for f in found}
    masks = sorted(found)
    # A nonempty face's tight set is the AND of its vertices' tight sets.
    vertex_tight = np.array(sys._vertex_tight, np.int64)
    incidence = np.unpackbits(_byte_rows(masks[1:]), axis=1, bitorder="little")
    sizes = incidence.sum(axis=1, dtype=np.int64)
    tight = np.empty(len(masks), np.int64)
    tight[0] = (1 << sys.num_constraints) - 1  # the empty face
    tight[1:] = np.bitwise_and.reduceat(
        vertex_tight[incidence.nonzero()[1]], sizes.cumsum() - sizes
    )
    dims = _tight_dims(sys, tight[:, None] >> np.arange(sys.num_constraints) & 1 == 1)
    dims[0] = -1  # the empty face
    faces = [
        PolytopeFace(sys, vm, t, dim)
        for vm, t, dim in zip(masks, tight.tolist(), dims.tolist())
    ]
    sys._faces = tuple(faces)
    sys._face_of = {f.vertex_mask: f for f in faces}
    return sys._faces


def face_counts_by_dim(faces):
    """{dimension: number of nonempty faces}, by increasing dimension."""
    return dict(sorted(Counter(f.dim for f in faces if not f.is_empty).items()))


def edge_bits(sys):
    """The edge bit paired with each constraint, or 0 when the diagram lacks
    that edge; built once.  ``phi`` and ``psi`` read it."""
    if sys._edge_bits is None:
        diagram = build_diagram(sys.spectrum.composition)
        sys._edge_bits = tuple(diagram.edge_bit(*con.edge) for con in sys.constraints)
    return sys._edge_bits


def _face_images(sys, tight_masks):
    """Edge masks of the nonempty faces with these tight masks: the boundary
    axes OR the bits of the constraints not tight on each (int64 array).
    Whether each is a diagram face is left to the caller."""
    bits = edge_bits(sys)
    tight_masks = np.asarray(tight_masks, dtype=np.int64)
    # An image needs an edge for every constraint not tight on the face.
    outside = sum(1 << c for c, bit in enumerate(bits) if not bit)
    stray = np.flatnonzero(~tight_masks & outside)
    if stray.size:
        missing = ~int(tight_masks[stray[0]]) & outside
        con = sys.constraints[(missing & -missing).bit_length() - 1]
        raise AssertionError(
            f"non-tight constraint {con.kind}{(con.i, con.j)} pairs with an "
            f"edge outside the diagram"
        )
    diagram = build_diagram(sys.spectrum.composition)
    # One (faces x constraints) array: the bit of each non-tight constraint.
    c = np.arange(len(bits), dtype=np.int64)
    kept = np.where(tight_masks[:, None] >> c & 1, 0, np.array(bits, np.int64))
    return np.bitwise_or.reduce(kept, axis=1) | np.int64(diagram.axes_mask)


def _preimages(sys, masks):
    """Vertex mask of the polytope face of each edge mask: the AND of the
    vertex sets of the constraints whose edge bit the mask lacks.  Each
    vertex set is one row of bytes, ANDed into all the masks that lack its
    edge at once."""
    masks = np.asarray(masks, dtype=np.int64)
    # All vertices first, so that every row has the same width.
    rows = _byte_rows(((1 << len(sys._vertices)) - 1,) + sys._vertex_sets)
    out = np.repeat(rows[:1], len(masks), axis=0)
    for row, bit in zip(rows[1:], edge_bits(sys)):
        np.bitwise_and(out, row, out=out, where=(masks & bit == 0)[:, None])
    return [int.from_bytes(vmask, "little") for vmask in out]


def phi(sys, face):
    """Diagram face of a polytope face: keep the boundary axes plus every
    edge whose paired constraint is not tight on the face.  The empty face
    maps to BOTTOM; an image that is no diagram face raises
    ``AssertionError``."""
    if face.is_empty:
        return BOTTOM
    (mask,) = _face_images(sys, [face.tight_mask]).tolist()
    diagram = build_diagram(sys.spectrum.composition)
    if not is_face(diagram, mask):
        raise AssertionError(
            f"polytope face mapped to a non-face edge set 0x{hex_mask(diagram, mask)}"
        )
    return DiagramFace(diagram, mask)


def psi(diagram, face, system):
    """Polytope face of a diagram face: the vertices tight on the
    constraints of all absent edges, looked up in the face lattice of the
    ``GCSystem``."""
    if system.spectrum.composition != diagram.composition:
        raise ValueError(
            f"spectrum composition {system.spectrum.composition} does not match "
            f"diagram composition {diagram.composition}"
        )
    face_lattice(system)
    (vmask,) = _preimages(system, [face.mask])
    return system._face_of[vmask]


# Faces per chunk of the witness check: bounds its working arrays, which
# peak at about 270 bytes a face at n = 6.
_CHUNK = 1 << 18


def _witness(sys, masks):
    """The witness points of the diagram faces with these edge masks:
    x_{i,j} is x_{i,j+1} if the face lacks the horizontal edge into (i, j),
    else x_{i+1,j} if it lacks the vertical one, else their mean.

    Returns {(i, j): int64 column} over the free entries and the top row,
    times 2^n times the lcm of the spectrum's denominators; that scale; and
    whether each mask holds each constraint's paired edge (boolean).
    """
    n, d, values = sys.n, sys.d, sys.spectrum.values
    scale = (1 << n) * lcm(*(v.denominator for v in values))
    top = [v.numerator * (scale // v.denominator) for v in values]
    if max(map(abs, top)) >= 1 << 62:  # the sum of two must fit in int64
        raise ValueError(
            f"witness points need |lambda_i| * 2^n * lcm(denominators) below "
            f"2^62; here the scale is {scale}"
        )
    present = masks[:, None] & np.array(edge_bits(sys), np.int64) != 0
    x = {
        (i, n + 1 - i): np.broadcast_to(np.int64(v), len(masks)) for i, v in enumerate(top, 1)
    }
    # By decreasing i + j, so that both neighbours of (i, j) come first.
    for t, (i, j) in sorted(enumerate(sys.index_set), key=lambda tp: -sum(tp[1])):
        above, below = x[i, j + 1], x[i + 1, j]
        mean = np.where(present[:, d + t], (above + below) >> 1, below)
        x[i, j] = np.where(present[:, t], mean, above)
    return x, scale, present


def _witness_signs(sys, masks):
    """Sign of each constraint at each mask's witness point (int8), and the
    presence array of ``_witness``.  The witness test accepts a mask where
    the two agree: the point is feasible, and strict exactly where the
    mask holds the paired edge."""
    x, _, present = _witness(sys, masks)
    signs = np.empty(present.shape, np.int8)
    for t, (i, j) in enumerate(sys.index_set):
        signs[:, t] = np.sign(x[i, j + 1] - x[i, j])
        signs[:, sys.d + t] = np.sign(x[i, j] - x[i + 1, j])
    return signs, present


def representative_point(face, spectrum):
    """A diagram face's witness point, {(i, j): Fraction} over the free
    entries and the top row: a point in the relative interior of the
    matching polytope face."""
    if spectrum.composition != face.diagram.composition:
        raise ValueError("spectrum and face compositions differ")
    x, scale, _ = _witness(GCSystem(spectrum), np.array([face.mask], np.int64))
    return {p: Fraction(int(column[0]), scale) for p, column in x.items()}


def witness_violations(faces, spectrum):
    """Check the witness point of every face of a ``FaceSet``.

    The masks must increase strictly, each holding the axes (which pair
    with no constraint) and no bit past the diagram's edges.  Each witness
    point must be feasible and strict exactly where the face holds the
    paired edge.  Then its tight set is T, the constraints of the absent
    edges, and its face has dimension d - rank(T) (``_tight_dims``), which
    must equal the face set's.  The faces go in chunks of ``_CHUNK`` up to
    the first chunk that fails.  Returns one message per failing check,
    naming its first offender by face index, hex mask and grid position;
    empty means pass.
    """
    diagram = faces.diagram
    if spectrum.composition != diagram.composition:
        raise ValueError("spectrum and face compositions differ")
    sys = GCSystem(spectrum)
    masks = faces.masks

    def named(f):
        return f"face #{f} (0x{hex_mask(diagram, int(masks[f]))})"

    problems = []
    unsorted = np.flatnonzero(masks[1:] <= masks[:-1])
    if unsorted.size:
        problems.append(f"{named(unsorted[0] + 1)} does not follow a smaller mask")
    edges = np.int64(diagram.full_mask)
    stray = np.flatnonzero((masks | np.int64(diagram.axes_mask)) & edges != masks)
    if stray.size:
        problems.append(f"{named(stray[0])} lacks an axis edge or has a bit past the edges")
    for lo in range(0, len(masks), _CHUNK):
        signs, present = _witness_signs(sys, masks[lo : lo + _CHUNK])
        mismatch = signs != present
        if mismatch.any():
            f, c = np.unravel_index(mismatch.argmax(), mismatch.shape)
            con, strict = sys.constraints[c], bool(signs[f, c] > 0)
            side = "horizontal" if con.kind == "up" else "vertical"
            what = f"{side} edge into {(con.i, con.j)}: present={not strict} strict={strict}"
            if signs[f, c] < 0:
                what = f"point infeasible at {(con.i, con.j)}"
            problems.append(f"{named(lo + f)}: {what}")
        dims = _tight_dims(sys, ~present)
        wrong = np.flatnonzero(dims != faces.dims[lo : lo + _CHUNK])
        if wrong.size:
            f, rank_dim = lo + wrong[0], dims[wrong[0]]
            problems.append(f"{named(f)}: dimension {faces.dims[f]}, {rank_dim} by tight rank")
        if problems:
            break
    return problems


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
    """Where two families of nonempty masks, vertex sets ``left`` and
    images ``right``, disagree about inclusion, read through the atoms: the
    masks left[b] of one bit v.  First, for each atom b in turn, v in
    left[a] must hold iff right[b] <= right[a]; the first face a that fails
    gives (a, b).  Then each right[a] must be the OR of right[b] over the
    atoms b of the bits of left[a], and each of those bits needs an atom;
    the first face that fails gives (a, None).  None if both hold.

    The two together give left[a] <= left[b] iff right[a] <= right[b] for
    all a, b.  An order isomorphism onto a family closed under union, as
    the diagram faces are, satisfies both, so there the verdict is the
    all-pairs one; elsewhere this check may fail more often, but never
    passes where the all-pairs one fails.
    """
    right = np.asarray(right, dtype=np.int64)
    rows = _byte_rows(left)
    union = np.zeros(right.shape, dtype=np.int64)
    covered = 0
    for b, vmask in enumerate(left):
        if vmask & (vmask - 1):
            continue
        v = vmask.bit_length() - 1
        holds = rows[:, v >> 3] & (1 << (v & 7)) != 0
        image = right[b]
        bad = np.flatnonzero(holds != (right & image == image))
        if bad.size:
            return int(bad[0]), b
        union[holds] |= image
        covered |= vmask
    covered = np.frombuffer(covered.to_bytes(rows.shape[1], "little"), np.uint8)
    bad = np.flatnonzero((rows & ~covered).any(axis=1) | (union != right))
    return (int(bad[0]), None) if bad.size else None


def verify_isomorphism(spectrum):
    """Check that the edge-wise face map is a dimension-preserving lattice
    isomorphism between the polytope's nonempty faces and the diagram's
    faces, with two-sided round trips.

    All faces are mapped at once: their images (``_face_images``) are
    looked up in the enumerator's sorted table, so an image outside it is a
    bijection failure, and dimensions are compared where an image was
    found.  The preimages of all images (``_preimages``) are ANDs of vertex
    sets, each compared with its face's vertex mask, and the single-face
    ``psi`` takes the polytope's own image back as well.  Once psi(phi(F)) = F
    for every face F, phi(psi(gamma)) = gamma holds exactly for the diagram
    faces gamma that are images, so the other round trip needs no second
    pass.  The order is read through the vertices (``inclusion_mismatch``).
    A failing check names its first offender: a polytope face by its index
    among the nonempty faces, an edge set by its hexadecimal mask.
    """
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(spectrum)
    sys = GCSystem(spectrum)
    diagram = build_diagram(spectrum.composition)
    pfaces = [f for f in face_lattice(sys) if not f.is_empty]
    dfaces = enumerate_faces(diagram)
    dmasks = dfaces.masks

    def hexed(mask):
        return "0x" + hex_mask(diagram, int(mask))

    problems = []  # one message per failing check, in the order checked
    images = _face_images(sys, [f.tight_mask for f in pfaces])
    pos = np.minimum(np.searchsorted(dmasks, images), len(dmasks) - 1)
    found = dmasks[pos] == images
    distinct, first = np.unique(images, return_index=True)
    repeat = np.ones(len(images), dtype=bool)
    repeat[first] = False
    bad = np.flatnonzero(~found | repeat)
    hit = np.zeros(len(dmasks), dtype=bool)
    hit[pos[found]] = True
    bijection_ok = not bad.size and len(images) == len(dmasks)
    if bad.size:
        i = bad[0]
        if not found[i]:
            problems.append(f"face #{i} maps to {hexed(images[i])}, not a diagram face")
        else:
            j = first[np.searchsorted(distinct, images[i])]
            problems.append(f"faces #{j} and #{i} both map to {hexed(images[i])}")
    elif not bijection_ok:
        problems.append(f"diagram face {hexed(dmasks[np.argmin(hit)])} is no face's image")

    image_dims = dfaces.dims[pos]
    wrong_dim = np.flatnonzero(found & (np.array([f.dim for f in pfaces]) != image_dims))
    dimension_ok = not wrong_dim.size
    if not dimension_ok:
        i = wrong_dim[0]
        problems.append(
            f"dim {pfaces[i].dim} face #{i} maps to dim {image_dims[i]} face "
            f"{hexed(images[i])}"
        )

    mismatch = inclusion_mismatch([f.vertex_mask for f in pfaces], images)
    order_ok = mismatch is None
    if not order_ok:
        a, b = mismatch
        if b is None:
            problems.append(
                f"image {hexed(images[a])} of face #{a} is not the union of "
                f"its vertices' images"
            )
        else:
            problems.append(
                f"inclusion mismatch between faces #{a} and #{b} "
                f"(images {hexed(images[a])} and {hexed(images[b])})"
            )

    back = _preimages(sys, images)
    lost = [i for i, (f, vmask) in enumerate(zip(pfaces, back)) if vmask != f.vertex_mask]
    # The public single-face psi takes the polytope's own image back too.
    if not lost and psi(diagram, DiagramFace(diagram, int(images[-1])), sys) is not pfaces[-1]:
        lost = [len(pfaces) - 1]
    if lost:
        i = lost[0]
        problems.append(f"psi(phi(F)) != F at face #{i} (image {hexed(images[i])})")
    elif not hit.all():
        problems.append(f"phi(psi(gamma)) != gamma at {hexed(dmasks[np.argmin(hit)])}")
    roundtrip_ok = not lost and bool(hit.all())

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
        counterexample=problems[0] if problems else None,
    )
