"""Ladder diagrams and their face lattices.

A composition k = (k_1, ..., k_s) of n determines a directed grid graph
anchored at the origin: the induced subgraph of the non-negative quadrant
grid on all points lying weakly below-left of one of the terminal corners
(n_i, n - n_i), where n_i are the partial sums of k.  Every edge steps one
unit up or right, so any directed origin-to-terminal path is monotone and
of length n.

A *face* of the diagram is an edge subset that covers every terminal corner
and is a union of such origin-to-terminal paths; its dimension is its cycle
rank.  Faces are stored as bit vectors over a canonical band-major edge
numbering: edges by the anti-diagonal a + b of their head, then horizontal
before vertical, then by head.  That makes the lattice operations integer
bit arithmetic, and it puts every edge that ends on a line a + b = m above
every edge that ends below it.  It is also a topological order, so the path
pass walks the edges by index.  Records and the CLI write masks in a second
numbering, horizontal edges first and then vertical, each block by head;
``records`` derives that map.  The diagram writes its edges band by band,
with no sort; ``_edge_key`` states the order as a sort key for the tests.

Two independent enumerators are provided: ``enumerate_faces`` recurses over
assignment words (attaching the terminal-edge gadget of each word to every
face of the corresponding child diagram), while ``brute_force_faces``
filters every edge subset that holds the edges the face rule forces (the two
axes) through the local face rule of ``is_face_local`` (terminals covered,
and an inner vertex has a chosen in-edge exactly when it has a chosen
out-edge) and never shares code with the recursion.
Both return a ``FaceSet``: the sorted masks and dimensions as numpy arrays,
with ``DiagramFace`` objects built on demand.

A child diagram shares its parent's origin and coordinates, so every face
of every sub-composition met in the recursion is an edge set of the
requested diagram.  The recursion computes them all directly in that
diagram's edge numbering: it builds no child diagram and moves no bit, and a
parent face is a child face OR the word's gadget.  With the face and its
dimension packed into one int64 key, that is one addition per face.  The
gadget's edges end on the line a + b = n of its composition and the child's
below it, so in the band-major numbering the gadget outranks every child
face: a table is its words' child tables laid end to end by gadget, with no
sort.  The words come from ``words.branch_walk``, the one walk of the
composition's letters, which ``_branches`` feeds the corner edges of
``_corner_bits``: it yields each word's gadget and weight as one step,
grouped by child.  Each chain of branches ends at a one-part composition
(m), whose diagram is its two axis paths and whose one face, of dimension
0, is a single key written directly, with no walk.  Only the requested
composition's table is memoized.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from . import kernels
from .words import BOTH, RIGHT, UP, branch_walk, child_composition, reduce_composition

# Brute force walks the 2^(|E| - 2n) subsets of the edges off the two axes;
# refuse diagrams with more such free edges.
MAX_FREE_EDGES = 26
# Face bit vectors ride in signed 64-bit arrays during enumeration, packed
# with their dimension into one non-negative key.
_MAX_MASK_BITS = 62
_MAX_KEY_BITS = 63
# Most faces in one table of the array enumerator.  A table is its int64
# keys, which become its masks, plus int16 dims: 10 bytes a face.  Its
# children's tables are freed before the dims are made, so it peaks at about
# that (10.04 bytes a face for (2, 1, 1, 3), by tracemalloc), and this bound
# is about 200 MB.  It admits the 38 compositions of 7 with at most 20M
# faces, and refuses (1,)*7 (2,605,486,753 faces) before allocating.
MAX_FACES = 20_000_000
# Faces per slice when a face table is split, counted or iterated: large
# enough that the per-slice overhead vanishes, small enough that one slice's
# Python ints take about 3 MB.
FACE_CHUNK = 1 << 16
# Set bits of each byte value, for counting the edges of a mask bytewise.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int16)


def _edge_key(edge):
    # Band-major order: by the anti-diagonal of the head, then horizontal
    # h(i,j) = ((i-1,j),(i,j)) before vertical v(i,j) = ((i,j-1),(i,j)), then
    # by head (i, j).
    (ta, _), head = edge
    return sum(head), ta == head[0], head


def _band_major_edges(bands):
    """The edges of a diagram in band-major order (``_edge_key``).

    ``bands`` are the points of each anti-diagonal by a.  The edges are
    written band by band: the horizontal in-edges by head, then the vertical
    ones.
    """
    edges = []
    for band in bands[1:]:
        edges.extend(((a - 1, b), (a, b)) for a, b in band if a)
        edges.extend(((a, b - 1), (a, b)) for a, b in band if b)
    return edges


class LadderDiagram:
    """The grid graph of a reduced composition, with canonical edge indexing.

    ``edges`` is in band-major order (``_edge_key``), written directly by
    ``_band_major_edges``, not sorted, and ``vertices`` go by anti-diagonal,
    then by a.

    Instances are interned per reduced composition (see ``build_diagram``),
    immutable after construction, and safe to share across threads.
    """

    __slots__ = (
        "composition",
        "n",
        "s",
        "terminals",
        "vertices",
        "edges",
        "edge_index",
        "edge_tails",
        "edge_heads",
        "origin_index",
        "terminal_indices",
        "terminal_in_masks",
        "in_edges",
        "out_edges",
        "full_mask",
        "axes_mask",
    )

    def __init__(self, composition):
        comp = reduce_composition(composition)
        if comp != tuple(composition):
            raise ValueError("LadderDiagram requires a reduced composition; use build_diagram")
        self.composition = comp
        self.n = sum(comp)
        self.s = len(comp)
        sums = [0, *itertools.accumulate(comp)]
        n = self.n
        # v_0 = (0, n) down to v_s = (n, 0); the degenerate diagram keeps the
        # origin as its single (terminal) vertex.
        self.terminals = tuple((m, n - m) for m in sums)

        # Column heights: column a holds the points up to n - min{partial
        # sum >= a}.  They do not increase, so every point with a > 0 has a
        # horizontal in-edge and every point with b > 0 a vertical one.
        heights = [n, *(n - m for lo, m in zip(sums, sums[1:]) for _ in range(lo, m))]
        # The points on each anti-diagonal a + b = d, by a.
        bands = [
            [(a, d - a) for a in range(d + 1) if d - a <= heights[a]]
            for d in range(n + 1)
        ]
        verts = [v for band in bands for v in band]  # topological order
        self.vertices = tuple(verts)
        vset = {v: i for i, v in enumerate(verts)}

        edges = _band_major_edges(bands)
        self.edges = tuple(edges)
        self.edge_index = {e: i for i, e in enumerate(edges)}
        self.edge_tails = tuple(vset[e[0]] for e in edges)
        self.edge_heads = tuple(vset[e[1]] for e in edges)
        self.origin_index = vset[(0, 0)]
        self.terminal_indices = tuple(vset[t] for t in self.terminals)
        in_edges = [[] for _ in verts]
        out_edges = [[] for _ in verts]
        for e in range(len(edges)):
            out_edges[self.edge_tails[e]].append(e)
            in_edges[self.edge_heads[e]].append(e)
        self.in_edges = tuple(tuple(es) for es in in_edges)
        self.out_edges = tuple(tuple(es) for es in out_edges)
        self.terminal_in_masks = tuple(
            sum(1 << e for e in self.in_edges[t]) for t in self.terminal_indices
        )
        self.full_mask = (1 << len(edges)) - 1
        axes = 0
        for i in range(n):
            axes |= 1 << self.edge_index[((i, 0), (i + 1, 0))]
            axes |= 1 << self.edge_index[((0, i), (0, i + 1))]
        self.axes_mask = axes

    @property
    def num_edges(self):
        return len(self.edges)

    def edge_bit(self, tail, head):
        """Bit value of a geometric edge, or 0 if absent from the diagram."""
        idx = self.edge_index.get((tuple(tail), tuple(head)))
        return 0 if idx is None else 1 << idx

    def __repr__(self):
        return f"LadderDiagram{self.composition}"


@functools.lru_cache(maxsize=None)
def _build_reduced(comp):
    return LadderDiagram(comp)


def build_diagram(k):
    """The interned diagram of a composition (zero parts are stripped)."""
    return _build_reduced(reduce_composition(k))


class DiagramFace:
    """An edge subset of a diagram satisfying the face conditions.

    Construction does not re-validate; use ``is_face`` (or the enumerators,
    which only produce valid faces) when the subset is untrusted.
    """

    __slots__ = ("diagram", "mask", "_dim")

    def __init__(self, diagram, mask, dim=None):
        self.diagram = diagram
        self.mask = int(mask)
        self._dim = dim

    @property
    def dim(self):
        if self._dim is None:
            self._dim = face_dimension(self)
        return self._dim

    def edge_indices(self):
        return list(_bits(self.mask))

    def edge_set(self):
        return [self.diagram.edges[e] for e in self.edge_indices()]

    def vertex_indices(self):
        if self.diagram.n == 0:
            return {self.diagram.origin_index}
        d = self.diagram
        return {v for e in self.edge_indices() for v in (d.edge_tails[e], d.edge_heads[e])}

    def is_full(self):
        return self.mask == self.diagram.full_mask

    def __eq__(self, other):
        if not isinstance(other, DiagramFace):
            return NotImplemented
        return (
            self.diagram.composition == other.diagram.composition
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.diagram.composition, self.mask))

    def __repr__(self):
        width = max(1, (self.diagram.num_edges + 3) // 4)
        return f"DiagramFace({self.diagram.composition}, 0x{self.mask:0{width}x})"


class _Bottom:
    """Formal least element of the face lattice (the empty polytope face)."""

    __slots__ = ()

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()


def _require_same_diagram(f1, f2):
    if f1.diagram is not f2.diagram:
        raise ValueError(
            f"faces live on different diagrams: {f1.diagram} vs {f2.diagram}"
        )


def _bits(mask):
    """Indices of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _path_edges(diagram, mask):
    """The edges of ``mask`` that lie on an origin-to-terminal path inside
    ``mask``: one forward and one backward reachability pass over its edges
    by index, since band-major order is topological.

    Every edge of a path through a kept edge is kept too, so the result is
    its own image: one pass is the fixed point.
    """
    tails, heads = diagram.edge_tails, diagram.edge_heads
    present = list(_bits(mask))
    fwd = [False] * len(diagram.vertices)
    fwd[diagram.origin_index] = True
    for e in present:
        if fwd[tails[e]]:
            fwd[heads[e]] = True
    bwd = [False] * len(diagram.vertices)
    for t in diagram.terminal_indices:
        bwd[t] = True
    for e in reversed(present):
        if bwd[heads[e]]:
            bwd[tails[e]] = True
    return sum(1 << e for e in present if fwd[tails[e]] and bwd[heads[e]])


def _covers_terminals(diagram, mask):
    # The degenerate diagram's one terminal is the origin, which the empty
    # edge set covers.
    return diagram.n == 0 or all(mask & t for t in diagram.terminal_in_masks)


def is_face(diagram, mask):
    """Face recognizer: terminals covered and every edge lies on a directed
    origin-to-terminal path inside the subset.

    Since all edges step up or right, those paths are exactly the monotone
    shortest paths, so this matches the union-of-paths definition.
    """
    mask = int(mask)
    if mask & ~diagram.full_mask:
        raise ValueError("edge subset uses bits outside the diagram")
    return _covers_terminals(diagram, mask) and _path_edges(diagram, mask) == mask


def is_face_local(diagram, mask):
    """Face recognizer by the local characterization: terminals covered and
    no non-extremal vertex has incoming edges without outgoing ones or vice
    versa (the six impossible one-sided configurations).

    Kept separate from ``is_face`` so the equivalence of the two
    characterizations is testable rather than assumed.
    """
    mask = int(mask)
    if mask & ~diagram.full_mask:
        raise ValueError("edge subset uses bits outside the diagram")
    if diagram.n == 0:
        return mask == 0
    if not _covers_terminals(diagram, mask):
        return False
    extremal = set(diagram.terminal_indices)
    extremal.add(diagram.origin_index)
    for v in range(len(diagram.vertices)):
        if v in extremal:
            continue
        has_in = any(mask >> e & 1 for e in diagram.in_edges[v])
        has_out = any(mask >> e & 1 for e in diagram.out_edges[v])
        if has_in != has_out:
            return False
    return True


def face_dimension(face):
    """Cycle rank |E| - |V| + 1 of a face; a non-face raises ValueError."""
    if not is_face(face.diagram, face.mask):
        raise ValueError(f"{face!r} is not a face, so it has no dimension")
    return face.mask.bit_count() - len(face.vertex_indices()) + 1


def join(f1, f2):
    """Least upper bound: the edge-set union (always a face)."""
    if f1 is BOTTOM:
        return f2
    if f2 is BOTTOM:
        return f1
    _require_same_diagram(f1, f2)
    return DiagramFace(f1.diagram, f1.mask | f2.mask)


def meet(f1, f2):
    """Greatest lower bound: the maximal face inside the edge intersection,
    or BOTTOM when the intersection contains no face.
    """
    if f1 is BOTTOM or f2 is BOTTOM:
        return BOTTOM
    _require_same_diagram(f1, f2)
    d = f1.diagram
    # The edges on paths inside the intersection form the largest union of
    # paths in it, which is a face exactly when it covers every terminal.
    mask = _path_edges(d, f1.mask & f2.mask)
    if _covers_terminals(d, mask):
        return DiagramFace(d, mask)
    return BOTTOM


def _corner_bits(diagram, comp):
    """The terminal edges of the diagram of ``comp``, as bits of ``diagram``.

    Returns the bits of the two axis edges into the end terminals, and a
    list with the (right, up) bits of the edges into each interior terminal.
    ``comp`` is ``diagram.composition`` or a non-empty composition whose
    diagram lies inside it; sub-diagrams share the origin and coordinates.
    An edge that ``diagram`` lacks raises ``KeyError``.
    """
    index = diagram.edge_index
    n = sum(comp)
    ends = 1 << index[((0, n - 1), (0, n))] | 1 << index[((n - 1, 0), (n, 0))]
    corners = []
    for a in itertools.accumulate(comp[:-1]):
        b = n - a
        corners.append((1 << index[((a - 1, b), (a, b))], 1 << index[((a, b - 1), (a, b))]))
    return ends, corners


def assignment_of_face(face):
    """Word of incoming-edge choices at the interior terminals of a face."""
    d = face.diagram
    if d.n == 0:
        return ()
    letters = []
    for t, (right, up) in enumerate(_corner_bits(d, d.composition)[1], 1):
        letter = (1 if face.mask & right else 0, 1 if face.mask & up else 0)
        if letter == (0, 0):
            raise ValueError(f"terminal {d.terminals[t]} is uncovered; not a face")
        letters.append(letter)
    return tuple(letters)


def _gadget_mask(diagram, comp, word):
    """Bit mask of the terminal-edge gadget that an assignment word selects on
    the diagram of ``comp``, in the edge numbering of ``diagram``, with the
    edges of ``_corner_bits`` (which raises ``KeyError`` on a missing edge).
    """
    mask, corners = _corner_bits(diagram, comp)
    for (right, up), (alpha, beta) in zip(corners, word):
        mask |= right * alpha | up * beta
    return mask


@functools.lru_cache(maxsize=None)
def _face_arrays(comp):
    """All faces of the reduced composition as sorted (masks, dims) arrays.

    The memo hands the same arrays to every caller, so they are read-only.
    Only the requested composition is memoized: the tables of the
    sub-compositions are in its edge numbering and live for one call.
    """
    d = _build_reduced(comp)
    if d.num_edges > _MAX_MASK_BITS:
        raise ValueError(
            f"{d} has {d.num_edges} edges; array enumeration is capped at "
            f"{_MAX_MASK_BITS}-bit masks"
        )
    # A face is one int64 key, mask << shift | dim, with ``shift`` the bit
    # length of the top dimension (the cycle rank (|E| - 2n) / 2), which
    # bounds every dimension met in the recursion.
    shift = ((d.num_edges - 2 * d.n) // 2).bit_length()
    if d.num_edges + shift > _MAX_KEY_BITS:
        raise ValueError(
            f"composition {comp} needs {d.num_edges} mask bits and {shift} "
            f"dimension bits; array enumeration is capped at {_MAX_KEY_BITS} "
            f"key bits"
        )
    keys = _sub_faces(d, comp, shift, {(): np.zeros(1, dtype=np.int64)})
    # Split the keys: the low ``shift`` bits into int16 dims a slice at a
    # time, then the masks shifted down in the keys' own buffer.
    dims = np.empty(keys.size, dtype=np.int16)
    low = np.int64((1 << shift) - 1)
    for lo in range(0, keys.size, FACE_CHUNK):
        hi = lo + FACE_CHUNK
        np.bitwise_and(keys[lo:hi], low, out=dims[lo:hi], casting="unsafe")
    masks = np.right_shift(keys, np.int64(shift), out=keys)
    # The masks must increase strictly: no face twice, and the branches laid
    # end to end in order, as the band-major numbering makes them.  Each
    # slice is compared with its successor's first mask too, so the pairs
    # across slice boundaries are checked.
    for lo in range(0, masks.size - 1, FACE_CHUNK):
        hi = min(lo + FACE_CHUNK, masks.size - 1)
        if not np.all(masks[lo + 1 : hi + 1] > masks[lo:hi]):
            raise AssertionError(
                f"face recursion produced out-of-order or duplicate masks for {comp}"
            )
    return _read_only(masks, dims)


def _branches(d, comp, shift):
    """The branches of the face recursion of ``comp``, merged by child.

    Returns {child composition: steps}, the multiset of
    (``child_composition(comp, w)``, (``_gadget_mask(d, comp, w)`` << shift)
    + ``word_weight(w)``) over all words, with the gadget in the edge
    numbering of ``d``, from ``words.branch_walk``.  ``comp`` must be
    reduced and non-empty.
    """
    ends, corners = _corner_bits(d, comp)
    adds = [
        {RIGHT: right << shift, UP: up << shift, BOTH: ((right | up) << shift) + 1}
        for right, up in corners
    ]
    return branch_walk(comp, [ends << shift], adds, _add_steps)


def _add_steps(table, key, steps, add):
    # table[key] += the steps, each plus add
    table.setdefault(key, []).extend([step + add for step in steps] if add else steps)


def _sub_faces(d, comp, shift, tables):
    # Faces of the diagram of ``comp``, a sub-diagram of ``d`` (or ``d``
    # itself) with the same origin, as increasing int64 keys mask << shift |
    # dim in the edge numbering of ``d``; ``tables`` holds those already made.
    got = tables.get(comp)
    if got is not None:
        return got
    if len(comp) == 1:
        # The base case: the diagram of (m) is its two axis paths, and that
        # edge set, of dimension 0, is its only face.
        index = d.edge_index
        mask = 0
        for i in range(comp[0]):
            mask |= 1 << index[((i, 0), (i + 1, 0))] | 1 << index[((0, i), (0, i + 1))]
        keys = tables[comp] = np.array([mask << shift], dtype=np.int64)
        return keys
    # One walk of the letters gives every word's step, grouped by child, so
    # each distinct child is looked up once.  The gadget's bits lie outside
    # every child mask, and a child dim plus the word's weight stays below
    # 2^shift, so one add of a step sets both fields with no carry.
    branches = []
    size = 0
    for child, steps in _branches(d, comp, shift).items():
        ckeys = _sub_faces(d, child, shift, tables)
        branches.extend((step, ckeys) for step in steps)
        size += len(steps) * len(ckeys)
    # Gadget edges end on the line a + b = n of ``comp``, and the child's
    # edges below it, so in the band-major numbering each gadget outranks
    # every child mask.  The words' gadgets differ, so laid out by step,
    # which orders them by gadget, the branches are one increasing table;
    # ``_face_arrays`` checks that it is.
    branches.sort(key=operator.itemgetter(0))
    if size > MAX_FACES:
        raise ValueError(
            f"composition {comp} has {size} faces; array enumeration is capped "
            f"at {MAX_FACES} faces"
        )
    keys = np.empty(size, dtype=np.int64)
    lo = 0
    for step, ckeys in branches:
        hi = lo + len(ckeys)
        np.add(ckeys, step, out=keys[lo:hi])
        lo = hi
    tables[comp] = keys
    return keys


def _read_only(masks, dims):
    masks.flags.writeable = False
    dims.flags.writeable = False
    return masks, dims


class FaceSet:
    """All faces of one diagram as arrays: ``masks`` (int64 edge bit vectors,
    strictly increasing) and ``dims`` (int16), both read-only.

    Indexing and iteration build ``DiagramFace`` objects on demand and keep
    none of them, so a face set costs about 10 bytes per face.  Iteration
    converts ``FACE_CHUNK`` faces at a time to Python ints, so walking a
    table adds about 3 MB whatever its size; ``census`` counts the same
    slices.  The enumerator builds both arrays from one table of int64
    keys, mask << shift | dim, which its recursion lays out in increasing
    order, split once at the end.
    """

    __slots__ = ("diagram", "masks", "dims")

    def __init__(self, diagram, masks, dims):
        self.diagram = diagram
        self.masks = masks
        self.dims = dims

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, i):
        i = operator.index(i)
        return DiagramFace(self.diagram, int(self.masks[i]), int(self.dims[i]))

    def __iter__(self):
        d, masks, dims = self.diagram, self.masks, self.dims
        for lo in range(0, len(masks), FACE_CHUNK):
            hi = lo + FACE_CHUNK
            for mask, dim in zip(masks[lo:hi].tolist(), dims[lo:hi].tolist()):
                yield DiagramFace(d, mask, dim)

    def census(self):
        """Face counts by dimension, omitting dimensions with no face."""
        # One slice at a time: ``bincount`` copies its input to intp.
        dims = self.dims
        counts = np.zeros(int(dims.max()) + 1 if len(dims) else 0, dtype=np.int64)
        for lo in range(0, len(dims), FACE_CHUNK):
            counts += np.bincount(dims[lo : lo + FACE_CHUNK], minlength=len(counts))
        return {i: int(c) for i, c in enumerate(counts.tolist()) if c}

    def __repr__(self):
        return f"FaceSet({self.diagram.composition}, {len(self)} faces)"


def enumerate_faces(diagram):
    """All faces of a diagram, sorted by edge bit vector, by the recursion."""
    return FaceSet(diagram, *_face_arrays(diagram.composition))


def face_census(k):
    """Face counts by dimension, computed by the recursive enumerator."""
    return enumerate_faces(build_diagram(k)).census()


def brute_force_faces(diagram):
    """Independent oracle: filter edge subsets through the local face rule.

    The scan itself is the vectorized kernel in ``kernels``.  It derives the
    edges every face holds from the face rule alone (the 2n axis edges) and
    filters the 2^(|E| - 2n) subsets of the other edges that hold them all
    by the rule of ``is_face_local``.
    A diagram with more than ``MAX_FREE_EDGES`` such free edges, or more
    edges than the int64 masks hold, is refused.
    Dimensions are cycle ranks |E| - |V| + 1 counted from the masks,
    independent of the word weights the recursion adds up.
    """
    free = diagram.num_edges - 2 * diagram.n
    if free > MAX_FREE_EDGES:
        raise ValueError(
            f"{diagram} has {free} edges off the axes; brute force is capped "
            f"at {MAX_FREE_EDGES}"
        )
    if diagram.num_edges > _MAX_MASK_BITS:
        raise ValueError(
            f"{diagram} has {diagram.num_edges} edges; brute force is capped "
            f"at {_MAX_MASK_BITS}-bit masks"
        )
    masks = kernels.accepted_face_masks(diagram)
    # Every face contains the origin (for n = 0 it is the face's only
    # vertex), so |V| - 1 counts the other vertices the face touches: those
    # whose incident edges meet the mask.
    incident = np.array(
        [
            sum(1 << e for e in diagram.in_edges[v] + diagram.out_edges[v])
            for v in range(len(diagram.vertices))
            if v != diagram.origin_index
        ],
        dtype=np.int64,
    )
    dims = np.empty(masks.shape, dtype=np.int16)
    for lo in range(0, len(masks), FACE_CHUNK):
        chunk = masks[lo : lo + FACE_CHUNK]
        edges = _BYTE_BITS[chunk.view(np.uint8)].reshape(len(chunk), -1).sum(axis=1)
        touched = np.count_nonzero(chunk[:, None] & incident, axis=1)
        dims[lo : lo + FACE_CHUNK] = edges - touched
    return FaceSet(diagram, *_read_only(masks, dims))


def decompose_face(face):
    """Split a face into its assignment word and a face of the child diagram.

    Inverse of ``compose_face``; the face dimension is the child dimension
    plus the word weight.
    """
    d = face.diagram
    if d.n == 0:
        raise ValueError("the degenerate diagram has no decomposition step")
    w = assignment_of_face(face)
    gmask = _gadget_mask(d, d.composition, w)
    if face.mask & gmask != gmask:
        raise AssertionError("assignment gadget not contained in face")
    child = build_diagram(child_composition(d.composition, w))
    # The child diagram shares the parent's origin and coordinates, so an
    # edge is the same pair of end points in both.
    index = child.edge_index
    cmask = 0
    for edge in DiagramFace(d, face.mask & ~gmask).edge_set():
        if edge not in index:
            raise AssertionError(f"edge {edge} survives outside the child diagram")
        cmask |= 1 << index[edge]
    return w, DiagramFace(child, cmask)


def compose_face(diagram, word, child_face):
    """Attach the terminal gadget of a word to a face of the child diagram."""
    expected = child_composition(diagram.composition, word)
    if child_face.diagram.composition != expected:
        raise ValueError(
            f"child face lives on {child_face.diagram.composition}, expected {expected}"
        )
    mask = _gadget_mask(diagram, diagram.composition, word)
    for edge in child_face.edge_set():
        mask |= 1 << diagram.edge_index[edge]
    return DiagramFace(diagram, mask)


def transpose_face(face):
    """Reflect a face across the diagonal onto the reversed composition."""
    d = face.diagram
    rd = build_diagram(tuple(reversed(d.composition)))
    mask = 0
    for (ta, tb), (ha, hb) in face.edge_set():
        idx = rd.edge_index[((tb, ta), (hb, ha))]
        mask |= 1 << idx
    return DiagramFace(rd, mask, face._dim)


def compositions_of(n):
    """All compositions of n into positive parts, lexicographically."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            yield (first,) + rest


def diagram_edge_count(k):
    """Edge count of the diagram of k, without building the diagram."""
    return _edge_count(reduce_composition(k))


def _edge_count(comp):
    """Edge count of the diagram of the reduced composition ``comp``.

    Column 0 holds n + 1 vertices and each of the p_i columns of block i
    holds n - s_i + 1, where s_i is the partial sum ending with block i.
    The diagram is connected, so its edges are the vertices less one plus
    the cycle rank (n^2 - sum p_i^2) / 2, which comes to
    2n + n^2 - sum p_i^2.
    """
    n = sum(comp)
    return 2 * n + n * n - sum(p * p for p in comp)


def compositions_with_edge_bound(max_edges):
    """Every composition whose diagram has at most ``max_edges`` edges, by
    increasing n, each n in lexicographic order.

    The edge count is 2n + 2 sum_{i<j} p_i p_j (``_edge_count``), and a
    part q after a prefix of sum S adds S q to that sum.  Parts of total r
    after a prefix of sum S add at least S r, as one part would, so a
    prefix is dropped as soon as its least completion is over the bound.
    Finite because the two boundary axes alone contribute 2n edges.
    """

    def extend(prefix, total, cross, n):
        if total == n:
            yield prefix
            return
        for q in range(1, n - total + 1):
            least = cross + total * q + (total + q) * (n - total - q)
            if 2 * (n + least) <= max_edges:
                yield from extend(prefix + (q,), total + q, cross + total * q, n)

    return [comp for n in range(1, max_edges // 2 + 1) for comp in extend((), 0, 0, n)]
