"""Subset-filter kernel backing the brute-force face oracle.

Every face holds the edges the face rule forces (``_forced_edges``: on a
ladder diagram, the two axes), so the brute-force scan walks the 2^|free|
subsets of the other edges only, with the forced edges present.  That is
the one hot numeric loop in the package: 4,096 subsets for the largest
diagrams the CLI oracle accepts (22 edges, 12 of them free), where all
2^|E| would be about four million.  The scan applies the local face rule
(``ladder.is_face_local``): every terminal has a chosen in-edge, and every
other vertex but the origin has a chosen in-edge exactly when it has a
chosen out-edge.  It is bit-sliced: the free edges are numbered in edge
order, lane ``l`` of ``uint64`` word ``j`` stands for subset ``64 j + l``,
and every numpy pass over a vertex's in- and out-edge unions and the keep
row decides 64 subsets per element.  Free edges 0-5 select the lane inside
a word and are fixed lane patterns; the next free edges up to the batch
width select the word inside a batch.  A free edge above the batch width
is the same for every subset of a batch, so it is a per-batch flag, and a
forced edge is a flag that is always present.  A present flag makes a
vertex's union all lanes, and a vertex whose unions the flags alone set
against the rule (a terminal with every in-edge absent, or an inner vertex
with a present edge on one side and all edges absent on the other) rejects
the whole batch without array work.  The accepted subsets are moved back
to edge masks at the end.

Everything else in the package is exact rational or big-integer arithmetic
and stays in plain Python.
"""

import numpy as np

# Subsets per batch: a power of two, at least one word (64).  Bounds the
# size of the keep and scratch rows (2^18 subsets = 4,096 words).
_BATCH = 1 << 18

_LANE_BITS = 6
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_ZERO = np.uint64(0)
# Lane pattern of edge e < 6: bit l is set when lane l's subset holds edge e.
_LANE_PATTERNS = tuple(
    np.uint64(sum(1 << lane for lane in range(64) if lane >> e & 1))
    for e in range(_LANE_BITS)
)


def accepted_face_masks(diagram):
    """Sorted masks of all face subsets of the diagram's edge set.

    The rule is the local one of ``ladder.is_face_local``, which accepts the
    same subsets as ``ladder.is_face``.  Only the subsets holding every
    forced edge (``_forced_edges``) are scanned.
    """
    n_edges = diagram.num_edges
    if n_edges == 0:
        return np.zeros(1, np.int64)
    forced = _forced_edges(diagram)
    # Scan positions: the free edges in increasing edge order.
    free = [e for e in range(n_edges) if not forced >> e & 1]
    total = 1 << len(free)
    batch = min(_BATCH, total)
    low = batch.bit_length() - 1  # free edges that vary inside one batch
    n_words = max(batch >> _LANE_BITS, 1)
    # Fewer than six free edges fill only the first 2^|free| lanes.
    first = _ONES if batch >= 64 else np.uint64((1 << batch) - 1)
    index = np.arange(n_words, dtype=np.uint64)
    has = [None] * n_edges
    for p, e in enumerate(free[:low]):
        has[e] = (
            _LANE_PATTERNS[p] if p < _LANE_BITS
            else np.where(index >> np.uint64(p - _LANE_BITS) & np.uint64(1), _ONES, _ZERO)
        )
    # One set of word rows for every batch: the keep row and two scratch
    # rows.  Rows allocated per batch made a standalone 22-edge scan up to
    # twice as slow, as the allocator handed the freed rows back to the
    # system between batches.
    rows = tuple(np.empty(n_words, np.uint64) for _ in range(3))
    keep = rows[0]
    # flags[e]: None for an edge that varies inside the batch, else whether
    # the edge is in every subset of the batch or in none.  A forced edge is
    # in every subset of every batch.
    flags = [True if forced >> e & 1 else None for e in range(n_edges)]
    high = free[low:]
    chunks = []
    for b in range(total >> low):
        for p, e in enumerate(high):
            flags[e] = bool(b >> p & 1)
        if _batch(diagram, has, rows, flags, first):
            chunks.append(_lane_masks(keep, b * batch))
    if not chunks:
        return np.empty(0, np.int64)
    return _deposit(np.concatenate(chunks), free, forced)


def _forced_edges(diagram):
    """Mask of the edges in every face, by the face rule alone.

    A face covers every terminal, so a terminal with one in-edge holds it.
    A chosen edge's tail, unless it is the origin, has a chosen out-edge and
    so needs a chosen in-edge: a tail with one in-edge holds that edge too.
    On a ladder diagram these are the two axes.
    """
    forced = 0
    for t in diagram.terminal_indices:
        v = t
        while v != diagram.origin_index and len(diagram.in_edges[v]) == 1:
            e = diagram.in_edges[v][0]
            forced |= 1 << e
            v = diagram.edge_tails[e]
    return forced


def _deposit(positions, free, forced):
    """Edge masks of scan positions: bit p moves to edge ``free[p]`` and the
    forced edges are set.  ``free`` increases, so the order is kept."""
    masks = np.full(positions.shape, forced, np.int64)
    for p, e in enumerate(free):
        masks |= (positions >> np.int64(p) & np.int64(1)) << np.int64(e)
    return masks


def _batch(d, has, rows, flags, first):
    """Set the keep row to the faces of one batch, starting from the lanes in
    ``first``; False when the flags alone rule out every subset.  ``has`` are
    the word patterns of the edges that vary inside a batch and ``rows`` the
    keep row and two scratch rows.

    The local rule: every vertex but the origin has a chosen in-edge exactly
    when it has a chosen out-edge, except that a terminal has no out-edges
    and needs a chosen in-edge.  The keep row gathers the lanes that break
    the rule and is inverted at the end.
    """
    keep, ins, outs = rows
    keep[:] = ~first
    for v in range(len(d.vertices)):
        if v == d.origin_index:
            continue
        into = _union(d.in_edges[v], has, flags, ins)
        out = True if v in d.terminal_indices else _union(d.out_edges[v], has, flags, outs)
        if isinstance(into, bool) and isinstance(out, bool):
            if into != out:
                return False
        else:
            keep |= np.bitwise_xor(_word(into), _word(out), out=outs)
    np.invert(keep, out=keep)
    return True


def _union(edges, has, flags, out):
    """Whether some edge of ``edges`` is chosen: True or False when the batch
    flags decide it for every subset, else a word row (written to ``out``
    when it takes more than one pattern)."""
    row = False
    for e in edges:
        if flags[e]:
            return True
        if flags[e] is None:
            row = has[e] if row is False else np.bitwise_or(row, has[e], out=out)
    return row


def _word(value):
    """A union as a word: the constants become all or no lanes."""
    if value is True:
        return _ONES
    return _ZERO if value is False else value


def _lane_masks(keep, base):
    """Increasing subset masks of the set lanes of ``keep``, offset by ``base``."""
    words = np.flatnonzero(keep)
    bits = np.unpackbits(
        keep[words].astype("<u8").view(np.uint8), bitorder="little"
    ).reshape(-1, 64)
    rows, lanes = np.nonzero(bits)
    return base + 64 * words[rows].astype(np.int64) + lanes.astype(np.int64)
