"""Subset-filter kernel backing the brute-force face oracle.

Every face holds the edges the face rule forces (``_forced_edges``: on a
ladder diagram, the two axes), so the brute-force scan walks the 2^|free|
subsets of the other edges only, with the forced edges present.  That is
the one hot numeric loop in the package: 4,096 subsets for the largest
diagrams the CLI oracle accepts (22 edges, 12 of them free), where all
2^|E| would be about four million.  The scan is bit-sliced: the free edges
are numbered in edge order, lane ``l`` of ``uint64`` word ``j`` stands for
subset ``64 j + l``, and every numpy pass over the forward and backward reachability rows (one word
array per vertex) and over the keep mask decides 64 subsets per element.
Free edges 0-5 select the lane inside a word and are fixed lane patterns;
the next free edges up to the batch width select the word inside a batch.
A free edge above the batch width is the same for every subset of a batch,
so it is a per-batch flag, and a forced edge is a flag that is always
present: absent, an edge skips its propagation step; present, it makes the
step a plain OR; and a terminal whose in-edges are all absent flags rejects
the whole batch without array work.  The accepted subsets are moved back
to edge masks at the end.

Everything else in the package is exact rational or big-integer arithmetic
and stays in plain Python.
"""

import numpy as np

# Subsets per batch: a power of two, at least one word (64).  Bounds the
# size of the per-vertex reachability rows (2^18 subsets = 4,096 words).
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

    The rules are those of ``ladder.is_face``: every terminal is covered, and
    every chosen edge has a forward-reachable tail and a backward-reachable
    head inside the subset.  Only the subsets holding every forced edge
    (``_forced_edges``) are scanned.
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
    lacks = [None if h is None else ~h for h in has]
    # One set of word rows for every batch: forward and backward
    # reachability per vertex, the keep mask and one scratch row.  Rows
    # allocated per batch made a standalone 22-edge scan up to twice as
    # slow, as the allocator handed the freed rows back to the system
    # between batches.
    n_vertices = len(diagram.vertices)
    rows = (
        np.empty((n_vertices, n_words), np.uint64),
        np.empty((n_vertices, n_words), np.uint64),
        np.empty(n_words, np.uint64),
        np.empty(n_words, np.uint64),
    )
    keep = rows[2]
    # flags[e]: None for an edge that varies inside the batch, else whether
    # the edge is in every subset of the batch or in none.  A forced edge is
    # in every subset of every batch.
    flags = [True if forced >> e & 1 else None for e in range(n_edges)]
    high = free[low:]
    chunks = []
    for b in range(total >> low):
        for p, e in enumerate(high):
            flags[e] = bool(b >> p & 1)
        if _batch(diagram, has, lacks, rows, flags, first):
            chunks.append(_lane_masks(keep, b * batch))
    if not chunks:
        return np.empty(0, np.int64)
    return _deposit(np.concatenate(chunks), free, forced)


def _forced_edges(diagram):
    """Mask of the edges in every face, by the face rule alone.

    A face covers every terminal, so a terminal with one in-edge holds it;
    every chosen edge has a reachable tail, so a tail other than the origin
    with one in-edge holds that edge too.  On a ladder diagram these are the
    two axes.
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


def _batch(d, has, lacks, rows, flags, first):
    """Set the keep row to the faces of one batch, starting from the lanes in
    ``first``; False when the flags alone rule out every subset.  ``has`` and
    ``lacks`` are the word patterns of the edges that vary inside a batch,
    ``rows`` the forward and backward reachability, keep and scratch rows."""
    fwd, bwd, keep, tmp = rows
    keep[:] = first
    for t in d.terminal_indices:
        in_edges = d.in_edges[t]
        if any(flags[e] for e in in_edges):
            continue
        varying = [e for e in in_edges if flags[e] is None]
        if not varying:
            return False
        cover = has[varying[0]]
        for e in varying[1:]:
            cover = np.bitwise_or(cover, has[e], out=tmp)
        keep &= cover
    tails, heads, topo = d.edge_tails, d.edge_heads, d.edges_topo
    fwd_live = _reach(fwd, tmp, has, [d.origin_index], topo, tails, heads, flags)
    bwd_live = _reach(bwd, tmp, has, d.terminal_indices, topo[::-1], heads, tails, flags)
    for e, flag in enumerate(flags):
        if flag is False:
            continue
        t, h = tails[e], heads[e]
        on_path = fwd_live[t] and bwd_live[h]
        if flag:
            if not on_path:
                return False
            keep &= fwd[t]
            keep &= bwd[h]
        elif on_path:
            np.bitwise_and(fwd[t], bwd[h], out=tmp)
            tmp |= lacks[e]
            keep &= tmp
        else:
            keep &= lacks[e]
    return True


def _reach(reach, tmp, has, seeds, order, src, dst, flags):
    """Fill ``reach[v]`` with the subsets in which v is reached from a seed
    along chosen edges taken in ``order``; returns which vertices are reached
    in some subset (the other rows are left unset)."""
    live = [False] * len(reach)
    for v in seeds:
        reach[v] = _ONES
        live[v] = True
    for e in order:
        s, t = src[e], dst[e]
        if not live[s] or flags[e] is False:
            continue
        if not live[t]:
            if flags[e]:
                reach[t] = reach[s]
            else:
                np.bitwise_and(has[e], reach[s], out=reach[t])
            live[t] = True
        elif flags[e]:
            np.bitwise_or(reach[t], reach[s], out=reach[t])
        else:
            np.bitwise_and(has[e], reach[s], out=tmp)
            np.bitwise_or(reach[t], tmp, out=reach[t])
    return live


def _lane_masks(keep, base):
    """Increasing subset masks of the set lanes of ``keep``, offset by ``base``."""
    words = np.flatnonzero(keep)
    bits = np.unpackbits(
        keep[words].astype("<u8").view(np.uint8), bitorder="little"
    ).reshape(-1, 64)
    rows, lanes = np.nonzero(bits)
    return base + 64 * words[rows].astype(np.int64) + lanes.astype(np.int64)
