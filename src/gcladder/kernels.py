"""Subset-filter kernel backing the brute-force face oracle and the batch
face recognizer of the polytope face map.

Scanning all 2^|E| edge subsets of a diagram is the one hot numeric loop in
the package (about four million subsets for the largest diagrams the CLI
oracle accepts).  The scan is bit-sliced: lane ``l`` of ``uint64`` word
``j`` stands for subset ``64 j + l``, so every numpy pass over the forward
and backward reachability rows (one word array per vertex) and over the
keep mask decides 64 subsets per element.  Edges 0-5 select the lane
inside a word and are fixed lane patterns; the next edges up to the batch
width select the word inside a batch.  An edge above the batch width is the
same for every subset of a batch, so it is a per-batch flag: absent, it
skips its propagation step; present, it makes the step a plain OR; and a
terminal whose in-edges are all absent flags rejects the whole batch
without array work.

``recognize_faces`` runs the same batch step on given masks instead: lane
``l`` of word ``j`` of edge ``e``'s pattern is bit ``e`` of mask
``64 j + l``, every edge varies, and one pass decides every mask.

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
    head inside the subset.
    """
    n_edges = diagram.num_edges
    if n_edges == 0:
        return np.zeros(1, np.int64)
    total = 1 << n_edges
    batch = min(_BATCH, total)
    low = batch.bit_length() - 1  # edges that vary inside one batch
    n_words = max(batch >> _LANE_BITS, 1)
    # A diagram with fewer than six edges fills only the first 2^|E| lanes.
    first = _ONES if batch >= 64 else np.uint64((1 << batch) - 1)
    index = np.arange(n_words, dtype=np.uint64)
    has = [
        _LANE_PATTERNS[e] if e < _LANE_BITS
        else np.where(index >> np.uint64(e - _LANE_BITS) & np.uint64(1), _ONES, _ZERO)
        for e in range(low)
    ]
    lacks = [~h for h in has]
    # One set of word rows for every batch.  Rows allocated per batch made a
    # standalone 22-edge scan up to twice as slow, as the allocator handed
    # the freed rows back to the system between batches.
    rows = _word_rows(diagram, n_words)
    keep = rows[2]
    chunks = []
    for b in range(total >> low):
        # flags[e]: None for an edge that varies inside the batch, else
        # whether the edge is in every subset of batch b or in none.
        flags = [None] * low + [bool(b >> (e - low) & 1) for e in range(low, n_edges)]
        if _batch(diagram, has, lacks, rows, flags, first):
            chunks.append(_lane_masks(keep, b * batch))
    if not chunks:
        return np.empty(0, np.int64)
    return np.concatenate(chunks)


def recognize_faces(diagram, masks):
    """Whether each edge mask is a face of the diagram (bool array), by the
    rules of ``ladder.is_face``; like it, raises ``ValueError`` on bits
    outside the diagram."""
    masks = np.asarray(masks, dtype=np.int64)
    if (masks & ~diagram.full_mask).any():
        raise ValueError("edge subset uses bits outside the diagram")
    n_edges, count = diagram.num_edges, len(masks)
    if n_edges == 0 or count == 0:
        # The degenerate diagram's one face is the empty edge set.
        return np.ones(count, dtype=bool)
    n_words = -(-count // 64)
    lanes = np.zeros(64 * n_words, np.int64)
    lanes[:count] = masks
    bits = lanes >> np.arange(n_edges, dtype=np.int64)[:, None] & 1
    has = (
        np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
        .view("<u8")
        .astype(np.uint64)
    )
    has, lacks = list(has), list(~has)
    rows = _word_rows(diagram, n_words)
    keep = rows[2]
    _batch(diagram, has, lacks, rows, [None] * n_edges, _ONES)
    # The lanes past the last mask hold mask 0; their flags are cut off.
    accepted = np.unpackbits(keep.astype("<u8").view(np.uint8), bitorder="little")
    return accepted[:count].astype(bool)


def _word_rows(diagram, n_words):
    """Empty word rows for ``_batch``: forward and backward reachability per
    vertex, the keep mask and one scratch row."""
    n_vertices = len(diagram.vertices)
    return (
        np.empty((n_vertices, n_words), np.uint64),
        np.empty((n_vertices, n_words), np.uint64),
        np.empty(n_words, np.uint64),
        np.empty(n_words, np.uint64),
    )


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
