"""Subset-filter kernel backing the brute-force face oracle.

Scanning all 2^|E| edge subsets of a diagram is the one hot numeric loop in
the package (about a million subsets for the largest diagrams the oracle
accepts).  The scan is vectorized with numpy: subsets are processed in
batches, each batch as one bit-matrix per vertex for forward and backward
reachability.

Everything else in the package is exact rational or big-integer arithmetic
and stays in plain Python.
"""

import numpy as np

# Subsets per batch; bounds the size of the per-vertex reachability rows.
_BATCH = 1 << 16


def accepted_face_masks(diagram):
    """Sorted masks of all face subsets of the diagram's edge set."""
    if diagram.num_edges == 0:
        return np.zeros(1, np.int64)
    tails = np.asarray(diagram.edge_tails, dtype=np.int64)
    heads = np.asarray(diagram.edge_heads, dtype=np.int64)
    topo = np.asarray(diagram.edges_topo, dtype=np.int64)
    term_in = np.asarray(diagram.terminal_in_masks, dtype=np.int64)
    n_edges = diagram.num_edges
    n_verts = len(diagram.vertices)
    total = 1 << n_edges
    chunks = []
    for lo in range(0, total, _BATCH):
        masks = np.arange(lo, min(lo + _BATCH, total), dtype=np.int64)
        keep = np.ones(masks.shape, dtype=bool)
        for tm in term_in:
            keep &= (masks & tm) != 0
        masks = masks[keep]
        if masks.size == 0:
            continue
        has = [((masks >> e) & 1).astype(bool) for e in range(n_edges)]
        fwd = np.zeros((n_verts, masks.size), dtype=bool)
        fwd[diagram.origin_index] = True
        for e in topo:
            np.logical_or(fwd[heads[e]], has[e] & fwd[tails[e]], out=fwd[heads[e]])
        bwd = np.zeros((n_verts, masks.size), dtype=bool)
        for t in diagram.terminal_indices:
            bwd[t] = True
        for e in topo[::-1]:
            np.logical_or(bwd[tails[e]], has[e] & bwd[heads[e]], out=bwd[tails[e]])
        good = np.ones(masks.size, dtype=bool)
        for e in range(n_edges):
            good &= ~has[e] | (fwd[tails[e]] & bwd[heads[e]])
        chunks.append(masks[good])
    if not chunks:
        return np.empty(0, np.int64)
    return np.concatenate(chunks)
