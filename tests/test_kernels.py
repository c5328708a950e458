import numpy as np
import pytest

from gcladder import kernels
from gcladder.ladder import build_diagram, compositions_with_edge_bound, is_face

# The four original cases keep the first ids; (3, 1) has 14 edges, so its
# default batch holds word-index edges 12-13.  The rest are every diagram of
# 0-12 edges: an empty scan, a partial first word (|E| < 6), exactly one
# word (|E| = 6) and several words.  At 64 subsets per batch every in-edge
# of one terminal of (1, 1, 1) is a per-batch flag, so the batches without
# one fail terminal coverage before any array work.
OLD = [(1, 1), (2, 1), (1, 1, 1), (3, 1)]
SMALL = OLD + [c for c in [()] + compositions_with_edge_bound(12) if c not in OLD]


def _scalar_faces(d):
    return [m for m in range(1 << d.num_edges) if is_face(d, m)]


def _check_scan(d):
    masks = kernels.accepted_face_masks(d)
    assert masks.dtype == np.int64
    assert np.all(masks[1:] > masks[:-1])
    assert masks.tolist() == _scalar_faces(d)


@pytest.mark.parametrize("comp", SMALL)
def test_backend_matches_scalar_recognizer(comp):
    _check_scan(build_diagram(comp))


# 64 is the smallest batch (one word, no word-index edges); at 128 edge 6
# selects the word and every higher edge is a per-batch flag.
@pytest.mark.parametrize("batch", [64, 128])
@pytest.mark.parametrize("comp", SMALL)
def test_scan_matches_scalar_recognizer_in_small_batches(monkeypatch, comp, batch):
    monkeypatch.setattr(kernels, "_BATCH", batch)
    _check_scan(build_diagram(comp))
