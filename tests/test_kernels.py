import random

import numpy as np
import pytest

from gcladder import kernels
from gcladder.ladder import (
    build_diagram,
    compositions_of,
    compositions_with_edge_bound,
    enumerate_faces,
    is_face,
)

# The four original cases keep the first ids.  The rest are every diagram of
# 0-12 edges: an empty scan, a scan of the forced edges alone (|E| = 2n), a
# partial first word (fewer than six free edges) and exactly one word.  The
# scan fixes the 2n axis edges as present flags, so no diagram here has more
# than six free edges and none has a word-index edge or a per-batch flag of
# a free edge; ``WIDE`` below has those.
OLD = [(1, 1), (2, 1), (1, 1, 1), (3, 1)]
SMALL = OLD + [c for c in [()] + compositions_with_edge_bound(12) if c not in OLD]
# 8-14 free edges, too many for the scalar recognizer, so they are checked
# against the recursion.  At 64 subsets per batch both in-edges of the
# terminal corner (2, 3) of (1, 1, 3) are per-batch flags, so the batches
# without either fail terminal coverage before any array work.
WIDE = [(1, 1, 1, 1), (2, 2), (2, 3), (1, 1, 3)]


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


# 64 is the smallest batch (one word, no word-index edges); at 128 free edge
# 6 selects the word and every higher free edge is a per-batch flag.
@pytest.mark.parametrize("batch", [64, 128])
@pytest.mark.parametrize("comp", SMALL)
def test_scan_matches_scalar_recognizer_in_small_batches(monkeypatch, comp, batch):
    monkeypatch.setattr(kernels, "_BATCH", batch)
    _check_scan(build_diagram(comp))


@pytest.mark.parametrize("batch", [64, 128])
@pytest.mark.parametrize("comp", WIDE)
def test_scan_matches_enumeration_in_small_batches(monkeypatch, comp, batch):
    monkeypatch.setattr(kernels, "_BATCH", batch)
    d = build_diagram(comp)
    assert d.num_edges - 2 * d.n >= 8
    masks = kernels.accepted_face_masks(d)
    assert masks.dtype == np.int64
    assert np.array_equal(masks, enumerate_faces(d).masks)


# The forced edges come from the face rule alone; on a ladder diagram they
# are the two axes.
def test_forced_edges_are_the_axes():
    for n in range(10):
        for comp in compositions_of(n):
            d = build_diagram(comp)
            assert kernels._forced_edges(d) == d.axes_mask, comp


# The lattice check reads face-ness from the enumerator's table: on every
# face and 2,000 seeded random subsets, membership in it is ``is_face``.
@pytest.mark.parametrize("comp", [()] + compositions_with_edge_bound(30))
def test_recognize_faces_matches_is_face(comp):
    d = build_diagram(comp)
    rng = random.Random(13)
    table = enumerate_faces(d).masks
    masks = table.tolist() + [rng.getrandbits(d.num_edges) for _ in range(2000)]
    listed = np.isin(np.array(masks, dtype=np.int64), table)
    assert listed.tolist() == [is_face(d, m) for m in masks]


def test_recognize_faces_edge_cases():
    # The diagram of () has no edges; its one face is the empty edge set.
    assert build_diagram(()).num_edges == 0
    assert is_face(build_diagram(()), 0)
    assert enumerate_faces(build_diagram(())).masks.tolist() == [0]
    d = build_diagram((1,))
    assert [is_face(d, m) for m in [0, 1, 2, 3]] == [False, False, False, True]
    for diagram, mask in [(d, 4), (d, -1), (build_diagram(()), 1)]:
        with pytest.raises(ValueError, match="bits outside the diagram"):
            is_face(diagram, mask)
