import pytest

from gcladder import kernels
from gcladder.ladder import build_diagram, is_face


@pytest.mark.parametrize("comp", [(1, 1), (2, 1), (1, 1, 1), (3, 1)])
def test_backend_matches_scalar_recognizer(comp):
    d = build_diagram(comp)
    masks = kernels.accepted_face_masks(d)
    expected = [m for m in range(1 << d.num_edges) if is_face(d, m)]
    assert masks.tolist() == expected
