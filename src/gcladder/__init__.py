"""Exact face lattices, f-vectors, and generating-function identities of
Gelfand-Cetlin polytopes, computed through their ladder diagrams."""

from .genfunc import (
    DiffOperator,
    PdeReport,
    TPoly,
    TruncatedSeries,
    f_polynomial,
    f_vector,
    interaction_product,
    pde_operator,
    verify_generating_pde,
    verify_vertex_pde,
    vertex_pde_operator,
    word_operator,
)
from .ladder import (
    BOTTOM,
    DiagramFace,
    FaceSet,
    LadderDiagram,
    assignment_of_face,
    brute_force_faces,
    build_diagram,
    compose_face,
    compositions_of,
    compositions_with_edge_bound,
    decompose_face,
    enumerate_faces,
    face_census,
    face_dimension,
    is_face,
    is_face_local,
    join,
    meet,
    transpose_face,
)
from .polytope import (
    GCSystem,
    IsoReport,
    PolytopeFace,
    Spectrum,
    build_system,
    canonical_spectrum,
    face_lattice,
    phi,
    polytope_vertices,
    psi,
    representative_point,
    verify_isomorphism,
    witness_violations,
)
from .words import (
    BOTH,
    RIGHT,
    UP,
    all_words,
    d_transform,
    interleave,
    r_transform,
    reduce_composition,
    word_tilde,
    word_weight,
)

from . import genfunc, ladder

__version__ = "1.0.0"


def clear_caches():
    """Empty the face-table and f-polynomial memos to release their memory.

    Diagrams stay interned, so faces made before the call still join and
    meet with faces made after it.
    """
    ladder._face_arrays.cache_clear()
    genfunc._f_polynomial_reduced.cache_clear()
