import functools
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcladder import clear_caches, ladder, records
from gcladder.cli import MAX_BRUTE_FORCE_EDGES
from gcladder.genfunc import f_vector
from gcladder.ladder import (
    BOTTOM,
    MAX_FREE_EDGES,
    DiagramFace,
    FaceSet,
    assignment_of_face,
    brute_force_faces,
    build_diagram,
    compose_face,
    compositions_of,
    compositions_with_edge_bound,
    decompose_face,
    diagram_edge_count,
    enumerate_faces,
    face_census,
    face_dimension,
    is_face,
    is_face_local,
    join,
    meet,
    transpose_face,
)
from gcladder.words import BOTH, RIGHT, UP, all_words, child_composition, word_weight

# Face counts established independently by filtering all edge subsets
# through the recognizer (and, for (1,1,1), stated explicitly alongside the
# lattice example this package models).
KNOWN_FVECTORS = {
    (1,): (1,),
    (1, 1): (2, 1),
    (2, 1): (3, 3, 1),
    (1, 2): (3, 3, 1),
    (1, 1, 1): (7, 11, 6, 1),
    (2, 2): (6, 13, 13, 6, 1),
    (1, 1, 1, 1): (40, 132, 186, 139, 57, 12, 1),
}

# keep enumerated diagrams small: censuses materialize every face
small_compositions = (
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
    .map(tuple)
    .filter(lambda c: sum(c) <= 5)
)


def full_face(comp):
    d = build_diagram(comp)
    return DiagramFace(d, d.full_mask)


def test_build_terminals():
    d = build_diagram((1, 1, 1))
    assert d.terminals == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert d.num_edges == 12


def test_zero_parts_reduce_to_same_diagram():
    assert build_diagram((2, 0, 1)) is build_diagram((2, 1))


def test_two_one_shape():
    d = build_diagram((2, 1))
    assert d.terminals == ((0, 3), (2, 1), (3, 0))
    assert len(d.vertices) == 9
    # cycle rank k1*k2 = 2 forces |E| = |V| + 1 = 10
    assert d.num_edges == 10
    assert full_face((2, 1)).dim == 2


def test_degenerate_diagram():
    d = build_diagram(())
    assert d.n == 0 and d.vertices == ((0, 0),)
    assert build_diagram((0, 0)) is d
    faces = enumerate_faces(d)
    assert len(faces) == 1 and faces[0].dim == 0
    assert is_face(d, 0)
    with pytest.raises(ValueError):
        is_face(d, 1)


def test_edge_order_canonical():
    for comp in [(1, 1), (2, 1), (1, 2, 1), (1, 1, 1, 1)]:
        d = build_diagram(comp)
        # The library numbers edges band-major: by the anti-diagonal of the
        # head, then horizontal before vertical, then by head.
        key = [(sum(head), head[0] == tail[0], head) for tail, head in d.edges]
        assert key == sorted(set(key)), comp
        # Records number them horizontals sorted by head, then verticals
        # sorted by head.
        horiz = sorted((e for e in d.edges if e[1][0] == e[0][0] + 1), key=lambda e: e[1])
        vert = sorted((e for e in d.edges if e[1][1] == e[0][1] + 1), key=lambda e: e[1])
        assert len(horiz) + len(vert) == d.num_edges
        for p, edge in enumerate(horiz + vert):
            assert int(records.hex_mask(d, d.edge_bit(*edge)), 16) == 1 << p, (comp, edge)


# The diagram's orders are written directly; they are checked against their
# sort specification on every composition with n <= DIAGRAM_MAX_N: 9 in
# tier-1, and CI sets GCLADDER_DIAGRAM_MAX_N=12.
DIAGRAM_MAX_N = int(os.environ.get("GCLADDER_DIAGRAM_MAX_N", "9"))


@pytest.mark.parametrize("n", range(DIAGRAM_MAX_N + 1))
def test_diagram_orders_match_their_sort_specification(n):
    for comp in compositions_of(n):
        d = ladder.LadderDiagram(comp)
        # the points weakly below-left of a terminal, and the unit steps
        # between them
        points = {
            (a, b) for ta, tb in d.terminals for a in range(ta + 1) for b in range(tb + 1)
        }
        steps = {
            ((a, b), head)
            for a, b in points
            for head in ((a + 1, b), (a, b + 1))
            if head in points
        }
        assert set(d.vertices) == points and len(d.vertices) == len(points), comp
        assert d.vertices == tuple(sorted(points, key=lambda v: (v[0] + v[1], v[0]))), comp
        assert set(d.edges) == steps and len(d.edges) == len(steps), comp
        assert list(d.edges) == sorted(d.edges, key=ladder._edge_key), comp
        ranks = {e: i for i, e in enumerate(sorted(d.edges, key=ladder._record_key))}
        assert d.record_position == tuple(ranks[e] for e in d.edges), comp


# In the record order a gadget's bits fall between its child's bits, so for
# these compositions the branches laid end to end are out of order; the
# enumerator must refuse that table rather than return it.
@pytest.mark.parametrize("comp", [(1, 2), (1, 1, 1), (2, 2, 1)])
def test_enumeration_refuses_edges_out_of_band_order(monkeypatch, comp):
    band_major_edges = ladder._band_major_edges

    def record_ordered_edges(heights, bands):
        edges, _ = band_major_edges(heights, bands)
        edges.sort(key=ladder._record_key)
        return edges, range(len(edges))

    monkeypatch.setattr(ladder, "_band_major_edges", record_ordered_edges)
    # Fresh memos for the patched numbering; the interned diagrams stay.
    monkeypatch.setattr(ladder, "_build_reduced", functools.lru_cache(ladder.LadderDiagram))
    monkeypatch.setattr(
        ladder, "_face_arrays", functools.lru_cache(ladder._face_arrays.__wrapped__)
    )
    d = build_diagram(comp)
    assert d.record_position == tuple(range(d.num_edges))
    with pytest.raises(AssertionError, match="out-of-order or duplicate masks"):
        enumerate_faces(d)


def test_is_face_full_diagram():
    d = build_diagram((1, 1, 1))
    assert is_face(d, d.full_mask)


def test_is_face_rejects_uncovered_terminal():
    d = build_diagram((1, 1))
    # both axes but nothing into the interior terminal (1, 1)
    assert not is_face(d, d.axes_mask)


def test_is_face_counts_all_subsets():
    d = build_diagram((1, 1, 1))
    accepted = sum(
        1 for m in range(1 << d.num_edges) if is_face(d, m)
    )
    assert accepted == 25


@pytest.mark.parametrize("comp", [(1, 1), (2, 1), (1, 2), (3,), (1, 1, 1)])
def test_local_recognizer_agrees_exhaustively(comp):
    d = build_diagram(comp)
    for m in range(1 << d.num_edges):
        assert is_face(d, m) == is_face_local(d, m)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_local_recognizer_agrees_on_2_2(mask):
    d = build_diagram((2, 2))
    assert is_face(d, mask) == is_face_local(d, mask)


def test_face_dimension_examples():
    assert full_face((1, 1, 1)).dim == 3
    assert full_face((2, 1)).dim == 2
    d = build_diagram((1, 1))
    # axes plus one monotone path to (1,1): a tree, dimension 0
    path = d.axes_mask | d.edge_bit((1, 0), (1, 1))
    assert DiagramFace(d, path).dim == 0


def test_dimension_of_a_non_face_raises():
    d = build_diagram((1, 1))
    # one axis edge is a connected tree, but it covers no terminal
    one_axis_edge = d.edge_bit((0, 0), (1, 0))
    with pytest.raises(ValueError, match="not a face"):
        DiagramFace(d, one_axis_edge).dim


@pytest.mark.parametrize("comp,fvec", sorted(KNOWN_FVECTORS.items()))
def test_enumerate_census(comp, fvec):
    census = face_census(comp)
    assert tuple(census.get(i, 0) for i in range(len(fvec))) == fvec


def test_enumerate_canonical_order():
    masks = enumerate_faces(build_diagram((2, 1))).masks
    assert np.all(masks[1:] > masks[:-1])


@pytest.mark.parametrize("comp", compositions_with_edge_bound(MAX_BRUTE_FORCE_EDGES))
def test_brute_force_matches_enumeration(comp):
    # the oracle's dims are cycle ranks counted from the masks; the
    # recursion's add up word weights
    d = build_diagram(comp)
    brute = brute_force_faces(d)
    rec = enumerate_faces(d)
    assert np.array_equal(brute.masks, rec.masks)
    assert np.array_equal(brute.dims, rec.dims)


# The scan is capped by free edges (``MAX_FREE_EDGES``), not at the CLI
# bound on all edges.  Past that bound: every diagram of 23-28 edges (the
# first 17 ids), then the rest of the compositions of 5 and those of 6 with
# at most 22 free edges, that is edges off the two axes.  With the
# ones within the bound, brute force gives a second count for all 16
# compositions of 5, `(1,)*5` at 30 edges included, and 15 of the 32 of 6.
PAST_CLI_BOUND = [
    c for c in compositions_with_edge_bound(28) if diagram_edge_count(c) > MAX_BRUTE_FORCE_EDGES
]
PAST_CLI_BOUND += [
    c
    for n in (5, 6)
    for c in compositions_of(n)
    if MAX_BRUTE_FORCE_EDGES < diagram_edge_count(c) <= 2 * n + 22 and c not in PAST_CLI_BOUND
]


@pytest.mark.parametrize("comp", PAST_CLI_BOUND)
def test_brute_force_past_cli_bound(comp):
    d = build_diagram(comp)
    brute = brute_force_faces(d)
    rec = enumerate_faces(d)
    assert np.array_equal(brute.masks, rec.masks)
    assert np.array_equal(brute.dims, rec.dims)
    assert brute.census() == {i: c for i, c in enumerate(f_vector(comp)) if c}


def _reference_gadget(d, w):
    n = d.n
    mask = d.edge_bit((0, n - 1), (0, n)) | d.edge_bit((n - 1, 0), (n, 0))
    for (a, b), (alpha, beta) in zip(d.terminals[1:], w):
        if alpha:
            mask |= d.edge_bit((a - 1, b), (a, b))
        if beta:
            mask |= d.edge_bit((a, b - 1), (a, b))
    return mask


@pytest.fixture(scope="module")
def reference_memo():
    return {}


def reference_face_arrays(comp, memo):
    """The per-child recursion the enumerator used before it worked in the
    top diagram's edge numbering: each child's faces are made in the child
    diagram's own numbering and moved into the parent's, bits grouped by the
    shift the translation table gives them.  ``memo`` keeps the tables of
    compositions with n <= 5, the children of those with n = 6."""
    if comp in memo:
        return memo[comp]
    d = build_diagram(comp)
    if d.n == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int16)
    mask_parts = []
    dim_parts = []
    for w in all_words(d.s - 1):
        child_comp = child_composition(comp, w)
        cmasks, cdims = reference_face_arrays(child_comp, memo)
        groups = {}
        for b, edge in enumerate(build_diagram(child_comp).edges):
            parent_bit = d.edge_index[edge]
            assert parent_bit >= b
            groups[parent_bit - b] = groups.get(parent_bit - b, 0) | 1 << b
        pmasks = np.full(cmasks.shape, _reference_gadget(d, w), dtype=np.int64)
        for shift, group in groups.items():
            pmasks |= (cmasks & group) << shift
        mask_parts.append(pmasks)
        dim_parts.append((cdims + word_weight(w)).astype(np.int16))
    masks = np.concatenate(mask_parts)
    dims = np.concatenate(dim_parts)
    order = np.argsort(masks, kind="stable")
    result = masks[order], dims[order]
    if d.n <= 5:
        memo[comp] = result
    return result


# (2, 2, 2) and (1, 3, 1, 1) are among the compositions of 6; (3, 4) has
# children with n = 6.
@pytest.mark.parametrize("comp", [c for n in range(1, 7) for c in compositions_of(n)] + [(3, 4)])
def test_enumeration_matches_per_child_translation(comp, reference_memo):
    faces = enumerate_faces(build_diagram(comp))
    masks, dims = reference_face_arrays(comp, reference_memo)
    assert faces.masks.dtype == masks.dtype == np.int64
    assert faces.dims.dtype == dims.dtype == np.int16
    assert np.array_equal(faces.masks, masks)
    assert np.array_equal(faces.dims, dims)
    # the n = 6 tables hold ~15M masks in all; keep none of them
    clear_caches()


def test_memo_holds_only_the_requested_composition():
    from gcladder.ladder import _face_arrays

    clear_caches()
    big = enumerate_faces(build_diagram((1, 1, 2, 1, 1)))
    assert _face_arrays.cache_info().currsize == 1
    # (1, 1, 1) is a sub-composition of the call above; its table there was
    # in the numbering of (1, 1, 2, 1, 1) and must not be what is returned
    small = enumerate_faces(build_diagram((1, 1, 1)))
    clear_caches()
    fresh = enumerate_faces(build_diagram((1, 1, 1)))
    assert np.array_equal(small.masks, fresh.masks)
    assert np.array_equal(small.dims, fresh.dims)
    assert all(is_face(small.diagram, m) for m in small.masks.tolist())
    # every 997th face of the large table, as a check on its numbering
    assert all(is_face(big.diagram, m) for m in big.masks[::997].tolist())
    clear_caches()


def test_array_enumeration_refuses_before_recursing(monkeypatch):
    d = build_diagram((1,) * 8)
    assert d.num_edges == 72

    def no_recursion(*args):
        raise AssertionError("recursion started before the mask-width check")

    monkeypatch.setattr(ladder, "_branches", no_recursion)
    with pytest.raises(ValueError, match="capped at 62-bit masks"):
        enumerate_faces(d)


def test_array_enumeration_refuses_wide_keys_before_recursing(monkeypatch):
    # (1, 15) fits the 62-bit masks, but its top dimension 15 takes 4 more
    # bits of the int64 key
    d = build_diagram((1, 15))
    assert d.num_edges == 62

    def no_recursion(*args):
        raise AssertionError("recursion started before the key-width check")

    monkeypatch.setattr(ladder, "_branches", no_recursion)
    with pytest.raises(ValueError) as exc:
        enumerate_faces(d)
    assert str(exc.value) == (
        "composition (1, 15) needs 62 mask bits and 4 dimension bits; "
        "array enumeration is capped at 63 key bits"
    )


def test_key_width_refuses_exactly_five_compositions_within_the_face_bound():
    # of the compositions within 62 edges, those whose packed keys would not
    # fit; all but five of them are past MAX_FACES as well
    within = []
    for comp in compositions_with_edge_bound(62):
        fv = f_vector(comp)
        wide = diagram_edge_count(comp) + (len(fv) - 1).bit_length() > 63
        if wide and sum(fv) <= ladder.MAX_FACES:
            within.append(comp)
    assert sorted(within) == [(1, 1, 9), (1, 9, 1), (1, 15), (9, 1, 1), (15, 1)]
    for comp in within:
        with pytest.raises(ValueError, match="63 key bits"):
            enumerate_faces(build_diagram(comp))


def test_enumeration_memory_per_face():
    # The uncached table of (1, 1, 2, 2) is built as one int64 key a face and
    # split into int64 masks and int16 dims, so its traced peak stays near the
    # finished 10 bytes a face; an argsort order gathered beside the masks
    # and two dims arrays takes about 22.
    d = build_diagram((1, 1, 2, 2))
    clear_caches()
    tracemalloc.start()
    try:
        faces = enumerate_faces(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert len(faces) == 302751
    assert peak < 14 * len(faces) + (1 << 19), peak / len(faces)


def test_array_enumeration_refuses_past_its_face_bound():
    # (1,)*7 fits the 62-bit masks, but its table would hold 2,605,486,753
    # faces: refused once its children (n = 6) are built, before allocating
    with pytest.raises(ValueError) as exc:
        enumerate_faces(build_diagram((1,) * 7))
    assert str(exc.value) == (
        f"composition {(1,) * 7} has 2605486753 faces; array enumeration is "
        f"capped at {ladder.MAX_FACES} faces"
    )
    assert ladder.MAX_FACES >= 20_000_000
    try:
        assert len(enumerate_faces(build_diagram((1,) * 6))) == 5791311
    finally:
        clear_caches()


def test_gadget_mask_matches_edge_bits_and_raises_on_missing_edges():
    for n in range(1, 5):
        for comp in compositions_of(n):
            d = build_diagram(comp)
            for w in all_words(d.s - 1):
                assert ladder._gadget_mask(d, comp, w) == _reference_gadget(d, w)
    # (3,) needs the axis edges into (0, 3) and (3, 0), which (1, 1) lacks;
    # edge_bit would read them as 0
    d = build_diagram((1, 1))
    with pytest.raises(KeyError):
        ladder._gadget_mask(d, (3,), ())


# The branch walk is compared with the per-word rule on every composition
# with n <= BRANCH_MAX_N: 8 in tier-1, and CI sets GCLADDER_BRANCH_MAX_N=10.
BRANCH_MAX_N = int(os.environ.get("GCLADDER_BRANCH_MAX_N", "8"))


def per_word_branches(d, comp, shift):
    """{child: steps} word by word, from the one branch rule."""
    children = {}
    for w in all_words(len(comp) - 1):
        step = (ladder._gadget_mask(d, comp, w) << shift) + word_weight(w)
        children.setdefault(child_composition(comp, w), []).append(step)
    return children


@pytest.mark.parametrize("n", range(1, BRANCH_MAX_N + 1))
def test_branch_walk_matches_the_per_word_branch_rule(n):
    for comp in compositions_of(n):
        # in the diagram of comp itself, and inside the larger diagram of
        # (1, *comp), as the recursion walks a sub-composition
        for d in (build_diagram(comp), build_diagram((1, *comp))):
            shift = ((d.num_edges - 2 * d.n) // 2).bit_length()
            walk = ladder._branches(d, comp, shift)
            want = per_word_branches(d, comp, shift)
            assert walk.keys() == want.keys(), comp
            for child, steps in want.items():
                assert sorted(walk[child]) == sorted(steps), (d, comp, child)


def test_brute_force_of_the_reverse_equals_the_f_vector():
    # f(k) = f(reversed k), checked without the memo, which shares one entry
    # between a child and its reverse
    comps = compositions_with_edge_bound(22)
    assert len(comps) == 28
    for comp in comps:
        census = brute_force_faces(build_diagram(comp[::-1])).census()
        assert census == dict(enumerate(f_vector(comp))), comp


# With 3-face chunks, the pairs (2, 3) and (23, 24) of (1, 1, 1)'s 25 faces
# straddle chunk boundaries; (4, 5) lies inside one chunk.
@pytest.mark.parametrize("pair", [2, 4, 23])
def test_duplicate_check_spans_chunk_boundaries(monkeypatch, pair):
    monkeypatch.setattr(ladder, "FACE_CHUNK", 3)
    comp = (1, 1, 1)
    sub_faces = ladder._sub_faces

    def duplicate(d, c, shift, tables):
        keys = sub_faces(d, c, shift, tables)
        if c != comp:
            return keys
        assert keys.size == 25
        keys = keys.copy()
        keys[pair + 1] = keys[pair]
        return keys

    monkeypatch.setattr(ladder, "_sub_faces", duplicate)
    clear_caches()
    try:
        with pytest.raises(AssertionError, match=r"duplicate masks for \(1, 1, 1\)"):
            enumerate_faces(build_diagram(comp))
    finally:
        clear_caches()


def test_face_set_len_and_indexing():
    d = build_diagram((2, 1))
    faces = enumerate_faces(d)
    assert isinstance(faces, FaceSet) and faces.diagram is d
    assert len(faces) == 7
    assert faces[0] == DiagramFace(d, int(faces.masks[0]))
    assert faces[-1].is_full() and faces[-1].dim == 2
    assert faces[-7] == faces[0]
    with pytest.raises(IndexError):
        faces[7]
    with pytest.raises(TypeError):
        faces[0:1]


# (2, 2, 2) has 75,553 faces, more than one ``FACE_CHUNK``
@pytest.mark.parametrize("comp", [(), (1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 2, 2)])
def test_face_set_iteration_and_census(comp):
    for faces in (enumerate_faces(build_diagram(comp)), brute_force_faces(build_diagram(comp))):
        census = faces.census()
        assert census == {i: c for i, c in enumerate(f_vector(comp)) if c}
        assert list(census) == sorted(census)
        listed = list(faces)
        assert all(type(f) is DiagramFace for f in listed)
        assert [f.mask for f in listed] == faces.masks.tolist()
        assert [f.dim for f in listed] == faces.dims.tolist()
        # every face up to 2,000 faces; past that, a spread sample of them
        sample = listed[:: 1 + len(listed) // 2000]
        assert [f.dim for f in sample] == [face_dimension(f) for f in sample]
        assert listed == list(faces)  # iterating twice gives the same faces


def test_face_set_iteration_holds_one_chunk_of_ints():
    faces = enumerate_faces(build_diagram((1, 1, 2, 2)))
    assert len(faces) == 302751 > 4 * ladder.FACE_CHUNK
    tracemalloc.start()
    try:
        whole = faces.masks.tolist(), faces.dims.tolist()
        whole_peak = tracemalloc.get_traced_memory()[1]
        del whole
        tracemalloc.reset_peak()
        count = sum(1 for _ in faces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(faces)
    # whole-array lists take about 14 MB here
    assert peak < whole_peak / 2, (peak, whole_peak)


def test_census_counts_one_chunk_at_a_time():
    faces = enumerate_faces(build_diagram((1, 1, 2, 2)))
    tracemalloc.start()
    try:
        census = faces.census()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census == {i: c for i, c in enumerate(f_vector((1, 1, 2, 2))) if c}
    # an intp copy of all 302,751 dims would take 2.4 MB
    assert peak < 16 * ladder.FACE_CHUNK, peak


@pytest.mark.parametrize("comp", compositions_with_edge_bound(MAX_BRUTE_FORCE_EDGES))
def test_chunked_merge_and_iteration_across_chunk_boundaries(comp, monkeypatch):
    # a 3-face chunk puts boundaries inside every table of the recursion
    monkeypatch.setattr(ladder, "FACE_CHUNK", 3)
    d = build_diagram(comp)
    clear_caches()
    try:
        faces = enumerate_faces(d)
        brute = brute_force_faces(d)
        assert np.array_equal(faces.masks, brute.masks)
        assert np.array_equal(faces.dims, brute.dims)
        for face_set in (faces, brute):
            listed = list(face_set)
            assert [f.mask for f in listed] == face_set.masks.tolist()
            assert [f.dim for f in listed] == face_set.dims.tolist()
    finally:
        clear_caches()


@pytest.mark.parametrize("enumerator", [enumerate_faces, brute_force_faces])
def test_face_set_arrays_are_read_only(enumerator):
    faces = enumerator(build_diagram((1, 1, 1)))
    before = faces.masks.tolist()
    with pytest.raises(ValueError):
        faces.masks[0] = 0
    with pytest.raises(ValueError):
        faces.dims[0] = 5
    assert enumerator(build_diagram((1, 1, 1))).masks.tolist() == before


def test_clear_caches_keeps_diagrams_interned():
    from gcladder.genfunc import _f_polynomial_reduced
    from gcladder.ladder import _face_arrays

    d = build_diagram((1, 1, 1))
    before = enumerate_faces(d)[3]
    f_vector((1, 1, 1))
    assert _face_arrays.cache_info().currsize > 0
    assert _f_polynomial_reduced.cache_info().currsize > 0
    clear_caches()
    assert _face_arrays.cache_info().currsize == 0
    assert _f_polynomial_reduced.cache_info().currsize == 0
    after = enumerate_faces(build_diagram((1, 1, 1)))[5]
    assert after.diagram is before.diagram
    assert join(before, after).mask == before.mask | after.mask


def test_brute_force_refuses_large_diagram():
    d = build_diagram((1,) * 6)
    assert d.num_edges - 2 * d.n == 30 > MAX_FREE_EDGES
    with pytest.raises(ValueError, match=f"30 edges off the axes; brute force is capped at {MAX_FREE_EDGES}"):
        brute_force_faces(d)


def test_brute_force_refuses_past_the_mask_width_before_scanning(monkeypatch):
    # (32,) has 64 edges and none free: within MAX_FREE_EDGES, but its
    # masks do not fit the int64 arrays
    d = build_diagram((32,))
    assert d.num_edges == 64 and d.num_edges - 2 * d.n == 0

    def no_scan(diagram):
        raise AssertionError("scan started before the mask-width check")

    monkeypatch.setattr(ladder.kernels, "accepted_face_masks", no_scan)
    with pytest.raises(ValueError) as exc:
        brute_force_faces(d)
    assert str(exc.value) == "LadderDiagram(32,) has 64 edges; brute force is capped at 62-bit masks"
    monkeypatch.undo()
    # (31,) has 62 edges, the widest that fits, and its one face
    faces = brute_force_faces(build_diagram((31,)))
    assert len(faces) == 1 and faces[0].is_full() and faces[0].dim == 0


def test_brute_force_scans_at_the_free_edge_cap():
    d = build_diagram((1, 1, 2, 2))
    assert d.num_edges - 2 * d.n == MAX_FREE_EDGES
    assert brute_force_faces(d).census() == {i: c for i, c in enumerate(f_vector(d.composition)) if c}


def test_single_part_has_one_face():
    for m in (1, 2, 5):
        faces = enumerate_faces(build_diagram((m,)))
        assert len(faces) == 1 and faces[0].is_full()


def tree_faces_of_pair():
    d = build_diagram((1, 1))
    right_last = d.axes_mask | d.edge_bit((0, 1), (1, 1))  # path U then R
    up_last = d.axes_mask | d.edge_bit((1, 0), (1, 1))  # path R then U
    return d, DiagramFace(d, right_last), DiagramFace(d, up_last)


def test_join_of_vertex_faces_is_full():
    d, f1, f2 = tree_faces_of_pair()
    assert f1.dim == 0 and f2.dim == 0
    top = join(f1, f2)
    assert top.is_full() and top.dim == 1


def test_meet_of_vertex_faces_is_bottom():
    _, f1, f2 = tree_faces_of_pair()
    assert meet(f1, f2) is BOTTOM


def test_join_meet_with_bottom():
    f = full_face((1, 1))
    assert join(BOTTOM, f) == f
    assert join(f, BOTTOM) == f
    assert meet(BOTTOM, f) is BOTTOM
    assert join(BOTTOM, BOTTOM) is BOTTOM
    assert meet(BOTTOM, BOTTOM) is BOTTOM


def test_lattice_ops_reject_mixed_diagrams():
    with pytest.raises(ValueError):
        join(full_face((1, 1)), full_face((2, 1)))
    with pytest.raises(ValueError):
        meet(full_face((1, 1)), full_face((2, 1)))


def test_meet_is_maximal_face_in_intersection():
    for comp in [(1, 1, 1), (2, 2), (1, 3)]:
        faces = enumerate_faces(build_diagram(comp))
        by_mask = {f.mask for f in faces}
        for a in faces:
            for b in faces:
                m = meet(a, b)
                inter = a.mask & b.mask
                below = [f for f in faces if f.mask & ~inter == 0]
                if m is BOTTOM:
                    assert not below, (comp, a, b)
                else:
                    assert m.mask in by_mask
                    assert m.mask & ~inter == 0
                    assert all(f.mask | m.mask == m.mask for f in below), (comp, a, b)


def reference_meet(f1, f2):
    # The fixed-point meet that ``ladder.meet`` replaced: drop the edges off
    # every surviving origin-to-terminal path until nothing changes, then
    # ask the recognizer.
    d = f1.diagram
    # A topological order of its own: by the anti-diagonal of the tail.
    topo = sorted(range(d.num_edges), key=lambda e: sum(d.edges[e][0]))
    mask = f1.mask & f2.mask
    while True:
        fwd = {d.origin_index}
        for e in topo:
            if mask >> e & 1 and d.edge_tails[e] in fwd:
                fwd.add(d.edge_heads[e])
        bwd = set(d.terminal_indices)
        for e in reversed(topo):
            if mask >> e & 1 and d.edge_heads[e] in bwd:
                bwd.add(d.edge_tails[e])
        kept = sum(
            1 << e
            for e in range(d.num_edges)
            if mask >> e & 1 and d.edge_tails[e] in fwd and d.edge_heads[e] in bwd
        )
        if kept == mask:
            break
        mask = kept
    return DiagramFace(d, mask) if is_face(d, mask) else BOTTOM


def test_meet_matches_fixed_point_reference():
    # Every face pair of the 14 compositions with n <= 4 other than
    # (1,1,1,1): 66,166 pairs.  The 321,489 pairs of the 567 faces of
    # (1,1,1,1) would take about 12 s more.
    comps = [c for n in range(1, 5) for c in compositions_of(n) if c != (1, 1, 1, 1)]
    assert len(comps) == 14
    pairs = 0
    for comp in comps:
        faces = list(enumerate_faces(build_diagram(comp)))
        for a in faces:
            for b in faces:
                got, want = meet(a, b), reference_meet(a, b)
                assert got == want, (comp, a, b)
                pairs += 1
    assert pairs == 66_166


def _lattice_laws(a, b, c):
    # BOTTOM compares by identity, faces by (composition, mask)
    assert join(a, a) == a
    assert meet(a, a) == a
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)
    assert join(join(a, b), c) == join(a, join(b, c))
    assert meet(meet(a, b), c) == meet(a, meet(b, c))
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a


@pytest.mark.parametrize("comp", [(1, 1), (2, 1), (1, 1, 1)])
def test_lattice_laws_exhaustive(comp):
    elements = [*enumerate_faces(build_diagram(comp)), BOTTOM]
    for a in elements:
        for b in elements:
            for c in elements:
                _lattice_laws(a, b, c)


@pytest.mark.parametrize("comp", sorted(compositions_of(4)))
def test_lattice_laws_sampled_n4(comp):
    elements = [*enumerate_faces(build_diagram(comp)), BOTTOM]
    rng = random.Random(20260809)
    for _ in range(400):
        a, b, c = (rng.choice(elements) for _ in range(3))
        _lattice_laws(a, b, c)


def test_assignment_examples():
    assert assignment_of_face(full_face((1, 1, 1))) == (BOTH, BOTH)
    _, right_face, up_face = tree_faces_of_pair()
    assert assignment_of_face(right_face) == (RIGHT,)
    assert assignment_of_face(up_face) == (UP,)


def test_decompose_full_pair():
    w, child = decompose_face(full_face((1, 1)))
    assert w == (BOTH,)
    assert child.diagram.composition == (1,)
    assert child.is_full()


@pytest.mark.parametrize("comp", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 1, 1, 1)])
def test_decompose_round_trip_and_dims(comp):
    d = build_diagram(comp)
    for face in enumerate_faces(d):
        w, child = decompose_face(face)
        assert compose_face(d, w, child) == face
        assert face.dim == child.dim + sum(a * b for a, b in w)


@pytest.mark.parametrize("comp", [(1, 1), (2, 1), (1, 1, 1), (1, 3), (2, 1, 1)])
def test_transpose_bijection(comp):
    d = build_diagram(comp)
    rev = tuple(reversed(comp))
    images = {}
    for face in enumerate_faces(d):
        t = transpose_face(face)
        assert t.diagram.composition == rev
        assert t.dim == face.dim
        images[t.mask] = face.mask
    assert set(images) == {f.mask for f in enumerate_faces(build_diagram(rev))}


@given(small_compositions)
@settings(deadline=None)
def test_fvector_reversal_invariance(comp):
    assert face_census(comp) == face_census(tuple(reversed(comp)))


@pytest.mark.parametrize("comp", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 1, 1, 1)])
def test_euler_relation(comp):
    census = face_census(comp)
    assert sum((-1) ** d * c for d, c in census.items()) == 1


@pytest.mark.parametrize("comp", [(1, 1, 1), (2, 2), (1, 1, 1, 1)])
def test_unique_top_face_is_full_diagram(comp):
    d = build_diagram(comp)
    faces = enumerate_faces(d)
    top_dim = max(f.dim for f in faces)
    tops = [f for f in faces if f.dim == top_dim]
    assert len(tops) == 1 and tops[0].is_full()
    s = d.composition
    assert top_dim == sum(
        s[i] * s[j] for i in range(len(s)) for j in range(i + 1, len(s))
    )


def test_no_one_sided_vertices_in_enumerated_faces():
    # the six impossible local configurations never occur
    for comp in [(2, 1), (1, 1, 1), (2, 2)]:
        d = build_diagram(comp)
        extremal = set(d.terminal_indices) | {d.origin_index}
        for face in enumerate_faces(d):
            assert d.origin_index in face.vertex_indices()
            present = set(face.edge_indices())
            for v in range(len(d.vertices)):
                if v in extremal:
                    continue
                has_in = any(e in present for e in d.in_edges[v])
                has_out = any(e in present for e in d.out_edges[v])
                assert has_in == has_out


def test_edge_bound_composition_list():
    comps = compositions_with_edge_bound(20)
    for n in range(1, 5):
        for comp in compositions_of(n):
            assert comp in comps
    assert (1, 4) in comps and (4, 1) in comps and (10,) in comps
    assert (3, 2) not in comps
    for comp in comps:
        assert diagram_edge_count(comp) == build_diagram(comp).num_edges <= 20
    # the closed form (``_edge_count``) against the built diagrams, zero
    # parts included
    for n in range(9):
        for comp in compositions_of(n):
            assert diagram_edge_count(comp) == build_diagram(comp).num_edges, comp
    assert diagram_edge_count((0, 2, 0, 1)) == build_diagram((2, 1)).num_edges


def test_pruned_edge_bound_matches_the_filter():
    # the plain filter over all compositions that the pruned generator
    # replaced, for every bound up to 30 edges (n <= 15, since 2n <= edges)
    counted = [(c, diagram_edge_count(c)) for n in range(1, 16) for c in compositions_of(n)]
    for bound in range(-1, 31):
        want = [c for c, edges in counted if edges <= bound]
        assert compositions_with_edge_bound(bound) == want, bound


def test_census_matches_polynomial_up_to_n6():
    from gcladder.genfunc import f_vector
    from gcladder.ladder import _face_arrays

    try:
        for n in range(1, 7):
            for comp in compositions_of(n):
                census = face_census(comp)
                fvec = f_vector(comp)
                assert tuple(census.get(i, 0) for i in range(len(fvec))) == fvec
    finally:
        # the memo keeps the table of each composition asked for (not its
        # sub-compositions'); the n = 6 tables hold ~15M masks, release them
        _face_arrays.cache_clear()
