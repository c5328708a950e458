import os
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcladder import clear_caches, ladder, words
from gcladder.genfunc import f_polynomial
from gcladder.words import (
    BOTH,
    LETTERS,
    RIGHT,
    UP,
    all_words,
    branch_walk,
    child_composition,
    child_groups,
    count_slot,
    d_transform,
    interleave,
    letter_step,
    r_transform,
    reduce_composition,
    word_tilde,
    word_weight,
)
from gcladder.ladder import compositions_of

SMALL_COMPOSITIONS = [c for n in range(1, 8) for c in compositions_of(n)]
# The branch walk is compared with the per-word rule on every composition
# with n <= BRANCH_MAX_N: 8 in tier-1, and CI sets GCLADDER_BRANCH_MAX_N=10
# (as for the enumerator's walk in test_ladder.py).
BRANCH_MAX_N = int(os.environ.get("GCLADDER_BRANCH_MAX_N", "8"))


def test_letter_values():
    assert RIGHT == (1, 0) and UP == (0, 1) and BOTH == (1, 1)


@pytest.mark.parametrize("length,count", [(0, 1), (1, 3), (2, 9), (3, 27)])
def test_word_count(length, count):
    assert len(list(all_words(length))) == count


def test_reduce_composition():
    assert reduce_composition((2, 0, 1)) == (2, 1)
    assert reduce_composition((0, 0)) == ()
    assert reduce_composition(()) == ()
    with pytest.raises(ValueError):
        reduce_composition((1, -1))


def test_transforms_on_pair():
    # k = (1,1): the three branches of the recursion
    assert r_transform((1, 1), (BOTH,)) == (0, 0)
    assert word_tilde((BOTH,)) == (1,)
    assert word_weight((BOTH,)) == 1
    assert r_transform((1, 1), (RIGHT,)) == (0, 1)
    assert word_tilde((RIGHT,)) == (0,)
    assert r_transform((1, 1), (UP,)) == (1, 0)


def test_word_transforms_bundle():
    k, w = (1, 1), (BOTH,)
    d, r = d_transform(k, w), r_transform(k, w)
    assert r == (0, 0) and word_tilde(w) == (1,) and word_weight(w) == 1
    # r undoes d after adding one to every part
    assert d == (1, 1)
    assert r_transform(tuple(x + 1 for x in d), w) == (1, 1)


def test_interleave():
    assert interleave((1, 2, 3), (7, 8)) == (1, 7, 2, 8, 3)
    assert interleave((5,), ()) == (5,)
    with pytest.raises(ValueError):
        interleave((1, 2), (1, 2))


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda s: st.tuples(
            st.tuples(*[st.integers(min_value=-2, max_value=4)] * s),
            st.tuples(*[st.sampled_from([RIGHT, UP, BOTH])] * (s - 1)),
        )
    )
)
def test_round_trip_r_after_d(data):
    k, w = data
    d = d_transform(k, w)
    assert r_transform(tuple(x + 1 for x in d), w) == k


def test_round_trip_exhaustive_small():
    for s in (1, 2, 3):
        for w in all_words(s - 1):
            for k in product(range(4), repeat=s):
                d = d_transform(k, w)
                assert r_transform(tuple(x + 1 for x in d), w) == k


def test_letter_step():
    # r = part + 1 - a - beta, appended when positive; BOTH appends a 1
    assert letter_step(2, 1, RIGHT) == ((1,), 0)
    assert letter_step(2, 0, UP) == ((3,), 1)
    assert letter_step(2, 1, BOTH) == ((1, 1), 1)
    assert letter_step(1, 1, BOTH) == ((1,), 1)
    assert letter_step(1, 1, RIGHT) == ((), 0)


def test_letter_steps_are_the_letter_rule_per_part():
    for part in range(1, 13):
        for beta in (0, 1):
            steps = words._letter_steps(part)[beta]
            assert list(steps) == list(LETTERS)
            for letter in LETTERS:
                assert steps[letter] == letter_step(part, beta, letter)
    # Keyed by the part alone: the values of a call, such as the
    # enumerator's bit masks in its own diagram, never enter the cache.
    # enumerate_faces refuses most compositions of 8 (over MAX_FACES), so
    # its walk, ladder._branches, runs on each one's diagram directly.
    clear_caches()
    words._letter_steps.cache_clear()
    for comp in compositions_of(8):
        f_polynomial(comp)
        d = ladder.build_diagram(comp)
        ladder._branches(d, comp, ((d.num_edges - 2 * d.n) // 2).bit_length())
    assert words._letter_steps.cache_info().currsize <= 8


def test_child_composition_refuses_wrong_word_length():
    with pytest.raises(ValueError, match="word length"):
        child_composition((1, 1), ())
    with pytest.raises(ValueError, match="word length"):
        child_composition((), ())


def test_child_composition_interleaves_the_transforms():
    for comp in SMALL_COMPOSITIONS:
        for w in all_words(len(comp) - 1):
            want = reduce_composition(interleave(r_transform(comp, w), word_tilde(w)))
            assert child_composition(comp, w) == want


def _unpack(packed, slot):
    # counts by weight, lowest first, up to the top (possibly partial) slot
    return [packed >> i & (1 << slot) - 1 for i in range(0, packed.bit_length(), slot)]


@pytest.mark.parametrize("n", range(1, BRANCH_MAX_N + 1))
def test_child_groups_merge_the_words(n):
    for comp in compositions_of(n):
        want = Counter(
            (child_composition(comp, w), word_weight(w))
            for w in all_words(len(comp) - 1)
        )
        slot = count_slot(len(comp))
        groups = {child: _unpack(packed, slot) for child, packed in child_groups(comp).items()}
        got = Counter(
            {
                (child, weight): count
                for child, counts in groups.items()
                for weight, count in enumerate(counts)
                if count
            }
        )
        assert got == want, comp
        assert all(counts[-1] for counts in groups.values())
        # no slot carries even in the sum over all children, where each
        # weight i counts all C(s-1, i) 2^(s-1-i) words of that weight
        s = len(comp)
        total = [comb(s - 1, i) * 2 ** (s - 1 - i) for i in range(s)]
        assert _unpack(sum(child_groups(comp).values()), slot) == total, comp


def _append_letter(table, key, words, letter):
    # the far corner's fixed RIGHT has the value 0 and is no letter of a word
    table.setdefault(key, []).extend([w + (letter,) for w in words] if letter else words)


@pytest.mark.parametrize("n", range(1, BRANCH_MAX_N + 1))
def test_branch_walk_groups_the_words_by_child(n):
    for comp in compositions_of(n):
        letters = {letter: letter for letter in LETTERS}
        walk = branch_walk(comp, [()], [letters] * (len(comp) - 1), _append_letter)
        want = {}
        for w in all_words(len(comp) - 1):
            want.setdefault(child_composition(comp, w), []).append(w)
        assert walk.keys() == want.keys(), comp
        for child, words in want.items():
            assert sorted(walk[child]) == sorted(words), (comp, child)
