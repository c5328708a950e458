"""Assignment words and the composition transforms that drive the face recursion.

An assignment word records, for each interior terminal corner of a ladder
diagram, which of its two incoming edges a face uses: the horizontal one,
the vertical one, or both.  Words of length s-1 index the branches of the
face recursion for a composition with s parts; the transforms below map a
parent composition to the child composition of each branch.

``r_transform``, ``d_transform``, ``word_weight`` and ``word_tilde`` use
only arithmetic on the parts and the flags, so a part may be an integer
array and a flag an integer column, one word per row: they then act on a
block of words and a grid of parts at once, by broadcasting.
"""

import functools
from itertools import product

# One letter per interior terminal: (horizontal flag, vertical flag).
RIGHT = (1, 0)
UP = (0, 1)
BOTH = (1, 1)

# Canonical branch enumeration order.
LETTERS = (RIGHT, UP, BOTH)


def reduce_composition(k):
    """Strip zero parts, keeping order.  Rejects negative parts."""
    parts = tuple(map(int, k))
    if min(parts, default=0) < 0:
        raise ValueError(f"composition parts must be non-negative, got {parts}")
    return tuple(filter(None, parts))


def all_words(length):
    """All assignment words of the given length, in canonical order."""
    return product(LETTERS, repeat=length)


def word_weight(w):
    """Number of BOTH letters; each one contributes a cycle."""
    return sum(a * b for a, b in w)


def word_tilde(w):
    """0/1 vector marking the BOTH positions of the word."""
    return tuple(a * b for a, b in w)


def _padded_flags(w, s):
    # alphas[i-1] = horizontal flag at terminal i (1..s), with the far corner
    # fixed to horizontal; betas[i] = vertical flag at terminal i (0..s-1),
    # with the near corner fixed to vertical.
    alphas = tuple(e[0] for e in w) + (1,)
    betas = (1,) + tuple(e[1] for e in w)
    if len(alphas) != s or len(betas) != s:
        raise ValueError(f"word length {len(w)} does not fit composition length {s}")
    return alphas, betas


def r_transform(k, w):
    """Child part sizes: k_i + 1 - alpha_i - beta_{i-1} (may contain zeros)."""
    alphas, betas = _padded_flags(w, len(k))
    return tuple(k[i] + 1 - alphas[i] - betas[i] for i in range(len(k)))


def d_transform(k, w):
    """Inverse-direction transform: k_i - 2 + alpha_i + beta_{i-1}.

    Negative entries are meaningful (they mark vanishing terms downstream),
    not errors.
    """
    alphas, betas = _padded_flags(w, len(k))
    return tuple(k[i] - 2 + alphas[i] + betas[i] for i in range(len(k)))


def interleave(x, y):
    """(x_1, y_1, x_2, y_2, ..., y_{s-1}, x_s) for len(y) == len(x) - 1."""
    if len(y) != len(x) - 1:
        raise ValueError(f"cannot interleave lengths {len(x)} and {len(y)}")
    return (*(v for pair in zip(x, y) for v in pair), x[-1])


def letter_step(part, beta, letter):
    """The branch rule for one letter of a word at one part of the parent.

    ``beta`` is the vertical flag of the previous letter (1 before the first
    letter).  The letter (a, v) appends r = part + 1 - a - beta to the child
    when r is positive, then a 1 when it is BOTH, and passes v on as the next
    beta.  Returns (appended parts, v).  The far corner is fixed to
    horizontal, so the last part of the parent steps with the letter RIGHT.
    """
    a, v = letter
    r = part + 1 - a - beta
    head = (r,) if r > 0 else ()
    return (head + (1,) if a and v else head), v


@functools.lru_cache(maxsize=None)
def _letter_steps(part):
    # {beta: {letter: letter_step(part, beta, letter)}}, letters in LETTERS order
    return {beta: {letter: letter_step(part, beta, letter) for letter in LETTERS} for beta in (0, 1)}


def child_composition(comp, w):
    """Reduced composition of the child diagram on the branch of word w.

    ``comp`` must already be reduced (no zero parts).  The child is the
    interleaving of r_transform(comp, w) with the BOTH positions of w,
    zeros stripped, built letter by letter with ``letter_step``.
    """
    if len(w) != len(comp) - 1:
        raise ValueError(
            f"word length {len(w)} does not fit composition length {len(comp)}"
        )
    child, beta = (), 1
    for part, letter in zip(comp, (*w, RIGHT)):
        parts, beta = letter_step(part, beta, letter)
        child += parts
    return child


def _add_shifted(table, key, acc, shift):
    # table[key] += acc << shift, on packed word counts
    table[key] = table.get(key, 0) + (acc << shift)


def branch_walk(comp, start, values, merge):
    """The one walk of the face recursion's branches, merged by child.

    The letters of every word of ``comp`` are walked left to right with
    ``letter_step``, and words that agree on the child prefix built so far
    and on the vertical flag of their last letter share one state: the rest
    of the child depends only on that flag and on the letters still to come.
    The walk starts from the state ``start``.  ``values`` holds one
    {letter: value} dict per interior part, and each step of a state
    through a letter calls ``merge(table, key, acc, value)`` to fold the
    state's ``acc`` into ``table[key]``; the far corner's fixed RIGHT has
    the value 0.  Returns {child composition: merged}.  ``comp`` must be
    reduced and non-empty.

    Each part's steps come from ``_letter_steps``, a table memoized on the
    part alone (both vertical flags, the letters of ``LETTERS``).  The
    values are paired with it per call and never enter the cache, so the
    enumerator's diagram-specific bit masks cannot grow it.  The children
    are keyed as built: ``genfunc`` looks each one up under the smaller of
    itself and its reverse, and the enumerator needs its own orientation.
    """
    states = {((), 1): start}
    for part, letters in zip(comp[:-1], values):
        steps = _letter_steps(part)
        moves = {
            beta: [(*steps[beta][letter], value) for letter, value in letters.items()]
            for beta in (0, 1)
        }
        table = {}
        for (prefix, beta), acc in states.items():
            for parts, v, value in moves[beta]:
                merge(table, (prefix + parts, v), acc, value)
        states = table
    steps = _letter_steps(comp[-1])
    last = {beta: steps[beta][RIGHT][0] for beta in (0, 1)}
    children = {}
    for (prefix, beta), acc in states.items():
        merge(children, prefix + last[beta], acc, 0)
    return children


def count_slot(s):
    """Bits per weight in the packed counts of ``child_groups`` for a
    composition with s parts: the bit length of 3^(s-1), the number of words.

    No count exceeds the number of words, even summed over a child and its
    reverse, so no slot carries into the next.
    """
    return (3 ** (s - 1)).bit_length()


def child_groups(comp):
    """The branches of the face recursion of ``comp``, merged by child.

    Returns {child composition: packed counts}: with slot =
    ``count_slot(len(comp))``, the bits from slot * i of the packed int
    count the words of weight i whose branch has that child.  This is the
    multiset of (``child_composition(comp, w)``, ``word_weight(w)``) over
    all words, from ``branch_walk``: a BOTH letter shifts a state's counts
    up one slot, and merging is one integer add.  ``comp`` must be reduced
    and non-empty.
    """
    shifts = {RIGHT: 0, UP: 0, BOTH: count_slot(len(comp))}
    return branch_walk(comp, 1, [shifts] * (len(comp) - 1), _add_shifted)
