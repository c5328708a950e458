"""f-polynomials, truncated exponential generating functions, and the
differential operators acting on them.

The f-polynomial of a composition counts faces of its ladder diagram by
dimension.  It satisfies a recursion over assignment words, which is what
``f_polynomial`` evaluates: F_k(t) = sum over words w of t^|w| F_child(w).
``words.child_groups`` merges the words by child through the one walk of
the letters, ``words.branch_walk``, and counts them by weight in one
packed int per child, the count of weight i at bits slot * i
(``words.count_slot``).  The memo holds reduced compositions, with the
empty composition as base case F = 1.  The requested composition is
computed and memoized as given; every child is looked up as the smaller
of itself and its reverse, one entry per reversal pair, since reversing a
composition transposes its diagram (``ladder.transpose_face``) and leaves
F unchanged.  So a child's packed counts are first added to its reverse's
under that key, and each key is unpacked and merged into the polynomial
once.

The exponential generating function of the f-polynomials has F_k(t)/k!
as its coefficient of x^k.  ``DiffOperator`` implements exact
constant-coefficient operators built from first-order partial derivatives
and multiplication by t; applied to a truncation of degree N, an operator
of order m leaves coefficients that are trustworthy only up to N - m, and
``TruncatedSeries`` carries that bound explicitly.

The verification entry points check, coefficient by coefficient and
target-first (``DiffOperator.apply_to_egf``, never building the series),
that the truncated generating functions are annihilated by the expected
operators.  All arithmetic is exact; a nonzero residual is a failure
report, never an approximation artifact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import factorial, lcm, prod
from operator import add, and_, ne, or_, sub

import numpy as np

from .words import (
    all_words,
    child_groups,
    count_slot,
    d_transform,
    interleave,
    r_transform,
    reduce_composition,
    word_tilde,
    word_weight,
)


class TPoly:
    """Dense univariate polynomial in t with exact coefficients.

    Coefficients are ints or Fractions; index = power of t.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return TPoly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, TPoly):
            if self.is_zero or other.is_zero:
                return TPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return TPoly(out)
        return TPoly(c * other for c in self.coeffs)

    def shift(self, j):
        """Multiply by t^j."""
        return self if j == 0 else TPoly((0,) * j + self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TPoly({self.coeffs!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c} t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c} t^{i}")
        return " + ".join(parts)


TPoly.ZERO = TPoly()
TPoly.ONE = TPoly((1,))


@functools.lru_cache(maxsize=None)
def _f_polynomial_reduced(comp):
    if not comp:
        return TPoly.ONE
    # F_comp = sum over words w of t^|w| F_child(w), one term per child.
    # F is invariant under reversal (the diagram's transpose), so a child
    # and its reverse share the memo entry of the smaller of the two, and
    # their packed counts are added before the one term is merged.
    merged = {}
    for child, packed in child_groups(comp).items():
        key = min(child, child[::-1])
        merged[key] = merged.get(key, 0) + packed
    slot = count_slot(len(comp))
    low = (1 << slot) - 1
    acc = []
    for key, packed in merged.items():
        coeffs = _f_polynomial_reduced(key).coeffs
        # one count per slot, the top slot possibly partly filled
        size = -(-packed.bit_length() // slot) + len(coeffs) - 1
        if len(acc) < size:
            acc.extend([0] * (size - len(acc)))
        i = 0
        while packed:
            c = packed & low
            if c:
                for j, f in enumerate(coeffs, i):
                    acc[j] += c * f
            packed >>= slot
            i += 1
    return TPoly(acc)


def f_polynomial(k):
    """Face-count polynomial of the diagram of k (exact, memoized)."""
    return _f_polynomial_reduced(reduce_composition(k))


def f_vector(k):
    """Face counts by dimension, lowest first."""
    return tuple(f_polynomial(k).coeffs)


def bounded_exponents(num_vars, max_total):
    """Exponent vectors of the given length and bounded total, lexicographic."""
    if max_total < 0:
        return []
    if num_vars == 0:
        return [()]
    out = []
    exps = [0] * num_vars
    total = 0
    while True:
        out.append(tuple(exps))
        if total < max_total:
            exps[-1] += 1
            total += 1
            continue
        # Lexicographic successor at full total: clear the last nonzero entry
        # and raise the one before it; (max_total, 0, ..., 0) is the last.
        j = num_vars - 1
        while j > 0 and exps[j] == 0:
            j -= 1
        if j == 0:
            return out
        total -= exps[j] - 1
        exps[j] = 0
        exps[j - 1] += 1


class TruncatedSeries:
    """Multivariate series with polynomial-in-t coefficients, truncated by
    total degree.

    ``validity_degree`` bounds the total degree up to which stored
    coefficients are exact; differential operators lower it by their
    order.  Terms beyond it are never stored.
    """

    __slots__ = ("num_vars", "validity_degree", "terms")

    def __init__(self, num_vars, validity_degree, terms=None):
        self.num_vars = num_vars
        self.validity_degree = validity_degree
        clean = {}
        for exps, poly in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if sum(exps) > validity_degree:
                raise ValueError(
                    f"term {exps} exceeds validity degree {validity_degree}"
                )
            if not isinstance(poly, TPoly):
                poly = TPoly(poly)
            if poly:
                clean[exps] = poly
        self.terms = clean

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), TPoly.ZERO)

    @property
    def is_zero(self):
        return not self.terms

    def nonzero_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.validity_degree == other.validity_degree
            and self.terms == other.terms
        )

    def __repr__(self):
        return (
            f"TruncatedSeries(vars={self.num_vars}, "
            f"valid<={self.validity_degree}, terms={len(self.terms)})"
        )


class DiffOperator:
    """Exact constant-coefficient operator on truncated series.

    A finite rational combination of monomials t^p * (mixed partial
    derivative); the generators all commute, so this expanded form is a
    normal form for any sum/product expression in them.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars, terms=None):
        self.num_vars = num_vars
        clean = {}
        for (t_pow, orders), coeff in (terms or {}).items():
            orders = tuple(orders)
            if len(orders) != num_vars:
                raise ValueError(f"derivative orders {orders} have wrong length")
            coeff = Fraction(coeff)
            if coeff:
                clean[(t_pow, orders)] = coeff
        self.terms = clean

    @classmethod
    def identity(cls, num_vars):
        return cls(num_vars, {(0, (0,) * num_vars): 1})

    @classmethod
    def partial(cls, num_vars, var):
        orders = [0] * num_vars
        orders[var] = 1
        return cls(num_vars, {(0, tuple(orders)): 1})

    @classmethod
    def t_times(cls, num_vars):
        return cls(num_vars, {(1, (0,) * num_vars): 1})

    @property
    def order(self):
        """Largest total derivative order among the monomials."""
        return max((sum(orders) for _, orders in self.terms), default=0)

    def _coerce(self, other):
        if isinstance(other, DiffOperator):
            if other.num_vars != self.num_vars:
                raise ValueError("operator variable counts differ")
            return other
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in rhs.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return DiffOperator(self.num_vars, terms)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __neg__(self):
        return DiffOperator(
            self.num_vars, {key: -c for key, c in self.terms.items()}
        )

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            if isinstance(other, (int, Fraction)):
                return DiffOperator(
                    self.num_vars,
                    {key: c * other for key, c in self.terms.items()},
                )
            return NotImplemented
        terms = {}
        for (tp1, o1), c1 in self.terms.items():
            for (tp2, o2), c2 in rhs.terms.items():
                key = (tp1 + tp2, tuple(a + b for a, b in zip(o1, o2)))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return DiffOperator(self.num_vars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self):
        return f"DiffOperator(vars={self.num_vars}, terms={len(self.terms)})"

    def apply_to_egf(self, exp_coefficient, degree, zero_vars=()):
        """This operator applied to the series truncated at ``degree`` whose
        coefficient of x^k is ``exp_coefficient(k) / k!``, with the
        variables ``zero_vars`` set to zero and projected out, computed
        target-first.

        A derivative d^o maps x^(k+o)/(k+o)! to x^k/k!, so each output
        exponent k (zero at ``zero_vars``, total within the validity
        degree) takes from each operator monomial c t^p d^o exactly
        c t^p ``exp_coefficient(k + o)``, then one division by k!.  Only
        the inputs so named are looked up.
        """
        m = self.order
        if m > degree:
            raise ValueError(
                f"operator order {m} exceeds series validity degree {degree}"
            )
        validity = degree - m
        # scale the operator to integer coefficients; undone with the k!
        denom = lcm(*(c.denominator for c in self.terms.values()))
        monomials = [
            (t_pow, orders, int(c * denom)) for (t_pow, orders), c in self.terms.items()
        ]
        zero = set(zero_vars)
        if not zero <= set(range(self.num_vars)):
            raise ValueError(f"variable indices {sorted(zero)} out of range")
        keep = [i for i in range(self.num_vars) if i not in zero]
        terms = {}
        for kept in bounded_exponents(len(keep), validity):
            target = [0] * self.num_vars
            for i, e in zip(keep, kept):
                target[i] = e
            acc = []
            for t_pow, orders, c in monomials:
                coeffs = exp_coefficient(tuple(map(add, target, orders))).coeffs
                if len(acc) < t_pow + len(coeffs):
                    acc.extend([0] * (t_pow + len(coeffs) - len(acc)))
                for j, a in enumerate(coeffs, t_pow):
                    acc[j] += c * a
            terms[kept] = TPoly(acc) * Fraction(1, denom * prod(map(factorial, kept)))
        return TruncatedSeries(len(keep), validity, terms)


# Interleaved variable layout for a 2s-1 variable series:
# (x_1, y_1, x_2, y_2, ..., y_{s-1}, x_s).


def interleaved_x_vars(s):
    return tuple(2 * i for i in range(s))


def interleaved_y_vars(s):
    return tuple(2 * i + 1 for i in range(s - 1))


def word_operator(s, w):
    """The operator monomial attached to an assignment word, acting on a
    series in 2s-1 interleaved variables: t^|w| times one derivative per
    letter, d/dx_i for UP, d/dx_{i+1} for RIGHT and d/dy_i for BOTH."""
    orders = [0] * (2 * s - 1)
    for i, (alpha, beta) in enumerate(w):
        if alpha == 0:
            orders[2 * i] += 1
        if beta == 0:
            orders[2 * i + 2] += 1
        if alpha and beta:
            orders[2 * i + 1] += 1
    return DiffOperator(2 * s - 1, {(word_weight(w), tuple(orders)): 1})


def interaction_product(s):
    """Product over i of (d/dx_i + d/dx_{i+1} + t d/dy_i), interleaved layout."""
    m = 2 * s - 1
    xv = interleaved_x_vars(s)
    yv = interleaved_y_vars(s)
    op = DiffOperator.identity(m)
    for i in range(s - 1):
        factor = (
            DiffOperator.partial(m, xv[i])
            + DiffOperator.partial(m, xv[i + 1])
            + DiffOperator.t_times(m) * DiffOperator.partial(m, yv[i])
        )
        op = op * factor
    return op


def pde_operator(s):
    """Mixed derivative in the x block minus the interaction product."""
    m = 2 * s - 1
    lead = DiffOperator.identity(m)
    for v in interleaved_x_vars(s):
        lead = lead * DiffOperator.partial(m, v)
    return lead - interaction_product(s)


def vertex_pde_operator(s):
    """The t = 0 shadow of the operator, acting on s plain variables."""
    lead = DiffOperator.identity(s)
    for v in range(s):
        lead = lead * DiffOperator.partial(s, v)
    prod = DiffOperator.identity(s)
    for i in range(s - 1):
        prod = prod * (DiffOperator.partial(s, i) + DiffOperator.partial(s, i + 1))
    return lead - prod


@dataclass(frozen=True)
class PdeReport:
    """Outcome of one truncated PDE check; exact, so residual means failure."""

    identity: str
    s: int
    degree: int
    validity_degree: int
    residual: tuple = field(default_factory=tuple)

    @property
    def passed(self):
        return not self.residual

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.identity} s={self.s} truncation={self.degree} "
            f"checked-degree<={self.validity_degree} "
            f"residual-terms={len(self.residual)}"
        )


def _residual_tuple(series):
    return tuple((exps, str(poly)) for exps, poly in series.nonzero_terms())


def _check_pde_args(s, degree):
    if s < 1:
        raise ValueError("s must be positive")
    if degree < s:
        raise ValueError("truncation degree must be at least s")


def verify_generating_pde(s, degree):
    """Check that the interleaved EGF truncation is annihilated by the
    mixed-derivative-minus-product operator, restricted to y = 0."""
    _check_pde_args(s, degree)
    result = pde_operator(s).apply_to_egf(f_polynomial, degree, interleaved_y_vars(s))
    return PdeReport(
        "fpolynomial-egf", s, degree, result.validity_degree, _residual_tuple(result)
    )


def verify_vertex_pde(s, degree):
    """Same check for the vertex-count EGF and its t-free operator."""
    _check_pde_args(s, degree)
    result = vertex_pde_operator(s).apply_to_egf(
        lambda k: TPoly(f_polynomial(k).coeffs[:1]), degree
    )
    return PdeReport(
        "vertex-egf", s, degree, result.validity_degree, _residual_tuple(result)
    )


def word_action_closed_form(k, e, w):
    """Closed form for a word operator acting on x^k y^e/(k! e!), after y = 0:
    the single term t^|w| x^d/d! with d = d_transform(k, w), present when e
    marks the BOTH positions of w and d is non-negative.

    Returns (present, d, |w|).  ``k`` and ``e`` hold one int per variable,
    or one integer column per variable, and then ``present`` and ``d`` are
    columns too.
    """
    d = d_transform(k, w)
    checks = [x >= 0 for x in d] + [a == b for a, b in zip(e, word_tilde(w))]
    return functools.reduce(and_, checks, True), d, word_weight(w)


def check_word_action(s, max_degree):
    """Exhaustively compare word-operator action on monomials of total
    degree <= max_degree against the closed form.  Returns mismatches
    (w, k, e), word by word, each word's monomials with k lexicographic,
    then e.

    A word operator is one monomial c t^p d^o, so on x^K/K! it gives the
    single term c t^p x^(K-o)/(K-o)! when K >= o and zero otherwise; the
    y = 0 restriction keeps that term only when its y exponents vanish.
    Each word is checked on all monomials at once: the exponents are one
    integer column per variable, and ``word_action_closed_form`` takes the
    columns.  The two sides agree when their validity degrees (total less
    o, total less |w|) and their presence agree and, where both are
    present, their exponents, their powers of t and the coefficients c and
    1 do.  Monomials of total below o are skipped.
    """
    rows = np.array(bounded_exponents(2 * s - 1, max_degree), dtype=np.int64)
    rows = rows.reshape(-1, 2 * s - 1)
    k, e = tuple(rows[:, :s].T), tuple(rows[:, s:].T)
    exps = interleave(k, e)
    total = rows.sum(axis=1)
    bad = []
    for w in all_words(s - 1):
        [((t_pow, orders), c)] = word_operator(s, w).terms.items()
        order = sum(orders)
        out = tuple(map(sub, exps, orders))
        # interleaved layout: x exponents at even positions, y at odd
        checks = [x >= 0 for x in out] + [y == 0 for y in out[1::2]]
        kept = functools.reduce(and_, checks)
        present, d, p = word_action_closed_form(k, e, w)
        differ = functools.reduce(or_, map(ne, out[::2], d), (t_pow != p) | (c != 1))
        wrong = (total >= order) & (
            (order != len(w)) | (kept != present) | (kept & present & differ)
        )
        bad.extend((w, tuple(row[:s]), tuple(row[s:])) for row in rows[wrong].tolist())
    return bad


def check_operator_expansion(s):
    """The sum of all word operators equals the expanded interaction product."""
    total = DiffOperator(2 * s - 1)
    for w in all_words(s - 1):
        total = total + word_operator(s, w)
    return total == interaction_product(s)


def check_transform_round_trip(max_s, max_part):
    """r_w(d_w(k) + 1) == k for every word and every k with bounded parts.

    Each transform runs once per word on the whole grid of k, passed as one
    integer column per part; failures come back in word-then-k order.  The
    values run from -2 to max_part + 2, so the grid takes the smallest
    signed dtype that holds -(max_part + 3): the work goes with the bytes.
    """
    dtype = np.min_scalar_type(-(max_part + 3))
    bad = []
    for s in range(1, max_s + 1):
        grid = np.indices((max_part + 1,) * s, dtype=dtype).reshape(s, -1)
        k = tuple(grid)
        for w in all_words(s - 1):
            d = d_transform(k, w)
            back = r_transform(tuple(x + 1 for x in d), w)
            wrong = np.logical_or.reduce([b != a for a, b in zip(k, back)])
            bad.extend((s, w, tuple(row)) for row in grid.T[wrong].tolist())
    return bad
