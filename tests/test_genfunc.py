import functools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod
from operator import and_
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcladder import clear_caches, genfunc, words
from gcladder.genfunc import (
    DiffOperator,
    PdeReport,
    TPoly,
    TruncatedSeries,
    _f_polynomial_reduced,
    bounded_exponents,
    check_operator_expansion,
    check_transform_round_trip,
    check_word_action,
    f_polynomial,
    f_vector,
    interaction_product,
    interleaved_y_vars,
    pde_operator,
    verify_generating_pde,
    verify_vertex_pde,
    word_operator,
)
from gcladder.ladder import compositions_of, face_census
from gcladder.words import BOTH, RIGHT, all_words, child_composition, interleave, word_weight

EXPECTED_FVECTORS = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "fvectors.json"


@pytest.fixture(scope="module")
def expected_fvectors():
    # the file is only read
    entries = json.loads(EXPECTED_FVECTORS.read_text())["entries"]
    assert len(entries) == 513
    return entries


compositions = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).map(
    tuple
)


def _from_cuts(cuts):
    # cuts[i] says whether a part ends after the (i+1)-th unit
    parts, run = [], 1
    for cut in cuts:
        if cut:
            parts.append(run)
            run = 1
        else:
            run += 1
    return tuple(parts + [run])


# every composition with n <= 8 (n - 1 cut flags per composition of n)
compositions_n8 = st.lists(st.booleans(), max_size=7).map(_from_cuts)


@functools.lru_cache(maxsize=None)
def per_word_f_polynomial(comp):
    """Reference: the paper's recursion, one word at a time."""
    if not comp:
        return TPoly.ONE
    acc = TPoly.ZERO
    for w in all_words(len(comp) - 1):
        acc = acc + per_word_f_polynomial(child_composition(comp, w)).shift(word_weight(w))
    return acc


# The dense series path: the whole truncated series is built and pushed
# through an operator term by term.  It is the reference the target-first
# checks are compared against.  The f-polynomials and the closed form are
# read through ``genfunc`` at call time, so a monkeypatched library
# function reaches the reference too.


def _factorials(exps):
    return prod(factorial(e) for e in exps)


def fpolynomial_egf(num_vars, degree):
    """Truncated EGF of f-polynomials: coefficient of x^k is F_k(t)/k!."""
    terms = {
        exps: genfunc.f_polynomial(exps) * Fraction(1, _factorials(exps))
        for exps in bounded_exponents(num_vars, degree)
    }
    return TruncatedSeries(num_vars, degree, terms)


def at_t_zero(series):
    """Specialize every coefficient polynomial at t = 0."""
    terms = {k: TPoly((p.coefficient(0),)) for k, p in series.terms.items()}
    return TruncatedSeries(series.num_vars, series.validity_degree, terms)


def vertex_count_egf(num_vars, degree):
    """Truncated EGF of vertex counts (the t = 0 specialization)."""
    return at_t_zero(fpolynomial_egf(num_vars, degree))


def monomial_series(s, k, e):
    """The single scaled monomial (x*y)^(k*e)/(k*e)! in interleaved layout."""
    exps = interleave(tuple(k), tuple(e))
    poly = TPoly.ONE * Fraction(1, _factorials(exps))
    return TruncatedSeries(2 * s - 1, sum(exps), {exps: poly})


def restrict_to_zero(series, zero_vars):
    """Set the listed variables to zero and project them out."""
    zero = set(zero_vars)
    keep = [i for i in range(series.num_vars) if i not in zero]
    terms = {
        tuple(exps[i] for i in keep): poly
        for exps, poly in series.terms.items()
        if not any(exps[z] for z in zero)
    }
    return TruncatedSeries(len(keep), series.validity_degree, terms)


def dense_apply(op, series):
    """Act termwise; the result's validity degree drops by the order."""
    m = op.order
    if m > series.validity_degree:
        raise ValueError(
            f"operator order {m} exceeds series validity degree {series.validity_degree}"
        )
    validity = series.validity_degree - m
    acc = {}
    for (t_pow, orders), coeff in op.terms.items():
        for exps, poly in series.terms.items():
            if any(o > e for o, e in zip(orders, exps)):
                continue
            new_exps = tuple(e - o for e, o in zip(exps, orders))
            if sum(new_exps) > validity:
                continue
            factor = _factorials(exps) // _factorials(new_exps)
            contrib = (poly * (coeff * factor)).shift(t_pow)
            acc[new_exps] = acc.get(new_exps, TPoly.ZERO) + contrib
    return TruncatedSeries(op.num_vars, validity, acc)


def expected_word_action(s, k, e, w):
    """``word_action_closed_form`` on one monomial, as a series whose
    validity degree is the monomial's total less one per letter (every
    letter contributes exactly one derivative)."""
    present, d, t_pow = genfunc.word_action_closed_form(tuple(k), tuple(e), w)
    terms = {tuple(d): TPoly.ONE.shift(t_pow) * Fraction(1, _factorials(d))} if present else {}
    return TruncatedSeries(s, sum(k) + sum(e) - len(w), terms)


def dense_word_action(s, max_degree):
    """Reference for ``check_word_action``: each word operator pushed through
    single-monomial series."""
    bad = []
    yv = interleaved_y_vars(s)
    for w in all_words(s - 1):
        op = word_operator(s, w)
        for k in bounded_exponents(s, max_degree):
            for e in bounded_exponents(s - 1, max_degree - sum(k)):
                if op.order > sum(k) + sum(e):
                    continue
                got = restrict_to_zero(dense_apply(op, monomial_series(s, k, e)), yv)
                if got != expected_word_action(s, k, e, w):
                    bad.append((w, k, e))
    return bad


def memo_entries(comp):
    """Reference for a cold ``f_polynomial(comp)``: the compositions it
    computes, found word by word.  The top composition counts as given and
    every child as the smaller of itself and its reverse; the empty
    composition counts too."""
    seen, todo = {comp}, [comp]
    while todo:
        parent = todo.pop()
        for w in all_words(len(parent) - 1) if parent else ():
            child = child_composition(parent, w)
            key = min(child, child[::-1])
            if key not in seen:
                seen.add(key)
                todo.append(key)
    return len(seen)


class TestTPoly:
    def test_normalization(self):
        assert TPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert TPoly((0,)).is_zero

    def test_arithmetic(self):
        p = TPoly((1, 1))
        q = TPoly((2, 0, 3))
        assert (p + q).coeffs == (3, 1, 3)
        assert (p * q).coeffs == (2, 2, 3, 3)
        assert (p - p).is_zero
        assert p.shift(2).coeffs == (0, 0, 1, 1)
        assert (p * Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1, 2))

    def test_evaluation(self):
        p = TPoly((7, 11, 6, 1))
        assert p(0) == 7 and p(1) == 25

    def test_str_highest_first(self):
        assert str(TPoly((7, 11, 6, 1))) == "t^3 + 6 t^2 + 11 t + 7"
        assert str(TPoly()) == "0"


class TestFPolynomial:
    def test_known_values(self):
        assert f_vector((1, 1, 1)) == (7, 11, 6, 1)
        assert f_vector((1, 1)) == (2, 1)
        assert f_vector((2, 1)) == (3, 3, 1)
        assert f_vector((4,)) == (1,)
        assert f_vector(()) == (1,)

    def test_single_part_always_one(self):
        for m in range(8):
            assert f_vector((m,)) == (1,)

    def test_zeros_reduce(self):
        assert f_polynomial((2, 0, 1)) == f_polynomial((2, 1))

    @given(compositions)
    @settings(deadline=None)
    def test_reversal_invariance(self, comp):
        assert f_polynomial(comp) == f_polynomial(tuple(reversed(comp)))

    @given(compositions)
    @settings(deadline=None)
    def test_euler_relation(self, comp):
        assert f_polynomial(comp)(-1) == 1

    def test_counts_match_enumeration(self):
        for n in range(1, 5):
            for comp in compositions_of(n):
                census = face_census(comp)
                poly = f_polynomial(comp)
                assert poly(0) == census.get(0, 0)
                assert poly(1) == sum(census.values())

    @given(compositions_n8)
    @settings(deadline=None)
    def test_merged_recursion_equals_per_word_sum(self, comp):
        assert f_polynomial(comp) == per_word_f_polynomial(comp)

    @pytest.mark.parametrize(
        "comp", [(1,) * 8, (2, 3, 2, 1), (1,) * 10], ids=["ones8", "2-3-2-1", "ones10"]
    )
    def test_cold_call_visits_each_child_once(self, comp):
        # 50, 60 and 150 entries.  (2,3,2,1) is larger than its reverse, so
        # it covers a top composition that is computed and memoized as given.
        clear_caches()
        f_polynomial(comp)
        assert _f_polynomial_reduced.cache_info().misses == memo_entries(comp)

    # Every composition with n <= 9, and to n = 12 (the ``fvector`` bound)
    # in CI, from one memo; the packed word counts reach their widest slots
    # at n = 12 (s = 12 parts, 18 bits a weight).
    @pytest.mark.parametrize(
        "n", [*range(1, 10), *(pytest.param(n, marks=pytest.mark.ci) for n in (10, 11, 12))]
    )
    def test_leading_coefficient_and_degree(self, n):
        for comp in compositions_of(n):
            coeffs = f_polynomial(comp).coeffs
            assert sum((-1) ** i * f for i, f in enumerate(coeffs)) == 1, comp
            assert len(coeffs) - 1 == (n * n - sum(p * p for p in comp)) // 2, comp
            assert coeffs[-1] == 1, comp

    # The expected f-vectors of perfbench (every composition with n <= 9,
    # and (10) and (11)), each from a cold memo: n <= 7 here, n = 8-11 in CI.
    @pytest.mark.parametrize(
        "n", [*range(1, 8), *(pytest.param(n, marks=pytest.mark.ci) for n in (8, 9, 10, 11))]
    )
    def test_cold_f_vectors_match_the_expected_file(self, n, expected_fvectors):
        entries = [e for e in expected_fvectors if sum(e["composition"]) == n]
        assert len(entries) == (2 ** (n - 1) if n <= 9 else 1)
        for entry in entries:
            clear_caches()  # each composition starts from an empty memo
            got = f_vector(tuple(entry["composition"]))
            assert got == tuple(int(c) for c in entry["coefficients"]), entry["composition"]


class TestSeries:
    def test_exponential_truncation(self):
        series = fpolynomial_egf(1, 5)
        for m in range(6):
            assert series.coefficient((m,)) == TPoly.ONE * Fraction(
                1, __import__("math").factorial(m)
            )

    def test_pair_coefficient(self):
        series = fpolynomial_egf(2, 2)
        assert series.coefficient((1, 1)) == TPoly((2, 1))

    def test_triple_coefficient(self):
        series = fpolynomial_egf(3, 3)
        assert series.coefficient((1, 1, 1)) == TPoly((7, 11, 6, 1))

    def test_validity_guard(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 1, {(1, 1): TPoly.ONE})

    def test_restriction_is_index_map(self):
        series = TruncatedSeries(
            3, 3, {(1, 0, 2): TPoly.ONE, (1, 1, 1): TPoly.ONE}
        )
        restricted = restrict_to_zero(series, [1])
        assert restricted.num_vars == 2
        assert restricted.coefficient((1, 2)) == TPoly.ONE
        assert restricted.is_zero is False
        assert restricted.coefficient((1, 1)) == TPoly.ZERO

    def test_interleaved_restriction_recovers_plain_series(self):
        assert restrict_to_zero(fpolynomial_egf(5, 4), interleaved_y_vars(3)) == (
            fpolynomial_egf(3, 4)
        )

    def test_vertex_series_is_t0(self):
        e2 = vertex_count_egf(2, 3)
        assert e2.coefficient((1, 1)) == TPoly((2,))

    def test_bounded_exponents_match_product_filter(self):
        for num_vars in range(5):
            for max_total in range(-1, 6):
                want = [
                    exps
                    for exps in product(range(max_total + 1), repeat=num_vars)
                    if sum(exps) <= max_total
                ]
                assert bounded_exponents(num_vars, max_total) == want

    def test_bounded_exponents_match_recursive_definition(self):
        def reference(num_vars, max_total):
            if max_total < 0:
                return []
            if num_vars == 0:
                return [()]
            return [
                (first,) + rest
                for first in range(max_total + 1)
                for rest in reference(num_vars - 1, max_total - first)
            ]

        for num_vars, max_total in [(1, 9), (3, 8), (5, 12), (6, 7)]:
            assert bounded_exponents(num_vars, max_total) == reference(num_vars, max_total)


class TestOperators:
    def test_identity(self):
        series = fpolynomial_egf(2, 3)
        assert dense_apply(DiffOperator.identity(2), series) == series

    def test_partial_on_monomial(self):
        series = TruncatedSeries(2, 3, {(2, 1): TPoly.ONE})
        out = dense_apply(DiffOperator.partial(2, 0), series)
        assert out.coefficient((1, 1)) == TPoly((2,))
        assert out.validity_degree == 2

    def test_t_times(self):
        series = TruncatedSeries(1, 1, {(1,): TPoly((3,))})
        out = dense_apply(DiffOperator.t_times(1), series)
        assert out.coefficient((1,)) == TPoly((0, 3))

    def test_order_refusal(self):
        series = fpolynomial_egf(2, 1)
        heavy = DiffOperator.partial(2, 0) * DiffOperator.partial(2, 1)
        with pytest.raises(ValueError, match="order"):
            dense_apply(heavy, series)

    @pytest.mark.parametrize("zero_vars", [(), (1,), (0, 2)])
    def test_apply_to_egf_matches_dense(self, zero_vars):
        # rational coefficients and t powers, which the PDE operators lack
        d = [DiffOperator.partial(3, v) for v in range(3)]
        t = DiffOperator.t_times(3)
        op = Fraction(1, 2) * t * d[0] * d[1] - Fraction(2, 3) * d[2] * d[2] + t * t
        want = restrict_to_zero(dense_apply(op, fpolynomial_egf(3, 5)), zero_vars)
        assert op.apply_to_egf(f_polynomial, 5, zero_vars) == want
        with pytest.raises(ValueError, match="out of range"):
            op.apply_to_egf(f_polynomial, 5, (3,))

    def test_operators_commute(self):
        a = DiffOperator.partial(3, 0)
        b = DiffOperator.t_times(3) * DiffOperator.partial(3, 2)
        assert a * b == b * a

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_expansion_identity(self, s):
        assert check_operator_expansion(s)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_expansion_acts_identically(self, s):
        series = fpolynomial_egf(2 * s - 1, 4)
        total = DiffOperator(2 * s - 1)
        for w in all_words(s - 1):
            total = total + word_operator(s, w)
        assert dense_apply(total, series) == dense_apply(interaction_product(s), series)

    def test_word_operator_orders(self):
        # BOTH consumes a y derivative and a factor of t; RIGHT/UP consume
        # one x derivative each
        assert word_operator(2, ((1, 1),)).order == 1
        assert word_operator(2, ((1, 0),)).order == 1
        assert word_operator(3, ((1, 0), (0, 1))).order == 2
        # the closed form expected_word_action relies on
        for s in range(1, 5):
            for w in all_words(s - 1):
                assert word_operator(s, w).order == len(w)

    def test_word_action_closed_form_spot(self):
        # a BOTH word hitting its matching monomial
        s, k, e, w = 2, (1, 1), (1,), ((1, 1),)
        got = restrict_to_zero(
            dense_apply(word_operator(s, w), monomial_series(s, k, e)),
            interleaved_y_vars(s),
        )
        want = expected_word_action(s, k, e, w)
        assert got == want and not want.is_zero

    def test_word_action_zero_when_marks_differ(self):
        s, k, e, w = 2, (1, 1), (1,), ((1, 0),)
        got = restrict_to_zero(
            dense_apply(word_operator(s, w), monomial_series(s, k, e)),
            interleaved_y_vars(s),
        )
        assert got.is_zero


def _report(identity, s, degree, result):
    residual = tuple((exps, str(poly)) for exps, poly in result.nonzero_terms())
    return PdeReport(identity, s, degree, result.validity_degree, residual)


def dense_generating_report(s, degree):
    """Reference: the whole truncated EGF, pushed through the operator."""
    series = fpolynomial_egf(2 * s - 1, degree)
    result = restrict_to_zero(dense_apply(genfunc.pde_operator(s), series), interleaved_y_vars(s))
    return _report("fpolynomial-egf", s, degree, result)


def dense_vertex_report(s, degree):
    result = dense_apply(genfunc.vertex_pde_operator(s), vertex_count_egf(s, degree))
    return _report("vertex-egf", s, degree, result)


def without_last_monomial(make_operator):
    def broken(s):
        op = make_operator(s)
        last = max(op.terms)
        return DiffOperator(op.num_vars, {k: c for k, c in op.terms.items() if k != last})

    return broken


class TestPde:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_generating_identity(self, s):
        report = verify_generating_pde(s, 5)
        assert report.passed and report.validity_degree == 5 - s

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_vertex_identity(self, s):
        report = verify_vertex_pde(s, 5)
        assert report.passed

    @pytest.mark.parametrize("s", [4, 5])
    def test_identities_at_degree_8(self, s):
        assert verify_generating_pde(s, 8).passed
        assert verify_vertex_pde(s, 8).passed

    @pytest.mark.parametrize("broken", [None, "operator", "f_polynomial"])
    @pytest.mark.parametrize(
        "check, dense, operator_name",
        [
            (verify_generating_pde, dense_generating_report, "pde_operator"),
            (verify_vertex_pde, dense_vertex_report, "vertex_pde_operator"),
        ],
    )
    def test_target_first_matches_dense(self, check, dense, operator_name, broken, monkeypatch):
        if broken == "operator":
            make = without_last_monomial(getattr(genfunc, operator_name))
            monkeypatch.setattr(genfunc, operator_name, make)
        elif broken == "f_polynomial":
            # one extra face in every composition of 3
            def patched(k, true=genfunc.f_polynomial):
                return true(k) + (TPoly.ONE if sum(k) == 3 else TPoly.ZERO)

            monkeypatch.setattr(genfunc, "f_polynomial", patched)
        for s in range(1, 4):
            for degree in range(s, 7):
                want = dense(s, degree)
                assert check(s, degree) == want
                if broken is None or degree == 6:
                    assert want.passed == (broken is None)

    def test_each_input_is_looked_up_once(self, monkeypatch):
        # pde_operator(3) at degree 8: 56 targets x 10 monomials, 335
        # distinct exponent vectors
        calls = Counter()

        def counting(k, true=genfunc.f_polynomial):
            calls[k] += 1
            return true(k)

        monkeypatch.setattr(genfunc, "f_polynomial", counting)
        report = verify_generating_pde(3, 8)
        assert sum(calls.values()) == len(calls) == 335
        assert report == dense_generating_report(3, 8) and report.passed

    def test_wrong_operator_reports_residual(self):
        # dropping the interaction product must leave a nonzero residual
        series = fpolynomial_egf(3, 4)
        lead = DiffOperator.identity(3)
        for v in (0, 2):
            lead = lead * DiffOperator.partial(3, v)
        result = restrict_to_zero(dense_apply(lead, series), interleaved_y_vars(2))
        assert not result.is_zero

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            verify_generating_pde(3, 2)


@pytest.mark.parametrize("s, degree", [(2, 6), (3, 6), (4, 4)], ids=["(2,6)", "(3,6)", "(4,4)"])
def test_word_action_matches_dense(s, degree, monkeypatch):
    assert check_word_action(s, degree) == dense_word_action(s, degree) == []
    true = genfunc.word_action_closed_form

    # faults in the closed form, each on ints and on columns alike
    def off_in_t(k, e, w):  # one power of t off wherever k_1 = 2
        present, d, t_pow = true(k, e, w)
        return present, d, t_pow + (k[0] == 2)

    def off_in_d(k, e, w):  # d_1 one lower wherever k_1 = 2
        present, d, t_pow = true(k, e, w)
        return present, (d[0] - (k[0] == 2), *d[1:]), t_pow

    def dropped(k, e, w):  # the term dropped wherever d_1 = 0, presence only
        present, d, t_pow = true(k, e, w)
        return present & (d[0] != 0), d, t_pow

    for broken, blamed in [
        (off_in_t, lambda w, k: k[0] == 2),
        (off_in_d, lambda w, k: k[0] == 2),
        (dropped, lambda w, k: words.d_transform(k, w)[0] == 0),
    ]:
        monkeypatch.setattr(genfunc, "word_action_closed_form", broken)
        bad = check_word_action(s, degree)
        assert bad and bad == dense_word_action(s, degree)
        assert all(blamed(w, k) for w, k, _ in bad)


@pytest.mark.parametrize("s, degree, index", [(3, 6, 7), (4, 4, 20)], ids=["(3,6)", "(4,4)"])
def test_word_action_reports_like_a_per_word_scan_across_blocks(s, degree, index, monkeypatch):
    # blocks of two words, and a closed form one power of t off for one
    # word past the first block, wherever k_1 = 1
    monkeypatch.setattr(genfunc, "BLOCK_ENTRIES", 2 * len(bounded_exponents(2 * s - 1, degree)))
    target = list(all_words(s - 1))[index]
    true = genfunc.word_action_closed_form

    def broken(k, e, w):
        present, d, t_pow = true(k, e, w)
        return present, d, t_pow + same_word(w, target) * (k[0] == 1)

    monkeypatch.setattr(genfunc, "word_action_closed_form", broken)
    bad = check_word_action(s, degree)
    assert bad and bad == dense_word_action(s, degree)
    assert {w for w, _, _ in bad} == {target}


def test_word_action_past_int8(monkeypatch):
    # exponents reach 130, past int8: the rows must take a wider dtype for
    # the fault at x^129 to show
    assert check_word_action(1, 130) == []
    true = genfunc.word_action_closed_form

    def off_in_t(k, e, w):
        present, d, t_pow = true(k, e, w)
        return present, d, t_pow + (k[0] == 129)

    monkeypatch.setattr(genfunc, "word_action_closed_form", off_in_t)
    assert check_word_action(1, 130) == [((), (129,), ())]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_word_action_closed_form_on_columns(s):
    # the closed form on integer columns equals it on each monomial
    rows = bounded_exponents(2 * s - 1, 4)
    cols = tuple(np.array(rows, dtype=np.int64).reshape(-1, 2 * s - 1).T)
    for w in all_words(s - 1):
        present, d, t_pow = genfunc.word_action_closed_form(cols[:s], cols[s:], w)
        want = [genfunc.word_action_closed_form(row[:s], row[s:], w) for row in rows]
        assert [p for p, _, _ in want] == present.tolist()
        assert [x for _, x, _ in want] == list(zip(*(c.tolist() for c in d)))
        assert {t for _, _, t in want} == {t_pow}


def test_transform_round_trip_check():
    assert check_transform_round_trip(4, 3) == []


@pytest.mark.ci
def test_transform_round_trip_check_to_s6():
    # 243 words x 15,625 values of k at s = 6, two words a block
    assert check_transform_round_trip(6, 4) == []


def test_transform_round_trip_peak_memory():
    # 81 words x 3,125 values of k at s = 5, in blocks of BLOCK_ENTRIES
    # values; all 81 words at once would peak at about 4 MB
    tracemalloc.start()
    try:
        assert check_transform_round_trip(5, 4) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def same_word(w, target):
    """Whether w is ``target``: a bool for a word of ints, a column for a
    block of words as flag columns (``genfunc._word_blocks``)."""
    if len(w) != len(target):
        return False
    return functools.reduce(and_, [(a == x) & (b == y) for (a, b), (x, y) in zip(w, target)], True)


def per_k_round_trip_scan(d_transform, max_s, max_part):
    """Reference for ``check_transform_round_trip``: one word and one k at a time."""
    return [
        (s, w, k)
        for s in range(1, max_s + 1)
        for w in all_words(s - 1)
        for k in product(range(max_part + 1), repeat=s)
        if words.r_transform(tuple(x + 1 for x in d_transform(k, w)), w) != k
    ]


def test_transform_round_trip_reports_like_a_per_k_scan(monkeypatch):
    # a d_transform that is wrong wherever k_1 = 2, on tuples and on columns
    def broken(k, w):
        return tuple(x + (i == 0) * (k[0] == 2) for i, x in enumerate(words.d_transform(k, w)))

    monkeypatch.setattr(genfunc, "d_transform", broken)
    want = per_k_round_trip_scan(broken, 3, 3)
    assert len(want) == sum(3 ** (s - 1) * 4 ** (s - 1) for s in range(1, 4))
    assert check_transform_round_trip(3, 3) == want

    # up to s = 5, wrong for one word only, in a block after the first
    target = (BOTH, RIGHT, BOTH, RIGHT)
    assert list(all_words(4)).index(target) >= genfunc.BLOCK_ENTRIES // 4**5

    def broken_word(k, w):
        wrong = same_word(w, target) * (k[-1] == 1)
        return tuple(x + (i == 1) * wrong for i, x in enumerate(words.d_transform(k, w)))

    monkeypatch.setattr(genfunc, "d_transform", broken_word)
    want = per_k_round_trip_scan(broken_word, 5, 3)
    assert len(want) == 4**4 and {w for _, w, _ in want} == {target}
    assert check_transform_round_trip(5, 3) == want


def test_transform_round_trip_past_int8(monkeypatch):
    # values reach max_part + 2 = 132, past int8; an int8 grid would wrap
    # k_1 = 129 to -127 and still close every round trip, silently
    assert check_transform_round_trip(2, 130) == []

    def broken(k, w):
        return tuple(x + (i == 0) * (k[0] == 129) for i, x in enumerate(words.d_transform(k, w)))

    monkeypatch.setattr(genfunc, "d_transform", broken)
    want = [
        (s, w, k)
        for s in (1, 2)
        for w in all_words(s - 1)
        for k in product(range(131), repeat=s)
        if k[0] == 129
    ]
    assert check_transform_round_trip(2, 130) == want
