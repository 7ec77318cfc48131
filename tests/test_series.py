from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import constant_term_series_naive, term_power
from weaklg.corpus import get_entry, load_corpus
from weaklg.expr import parse, to_laurent
from weaklg.laurent import LaurentPolynomial
from weaklg.series import (
    COEFFICIENT_WORK,
    MAX_SERIES_WORK,
    STEP_WORK,
    IntegerSeries,
    _work_bound,
    ci_period_closed_form,
    compare_series,
    constant_term_series,
    normalize_shift,
    shifted_series,
)

SIMPLEX = LaurentPolynomial(
    3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}
)


def table_poly(text: str) -> LaurentPolynomial:
    return to_laurent(parse(text), ("x", "y", "z"))


def small_polys() -> st.SearchStrategy[LaurentPolynomial]:
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.dictionaries(exps, st.integers(-4, 4), min_size=1, max_size=5).map(
        lambda d: LaurentPolynomial(2, d)
    )


def test_integer_series_validation() -> None:
    s = IntegerSeries((1, 0, 2))
    assert s.coeffs == (1, 0, 2)
    with pytest.raises(ValueError):
        IntegerSeries(())
    with pytest.raises(ValueError):
        IntegerSeries((1, 0.5))  # type: ignore[arg-type]


def test_integer_series_to_json_uses_decimal_strings() -> None:
    assert IntegerSeries((1, 0, -12)).to_json() == ["1", "0", "-12"]


def test_central_binomial_series() -> None:
    f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
    s = constant_term_series(f, 10)
    expected = tuple(math.comb(i, i // 2) if i % 2 == 0 else 0 for i in range(11))
    assert s.coeffs == expected


def test_quartic_simplex_series_matches_factorial_formula() -> None:
    s = constant_term_series(SIMPLEX, 12)
    for i in range(13):
        if i % 4:
            assert s.coeffs[i] == 0
        else:
            e = i // 4
            assert s.coeffs[i] == math.factorial(4 * e) // math.factorial(e) ** 4
    assert s.coeffs[:9] == (1, 0, 0, 0, 24, 0, 0, 0, 2520)


def test_published_series_for_index_one_degree_fourteen_entry() -> None:
    f = table_poly("(x+y+z+1)^2/x + (x+y+z+1)*(y+z+1)*(z+1)^2/(x*y*z)")
    s = constant_term_series(f, 6)
    assert s.coeffs == (1, 4, 48, 760, 13840, 273504, 5703096)


def test_zero_polynomial_has_trivial_series() -> None:
    assert constant_term_series(LaurentPolynomial(2, {}), 4).coeffs == (1, 0, 0, 0, 0)


def test_terms_must_be_positive() -> None:
    with pytest.raises(ValueError):
        constant_term_series(SIMPLEX, 0)
    with pytest.raises(ValueError):
        constant_term_series(SIMPLEX, -1)


@settings(deadline=None, max_examples=40)
@given(small_polys(), st.integers(min_value=1, max_value=6))
def test_pruned_agrees_with_naive(f: LaurentPolynomial, terms: int) -> None:
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


@st.composite
def skewed_polys(draw: st.DrawFn) -> LaurentPolynomial:
    # One wide coordinate with independent reach down and up (0..9 each),
    # the others within +-1: a packed key that carried between digits would
    # change the series.
    n = draw(st.integers(1, 4))
    wide = draw(st.integers(0, n - 1))
    down, up = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    exps = st.tuples(*(st.integers(-down, up) if c == wide else st.integers(-1, 1) for c in range(n)))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=6))
    return LaurentPolynomial(n, terms)


@settings(deadline=None, max_examples=150)
@given(skewed_polys(), st.integers(min_value=1, max_value=8))
def test_packed_keys_agree_with_naive_on_skewed_supports(f: LaurentPolynomial, terms: int) -> None:
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


@st.composite
def lopsided_polys(draw: st.DrawFn) -> LaurentPolynomial:
    # Each coordinate reaches up to 8 one way and at most 1 (often 0) the
    # other: the reflection -e of a kept monomial then reaches further than
    # any product does, so offsets that only covered products would let its
    # key borrow from the next digit.
    n = draw(st.integers(1, 4))
    ranges = []
    for _ in range(n):
        far, near = draw(st.integers(0, 8)), draw(st.integers(0, 1))
        ranges.append((-near, far) if draw(st.booleans()) else (-far, near))
    exps = st.tuples(*(st.integers(lo, hi) for lo, hi in ranges))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=7))
    return LaurentPolynomial(n, terms)


@settings(deadline=None, max_examples=200)
@given(lopsided_polys(), st.integers(min_value=1, max_value=9))
def test_reflected_keys_agree_with_naive_on_lopsided_supports(f: LaurentPolynomial, terms: int) -> None:
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


@pytest.mark.parametrize("terms", [1, 2, 3, 4])
def test_shortest_series_on_odd_and_even_truncations(terms: int) -> None:
    f = LaurentPolynomial(2, {(5, 0): 1, (-1, 1): 2, (0, -1): -1, (0, 0): 3, (-1, 0): 1})
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


def test_every_corpus_polynomial_matches_naive_expansion() -> None:
    for entry in load_corpus():
        for f in (entry.laurent(), *entry.alternate_laurents()):
            assert constant_term_series(f, 8).coeffs == constant_term_series_naive(f, 8), entry.id


@settings(deadline=None, max_examples=60)
@given(lopsided_polys(), st.integers(min_value=1, max_value=7))
def test_work_bound_covers_the_pruned_powers(f: LaurentPolynomial, terms: int) -> None:
    # sum over a < ceil(T/2) of |f^a restricted to its pruning box| * |f|
    n = f.nvars
    s_plus = [max(0, *(e[c] for e in f.terms)) for c in range(n)]
    s_minus = [max(0, *(-e[c] for e in f.terms)) for c in range(n)]
    work = 0
    for a in range((terms + 1) // 2):
        rem = terms - a
        kept = [
            e for e in term_power(dict(f.terms), a, n)
            if all(-rem * sp <= x <= rem * sm for x, sp, sm in zip(e, s_plus, s_minus))
        ]
        work += len(kept) * len(f.terms)
    assert work <= _work_bound(f, terms)


def test_work_budget_admits_the_corpus_at_thirty_terms_and_entry_one_at_thirty_six() -> None:
    for entry in load_corpus():
        for f in (entry.laurent(), *entry.alternate_laurents()):
            assert _work_bound(f - f.constant_term(), 30) <= MAX_SERIES_WORK, entry.id
    f = get_entry(1).laurent()
    assert _work_bound(f - f.constant_term(), 36) <= MAX_SERIES_WORK
    assert _work_bound(f - f.constant_term(), 60) > MAX_SERIES_WORK
    for entry_id in (15, 16, 17):
        assert _work_bound(get_entry(entry_id).laurent(), 40) <= MAX_SERIES_WORK, entry_id


def test_work_bound_counts_steps_and_coefficients_of_every_polynomial() -> None:
    zero, x = LaurentPolynomial(1, {}), LaurentPolynomial(1, {(1,): 1})
    for f in (zero, x):
        # ceil(T/2) steps and T+1 coefficients, at their cost in term products
        assert _work_bound(f, 9) >= 5 * STEP_WORK + 10 * COEFFICIENT_WORK
        assert _work_bound(f, 10**6) <= MAX_SERIES_WORK
        assert constant_term_series(f, 3).coeffs == (1, 0, 0, 0)
        with pytest.raises(ValueError, match="MAX_SERIES_WORK"):
            constant_term_series(f, 2 * 10**8)


def test_coordinate_with_zero_step_both_ways() -> None:
    # the last two coordinates never move, so their digits have width 1
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (-1, 0, 0): 1})
    g = LaurentPolynomial(3, {(2, 0, 0): 1, (-1, 0, 0): 1, (0, 0, 0): -1})
    one_variable = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
    assert constant_term_series(f, 10).coeffs == constant_term_series_naive(f, 10)
    assert constant_term_series(f, 10).coeffs == constant_term_series(one_variable, 10).coeffs
    assert constant_term_series(g, 9).coeffs == constant_term_series_naive(g, 9)


def test_single_monomial() -> None:
    assert constant_term_series(LaurentPolynomial(2, {(3, -2): 7}), 5).coeffs == (1, 0, 0, 0, 0, 0)
    assert constant_term_series(LaurentPolynomial(2, {(0, 0): -3}), 5).coeffs == tuple((-3) ** i for i in range(6))


def test_signed_coefficients_and_cancellation() -> None:
    # (x - 1/x)^(2k) has constant term (-1)^k C(2k, k)
    f = LaurentPolynomial(1, {(1,): 1, (-1,): -1})
    expected = tuple((-1) ** (i // 2) * math.comb(i, i // 2) if i % 2 == 0 else 0 for i in range(13))
    assert constant_term_series(f, 12).coeffs == expected
    # 2 + 1/x - 2x: the t^2 coefficient 2*2 + 2*(1*(-2)) cancels to zero
    # inside the step, and the origin has to come back in the next one
    g = LaurentPolynomial(1, {(0,): 2, (-1,): 1, (1,): -2})
    s = constant_term_series(g, 10)
    assert s.coeffs[2] == 0
    assert s.coeffs == constant_term_series_naive(g, 10)


def test_five_variable_cross() -> None:
    # sum_j (x_j + 1/x_j): phi(i) = sum over even n_1+...+n_5 = i of the
    # multinomial coefficient times prod_j C(n_j, n_j/2), which is
    # i! / prod_j ((n_j/2)!)^2
    n = 5
    f = LaurentPolynomial(n, {tuple(s if c == j else 0 for c in range(n)): 1 for j in range(n) for s in (1, -1)})
    terms = 8

    def expected(i: int) -> int:
        return sum(
            math.factorial(i) // math.prod(math.factorial(p // 2) ** 2 for p in parts)
            for parts in itertools.product(range(0, i + 1, 2), repeat=n)
            if sum(parts) == i
        )

    assert constant_term_series(f, terms).coeffs == tuple(expected(i) for i in range(terms + 1))
    assert constant_term_series(f, 6).coeffs == constant_term_series_naive(f, 6)


def test_closed_form_small_cases() -> None:
    assert ci_period_closed_form(3, (), 8).coeffs[:9] == (1, 0, 0, 0, 24, 0, 0, 0, 2520)
    assert ci_period_closed_form(4, (3,), 4).coeffs == (1, 0, 12, 0, 540)
    assert ci_period_closed_form(4, (4,), 2).coeffs == (1, 24, 2520)


def test_closed_form_factorial_identity() -> None:
    # ambient P^6, degrees (2,2,2): no leftover factor, so every index e
    # carries a_e = e! * (2e)!^3 / (e!)^7 = (2e)!^3 / (e!)^6
    s = ci_period_closed_form(6, (2, 2, 2), 4)
    for e in range(5):
        assert s.coeffs[e] == math.factorial(2 * e) ** 3 // math.factorial(e) ** 6
    assert s.coeffs[:4] == (1, 8, 216, 8000)
    # ambient P^4, one cubic: leftover factor of weight 2, step 2,
    # a_{2e} = (2e)! (3e)! / (e!)^5
    t = ci_period_closed_form(4, (3,), 8)
    for e in range(5):
        expected = math.factorial(2 * e) * math.factorial(3 * e) // math.factorial(e) ** 5
        assert t.coeffs[2 * e] == expected
    assert all(c == 0 for i, c in enumerate(t.coeffs) if i % 2)


def test_closed_form_validates_input() -> None:
    with pytest.raises(ValueError):
        ci_period_closed_form(3, (1,), 4)
    with pytest.raises(ValueError):
        ci_period_closed_form(4, (5,), 4)  # violates the anticanonical bound
    with pytest.raises(ValueError):
        ci_period_closed_form(0, (), 4)


def test_compare_series_match_and_prefix() -> None:
    a = IntegerSeries((1, 4, 48, 760))
    b = IntegerSeries((1, 4, 48, 760, 13840))
    r = compare_series(a, b, upto=3)
    assert r.matched and r.upto == 3 and r.first_mismatch is None
    assert r.to_json_dict()["matched"] is True


def test_compare_series_reports_first_mismatch() -> None:
    a = IntegerSeries((1, 4, 48, 760))
    b = IntegerSeries((1, 4, 49, 760))
    r = compare_series(a, b, upto=3)
    assert not r.matched
    assert r.first_mismatch == 2
    assert (r.left, r.right) == (48, 49)
    d = r.to_json_dict()
    assert d["first_mismatch"] == 2 and d["left"] == "48"


def test_compare_series_requires_enough_terms() -> None:
    a = IntegerSeries((1, 2))
    with pytest.raises(ValueError):
        compare_series(a, a, upto=5)


def test_shift_moves_between_conventions() -> None:
    # adding a constant c to the polynomial transforms the series by
    # phi'(n) = sum_k C(n,k) c^(n-k) phi(k); check against direct expansion
    f = table_poly("(x+y+z+1)^2/x + (x+y+z+1)*(y+z+1)*(z+1)^2/(x*y*z)")
    raw = constant_term_series(f, 6)
    c = raw.coeffs[1]
    assert c == 4
    centered = constant_term_series(f - LaurentPolynomial(3, {(0, 0, 0): c}), 6)
    assert shifted_series(centered, c) == raw
    assert normalize_shift(raw) == centered
    assert centered.coeffs == (1, 0, 32, 312, 5520, 91680, 1651640)


@given(
    st.tuples(st.just(1), st.integers(0, 9), st.integers(-9, 9), st.integers(-9, 9)),
    st.integers(min_value=-5, max_value=5),
)
def test_shift_round_trip(coeffs: tuple[int, ...], alpha: int) -> None:
    s = IntegerSeries(coeffs)
    assert normalize_shift(shifted_series(normalize_shift(s), alpha)) == normalize_shift(s)


def test_normalize_requires_unit_leading_coefficient() -> None:
    with pytest.raises(ValueError):
        normalize_shift(IntegerSeries((0, 1)))
    with pytest.raises(ValueError):
        normalize_shift(IntegerSeries((2, 4)))
