from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import coefficient_in_power, determinant_3x3, random_unimodular
from weaklg.laurent import LaurentPolynomial, is_probable_prime

import random


def exponents(nvars: int) -> st.SearchStrategy[tuple[int, ...]]:
    return st.tuples(*[st.integers(min_value=-3, max_value=3)] * nvars)


def laurent_polys(nvars: int) -> st.SearchStrategy[LaurentPolynomial]:
    coeff = st.integers(min_value=-9, max_value=9)
    return st.dictionaries(exponents(nvars), coeff, max_size=6).map(
        lambda d: LaurentPolynomial(nvars, d)
    )


def test_zero_coefficients_are_dropped() -> None:
    f = LaurentPolynomial(2, {(1, 0): 3, (0, 1): 0})
    assert f.support() == ((1, 0),)
    assert f.coefficient((0, 1)) == 0


def test_terms_accepts_pairs_but_rejects_duplicates() -> None:
    f = LaurentPolynomial(1, [((1,), 2), ((0,), 3)])
    assert f.coefficient((1,)) == 2
    with pytest.raises(ValueError):
        LaurentPolynomial(1, [((1,), 2), ((1,), 3)])


def test_exponent_arity_is_checked() -> None:
    with pytest.raises(ValueError):
        LaurentPolynomial(2, {(1,): 1})


def test_equality_and_hash() -> None:
    f = LaurentPolynomial(2, {(1, -1): 2})
    g = LaurentPolynomial(2, {(1, -1): 2, (0, 0): 0})
    assert f == g
    assert hash(f) == hash(g)
    assert f != LaurentPolynomial(2, {(1, -1): 3})


def test_arithmetic_small_example() -> None:
    x = LaurentPolynomial(1, {(1,): 1})
    one = LaurentPolynomial(1, {(0,): 1})
    f = (x + one) * (x - one)
    assert f == x * x - one


def test_mixed_arity_arithmetic_rejected() -> None:
    f = LaurentPolynomial(1, {(1,): 1})
    g = LaurentPolynomial(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        _ = f + g


@given(laurent_polys(2), laurent_polys(2), laurent_polys(2))
def test_ring_axioms(f: LaurentPolynomial, g: LaurentPolynomial, h: LaurentPolynomial) -> None:
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(laurent_polys(2))
def test_additive_inverse(f: LaurentPolynomial) -> None:
    assert (f - f).support() == ()
    assert f + (-f) == f - f


@settings(deadline=None)
@given(laurent_polys(2), st.integers(min_value=0, max_value=6))
def test_power_matches_repeated_multiplication(f: LaurentPolynomial, d: int) -> None:
    expected = LaurentPolynomial(2, {(0, 0): 1})
    for _ in range(d):
        expected = expected * f
    assert f**d == expected


def test_negative_power_rejected() -> None:
    f = LaurentPolynomial(1, {(1,): 1})
    with pytest.raises(ValueError):
        _ = f ** (-1)


def test_constant_term_of_quartic_simplex_power() -> None:
    # (x + y + z + 1/(xyz))^4 picks up the zero monomial only from
    # choosing each summand once: 4!/(1! 1! 1! 1!) = 24.
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    assert (f**4).constant_term() == 24
    terms = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}
    assert coefficient_in_power(terms, 4, (0, 0, 0)) == 24


def test_coefficient_against_multinomial_count() -> None:
    # coefficient of x*y in (x + y + z + 1)^3: choose x once, y once,
    # the constant once, so 3!/(1! 1! 1!) = 6
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
    cube = f**3
    assert cube.coefficient((1, 1, 0)) == math.factorial(3)
    assert cube.coefficient((3, 0, 0)) == 1
    assert cube.coefficient((1, 1, 1)) == 6
    assert cube.coefficient((4, 0, 0)) == 0


def test_substitute_monomial_identity() -> None:
    f = LaurentPolynomial(2, {(2, -1): 5, (0, 1): -3})
    ident = ((1, 0), (0, 1))
    assert f.substitute_monomial(ident) == f


def test_substitute_monomial_swap_and_shear() -> None:
    f = LaurentPolynomial(2, {(1, -1): 1})
    swap = ((0, 1), (1, 0))
    assert f.substitute_monomial(swap) == LaurentPolynomial(2, {(-1, 1): 1})
    # x -> x, y -> x*y sends the exponent (1,-1) to (1,-1)+(-1)*(1,1)... i.e.
    # new exponent = M^T applied columnwise; verify against a hand expansion:
    # f(x, x*y) = x * (x*y)^-1 = y^-1
    shear = ((1, 1), (0, 1))
    g = f.substitute_monomial(shear)
    assert g == LaurentPolynomial(2, {(0, -1): 1})


def test_substitute_monomial_rejects_singular_and_non_unimodular() -> None:
    f = LaurentPolynomial(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        f.substitute_monomial(((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        f.substitute_monomial(((2, 0), (0, 1)))


@settings(deadline=None)
@given(laurent_polys(3), st.integers(min_value=0, max_value=2**32))
def test_substitute_monomial_preserves_constant_term(f: LaurentPolynomial, seed: int) -> None:
    m = random_unimodular(random.Random(seed))
    assert abs(determinant_3x3(m)) == 1
    assert f.substitute_monomial(m).constant_term() == f.constant_term()


def test_evaluate_mod_example() -> None:
    f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
    assert f.evaluate_mod((2,), 7) == (2 + 4) % 7  # 1/2 = 4 mod 7


def test_evaluate_mod_rejects_zero_coordinates_and_composite_moduli() -> None:
    f = LaurentPolynomial(1, {(-1,): 1})
    with pytest.raises(ValueError):
        f.evaluate_mod((0,), 7)
    with pytest.raises(ValueError):
        f.evaluate_mod((2,), 9)


@given(laurent_polys(2), laurent_polys(2), st.tuples(st.integers(1, 100), st.integers(1, 100)))
def test_evaluate_mod_is_a_ring_homomorphism(
    f: LaurentPolynomial, g: LaurentPolynomial, point: tuple[int, int]
) -> None:
    p = 101
    lhs = (f * g).evaluate_mod(point, p)
    rhs = f.evaluate_mod(point, p) * g.evaluate_mod(point, p) % p
    assert lhs == rhs
    assert (f + g).evaluate_mod(point, p) == (f.evaluate_mod(point, p) + g.evaluate_mod(point, p)) % p


def test_render_examples() -> None:
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    assert f.render() == "x + y + z + x^-1*y^-1*z^-1"
    assert LaurentPolynomial(1, {}).render() == "0"
    assert LaurentPolynomial(2, {(0, 0): -7}).render() == "-7"


def test_render_leading_negative_power_survives_round_trip() -> None:
    # a bare "-a^4" would reparse as (-a)^4, so the renderer must guard it
    from weaklg.expr import parse, to_laurent

    f = LaurentPolynomial(2, {(4, 1): -1, (0, 0): 2})
    text = f.render()
    assert text == "-1*x^4*y + 2"
    assert to_laurent(parse(text), f.default_names()) == f


@given(laurent_polys(3))
def test_render_round_trips(f: LaurentPolynomial) -> None:
    from weaklg.expr import parse, to_laurent

    assert to_laurent(parse(f.render()), f.default_names()) == f


def test_default_names_small_and_large() -> None:
    assert LaurentPolynomial(1, {}).default_names() == ("x",)
    assert LaurentPolynomial(3, {}).default_names() == ("x", "y", "z")
    assert LaurentPolynomial(4, {}).default_names() == ("x1", "x2", "x3", "x4")


def test_is_probable_prime_small_cases() -> None:
    assert is_probable_prime(2)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(2**61 + 1)
