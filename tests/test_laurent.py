from __future__ import annotations

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import coefficient_in_power, convolve_terms, determinant_3x3, random_unimodular, render_oracle
from weaklg.laurent import LaurentPolynomial, _times

import random


def exponents(nvars: int) -> st.SearchStrategy[tuple[int, ...]]:
    return st.tuples(*[st.integers(min_value=-3, max_value=3)] * nvars)


def laurent_polys(nvars: int) -> st.SearchStrategy[LaurentPolynomial]:
    coeff = st.integers(min_value=-9, max_value=9)
    return st.dictionaries(exponents(nvars), coeff, max_size=6).map(
        lambda d: LaurentPolynomial(nvars, d)
    )


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=6),
       st.dictionaries(st.integers(-4, 4), st.sampled_from([-2, -1, 1, 1, 1, 2, 3]), max_size=6))
def test_packed_product_by_coefficient_groups_matches_convolution(g: dict[int, int], f: dict[int, int]) -> None:
    # one-variable exponents are their own packed keys; f's coefficients
    # repeat, so most groups have several keys, and small signed
    # coefficients make sums cancel
    def vectors(keyed: dict[int, int]) -> dict[tuple[int, ...], int]:
        return {(k,): c for k, c in keyed.items() if c}

    out = _times(g, list(f.items()))
    # every sum kg + kf is kept, zero sums included
    assert set(out) == {kg + kf for kg in g for kf in f}
    assert vectors(out) == convolve_terms(vectors(g), vectors(f))


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
    with pytest.raises(ValueError, match="nvars must be a positive integer"):
        LaurentPolynomial(0, {})
    with pytest.raises(ValueError, match="has non-integer entries"):
        LaurentPolynomial(1, {(1.0,): 1})
    with pytest.raises(ValueError, match="coefficient 0.5 is not an integer"):
        LaurentPolynomial(1, {(1,): 0.5})
    with pytest.raises(ValueError, match="variable index 2 out of range for 2 variables"):
        LaurentPolynomial.variable(2, 2)


def test_equality_and_hash() -> None:
    f = LaurentPolynomial(2, {(1, -1): 2})
    g = LaurentPolynomial(2, {(1, -1): 2, (0, 0): 0})
    assert f == g
    assert hash(f) == hash(g)
    assert f != LaurentPolynomial(2, {(1, -1): 3})
    assert LaurentPolynomial.constant(2, 3) == 3 and f != 3 and LaurentPolynomial(2, {}) == 0
    assert f != "2*x*y^-1"  # __eq__ defers to the other operand, then == is identity
    with pytest.raises(AttributeError, match="cannot assign to or delete field '_terms' of a frozen LaurentPolynomial"):
        f._terms = {}
    with pytest.raises(AttributeError, match="cannot assign to or delete field '_terms' of a frozen LaurentPolynomial"):
        del f._terms
    assert f.render() == "2*x*y^-1"


def test_hash_agrees_across_every_way_of_building_an_equal_polynomial() -> None:
    from weaklg.expr import parse, to_laurent

    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, -1): -2, (-1, -1, 0): 3})
    built = [
        LaurentPolynomial(3, dict(reversed(list(f.terms.items())))),
        to_laurent(parse("x - 2*y/z + 3/(x*y)"), ("x", "y", "z")),
        copy.deepcopy(f),
        pickle.loads(pickle.dumps(f)),
    ]
    assert all(g == f and hash(g) == hash(f) for g in built)
    assert len({f, *built}) == 1


def test_arithmetic_small_example() -> None:
    x = LaurentPolynomial(1, {(1,): 1})
    one = LaurentPolynomial(1, {(0,): 1})
    f = (x + one) * (x - one)
    assert f == x * x - one
    assert 1 - f == -(f - 1)


def test_mixed_arity_arithmetic_rejected() -> None:
    f = LaurentPolynomial(1, {(1,): 1})
    g = LaurentPolynomial(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        _ = f + g
    with pytest.raises(TypeError, match="cannot combine LaurentPolynomial with str"):
        _ = f * "x"


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


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=4).flatmap(laurent_polys), st.integers(min_value=0, max_value=12))
def test_power_matches_repeated_multiplication(f: LaurentPolynomial, d: int) -> None:
    # exponents in [-3, 3] in 1-4 variables, so bases with negative and
    # lopsided exponent ranges; __mul__ keys monomials by tuples
    expected = LaurentPolynomial.one(f.nvars)
    for _ in range(d):
        expected = expected * f
    assert f**d == expected


@pytest.mark.parametrize("k", [14, 30])
def test_power_coefficients_are_multinomials(k: int) -> None:
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
    power = f**k
    assert len(power) == math.comb(k + 3, 3)
    fact = math.factorial
    for a in range(k + 1):
        for b in range(k + 1 - a):
            for c in range(k + 1 - a - b):
                expected = fact(k) // (fact(a) * fact(b) * fact(c) * fact(k - a - b - c))
                assert power.coefficient((a, b, c)) == expected


def test_powers_of_zero_and_of_one_term() -> None:
    zero = LaurentPolynomial(2, {})
    assert zero**0 == LaurentPolynomial.one(2)
    assert zero**5 == zero
    assert LaurentPolynomial.one(2) ** 7 == LaurentPolynomial.one(2)
    f = LaurentPolynomial(2, {(-2, 1): -3})
    assert f**7 == LaurentPolynomial(2, {(-14, 7): (-3) ** 7})
    assert f**0 == LaurentPolynomial.one(2)
    x = LaurentPolynomial.variable(2, 0)
    assert (x**100_000_000).support() == ((100_000_000, 0),)


def test_negative_power_rejected() -> None:
    f = LaurentPolynomial(1, {(1,): 1})
    with pytest.raises(ValueError):
        _ = f ** (-1)
    with pytest.raises(TypeError, match="exponent must be an integer"):
        _ = f ** 2.0


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
    for matrix in (((1,),), ((1, 0), (0, 1), (0, 0)), ((1, 0), (0,))):
        with pytest.raises(ValueError, match="matrix must be 2x2"):
            f.substitute_monomial(matrix)


@settings(deadline=None)
@given(laurent_polys(3), st.integers(min_value=0, max_value=2**32))
def test_substitute_monomial_preserves_constant_term(f: LaurentPolynomial, seed: int) -> None:
    m = random_unimodular(random.Random(seed))
    assert abs(determinant_3x3(m)) == 1
    assert f.substitute_monomial(m).constant_term() == f.constant_term()


def test_render_examples() -> None:
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    assert f.render() == "x + y + z + x^-1*y^-1*z^-1"
    assert LaurentPolynomial(1, {}).render() == "0"
    assert LaurentPolynomial(2, {(0, 0): -7}).render() == "-7"
    assert str(f) == f.render()
    assert repr(f) == "LaurentPolynomial(3, 'x + y + z + x^-1*y^-1*z^-1')"
    with pytest.raises(ValueError, match="need 3 variable names, got 2"):
        f.render(("u", "v"))
    # the zero polynomial renders before its names are checked
    assert LaurentPolynomial(2, {}).render(("u", "v", "w")) == "0"


def printable_polys(nvars: int) -> st.SearchStrategy[LaurentPolynomial]:
    """Polynomials with the zero polynomial, constants, coefficients +-1 and
    larger, and exponents 0, +-1 and large all likely."""
    exponent = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-1000, 1000))
    coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**30), 10**30))
    return st.dictionaries(st.tuples(*[exponent] * nvars), coeff, max_size=8).map(
        lambda d: LaurentPolynomial(nvars, d)
    )


@given(st.integers(min_value=1, max_value=4).flatmap(printable_polys), st.booleans())
def test_render_matches_the_signed_sum_oracle(f: LaurentPolynomial, own_names: bool) -> None:
    names = tuple(f"v{i}" for i in range(f.nvars)) if own_names else None
    assert f.render(names) == render_oracle(f, names)


def test_render_leading_negative_power_survives_round_trip() -> None:
    # a unary minus takes the whole factor, so "-x^4*y" reparses as -(x^4)*y
    from weaklg.expr import parse, to_laurent

    f = LaurentPolynomial(2, {(4, 1): -1, (0, 0): 2})
    text = f.render()
    assert text == "-x^4*y + 2"
    assert to_laurent(parse(text), f.default_names()) == f
    assert parse(text) == parse("-1*x^4*y + 2")


@given(laurent_polys(3))
def test_render_round_trips(f: LaurentPolynomial) -> None:
    from weaklg.expr import parse, to_laurent

    assert to_laurent(parse(f.render()), f.default_names()) == f


def test_default_names_small_and_large() -> None:
    assert LaurentPolynomial(1, {}).default_names() == ("x",)
    assert LaurentPolynomial(3, {}).default_names() == ("x", "y", "z")
    assert LaurentPolynomial(4, {}).default_names() == ("x1", "x2", "x3", "x4")
