from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import evaluate_exactly, random_equal_oracle
from weaklg.expr import (
    IDENTITY_PRIME,
    MAX_POWER_TERMS,
    MAX_TERM_PRODUCTS,
    Const,
    Diff,
    IdentityTestError,
    NotLaurentError,
    ParseError,
    Pow,
    Prod,
    Quot,
    Sum,
    Var,
    laurent_to_expr,
    parse,
    random_equal,
    render,
    substitute,
    _power_terms_bound,
    to_laurent,
    variables,
)
from weaklg.laurent import LaurentPolynomial


def test_parse_single_variable_and_constant() -> None:
    assert parse("x") == Var("x")
    assert parse("42") == Const(42)
    assert parse("-x") == Prod((Const(-1), Var("x")))


def test_parse_quotient_of_power() -> None:
    t = parse("(x+1)^2/(x*y*z)")
    assert isinstance(t, Quot)
    assert t.numerator == Pow(Sum((Var("x"), Const(1))), 2)
    assert t.denominator == Prod((Var("x"), Var("y"), Var("z")))


def test_parse_four_term_sum() -> None:
    t = parse("x+y+z+1/(x*y*z)")
    assert isinstance(t, Sum)
    assert len(t.terms) == 4


def test_power_binds_tighter_than_product_and_sum() -> None:
    env = {"x": Fraction(2), "y": Fraction(3)}
    assert evaluate_exactly(parse("x*y^2"), env) == 18
    assert evaluate_exactly(parse("x+y^2"), env) == 11
    assert evaluate_exactly(parse("(x*y)^2"), env) == 36


def test_unary_minus_binds_the_whole_power_atom() -> None:
    # the grammar hangs '^' off an atom, so -y^4 is (-y)^4
    env = {"y": Fraction(2)}
    assert evaluate_exactly(parse("-y^4"), env) == 16
    assert evaluate_exactly(parse("-1*y^4"), env) == -16


def test_subtraction_is_left_associative() -> None:
    env = {"a": Fraction(10), "b": Fraction(3), "c": Fraction(1)}
    assert evaluate_exactly(parse("a-b-c"), env) == 6
    assert evaluate_exactly(parse("a-b+c"), env) == 8


def test_negative_exponent_literal() -> None:
    assert parse("x^-2") == Pow(Var("x"), -2)
    assert parse("(x+y)^-1") == Pow(Sum((Var("x"), Var("y"))), -1)


def test_parse_error_positions() -> None:
    with pytest.raises(ParseError) as err:
        parse("x+")
    assert "offset 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("x$")
    assert "offset 1" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(x+1")
    with pytest.raises(ParseError):
        parse("x^y")


def test_variables_sorted_and_deduplicated() -> None:
    assert variables(parse("z*y + x - w^2 + x")) == ("w", "x", "y", "z")
    assert variables(Const(3)) == ()


def expr_trees() -> st.SearchStrategy:
    names = st.sampled_from(("x", "y", "z"))
    leaves = st.one_of(
        st.integers(min_value=-9, max_value=9).map(Const),
        names.map(Var),
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(
            st.tuples(children, children).map(lambda p: Sum(p)),
            st.tuples(children, children).map(lambda p: Diff(p[0], p[1])),
            st.tuples(children, children).map(lambda p: Prod(p)),
            st.tuples(children, children).map(lambda p: Quot(p[0], p[1])),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
                lambda p: Pow(p[0], p[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(deadline=None)
@given(expr_trees())
def test_parse_render_identity(tree) -> None:
    # rendering flattens nested sums/products, so one round trip lands in
    # the parser's normal form; from there parse and render are inverse
    normal = parse(render(tree))
    assert parse(render(normal)) == normal
    env = {"x": Fraction(5), "y": Fraction(7), "z": Fraction(11)}
    try:
        expected = evaluate_exactly(tree, env)
    except ZeroDivisionError:
        return
    assert evaluate_exactly(normal, env) == expected


def test_to_laurent_of_table_style_quotient() -> None:
    # (x+1)^2/(x*y*z) = x/(y*z) + 2/(y*z) + 1/(x*y*z)
    f = to_laurent(parse("(x+1)^2/(x*y*z)"), ("x", "y", "z"))
    assert f == LaurentPolynomial(
        3, {(1, -1, -1): 1, (0, -1, -1): 2, (-1, -1, -1): 1}
    )


def test_to_laurent_cancels_to_zero() -> None:
    f = to_laurent(parse("x - x"), ("x",))
    assert f.support() == ()


def test_to_laurent_respects_variable_order() -> None:
    f = to_laurent(parse("x*y^2"), ("y", "x"))
    assert f == LaurentPolynomial(2, {(2, 1): 1})


def test_to_laurent_rejects_non_monomial_denominator() -> None:
    with pytest.raises(NotLaurentError) as err:
        to_laurent(parse("1/(x+1)"), ("x",))
    assert "x + 1" in str(err.value)
    with pytest.raises(NotLaurentError):
        to_laurent(parse("(x+y)^-1"), ("x", "y"))


def test_power_budget_is_checked_before_expanding() -> None:
    xyz = ("x", "y", "z")
    # C(40, 3) = 9880 terms pass the bound, C(41, 3) = 10660 do not
    assert _power_terms_bound(to_laurent(parse("x+y+z+1"), xyz), 37) <= MAX_POWER_TERMS
    with pytest.raises(ValueError, match="MAX_POWER_TERMS"):
        to_laurent(parse("1 + (x+y+z+1)^38"), xyz)
    with pytest.raises(ValueError, match="MAX_POWER_TERMS"):
        to_laurent(parse("(x+y)^" + "1" + "0" * 30), xyz)
    # a sparse base with a wide box: the multiset count C(23, 3) = 1771 bounds it
    assert len(to_laurent(parse("(x^100+y^100+z^100+1)^20"), xyz)) == 1771
    assert len(to_laurent(parse("(x*y^5)^100000"), xyz)) == 1


def test_product_budget_is_checked_before_expanding() -> None:
    xyz = ("x", "y", "z")
    # (x+y+z+1)^16 has C(19, 3) = 969 terms and (x+y+z+1)^20 has 1771: two of
    # the first may be multiplied, two of the second may not
    for text in ("(x+y+z+1)^20*(x+y+z+1)^20", "(x+y+z+1)^37*(x+y+z+1)^37", "x*(x+y+z+1)^20*(x+y+z+1)^20"):
        with pytest.raises(ValueError, match="MAX_TERM_PRODUCTS"):
            to_laurent(parse(text), xyz)
    assert 969 * 969 <= MAX_TERM_PRODUCTS < 1771 * 1771
    assert to_laurent(parse("(x+y+1)^3*(x-y)^3"), xyz) == to_laurent(parse("((x+y+1)*(x-y))^3"), xyz)


@settings(deadline=None, max_examples=60)
@given(
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-2, 2).filter(bool), max_size=5),
    st.integers(0, 5),
)
def test_power_terms_bound_covers_the_expansion(terms: dict, k: int) -> None:
    base = LaurentPolynomial(2, terms)
    assert len(base**k) <= _power_terms_bound(base, k)


def test_to_laurent_rejects_undeclared_variable() -> None:
    with pytest.raises(ValueError):
        to_laurent(parse("x+w"), ("x", "y"))


def test_substitute_is_simultaneous() -> None:
    swapped = substitute(parse("a+b"), {"a": Var("b"), "b": Var("a")})
    assert swapped == Sum((Var("b"), Var("a")))


def test_substitute_leaves_unbound_names_alone() -> None:
    t = parse("a*c")
    assert substitute(t, {"a": Const(2)}) == Prod((Const(2), Var("c")))
    assert substitute(t, {}) == t


def test_substitute_folds_exact_constant_quotients() -> None:
    assert substitute(parse("a/b"), {"a": Const(6), "b": Const(3)}) == Const(2)
    kept = substitute(parse("a/b"), {"a": Const(1), "b": Const(3)})
    assert kept == Quot(Const(1), Const(3))


@given(expr_trees())
def test_substitute_with_empty_bindings_preserves_value(tree) -> None:
    # substitution folds constant subtrees, so compare values, not shapes
    out = substitute(tree, {})
    env = {"x": Fraction(5), "y": Fraction(7), "z": Fraction(11)}
    try:
        expected = evaluate_exactly(tree, env)
    except ZeroDivisionError:
        return
    assert evaluate_exactly(out, env) == expected


def test_random_equal_accepts_binomial_square() -> None:
    r = random_equal(parse("(x+y)^2"), parse("x^2+2*x*y+y^2"))
    assert r.equal
    assert r.witness is None
    assert r.trials == 20


def test_random_equal_rejects_with_witness() -> None:
    r = random_equal(parse("x+y"), parse("x-y"))
    assert not r.equal
    assert r.witness is not None
    assert set(r.witness) == {"x", "y"}


def test_random_equal_is_deterministic_for_fixed_seed() -> None:
    a, b = parse("x+y"), parse("x-y")
    assert random_equal(a, b, seed=3) == random_equal(a, b, seed=3)


def test_random_equal_handles_removable_poles() -> None:
    # both sides undefined on x = y, equal elsewhere
    r = random_equal(parse("(x^2-y^2)/(x-y)"), parse("x+y"))
    assert r.equal


def test_random_equal_gives_up_when_nothing_is_defined() -> None:
    with pytest.raises(IdentityTestError):
        random_equal(parse("1/(x-x)"), parse("1"))


def test_random_equal_rejects_bad_parameters() -> None:
    with pytest.raises(ValueError):
        random_equal(parse("x"), parse("x"), trials=0)
    with pytest.raises(ValueError):
        random_equal(parse("x"), parse("x"), prime=12)


def test_laurent_to_expr_round_trip() -> None:
    f = LaurentPolynomial(2, {(1, -2): 3, (0, 0): -1})
    e = laurent_to_expr(f)
    assert to_laurent(e, ("x", "y")) == f
    named = laurent_to_expr(f, ("u", "v"))
    assert "u" in render(named)


@settings(deadline=None)
@given(expr_trees())
def test_random_equal_is_reflexive_when_defined(tree) -> None:
    try:
        r = random_equal(tree, tree, trials=4)
    except IdentityTestError:
        return
    assert r.equal


def _outcome(test, left, right, **kwargs):
    """(equal, trials, witness), or the message of IdentityTestError."""
    try:
        r = test(left, right, **kwargs)
    except IdentityTestError as err:
        return str(err)
    return (r.equal, r.trials, r.witness)


@st.composite
def shared_dags(draw):
    # substitute shares each bound subtree among every occurrence of its name
    tree = draw(expr_trees())
    bindings = draw(st.dictionaries(st.sampled_from(("x", "y")), expr_trees(), max_size=2))
    return substitute(tree, bindings)


# Small primes make points where some denominator vanishes common.
IDENTITY_PRIMES = st.sampled_from((5, 7, 11, 13, IDENTITY_PRIME))


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()), st.one_of(expr_trees(), shared_dags()),
       IDENTITY_PRIMES, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**16))
def test_random_equal_matches_the_pointwise_oracle(left, right, prime, trials, seed) -> None:
    kwargs = {"trials": trials, "seed": seed, "prime": prime}
    assert _outcome(random_equal, left, right, **kwargs) == _outcome(random_equal_oracle, left, right, **kwargs)


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()), IDENTITY_PRIMES, st.integers(min_value=0, max_value=2**16))
def test_random_equal_matches_the_oracle_on_perturbed_sides(tree, prime, seed) -> None:
    # x - x + tree is tree with a different shape; tree + x usually is not
    for other in (Sum((Diff(Var("x"), Var("x")), tree)), Sum((tree, Var("x")))):
        kwargs = {"trials": 5, "seed": seed, "prime": prime}
        assert _outcome(random_equal, tree, other, **kwargs) == _outcome(random_equal_oracle, tree, other, **kwargs)


@pytest.mark.parametrize(
    "left, right",
    [
        ("1/(1/(x-x))", "0"),
        ("(1/(x-x))^0", "1"),
        ("(1/(x-x))^-1", "0"),
        ("x/(1/(y-y))", "0"),
    ],
)
def test_random_equal_sees_poles_that_the_value_hides(left, right) -> None:
    # each left side is undefined everywhere although an outer operation
    # would cancel the inner zero denominator
    with pytest.raises(IdentityTestError):
        random_equal(parse(left), parse(right))
    with pytest.raises(IdentityTestError):
        random_equal_oracle(parse(left), parse(right))


def test_random_equal_witness_matches_the_oracle() -> None:
    left, right = parse("x/(y-1) + z"), parse("x/(y-1) + z + 1/(x*y*z)")
    for seed in range(5):
        assert random_equal(left, right, seed=seed) == random_equal_oracle(left, right, seed=seed)


def test_dags_built_by_substitute_work_like_trees() -> None:
    square = parse("(x+1)^2")
    shared = substitute(parse("a*a + a"), {"a": square})
    assert shared.terms[0].factors[0] is shared.terms[1]
    assert random_equal(shared, parse("(x+1)^4 + (x+1)^2")).equal
    assert to_laurent(shared, ("x",)) == to_laurent(parse("(x+1)^4 + (x+1)^2"), ("x",))
    assert variables(shared) == ("x",)


def test_long_chains_need_no_recursion() -> None:
    chain = parse("-".join(["x"] * 5000) + "+y")
    assert variables(chain) == ("x", "y")
    assert to_laurent(chain, ("x", "y")) == LaurentPolynomial(2, {(1, 0): -4998, (0, 1): 1})
    assert random_equal(chain, parse("-4998*x + y")).equal
