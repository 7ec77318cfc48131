from __future__ import annotations

import contextlib
import copy
import io
import operator
import pickle
import sys
import tracemalloc
import unittest.mock
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import _expr_to_fraction, _render, evaluate_exactly, expr_equal, expr_repr, parse_oracle, random_equal_oracle
from support import substitute as substitute_oracle
from weaklg import cli, expr
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
    parse,
    past_digit_limit,
    random_equal,
    render,
    substitute,
    _power_terms_bound,
    _power_work_bound,
    to_fraction,
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
    # a unary minus takes a whole factor, so -y^4 is -(y^4), and 2*-y^4 is -2*y^4
    env = {"y": Fraction(2)}
    assert evaluate_exactly(parse("-y^4"), env) == -16
    assert evaluate_exactly(parse("(-y)^4"), env) == 16
    assert evaluate_exactly(parse("2*-y^4"), env) == -32
    assert parse("-y^4*z") == parse("-1*y^4*z") == Prod((Const(-1), Pow(Var("y"), 4), Var("z")))


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


def test_digits_int_cannot_read_are_parse_errors() -> None:
    # str.isdigit accepts a superscript two, which int() does not
    for text, message in (("x^²", "expected an integer (offset 2)"), ("2²", "unexpected character '²' (offset 1)")):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
    assert parse("x²") == Var("x²")  # a letter followed by digits is a name
    assert parse("x^٣ + ٤٢") == Sum((Pow(Var("x"), 3), Const(42)))  # Arabic-Indic decimal digits


def _parsed(parser, text: str):
    """The tree, or the ParseError's message and offset."""
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.offset


@pytest.mark.parametrize(
    "text",
    [
        "", " ", "x", " \t x \n", "x y", "2x", "x+", "x++y", "x--y", "x-+y", "x^-y", "x ^ - 2", "x^--2", "x^",
        "(x", "(x))", "()", "-", "--x", "-(-x)", "-2^2", "-x^2*y", "(x+y)+z", "x+(y+z)", "(x*y)*z", "(x+y)-z+w",
        "2*-x^2", "-x^2^3", "(-x)^2", "x^-2*-y", "x*-",
        "x*y/z*w", "a-b+c-d", "x$", "x$+1", "1/(x*y*z)", "x1y2 + éa + Ωβ", "x\u00a0+\u2003y", "½", "x½",
        "(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, "-" * 100 + "x", "-" * 101 + "x",
    ],
)
def test_parse_matches_the_character_level_oracle_on_cases(text: str) -> None:
    assert _parsed(parse, text) == _parsed(parse_oracle, text)


@st.composite
def spaced_renderings(draw) -> str:
    # a rendered tree, with runs of whitespace put between characters
    text = render(draw(st.one_of(expr_trees(), shared_dags())))
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=6)))
    pieces = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    return draw(st.sampled_from([" ", "\t", "\n ", "\u2003"])).join(pieces)


@settings(deadline=None)
@given(st.one_of(spaced_renderings(), st.text(alphabet="xyz01²٣é+-*/^() \t", max_size=24)))
def test_parse_matches_the_character_level_oracle(text: str) -> None:
    assert _parsed(parse, text) == _parsed(parse_oracle, text)


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
        operands = st.lists(children, min_size=1, max_size=4).map(tuple)
        return st.one_of(
            operands.map(Sum),
            st.tuples(children, children).map(lambda p: Diff(p[0], p[1])),
            operands.map(Prod),
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
    for convert in (to_laurent, to_fraction):
        with pytest.raises(ValueError, match="variable_order contains duplicates"):
            convert(parse("x"), ("x", "x"))
        with pytest.raises(ValueError, match="variable_order must name at least one variable"):
            convert(parse("1"), ())


def test_to_laurent_rejects_non_monomial_denominator() -> None:
    with pytest.raises(NotLaurentError) as err:
        to_laurent(parse("1/(x+1)"), ("x",))
    assert "x + 1" in str(err.value)
    with pytest.raises(NotLaurentError):
        to_laurent(parse("(x+y)^-1"), ("x", "y"))
    with pytest.raises(ZeroDivisionError, match="negative power of identically zero base x - x"):
        to_fraction(parse("(x-x)^-2"), ("x",))


def test_a_tree_holding_a_non_node_is_refused() -> None:
    for walk in (render, variables, lambda e: to_laurent(e, ("x",))):
        with pytest.raises(TypeError, match="not an expression node: 3"):
            walk(Sum((Var("x"), 3)))


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


def test_power_work_budget_is_checked_before_expanding() -> None:
    xyz = ("x", "y", "z")
    # f^k multiplies f^j by f for j < k: 4 * C(40, 4) = 365,560 term
    # products for (x+y+z+1)^37, and 2 * (1 + 2 + ... + 1000) for (x+1)^1000
    assert _power_work_bound(to_laurent(parse("x+y+z+1"), xyz), 37) == 4 * 91390
    assert len(to_laurent(parse("(x+1)^999"), xyz)) == 1000
    for text in ("(x+1)^1000", "(x+1)^9999"):
        with pytest.raises(ValueError, match="MAX_TERM_PRODUCTS"):
            to_laurent(parse(text), xyz)
    assert _power_work_bound(to_laurent(parse("2*x*y"), xyz), 10**30) == 0


def test_product_budget_is_checked_before_expanding() -> None:
    xyz = ("x", "y", "z")
    # (x+y+z+1)^16 has C(19, 3) = 969 terms and (x+y+z+1)^20 has 1771: two of
    # the first may be multiplied, two of the second may not
    for text in ("(x+y+z+1)^20*(x+y+z+1)^20", "(x+y+z+1)^37*(x+y+z+1)^37", "x*(x+y+z+1)^20*(x+y+z+1)^20"):
        with pytest.raises(ValueError, match="MAX_TERM_PRODUCTS"):
            to_laurent(parse(text), xyz)
    assert 969 * 969 <= MAX_TERM_PRODUCTS < 1771 * 1771
    assert to_laurent(parse("(x+y+1)^3*(x-y)^3"), xyz) == to_laurent(parse("((x+y+1)*(x-y))^3"), xyz)


def test_one_product_budget_covers_each_conversion() -> None:
    # (x+1)^3 forms 2 * (1 + 2 + 3) = 12 term products and (x+y)*(x-y) 4, all
    # charged to one total per call; in n > 3 variables each counts (n + 8)/11
    xyz = ("x", "y", "z")
    text = "(x+1)^3 + (y+1)^3 + (x+y)*(x-y)"
    expected = to_laurent(parse(text), xyz)
    with unittest.mock.patch.object(expr, "MAX_TERM_PRODUCTS", 28):
        assert to_laurent(parse(text), xyz) == expected
        for refused, names in ((text, (*xyz, "w")), ("(x+1)^3 + (y+1)^3 + (z+1)^3", xyz)):
            for convert in (to_laurent, to_fraction):
                with pytest.raises(ValueError, match="MAX_TERM_PRODUCTS"):
                    convert(parse(refused), names)


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
    assert r.equal and bool(r)
    assert r.witness is None
    assert r.trials == 20
    # products of more than eight factors are reduced eight, then seven, at a time
    for n in (9, 15, 16, 23):
        assert random_equal(parse("*".join(["x", "y"] * n)), parse(f"x^{n}*y^{n}")).equal
        assert not random_equal(parse("*".join(["x", "y"] * n)), parse(f"x^{n}*y^{n + 1}")).equal


def test_random_equal_rejects_with_witness() -> None:
    r = random_equal(parse("x+y"), parse("x-y"))
    assert not r.equal and not bool(r)
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


def test_parse_of_a_named_rendering_round_trips() -> None:
    f = LaurentPolynomial(2, {(1, -2): 3, (0, 0): -1})
    assert to_laurent(parse(f.render()), ("x", "y")) == f
    assert render(parse(f.render(("u", "v")))) == "3*u*v^-2 - 1"
    assert to_laurent(parse(f.render(("u", "v"))), ("u", "v")) == f


@settings(deadline=None)
@given(expr_trees())
def test_random_equal_is_reflexive_when_defined(tree) -> None:
    try:
        r = random_equal(tree, tree, trials=4)
    except IdentityTestError:
        return
    assert r.equal


def _outcome(test, left, right, prime, **kwargs):
    """(equal, trials, witness), or the message of IdentityTestError, with
    points drawn mod prime: the oracle takes it as an argument, random_equal
    reads it from expr.IDENTITY_PRIME."""
    extra = {} if test is random_equal else {"prime": prime}
    try:
        with unittest.mock.patch.object(expr, "IDENTITY_PRIME", prime):
            r = test(left, right, **kwargs, **extra)
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


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()), IDENTITY_PRIMES, st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2**16), st.integers(min_value=1, max_value=4))
def test_random_equal_batches_change_no_outcome(tree, prime, trials, seed, batch) -> None:
    # the points are drawn from one stream in one order, however many are
    # evaluated at once; small primes make redrawn points common
    kwargs = {"trials": trials, "seed": seed, "prime": prime}
    for other in (Sum((Diff(Var("x"), Var("x")), tree)), Sum((tree, Var("x")))):
        expected = _outcome(random_equal_oracle, tree, other, **kwargs)
        with unittest.mock.patch.object(expr, "IDENTITY_BATCH", batch):
            assert _outcome(random_equal, tree, other, **kwargs) == expected


def test_random_equal_memory_does_not_grow_with_trials() -> None:
    left, right = parse("x+y+z"), parse("z+y+x")
    peaks = []
    for trials in (expr.IDENTITY_BATCH, 4 * expr.IDENTITY_BATCH, 16 * expr.IDENTITY_BATCH):
        tracemalloc.start()
        assert random_equal(left, right, trials=trials) == expr.IdentityResult(True, trials, None)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # all points at once held about 370 bytes per trial
    assert peaks[1] < 1.5 * peaks[0]
    # a batch drawn while the last one was still held raised the peak by
    # about 45% from the second batch on
    assert max(peaks[0], peaks[2]) < 1.1 * min(peaks[0], peaks[2])


def test_random_equal_draws_what_is_left_once_a_point_is_undefined() -> None:
    # a batch needs one modular inverse per quotient whatever its size, so a
    # side undefined everywhere is not evaluated one point at a time
    counts = []
    batch = expr._test_batch

    def counted(program, names, rng, count, *rest):
        counts.append(count)
        return batch(program, names, rng, count, *rest)

    with unittest.mock.patch.object(expr, "_test_batch", counted):
        with pytest.raises(IdentityTestError, match="exhausted 24 draws"):
            random_equal(parse("1/(x-x)"), parse("x"), trials=1)
        assert random_equal(parse("x+y"), parse("y+x"), trials=2500).equal
    assert counts == [1, 23, 1000, 1000, 500]


def test_random_equal_refuses_work_past_its_budget() -> None:
    left, right = parse("x+y+z"), parse("z+y+x")
    steps = 7  # x, y, z, x+y, x+y+z, z+y, z+y+x
    most = (expr.MAX_IDENTITY_WORK // steps - 16) // 8
    assert random_equal(left, right, trials=100).equal
    with pytest.raises(ValueError, match="the limit MAX_IDENTITY_WORK"):
        random_equal(left, right, trials=most + 1)
    # 416 draws of 7 point-steps each, and 7 steps in each of up to two batches
    work = (8 * 50 + 16) * steps + 2 * steps * expr.IDENTITY_STEP_WORK
    with unittest.mock.patch.object(expr, "MAX_IDENTITY_WORK", work):
        assert random_equal(left, right, trials=50).equal
        with pytest.raises(ValueError, match="the limit MAX_IDENTITY_WORK"):
            random_equal(left, right, trials=51)


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


XYZ = ("x", "y", "z")


def _fraction_or_error(walk, tree):
    try:
        return walk(tree, XYZ)
    except ZeroDivisionError as err:
        return str(err)


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()))
def test_render_matches_the_recursive_oracle(tree) -> None:
    assert render(tree) == _render(tree, 0)


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()),
       st.dictionaries(st.sampled_from(XYZ), st.one_of(expr_trees(), shared_dags()), max_size=3))
def test_substitute_matches_the_recursive_oracle(tree, bindings) -> None:
    assert substitute(tree, bindings) == substitute_oracle(tree, bindings)


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()))
def test_to_fraction_matches_the_recursive_oracle(tree) -> None:
    # the same quotient, or the same ZeroDivisionError message; the oracle
    # has no budgets, so a power to_fraction refuses is not compared
    try:
        fraction = _fraction_or_error(to_fraction, tree)
    except ValueError:
        assume(False)
    assert fraction == _fraction_or_error(_expr_to_fraction, tree)


def test_substitute_shares_what_it_shares_and_renders_it_once() -> None:
    shared = substitute(parse("a*a + a"), {"a": parse("(x+1)^2")})
    rebuilt = substitute(shared, {"x": Var("y")})
    assert rebuilt.terms[0].factors[0] is rebuilt.terms[0].factors[1] is rebuilt.terms[1]
    assert render(rebuilt) == "(y + 1)^2*(y + 1)^2 + (y + 1)^2"
    # equal subtrees written out twice are rebuilt once, as one object
    square = substitute(parse("(x+1)*(x+1)"), {"x": Var("y")})
    assert square.factors[0] is square.factors[1]


@pytest.mark.parametrize(
    ("op", "text", "fraction"),
    [
        ("-", " - ", ({(1,): -4998}, {(0,): 1})),
        ("/", "/", ({(1,): 1}, {(4999,): 1})),
        ("*", "*", ({(5000,): 1}, {(0,): 1})),
    ],
)
def test_5000_term_chains_need_no_recursion(op: str, text: str, fraction) -> None:
    # x-x-... and x/x/... parse as chains 5,000 levels deep, x*x*... as one
    # product of 5,000 factors
    chain = parse(op.join(["x"] * 5000))
    assert render(chain) == text.join(["x"] * 5000)
    assert render(substitute(chain, {"x": Var("y")})) == text.join(["y"] * 5000)
    assert substitute(chain, {"x": Var("y")}) == parse(op.join(["y"] * 5000))
    assert substitute(chain, {"x": Const(1)}) == Const({"-": -4998, "/": 1, "*": 1}[op])
    num, den = to_fraction(chain, ("x",))
    assert (num, den) == (LaurentPolynomial(1, fraction[0]), LaurentPolynomial(1, fraction[1]))


def test_5000_term_chains_compare_hash_and_print_without_recursion() -> None:
    text = "-".join(["x"] * 5000)
    left, right = parse(text), parse(text)
    assert left is not right and left == right and hash(left) == hash(right)
    assert left != parse(text + "-x") and left != parse(text[:-1] + "y")
    assert repr(left) == "Diff(left=" * 4999 + "Var(name='x')" + ", right=Var(name='x'))" * 4999


def test_node_equality_sees_the_shape() -> None:
    x, y, z = Var("x"), Var("y"), Var("z")
    assert Sum((x, y, z)) != Sum((Sum((x, y)), z))
    assert Sum((x, y)) != Prod((x, y)) and Pow(x, 2) != Pow(x, 3) and Sum((x, y)) != Sum((x, y, z))
    assert Sum((x, y)) == Sum((Var("x"), Var("y"))) and Const(2) != Var("x")
    # a sum or product of one operand is a node of its own
    assert Prod((Sum((x,)), y)) != Prod((x, y)) and Sum((Prod((x,)),)) != Sum((x,))


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()), st.one_of(expr_trees(), shared_dags()))
def test_node_equality_hash_and_repr_match_the_recursive_oracles(tree, other) -> None:
    # a copy is equal, and the parser's normal form, the constant-folded
    # tree and an unrelated tree are equal exactly when the oracle says so
    assert repr(tree) == expr_repr(tree)
    for right in (copy.deepcopy(tree), parse(render(tree)), substitute(tree, {}), other):
        assert (tree == right) == expr_equal(tree, right)
        if tree == right:
            assert hash(tree) == hash(right)
    assert tree == copy.deepcopy(tree)


def test_past_digit_limit_is_exact_at_the_limit() -> None:
    limit = sys.get_int_max_str_digits()
    assert past_digit_limit(10, limit - 1) == 0
    assert past_digit_limit(10, limit) == limit
    assert past_digit_limit(3, 9000) == 0  # 4295 digits under the default 4300
    assert past_digit_limit(1, 10**30) == past_digit_limit(0, 10**30) == 0
    assert past_digit_limit(2, 10**30) == limit


@pytest.mark.parametrize("text", ["3^20000000", "(2^99999)^99999", "(10^4000*x+1)^2", "(x+y)^2*(-2*y)^30000000"])
def test_powers_past_the_digit_limit_are_refused_before_computing(text: str) -> None:
    for walk in (to_laurent, to_fraction):
        with pytest.raises(ValueError, match=r"digits \(the limit sys.get_int_max_str_digits\(\)"):
            walk(parse(text), XYZ)


def test_substitute_leaves_constant_powers_past_the_digit_limit_unfolded() -> None:
    seven = {"a": Const(7)}
    assert substitute(parse("a^30000000 + b"), seven) == Sum((Pow(Const(7), 30000000), Var("b")))
    assert substitute(parse("a^5000"), seven) == Const(7**5000)  # 4226 digits
    assert substitute(parse("a^-30000000"), {"a": Const(-1)}) == Const(1)


def test_parse_builds_one_node_per_name_constant_and_power() -> None:
    first, y, second = parse("x^2*y*x^2").factors
    assert first is second and type(first.base) is Var and type(y) is Var
    x = parse("x + 2*x*x^3 - 2")
    assert x.left.terms[0] is x.left.terms[1].factors[1] is x.left.terms[1].factors[2].base
    assert x.left.terms[1].factors[0] is x.right  # one Const(2)
    two = parse("-2 + 2*x")
    assert two.terms[0] == Const(-2) and two.terms[1].factors[0] == Const(2)
    minus = parse("-x*-y")
    assert minus.factors[0] is minus.factors[2].factors[0]  # one Const(-1)


def test_each_tree_is_compiled_once() -> None:
    builds, walked = [], []
    build, operands = expr._Program.__init__, expr._operands

    def counted_build(self, *roots):
        builds.append(roots)
        build(self, *roots)

    def counted_operands(node):
        walked.append(node)
        return operands(node)

    with unittest.mock.patch.object(expr._Program, "__init__", counted_build), \
            unittest.mock.patch.object(expr, "_operands", counted_operands):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["series", "--poly", "x+y+1/(x*y)"]) == 0
        assert len(builds) == 1  # variables() and to_laurent() share the program
        a, b = parse("(x+y)^2/x"), parse("x + 2*y + y^2*x^-1")
        builds.clear()
        assert to_laurent(a, XYZ) == to_laurent(b, XYZ)
        assert [roots for roots in builds] == [(a,), (b,)]
        walked.clear()
        assert random_equal(a, b).equal and a != b
        assert render(a) == "(x + y)^2/x" and variables(b) == ("x", "y")
        assert len(builds) == 2 and walked == []


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()), st.sampled_from((repr, render, lambda e: to_laurent(e, XYZ))))
def test_shared_nodes_and_compiled_programs_are_invisible(tree, compile_first) -> None:
    # the drawn tree against its uncompiled copy, and the parse of its text
    # (which shares leaves and powers) against a second parse
    twin = copy.deepcopy(tree)
    text = render(tree)
    for tree, fresh in ((tree, twin), (parse(text), parse(text))):
        try:
            compile_first(tree)
        except ValueError:  # to_laurent refused, after compiling
            pass
        assert getattr(tree, "_program", None) is not None
        assert getattr(fresh, "_program", None) is None
        assert pickle.dumps(tree) == pickle.dumps(fresh)
        for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert getattr(copied, "_program", None) is None and vars(copied).keys() == vars(fresh).keys()
        assert "_program" not in vars(tree) and vars(tree) == vars(fresh)
        assert expr._head(tree) == expr._head(fresh)
        assert repr(tree) == repr(fresh) == expr_repr(fresh)
        assert render(tree) == render(fresh)
        assert tree == fresh and hash(tree) == hash(fresh)
        for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert copied == tree and hash(copied) == hash(tree) and repr(copied) == repr(tree)


@settings(deadline=None)
@given(st.one_of(expr_trees(), shared_dags()), st.one_of(expr_trees(), shared_dags()), st.booleans())
def test_random_equal_merges_the_two_programs_into_the_joint_one(left, right, compile_first) -> None:
    # the merged program is the one a walk of both trees lists: the same
    # nodes, operands, last reads and roots, so the same step count and
    # MAX_IDENTITY_WORK charge
    if compile_first:
        render(left), render(right)
    for a, b in ((left, right), (right, left), (left, left)):
        merged, walked = expr._joint(a, b), expr._Program(a, b)
        assert merged.roots == walked.roots
        assert len(merged.nodes) == len(walked.nodes) and all(map(operator.is_, merged.nodes, walked.nodes))
        assert merged.operands == walked.operands and merged.last == walked.last
        assert merged.number == walked.number
    # merging copied what it extends: each side's program is unchanged
    assert expr._compiled(left).nodes == expr._Program(left).nodes
    assert expr._compiled(left).last == expr._Program(left).last


def laurent_factors() -> st.SearchStrategy:
    terms = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-3, 3).filter(bool),
                            max_size=4)
    return terms.map(lambda t: LaurentPolynomial(2, t))


@settings(deadline=None)
@given(st.lists(st.one_of(laurent_factors(), laurent_factors().filter(lambda f: len(f) == 1)), min_size=1,
                max_size=6))
def test_to_laurent_folds_one_term_factors_as_the_pairwise_product_would(factors) -> None:
    tree = Prod(tuple(parse(f.render(("x", "y"))) for f in factors))
    assert to_laurent(tree, ("x", "y")) == reduce(operator.mul, factors)


@pytest.mark.parametrize("names", [XYZ, (*XYZ, "w")])
def test_one_term_factors_are_charged_one_term_product_each(names) -> None:
    # each factor after the first is one term product, charged before the
    # product is formed: in 4 variables one counts 12/11 of one
    limit, weight = 10, max(len(names), 3) + 8
    most = 11 * limit // weight + 1  # factors admitted: 11 in 3 variables, 10 in 4
    factors = ["x", "2", "y", "z"]
    for k in (most, most + 1):
        text = "*".join(factors[j % 4] for j in range(k))
        with unittest.mock.patch.object(expr, "MAX_TERM_PRODUCTS", limit):
            if k == most:
                assert to_laurent(parse(text), names) == to_laurent(parse(text), names)
                continue
            with pytest.raises(ValueError) as err:
                to_laurent(parse(text), names)
        assert str(err.value) == (f"a product of 1 and 1 terms in {len(names)} variables may take this conversion"
                                  f" past {limit} term products (the limit MAX_TERM_PRODUCTS)")
    # x*y*z is folded with 2 term products, then multiplied into x+1 with 2
    expected = to_laurent(parse("x^2*y*z + x*y*z"), XYZ)
    with unittest.mock.patch.object(expr, "MAX_TERM_PRODUCTS", 4):
        assert to_laurent(parse("(x+1)*x*y*z"), XYZ) == expected
    with unittest.mock.patch.object(expr, "MAX_TERM_PRODUCTS", 3):
        with pytest.raises(ValueError, match="a product of 1 and 2 terms"):
            to_laurent(parse("(x+1)*x*y*z"), XYZ)


def test_the_highest_power_of_four_terms_admitted_is_the_37th() -> None:
    assert len(to_laurent(parse("(x+y+z+1)^37"), XYZ)) == 9880
    with pytest.raises(ValueError, match="MAX_POWER_TERMS"):
        to_laurent(parse("(x+y+z+1)^38"), XYZ)
