from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import grassmannian_polynomial_oracle
from weaklg import constructors
from weaklg.constructors import (
    ConstrainedModel,
    eliminate,
    grassmannian_hyperplane_factors,
    grassmannian_hyperplane_system,
    grassmannian_polynomial,
    grassmannian_variables,
    hori_vafa_ci,
    hori_vafa_variables,
    toric_polynomial,
    weighted_hypersurface_system,
)
from weaklg.expr import Const, Var, parse, random_equal, render, substitute, to_laurent
from weaklg.laurent import LaurentPolynomial
from weaklg.series import constant_term_series


def test_toric_polynomial_of_projective_space_fan() -> None:
    f = toric_polynomial([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    assert f == LaurentPolynomial(
        3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}
    )


def test_toric_polynomial_line_fan() -> None:
    assert toric_polynomial([(1,), (-1,)]) == LaurentPolynomial(1, {(1,): 1, (-1,): 1})


def test_toric_polynomial_rejects_duplicates_and_ragged_rays() -> None:
    with pytest.raises(ValueError, match="duplicate ray"):
        toric_polynomial([(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="rays have inconsistent dimension"):
        toric_polynomial([(1, 0), (1,)])
    with pytest.raises(ValueError, match="need at least one ray"):
        toric_polynomial([])


def test_toric_polynomial_is_permutation_equivariant() -> None:
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    shuffled = [rays[2], rays[0], rays[3], rays[1]]
    assert toric_polynomial(rays) == toric_polynomial(shuffled)


def test_hori_vafa_variables_layout() -> None:
    assert hori_vafa_variables(5, (2, 3)) == ("x11", "x21", "x22")
    assert hori_vafa_variables(4, (3,)) == ("x11", "x12", "y1")
    assert hori_vafa_variables(3, ()) == ("y1", "y2", "y3")


def test_hori_vafa_ci_matches_written_out_forms() -> None:
    cases = [
        (5, (2, 3), "(x11+1)^2*(x21+x22+1)^3/(x11*x21*x22)"),
        (4, (3,), "(x11+x12+1)^3/(x11*x12*y1) + y1"),
        (3, (), "y1 + y2 + y3 + 1/(y1*y2*y3)"),
        (4, (4,), "(x11+x12+x13+1)^4/(x11*x12*x13)"),
        (6, (2, 2, 2), "(x11+1)^2*(x21+1)^2*(x31+1)^2/(x11*x21*x31)"),
        (5, (2, 2), "(x11+1)^2*(x21+1)^2/(x11*x21*y1) + y1"),
        (4, (2,), "(x11+1)^2/(x11*y1*y2) + y1 + y2"),
    ]
    for ambient, degrees, text in cases:
        names = hori_vafa_variables(ambient, degrees)
        assert hori_vafa_ci(ambient, degrees) == to_laurent(parse(text), names)


def test_hori_vafa_ci_checks_its_data_once(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = []
    check = constructors._check_ci_data
    monkeypatch.setattr(constructors, "_check_ci_data", lambda *args: calls.append(args) or check(*args))
    hori_vafa_ci(5, (2, 2))
    assert calls == [(5, (2, 2))]


def test_hori_vafa_ci_validates_input() -> None:
    with pytest.raises(ValueError, match="all degrees must be >= 2"):
        hori_vafa_ci(4, (1,))
    with pytest.raises(ValueError, match=r"sum of degrees must be <= ambient dimension \(Fano condition\)"):
        hori_vafa_ci(3, (4,))
    with pytest.raises(ValueError, match="ambient dimension must be >= 1"):
        hori_vafa_ci(0, ())


def test_grassmannian_variables_row_major() -> None:
    assert grassmannian_variables(2, 5) == ("X11", "X12", "X21", "X22", "X31", "X32")
    assert grassmannian_variables(1, 2) == ("X11",)


def test_grassmannian_polynomial_smallest_case_is_projective_line() -> None:
    assert grassmannian_polynomial(1, 2) == LaurentPolynomial(1, {(1,): 1, (-1,): 1})


def test_grassmannian_polynomial_matches_longhand_ladder() -> None:
    longhand = (
        "X11 + X21/X11 + X12/X11 + X22/X12 + X31/X21 + X22/X21"
        " + X32/X22 + X41/X31 + X32/X31 + X42/X32 + X42/X41 + 1/X42"
    )
    names = grassmannian_variables(2, 6)
    f = grassmannian_polynomial(2, 6)
    assert f == to_laurent(parse(longhand), names)
    assert len(f.support()) == 12

    longhand5 = (
        "X11 + X21/X11 + X12/X11 + X22/X12 + X31/X21 + X22/X21"
        " + X32/X22 + X32/X31 + 1/X32"
    )
    f5 = grassmannian_polynomial(2, 5)
    assert f5 == to_laurent(parse(longhand5), grassmannian_variables(2, 5))
    assert len(f5.support()) == 9


@pytest.mark.parametrize("n", range(2, 9))
def test_grassmannian_polynomial_matches_the_term_by_term_oracle(n: int) -> None:
    for k in range(1, n):
        f, expected = grassmannian_polynomial(k, n), grassmannian_polynomial_oracle(k, n)
        assert f == expected
        names = grassmannian_variables(k, n)
        assert f.render(names) == expected.render(names)


def test_grassmannian_polynomial_validates_input() -> None:
    with pytest.raises(ValueError, match="need 1 <= k < N"):
        grassmannian_polynomial(0, 3)
    with pytest.raises(ValueError, match="need 1 <= k < N"):
        grassmannian_polynomial(3, 3)


def test_hyperplane_factors_cover_every_ladder_term_once() -> None:
    # the factors partition the ladder polynomial into hyperplane sections
    for k, n in ((2, 6), (2, 5), (1, 4)):
        factors = grassmannian_hyperplane_factors(k, n)
        assert len(factors) == n
        names = grassmannian_variables(k, n)
        total = LaurentPolynomial(len(names), {})
        for factor in factors:
            total = total + to_laurent(factor, names)
        assert total == grassmannian_polynomial_oracle(k, n)


def test_hyperplane_factors_written_forms_for_two_by_four_ladder() -> None:
    rendered = [render(f) for f in grassmannian_hyperplane_factors(2, 6)]
    assert rendered == [
        "X11",
        "X21/X11 + X22/X12",
        "X31/X21 + X32/X22",
        "X41/X31 + X42/X32",
        "1/X42",
        "X12/X11 + X22/X21 + X32/X31 + X42/X41",
    ]


def test_hyperplane_system_sections_prefix() -> None:
    m = grassmannian_hyperplane_system(2, 6, 5)
    assert m.variables == grassmannian_variables(2, 6)
    assert len(m.constraints) == 5
    assert [render(c) for c in m.constraints] == [
        render(f) for f in grassmannian_hyperplane_factors(2, 6)[:5]
    ]
    assert to_laurent(m.potential, m.variables) == grassmannian_polynomial(2, 6)


def test_hyperplane_system_accepts_zero_sections() -> None:
    m = grassmannian_hyperplane_system(1, 2, 0)
    assert m.constraints == ()
    assert to_laurent(m.potential, m.variables) == grassmannian_polynomial(1, 2)


def test_hyperplane_system_rejects_too_many_sections() -> None:
    with pytest.raises(ValueError, match="sections must be between 0 and 6"):
        grassmannian_hyperplane_system(2, 6, 7)
    with pytest.raises(ValueError, match="sections must be between 0 and 6"):
        grassmannian_hyperplane_system(2, 6, -1)


def test_constrained_model_validation() -> None:
    with pytest.raises(ValueError, match="model variables must be distinct"):
        ConstrainedModel(("u", "u"), (), Var("u"))
    with pytest.raises(ValueError, match="need fewer constraints than variables"):
        ConstrainedModel(("u",), (Var("u"),), Var("u"))  # nothing left free
    with pytest.raises(ValueError, match=r"constraint 0 uses undeclared variables \['w'\]"):
        ConstrainedModel(("u", "v"), (Var("w"),), Var("u"))  # undeclared name
    with pytest.raises(ValueError, match=r"potential uses undeclared variables \['w'\]"):
        ConstrainedModel(("u", "v"), (Var("u"),), Var("w"))


def test_constrained_model_json_round_trip() -> None:
    m = grassmannian_hyperplane_system(2, 5, 3)
    blob = json.dumps(m.to_json_dict(), sort_keys=True)
    again = ConstrainedModel.from_json_dict(json.loads(blob))
    assert again.variables == m.variables
    assert [render(c) for c in again.constraints] == [render(c) for c in m.constraints]
    assert render(again.potential) == render(m.potential)


def test_built_models_are_the_trees_their_json_text_parses_to() -> None:
    # k = 1 ladders have one-term factors, and a one-weight partition sums one variable
    models = [grassmannian_hyperplane_system(k, n, sections)
              for k, n, sections in ((1, 2, 0), (1, 4, 2), (1, 6, 4), (2, 4, 3), (2, 6, 5), (3, 6, 4), (4, 7, 2))]
    models += [weighted_hypersurface_system(weights, sum(partition), partition) for weights, partition in (
        ((1, 1, 3), (3,)), ((2, 1, 1), (1,)), ((1, 1, 1, 1, 3), (1, 1, 1, 3)), ((1, 1, 1, 2, 3), (1, 2, 3)))]
    for m in models:
        assert ConstrainedModel.from_json_dict(json.loads(json.dumps(m.to_json_dict()))) == m


def test_weighted_hypersurface_layout() -> None:
    m = weighted_hypersurface_system((1, 1, 1, 1, 3), 6, (1, 1, 1, 3))
    assert m.variables == ("y0", "y1", "y2", "y3", "y4")
    assert render(m.constraints[0]) == "y0*y1*y2*y3*y4^3"
    assert render(m.constraints[1]) == "y1 + y2 + y3 + y4"
    assert render(m.potential) == "y0 + y1 + y2 + y3 + y4"


def test_weighted_hypersurface_partition_must_be_trailing() -> None:
    with pytest.raises(ValueError, match=r"partition \(1, 1, 3, 1\) must match the trailing weights"):
        weighted_hypersurface_system((1, 1, 1, 1, 3), 6, (1, 1, 3, 1))
    with pytest.raises(ValueError, match=r"partition \(1, 1, 3\) does not sum to the degree 6"):
        weighted_hypersurface_system((1, 1, 1, 2, 3), 6, (1, 1, 3))
    with pytest.raises(ValueError, match=r"partition \(1, 1, 1, 3\) does not sum to the degree 7"):
        weighted_hypersurface_system((1, 1, 1, 1, 3), 7, (1, 1, 1, 3))
    with pytest.raises(ValueError, match="partition must be nonempty"):
        weighted_hypersurface_system((1, 1, 1, 1, 3), 6, ())
    with pytest.raises(ValueError, match="weights must be positive"):
        weighted_hypersurface_system((0, 1, 1, 1, 3), 6, (1, 1, 1, 3))
    with pytest.raises(ValueError, match="partition longer than the weight vector"):
        weighted_hypersurface_system((1, 1, 1), 4, (1, 1, 1, 1))


def test_eliminate_single_linear_constraint() -> None:
    m = ConstrainedModel(("u", "v"), (Var("u"),), parse("u + v"))
    res = eliminate(m, [(0, "u")])
    assert set(res.bindings) == {"u"}
    assert random_equal(res.expression, parse("1 + v")).equal


def test_eliminate_validates_plan() -> None:
    m = grassmannian_hyperplane_system(2, 6, 5)
    with pytest.raises(ValueError, match="plan step 1: constraint 0 already used"):
        eliminate(m, [(0, "X11"), (0, "X12")])  # constraint reused
    with pytest.raises(ValueError, match="plan step 1: variable 'X11' already eliminated"):
        eliminate(m, [(0, "X11"), (1, "X11")])  # variable reused
    with pytest.raises(ValueError, match="plan step 0: no constraint 9"):
        eliminate(m, [(9, "X11")])
    with pytest.raises(ValueError, match="plan step 0: unknown variable 'nope'"):
        eliminate(m, [(0, "nope")])
    with pytest.raises(ValueError, match="plan step 0: constraint 0 does not involve 'X42' after substitution"):
        eliminate(m, [(0, "X42")])  # constraint does not involve X42
    noop = eliminate(m, [])
    assert noop.bindings == {}
    assert noop.expression == m.potential


def test_eliminate_rejects_nonlinear_steps() -> None:
    m = ConstrainedModel(("u", "v"), (parse("u^2 + v"),), parse("u + v"))
    with pytest.raises(ValueError) as err:
        eliminate(m, [(0, "u")])
    assert "not linear" in str(err.value)


def test_eliminate_ladder_bindings_have_the_expected_shape() -> None:
    m = grassmannian_hyperplane_system(2, 6, 5)
    res = eliminate(m, [(0, "X11"), (4, "X42"), (1, "X21"), (2, "X31"), (3, "X41")])
    assert set(res.bindings) == {"X11", "X21", "X31", "X41", "X42"}
    assert render(res.bindings["X11"]) == "1"
    assert render(res.bindings["X42"]) == "1"
    shapes = {
        "X21": "(X12 - X22)/X12",
        "X31": "(X12 - X22)*(X22 - X32)/(X12*X22)",
        "X41": "(X32 - 1)*(X12 - X22)*(X22 - X32)/(X12*X22*X32)",
    }
    for name, text in shapes.items():
        check = random_equal(res.bindings[name], parse(text))
        assert check.equal, name


def test_eliminate_bindings_reference_only_free_variables() -> None:
    m = grassmannian_hyperplane_system(2, 6, 5)
    res = eliminate(m, [(0, "X11"), (4, "X42"), (1, "X21"), (2, "X31"), (3, "X41")])
    free = {"X12", "X22", "X32"}
    from weaklg.expr import variables

    for name, binding in res.bindings.items():
        assert set(variables(binding)) <= free, name
    assert set(variables(res.expression)) <= free


def test_eliminate_bindings_satisfy_the_consumed_constraints() -> None:
    m = grassmannian_hyperplane_system(2, 6, 5)
    res = eliminate(m, [(0, "X11"), (4, "X42"), (1, "X21"), (2, "X31"), (3, "X41")])
    for constraint in m.constraints:
        residual = substitute(constraint, res.bindings)
        assert random_equal(residual, Const(1)).equal


def test_eliminate_ladder_replay_reaches_the_published_polynomial() -> None:
    m = grassmannian_hyperplane_system(2, 6, 5)
    res = eliminate(m, [(0, "X11"), (4, "X42"), (1, "X21"), (2, "X31"), (3, "X41")])
    subs = {
        "X12": parse("x+y+z+1"),
        "X22": parse("y+z+1"),
        "X32": parse("z+1"),
    }
    lhs = substitute(res.expression, subs)
    rhs = parse("5 + (x+y+z+1)^2/x + (x+y+z+1)*(y+z+1)*(z+1)^2/(x*y*z)")
    assert random_equal(lhs, rhs).equal


WEIGHTED_REPLAYS = [
    (
        (1, 1, 1, 1, 3),
        6,
        (1, 1, 1, 3),
        {"y1": "x/(x+y+z+1)", "y2": "y/(x+y+z+1)", "y3": "z/(x+y+z+1)"},
        "(x+y+z+1)^6/(x*y*z) + 1",
    ),
    (
        (1, 1, 1, 2, 3),
        6,
        (1, 2, 3),
        {"y1": "z", "y2": "x/(x+y+1)", "y3": "y/(x+y+1)"},
        "(x+y+1)^6/(x*y^2*z) + z + 1",
    ),
    (
        (1, 1, 1, 1, 2),
        4,
        (1, 1, 2),
        {"y1": "z", "y2": "x/(x+y+1)", "y3": "y/(x+y+1)"},
        "(x+y+1)^4/(x*y*z) + z + 1",
    ),
]


@pytest.mark.parametrize("weights,degree,partition,subs,target", WEIGHTED_REPLAYS)
def test_weighted_elimination_replays(
    weights: tuple[int, ...],
    degree: int,
    partition: tuple[int, ...],
    subs: dict[str, str],
    target: str,
) -> None:
    m = weighted_hypersurface_system(weights, degree, partition)
    res = eliminate(m, [(1, "y4"), (0, "y0")])
    lhs = substitute(res.expression, {k: parse(v) for k, v in subs.items()})
    assert random_equal(lhs, parse(target)).equal


def test_weighted_elimination_series_matches_table_polynomial() -> None:
    # the replayed expression differs from the table polynomial by the
    # constant 1, so the zero-shifted series must agree
    m = weighted_hypersurface_system((1, 1, 1, 1, 2), 4, (1, 1, 2))
    res = eliminate(m, [(1, "y4"), (0, "y0")])
    lhs = substitute(
        res.expression,
        {"y1": parse("z"), "y2": parse("x/(x+y+1)"), "y3": parse("y/(x+y+1)")},
    )
    table = to_laurent(parse("(x+y+1)^4/(x*y*z)+z"), ("x", "y", "z"))
    shift = table.constant_term()
    centered = table - LaurentPolynomial(3, {(0, 0, 0): shift})
    probe = random_equal(lhs, parse("(x+y+1)^4/(x*y*z) + z + 1"))
    assert probe.equal
    s = constant_term_series(centered, 6)
    assert s.coeffs[0] == 1


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32))
def test_eliminate_plan_order_does_not_change_the_function(seed: int) -> None:
    # any valid order of the same (constraint, variable) pairs yields the
    # same rational function on the free torus
    pairs = [(0, "X11"), (4, "X42"), (1, "X21"), (2, "X31"), (3, "X41")]
    rng = random.Random(seed)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    base = {"X11", "X21", "X31", "X41", "X42"}
    m = grassmannian_hyperplane_system(2, 6, 5)
    ref = eliminate(m, pairs)
    try:
        res = eliminate(m, shuffled)
    except ValueError:
        return
    assert set(res.bindings) == base
    assert random_equal(res.expression, ref.expression).equal
