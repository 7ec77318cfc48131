"""The value-class contract of the library's records and expression nodes:
construction by position or keyword with defaults, == and hash() over the
fields, the repr Name(field=value, ...), AttributeError on assignment,
copy.deepcopy, and the refusals of __post_init__."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from weaklg.constructors import ConstrainedModel, EliminationResult
from weaklg.corpus import (
    Check,
    CompleteIntersection,
    FanoEntry,
    ReferenceSeries,
    VerificationReport,
    WeightedHypersurface,
    get_entry,
)
from weaklg.expr import Const, Diff, IdentityResult, Pow, Prod, Quot, Sum, Var
from weaklg.operators import DifferentialOperator
from weaklg.polytopes import EhrhartResult, Polytope, SemiweakReport, dual_polytope, newton_polytope
from weaklg.series import IntegerSeries, MatchReport

X, ONE = Var("x"), Const(1)
SEGMENT = {"dim": 1, "vertices": ((-1,), (1,)), "facets": (((-1,), Fraction(1)), ((1,), Fraction(1)))}

# (class, keyword arguments in field order, the defaulted fields left out; a
# change to one field; the repr)
CASES = [
    (Const, {"value": 3}, {"value": 4}, "Const(value=3)"),
    (Var, {"name": "x"}, {"name": "y"}, "Var(name='x')"),
    (Sum, {"terms": (X, ONE)}, {"terms": (ONE, X)}, "Sum(terms=(Var(name='x'), Const(value=1)))"),
    (Diff, {"left": X, "right": ONE}, {"right": X}, "Diff(left=Var(name='x'), right=Const(value=1))"),
    (Prod, {"factors": (X,)}, {"factors": (X, X)}, "Prod(factors=(Var(name='x'),))"),
    (Quot, {"numerator": ONE, "denominator": X}, {"numerator": X},
     "Quot(numerator=Const(value=1), denominator=Var(name='x'))"),
    (Pow, {"base": X, "exponent": -2}, {"exponent": 2}, "Pow(base=Var(name='x'), exponent=-2)"),
    (IdentityResult, {"equal": False, "trials": 3, "witness": {"x": 5}}, {"trials": 4},
     "IdentityResult(equal=False, trials=3, witness={'x': 5})"),
    (ReferenceSeries, {"coeffs": (1, 0, 2), "provenance": "published"}, {"provenance": "regression"},
     "ReferenceSeries(coeffs=(1, 0, 2), provenance='published')"),
    (CompleteIntersection, {"ambient_dim": 4, "degrees": (4,)}, {"degrees": (2,)},
     "CompleteIntersection(ambient_dim=4, degrees=(4,))"),
    (WeightedHypersurface, {"weights": (1, 1, 1, 1, 3), "degree": 6, "partition": (3, 3)}, {"degree": 5},
     "WeightedHypersurface(weights=(1, 1, 1, 1, 3), degree=6, partition=(3, 3))"),
    (FanoEntry, {"id": 17, "fano_index": 4, "degree": 64, "description": "P^3", "polynomial": "x+y+z+1/(x*y*z)"},
     {"alternates": ("x",)},
     "FanoEntry(id=17, fano_index=4, degree=64, description='P^3', polynomial='x+y+z+1/(x*y*z)', "
     "alternates=(), reference=None, ci=None, weighted=None)"),
    (Check, {"key": "semiweak", "passed": True, "detail": True, "lines": ("semiweak: yes",)}, {"passed": False},
     "Check(key='semiweak', passed=True, detail=True, lines=('semiweak: yes',))"),
    (VerificationReport, {"entry_id": 1, "terms": 2, "shift": 0, "series": (1, 0, 2), "checks": ()}, {"shift": 1},
     "VerificationReport(entry_id=1, terms=2, shift=0, series=(1, 0, 2), checks=())"),
    (Polytope, SEGMENT, {"dim": 2},
     "Polytope(dim=1, vertices=((-1,), (1,)), facets=(((-1,), Fraction(1, 1)), ((1,), Fraction(1, 1))))"),
    (SemiweakReport, {"ok": True, "origin_interior": True, "expected": 64}, {"dual_volume": Fraction(64)},
     "SemiweakReport(ok=True, origin_interior=True, expected=64, dual_volume=None, reason=None)"),
    (EhrhartResult, {"counts": (1, 3), "polynomial": (Fraction(1), Fraction(2))}, {"counts": (1, 4)},
     "EhrhartResult(counts=(1, 3), polynomial=(Fraction(1, 1), Fraction(2, 1)))"),
    (IntegerSeries, {"coeffs": (1, 0, 2)}, {"coeffs": (1, 0, 3)}, "IntegerSeries(coeffs=(1, 0, 2))"),
    (MatchReport, {"matched": True, "upto": 5}, {"upto": 6},
     "MatchReport(matched=True, upto=5, first_mismatch=None, left=None, right=None)"),
    (ConstrainedModel, {"variables": ("a", "b"), "constraints": (), "potential": Var("a")},
     {"potential": Var("b")}, "ConstrainedModel(variables=('a', 'b'), constraints=(), potential=Var(name='a'))"),
    (EliminationResult, {"expression": X, "bindings": {"y": ONE}}, {"bindings": {}},
     "EliminationResult(expression=Var(name='x'), bindings={'y': Const(value=1)})"),
    (DifferentialOperator, {"coeffs": {(0, 1): Fraction(1)}}, {"coeffs": {(0, 1): 2}},
     "DifferentialOperator(coeffs={(0, 1): Fraction(1, 1)})"),
]
IDS = [case[0].__name__ for case in CASES]
# records with a dict field, whose hash() raises TypeError as a dict's does
UNHASHABLE = (IdentityResult, EliminationResult, DifferentialOperator)


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_value_class_construction_equality_and_repr(cls, kwargs, change, text) -> None:
    value = cls(**kwargs)
    assert repr(value) == text
    assert cls(*kwargs.values()) == value and not cls(*kwargs.values()) != value
    assert cls(**{**kwargs, **change}) != value
    assert value != (*kwargs.values(),) and value != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(cls(**kwargs)) == hash(value)
        assert len({value, cls(**kwargs), cls(**{**kwargs, **change})}) == 2


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_value_class_refuses_assignment_and_deep_copies(cls, kwargs, change, text) -> None:
    value = cls(**kwargs)
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(value, field, kwargs[field])
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is kwargs[field] or cls is DifferentialOperator
    twin = copy.deepcopy(value)
    assert twin == value and repr(twin) == text and twin is not value


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=IDS)
def test_value_class_refuses_bad_arguments(cls, kwargs, change, text) -> None:
    field = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != field})  # a field without a default
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(kwargs[field], **kwargs)  # the first field twice
    with pytest.raises(TypeError):
        cls(*kwargs.values(), *change.values(), *range(9))  # too many


def test_polytope_boundary_is_not_compared_hashed_or_shown() -> None:
    built = dual_polytope(newton_polytope(get_entry(17).laurent()))
    assert built._boundary is not None
    plain = Polytope(built.dim, built.vertices, built.facets)
    assert plain._boundary is None
    assert plain == built and hash(plain) == hash(built) and repr(plain) == repr(built)
    assert "_boundary" not in repr(built)


def test_fano_entry_keeps_its_converted_polynomials_through_deepcopy() -> None:
    entry = get_entry(11)
    twin = copy.deepcopy(entry)
    assert twin == entry and twin.laurent() == entry.laurent() and twin.laurent() is not entry.laurent()
    assert twin.alternate_laurents() == entry.alternate_laurents()
    built = FanoEntry(17, 4, 64, "P^3", "x+y+z+1/(x*y*z)")
    assert built.laurent() is built.laurent()  # converted once, on first use


@pytest.mark.parametrize("build, message", [
    (lambda: IntegerSeries(coeffs=()), "at least the t\\^0 coefficient"),
    (lambda: IntegerSeries(coeffs=(1, Fraction(1, 2))), "must be integers"),
    (lambda: DifferentialOperator(coeffs={(0, 1): 0}), "at least one nonzero coefficient"),
    (lambda: DifferentialOperator(coeffs={(-1, 0): 1}), "negative index in coefficient position \\(-1, 0\\)"),
    (lambda: ConstrainedModel(variables=("a", "a"), constraints=(), potential=Var("a")), "must be distinct"),
    (lambda: ConstrainedModel(variables=("a",), constraints=(Var("a"),), potential=Var("a")),
     "need fewer constraints than variables"),
])
def test_post_init_refusals(build, message) -> None:
    with pytest.raises(ValueError, match=message):
        build()


def test_post_init_cleans_operator_coefficients() -> None:
    op = DifferentialOperator(coeffs={(0, 1): 2, (1, 0): 0})
    assert op.coeffs == {(0, 1): Fraction(2)} and type(op.coeffs[(0, 1)]) is Fraction
