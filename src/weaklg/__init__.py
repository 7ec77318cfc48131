"""Exact tools for candidate Laurent-polynomial mirrors of Fano threefolds.

Everything is computed over exact integers and rationals: sparse Laurent
polynomial arithmetic, constant-term period series, Newton and dual
polytopes with normalized volumes and Ehrhart counts, annihilating
differential operators, the standard construction recipes, and a bundled
corpus of seventeen rank-1 Fano threefold models with batch verification.
"""

from .annihilator import (
    DifferentialOperator,
    apply_operator,
    find_annihilator,
    find_minimal_annihilator,
)
from .constructors import (
    ConstrainedModel,
    EliminationResult,
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
from .corpus import (
    CorpusError,
    FanoEntry,
    VerificationReport,
    get_entry,
    load_corpus,
    verify_entry,
)
from .expr import (
    IdentityResult,
    IdentityTestError,
    NotLaurentError,
    ParseError,
    laurent_to_expr,
    parse,
    random_equal,
    render,
    substitute,
    to_laurent,
    variables,
)
from .laurent import LaurentPolynomial
from .polytopes import (
    EhrhartResult,
    Polytope,
    SemiweakReport,
    contains_origin_interior,
    dual_polytope,
    ehrhart_counts,
    newton_polytope,
    normalized_volume,
    semiweak_check,
)
from .series import (
    IntegerSeries,
    MatchReport,
    ci_period_closed_form,
    compare_series,
    constant_term_series,
    normalize_shift,
    shifted_series,
)

__all__ = [
    "ConstrainedModel",
    "CorpusError",
    "DifferentialOperator",
    "EhrhartResult",
    "EliminationResult",
    "FanoEntry",
    "IdentityResult",
    "IdentityTestError",
    "IntegerSeries",
    "LaurentPolynomial",
    "MatchReport",
    "NotLaurentError",
    "ParseError",
    "Polytope",
    "SemiweakReport",
    "VerificationReport",
    "apply_operator",
    "ci_period_closed_form",
    "compare_series",
    "constant_term_series",
    "contains_origin_interior",
    "dual_polytope",
    "ehrhart_counts",
    "eliminate",
    "find_annihilator",
    "find_minimal_annihilator",
    "get_entry",
    "grassmannian_hyperplane_factors",
    "grassmannian_hyperplane_system",
    "grassmannian_polynomial",
    "grassmannian_variables",
    "hori_vafa_ci",
    "hori_vafa_variables",
    "laurent_to_expr",
    "load_corpus",
    "newton_polytope",
    "normalize_shift",
    "normalized_volume",
    "parse",
    "random_equal",
    "render",
    "semiweak_check",
    "shifted_series",
    "substitute",
    "to_laurent",
    "toric_polynomial",
    "variables",
    "verify_entry",
    "weighted_hypersurface_system",
]
