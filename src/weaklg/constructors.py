"""Builders for candidate Landau-Ginzburg mirrors of Fano threefolds.

Four construction routes are implemented: a toric one (one monomial per ray
of a fan), the complete-intersection quotient formula in projective space,
the ladder polynomial on a Grassmannian together with its hyperplane-class
factors, and hypersurfaces in weighted projective space.  The latter two
come as constrained models (a potential plus constraints set equal to 1)
from which variables are eliminated one linear solve at a time.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import expr as ex
from ._frozen import frozen
from .expr import Const, Expr, Pow, Prod, Quot, Sum, Var
from .laurent import LaurentPolynomial


@frozen
class ConstrainedModel:
    """A potential function together with constraints, each set equal to 1."""

    variables: tuple[str, ...]
    constraints: tuple[Expr, ...]
    potential: Expr

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("model variables must be distinct")
        if len(self.constraints) >= len(self.variables):
            raise ValueError("need fewer constraints than variables (model must stay positive-dimensional)")
        declared = set(self.variables)
        for i, c in enumerate(self.constraints):
            stray = set(ex.variables(c)) - declared
            if stray:
                raise ValueError(f"constraint {i} uses undeclared variables {sorted(stray)}")
        stray = set(ex.variables(self.potential)) - declared
        if stray:
            raise ValueError(f"potential uses undeclared variables {sorted(stray)}")

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "constraints": [ex.render(c) for c in self.constraints],
            "potential": ex.render(self.potential),
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "ConstrainedModel":
        """Read the layout to_json_dict writes; ValueError names what is missing or mistyped."""
        if not isinstance(data, dict):
            raise ValueError("a model must be a JSON object")
        for key, kind in (("variables", list), ("constraints", list), ("potential", str)):
            if not isinstance(data.get(key), kind):
                raise ValueError(f"a model needs a {key!r} field holding a JSON {'array' if kind is list else 'string'}")
        for key in ("variables", "constraints"):
            if not all(isinstance(item, str) for item in data[key]):
                raise ValueError(f"model field {key!r} must list strings")
        return cls(
            variables=tuple(data["variables"]),
            constraints=tuple(ex.parse(c) for c in data["constraints"]),
            potential=ex.parse(data["potential"]),
        )


@frozen
class EliminationResult:
    """Final potential plus the solved-variable bindings that produced it."""

    expression: Expr
    bindings: dict[str, Expr]


def toric_polynomial(rays: Sequence[Sequence[int]]) -> LaurentPolynomial:
    """Laurent polynomial with one coefficient-1 monomial per fan ray."""
    vectors = [tuple(int(c) for c in r) for r in rays]
    if not vectors:
        raise ValueError("need at least one ray")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("rays have inconsistent dimension")
    if len(set(vectors)) != len(vectors):
        raise ValueError("duplicate ray")
    return LaurentPolynomial(n, {v: 1 for v in vectors})


def _check_ci_data(ambient_dim: int, degrees: Sequence[int]) -> tuple[int, ...]:
    degs = tuple(int(k) for k in degrees)
    if any(k < 2 for k in degs):
        raise ValueError("all degrees must be >= 2")
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    if sum(degs) > ambient_dim:
        raise ValueError("sum of degrees must be <= ambient dimension (Fano condition)")
    return degs


def hori_vafa_variables(ambient_dim: int, degrees: Sequence[int]) -> tuple[str, ...]:
    """Deterministic variable names: x{i}{j} blocks first, then y{s}."""
    degs = _check_ci_data(ambient_dim, degrees)
    k0 = ambient_dim - sum(degs)
    names = [f"x{i}{j}" for i, k in enumerate(degs, start=1) for j in range(1, k)]
    names += [f"y{s}" for s in range(1, k0 + 1)]
    return tuple(names)


def hori_vafa_ci(ambient_dim: int, degrees: Sequence[int]) -> LaurentPolynomial:
    """Mirror of a complete intersection of the given degrees in P^N.

    With k_0 = N - sum(degrees):

        f = prod_i (x_{i,1} + ... + x_{i,k_i - 1} + 1)^{k_i}
            / (prod x_{i,j} * prod y_s)  +  y_1 + ... + y_{k_0}

    in N - r variables (r = number of degrees), expanded by ex.to_laurent
    within its limits.
    """
    degs = _check_ci_data(ambient_dim, degrees)
    names = hori_vafa_variables(ambient_dim, degs)
    variables = tuple(map(Var, names))
    blocks, pos = [], 0
    for k in degs:
        blocks.append(Pow(Sum((*variables[pos:pos + k - 1], Const(1))), k))
        pos += k - 1
    quotient = Quot(Prod((Const(1), *blocks)), Prod(variables))
    return ex.to_laurent(Sum((quotient, *variables[pos:])), names)


def grassmannian_variables(k: int, n: int) -> tuple[str, ...]:
    """Grid variables X{a}{b}, a = 1..n-k rows, b = 1..k columns, row-major."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < N")
    if min(k, n - k) >= 11:
        raise ValueError("the grid names X{a}{b} collide when k and N - k are both at least 11"
                         " (X111 would be both X_{1,11} and X_{11,1})")
    return tuple(f"X{a}{b}" for a in range(1, n - k + 1) for b in range(1, k + 1))


def grassmannian_polynomial(k: int, n: int) -> LaurentPolynomial:
    """Ladder mirror of the Grassmannian G(k, N) on an (N-k) x k grid:

        X_11 + sum_{a,b} (X_{a+1,b} + X_{a,b+1}) / X_{ab} + 1 / X_{N-k,k}

    where out-of-grid entries are dropped: the sum of the N hyperplane-class
    factors.
    """
    return ex.to_laurent(Sum(grassmannian_hyperplane_factors(k, n)), grassmannian_variables(k, n))


def grassmannian_hyperplane_factors(k: int, n: int) -> tuple[Expr, ...]:
    """The N factors of the ladder polynomial that each represent one
    hyperplane class of G(k, N) in its minimal embedding.

    Order: the corner variable X_11; the row-advance factors
    X_{j+1,1}/X_{j,1} + ... + X_{j+1,k}/X_{j,k} for j = 1..N-k-1; the
    reciprocal corner 1/X_{N-k,k}; then the column-advance factors
    X_{1,i}/X_{1,i-1} + ... + X_{N-k,i}/X_{N-k,i-1} for i = 2..k.
    Taking a prefix of this list reproduces the published hyperplane-section
    systems; any other subset can be assembled from the full list directly.
    """
    grassmannian_variables(k, n)  # validates the (k, N) pair
    rows, cols = n - k, k

    def quotient(a1: int, b1: int, a0: int, b0: int) -> Expr:
        return Quot(Var(f"X{a1}{b1}"), Var(f"X{a0}{b0}"))

    factors: list[Expr] = [Var("X11")]
    for j in range(1, rows):
        parts = tuple(quotient(j + 1, b, j, b) for b in range(1, cols + 1))
        factors.append(parts[0] if len(parts) == 1 else Sum(parts))
    factors.append(Quot(Const(1), Var(f"X{rows}{cols}")))
    for i in range(2, cols + 1):
        parts = tuple(quotient(a, i, a, i - 1) for a in range(1, rows + 1))
        factors.append(parts[0] if len(parts) == 1 else Sum(parts))
    return tuple(factors)


def grassmannian_hyperplane_system(k: int, n: int, sections: int) -> ConstrainedModel:
    """Constrained model for a section of G(k, N) by `sections` hyperplanes:
    the ladder potential with the first `sections` hyperplane-class factors
    pinned to 1."""
    if not 0 <= sections <= n:
        raise ValueError(f"sections must be between 0 and {n}")
    names = grassmannian_variables(k, n)
    factors = grassmannian_hyperplane_factors(k, n)
    potential = ex.laurent_to_expr(ex.to_laurent(Sum(factors), names), names)
    return ConstrainedModel(
        variables=names,
        constraints=factors[:sections],
        potential=potential,
    )


def weighted_hypersurface_system(
    weights: Sequence[int], degree: int, partition: Sequence[int]
) -> ConstrainedModel:
    """Constrained model for a degree-d hypersurface in weighted projective
    space P(w_0 : ... : w_n):

        y_0^{w_0} * ... * y_n^{w_n} = 1,   sum of the selected y_i = 1,

    with potential y_0 + ... + y_n.  The selected block is the trailing
    variables whose weights form `partition`; it must sum to d.  Order the
    weights so the block you want to collapse sits at the end.
    """
    ws = tuple(int(w) for w in weights)
    part = tuple(int(w) for w in partition)
    if any(w < 1 for w in ws):
        raise ValueError("weights must be positive")
    if not part:
        raise ValueError("partition must be nonempty")
    if sum(part) != degree:
        raise ValueError(f"partition {part} does not sum to the degree {degree}")
    if len(part) > len(ws):
        raise ValueError("partition longer than the weight vector")
    if ws[len(ws) - len(part):] != part:
        raise ValueError(
            f"partition {part} must match the trailing weights of {ws}; reorder the weights"
        )
    names = tuple(f"y{i}" for i in range(len(ws)))
    monomial_factors = tuple(
        Var(name) if w == 1 else Pow(Var(name), w) for name, w in zip(names, ws)
    )
    monomial: Expr = monomial_factors[0] if len(monomial_factors) == 1 else Prod(monomial_factors)
    selected = names[len(ws) - len(part):]
    total: Expr = Var(selected[0]) if len(selected) == 1 else Sum(tuple(Var(s) for s in selected))
    potential: Expr = Var(names[0]) if len(names) == 1 else Sum(tuple(Var(s) for s in names))
    return ConstrainedModel(
        variables=names,
        constraints=(monomial, total),
        potential=potential,
    )


# ---------------------------------------------------------------------------
# elimination

def _split_linear(
    p: LaurentPolynomial, var_index: int, names: Sequence[str]
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Write p = A + B * v for the chosen variable; error if p is not
    degree <= 1 in it."""
    n = p.nvars
    a_terms: dict[tuple[int, ...], int] = {}
    b_terms: dict[tuple[int, ...], int] = {}
    for exps, coeff in p.terms.items():
        d = exps[var_index]
        if d == 0:
            a_terms[exps] = coeff
        elif d == 1:
            reduced = exps[:var_index] + (0,) + exps[var_index + 1:]
            b_terms[reduced] = coeff
        else:
            raise ValueError(
                f"constraint is not linear in {names[var_index]} (found degree {d})"
            )
    return LaurentPolynomial(n, a_terms), LaurentPolynomial(n, b_terms)


def eliminate(model: ConstrainedModel, plan: Sequence[tuple[int, str]]) -> EliminationResult:
    """Remove one variable per planned constraint by an exact linear solve.

    Each plan step (i, v) takes constraint i (an expression equal to 1),
    substitutes everything solved so far, clears denominators, and requires
    the result to be degree 1 in v.  The solved value is substituted into
    the remaining bindings immediately, so every binding refers only to
    variables still free at the end.  Returns the reduced potential along
    with the bindings.
    """
    names = model.variables
    bindings: dict[str, Expr] = {}
    used_constraints: set[int] = set()
    for step, (ci, var) in enumerate(plan):
        if not 0 <= ci < len(model.constraints):
            raise ValueError(f"plan step {step}: no constraint {ci}")
        if ci in used_constraints:
            raise ValueError(f"plan step {step}: constraint {ci} already used")
        if var not in names:
            raise ValueError(f"plan step {step}: unknown variable {var!r}")
        if var in bindings:
            raise ValueError(f"plan step {step}: variable {var!r} already eliminated")
        constraint = ex.substitute(model.constraints[ci], bindings)
        num, den = ex.to_fraction(constraint, names)
        residual = num - den  # constraint == 1 cleared of denominators
        var_index = names.index(var)
        a_part, b_part = _split_linear(residual, var_index, names)
        if not b_part:
            raise ValueError(
                f"plan step {step}: constraint {ci} does not involve {var!r} after substitution"
            )
        rhs = ex.substitute(
            Quot(ex.laurent_to_expr(-a_part, names), ex.laurent_to_expr(b_part, names)),
            {},
        )
        new_binding = {var: rhs}
        bindings = {u: ex.substitute(b, new_binding) for u, b in bindings.items()}
        bindings[var] = rhs
        used_constraints.add(ci)
    return EliminationResult(
        expression=ex.substitute(model.potential, bindings),
        bindings=bindings,
    )
