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
from .laurent import LaurentPolynomial, _signed_sum


@frozen
class ConstrainedModel:
    """A potential function together with constraints, each set equal to 1."""

    variables: tuple[str, ...]
    constraints: tuple[ex.Expr, ...]
    potential: ex.Expr

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

    expression: ex.Expr
    bindings: dict[str, ex.Expr]


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
    return _hori_vafa_text(ambient_dim, degrees)[1]


def _hori_vafa_text(ambient_dim: int, degrees: Sequence[int]) -> tuple[str, tuple[str, ...]]:
    """Check the data and that no name repeats; hori_vafa_ci's text and names: x{i}1 .. x{i}(k_i - 1) per
    degree k_i, then the y{s}."""
    degs = _check_ci_data(ambient_dim, degrees)
    first: dict[str, tuple[int, int]] = {}
    for i, j in ((i, j) for i, k in enumerate(degs, start=1) for j in range(1, k)):
        a, b = first.setdefault(f"x{i}{j}", (i, j))
        if (a, b) != (i, j):
            raise ValueError(f"the names x{{i}}{{j}} collide: x{i}{j} would be both x_{{{a},{b}}} and x_{{{i},{j}}}")
    xs = [[f"x{i}{j}" for j in range(1, k)] for i, k in enumerate(degs, start=1)]
    ys = [f"y{s}" for s in range(1, ambient_dim - sum(degs) + 1)]
    names = tuple(name for block in (*xs, ys) for name in block)
    factors = ["1"] + [f"({' + '.join(block)} + 1)^{len(block) + 1}" for block in xs]
    text = "*".join(factors) + f"/({_signed_sum([((1,) * len(names), 1)], names)})"
    return text + "".join(f" + {y}" for y in ys), names


def hori_vafa_ci(ambient_dim: int, degrees: Sequence[int]) -> LaurentPolynomial:
    """Mirror of a complete intersection of the given degrees in P^N.

    With k_0 = N - sum(degrees):

        f = prod_i (x_{i,1} + ... + x_{i,k_i - 1} + 1)^{k_i}
            / (prod x_{i,j} * prod y_s)  +  y_1 + ... + y_{k_0}

    in N - r variables (r = number of degrees), written as text, parsed and
    expanded by ex.to_laurent within its limits.
    """
    text, names = _hori_vafa_text(ambient_dim, degrees)
    return ex.to_laurent(ex.parse(text), names)


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
    return ex.to_laurent(ex.parse(" + ".join(_ladder_factors(k, n))), grassmannian_variables(k, n))


def grassmannian_hyperplane_factors(k: int, n: int) -> tuple[ex.Expr, ...]:
    """The N factors of the ladder polynomial that each represent one
    hyperplane class of G(k, N) in its minimal embedding.

    Order: the corner variable X_11; the row-advance factors
    X_{j+1,1}/X_{j,1} + ... + X_{j+1,k}/X_{j,k} for j = 1..N-k-1; the
    reciprocal corner 1/X_{N-k,k}; then the column-advance factors
    X_{1,i}/X_{1,i-1} + ... + X_{N-k,i}/X_{N-k,i-1} for i = 2..k.
    Taking a prefix of this list reproduces the published hyperplane-section
    systems; any other subset can be assembled from the full list directly.
    """
    return tuple(map(ex.parse, _ladder_factors(k, n)))


def _ladder_factors(k: int, n: int) -> list[str]:
    """The text of each of grassmannian_hyperplane_factors, in its order."""
    grassmannian_variables(k, n)  # validates the (k, N) pair
    rows, cols = n - k, k
    return [
        "X11",
        *(" + ".join(f"X{j + 1}{b}/X{j}{b}" for b in range(1, cols + 1)) for j in range(1, rows)),
        f"1/X{rows}{cols}",
        *(" + ".join(f"X{a}{i}/X{a}{i - 1}" for a in range(1, rows + 1)) for i in range(2, cols + 1)),
    ]


def grassmannian_hyperplane_system(k: int, n: int, sections: int) -> ConstrainedModel:
    """Constrained model for a section of G(k, N) by `sections` hyperplanes:
    the ladder potential with the first `sections` hyperplane-class factors
    pinned to 1."""
    if not 0 <= sections <= n:
        raise ValueError(f"sections must be between 0 and {n}")
    names = grassmannian_variables(k, n)
    return ConstrainedModel(
        variables=names,
        constraints=grassmannian_hyperplane_factors(k, n)[:sections],
        potential=ex.parse(grassmannian_polynomial(k, n).render(names)),
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
    return ConstrainedModel(
        variables=names,
        constraints=(ex.parse(_signed_sum([(ws, 1)], names)), ex.parse(" + ".join(names[len(ws) - len(part):]))),
        potential=ex.parse(" + ".join(names)),
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
    bindings: dict[str, ex.Expr] = {}
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
        rhs = ex.substitute(ex.parse(f"({(-a_part).render(names)})/({b_part.render(names)})"), {})
        new_binding = {var: rhs}
        bindings = {u: ex.substitute(b, new_binding) for u, b in bindings.items()}
        bindings[var] = rhs
        used_constraints.add(ci)
    return EliminationResult(
        expression=ex.substitute(model.potential, bindings),
        bindings=bindings,
    )
