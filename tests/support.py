"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the package internals:
expansion oracles use plain dict convolution, expression evaluation uses
Fractions, the identity-test oracle evaluates one point at a time by
recursion with a modular inverse per division, the unimodular sampler
certifies its own determinant, and the polytope oracles search
exhaustively where the package is clever.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import combinations, product

from weaklg.expr import Const, Diff, Expr, IdentityResult, IdentityTestError, Pow, Prod, Quot, Sum, Var

Term = tuple[tuple[int, ...], int]


def convolve_terms(left: dict[tuple[int, ...], int], right: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    add = operator.add
    for ea, ca in left.items():
        for eb, cb in right.items():
            key = tuple(map(add, ea, eb))
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def term_power(terms: dict[tuple[int, ...], int], exponent: int, nvars: int) -> dict[tuple[int, ...], int]:
    out = {tuple([0] * nvars): 1}
    for _ in range(exponent):
        out = convolve_terms(out, terms)
    return out


def coefficient_in_power(terms: dict[tuple[int, ...], int], exponent: int, target: tuple[int, ...]) -> int:
    """Coefficient of the target monomial in (sum of terms)^exponent,
    computed by straight dict convolution."""
    return term_power(terms, exponent, len(target)).get(target, 0)


def constant_term_series_naive(f, terms: int) -> tuple[int, ...]:
    """The series oracle: phi(0), ..., phi(terms) of a LaurentPolynomial f,
    the constant terms of its full powers by straight dict convolution, with
    no pruning.  The last power is needed only at the origin, where
    f^terms = f^(terms-1) * f has sum_d f_d [f^(terms-1)]_(-d)."""
    origin = (0,) * f.nvars
    power = {origin: 1}
    out = [1]
    for _ in range(terms - 1):
        power = convolve_terms(power, dict(f.terms))
        out.append(power.get(origin, 0))
    out.append(sum(c * power.get(tuple(-x for x in d), 0) for d, c in f.terms.items()))
    return tuple(out)


def evaluate_exactly(e: Expr, env: dict[str, Fraction]) -> Fraction:
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Sum):
        return sum((evaluate_exactly(t, env) for t in e.terms), Fraction(0))
    if isinstance(e, Diff):
        return evaluate_exactly(e.left, env) - evaluate_exactly(e.right, env)
    if isinstance(e, Prod):
        out = Fraction(1)
        for f in e.factors:
            out *= evaluate_exactly(f, env)
        return out
    if isinstance(e, Quot):
        return evaluate_exactly(e.numerator, env) / evaluate_exactly(e.denominator, env)
    if isinstance(e, Pow):
        return evaluate_exactly(e.base, env) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


class _UndefinedPoint(Exception):
    pass


def _names(e: Expr, out: set[str]) -> None:
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Sum):
        for t in e.terms:
            _names(t, out)
    elif isinstance(e, Prod):
        for f in e.factors:
            _names(f, out)
    elif isinstance(e, Diff):
        _names(e.left, out)
        _names(e.right, out)
    elif isinstance(e, Quot):
        _names(e.numerator, out)
        _names(e.denominator, out)
    elif isinstance(e, Pow):
        _names(e.base, out)


def _eval_mod(e: Expr, env: dict[str, int], p: int) -> int:
    if isinstance(e, Const):
        return e.value % p
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Sum):
        return sum(_eval_mod(t, env, p) for t in e.terms) % p
    if isinstance(e, Diff):
        return (_eval_mod(e.left, env, p) - _eval_mod(e.right, env, p)) % p
    if isinstance(e, Prod):
        value = 1
        for f in e.factors:
            value = value * _eval_mod(f, env, p) % p
        return value
    if isinstance(e, Quot):
        den = _eval_mod(e.denominator, env, p)
        if den == 0:
            raise _UndefinedPoint
        return _eval_mod(e.numerator, env, p) * pow(den, p - 2, p) % p
    if isinstance(e, Pow):
        base = _eval_mod(e.base, env, p)
        if base == 0 and e.exponent < 0:
            raise _UndefinedPoint
        return pow(base, e.exponent, p)
    raise TypeError(f"not an expression node: {e!r}")


def random_equal_oracle(left: Expr, right: Expr, trials: int = 20, seed: int = 0,
                        prime: int = (1 << 61) - 1) -> IdentityResult:
    """The identity-test oracle: one point at a time, each side evaluated by
    recursion with a Fermat inverse per division; a point where either side
    divides by zero is redrawn, within 8*trials + 16 draws."""
    seen: set[str] = set()
    _names(left, seen)
    _names(right, seen)
    names = sorted(seen)
    rng = random.Random(seed)
    budget = 8 * trials + 16
    done = 0
    for _ in range(budget):
        point = {name: rng.randrange(1, prime) for name in names}
        try:
            lv = _eval_mod(left, point, prime)
            rv = _eval_mod(right, point, prime)
        except _UndefinedPoint:
            continue
        if lv != rv:
            return IdentityResult(equal=False, trials=done + 1, witness=point)
        done += 1
        if done == trials:
            return IdentityResult(equal=True, trials=done, witness=None)
    raise IdentityTestError(
        f"exhausted {budget} draws with only {done}/{trials} defined evaluations"
    )


def random_unimodular(rng: random.Random, n: int = 3, ops: int = 6) -> tuple[tuple[int, ...], ...]:
    """Random determinant +-1 integer matrix from elementary operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice((1, -1))
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-v for v in m[i]]
    return tuple(tuple(row) for row in m)


def determinant_3x3(m: tuple[tuple[int, ...], ...]) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def determinant(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * rows[0][j] * determinant([row[:j] + row[j + 1:] for row in rows[1:]])
        for j in range(len(rows))
    )


def fraction_echelon(rows: list[list]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form by plain Gaussian elimination over Fractions.

    Returns (rows, pivot columns, product of the pivots times the sign of
    the row swaps); the product is the determinant of a square matrix of
    full rank."""
    work = [[Fraction(c) for c in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    pivot_product = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if found is None:
            continue
        if found != r:
            work[r], work[found] = work[found], work[r]
            pivot_product = -pivot_product
        pv = work[r][col]
        pivot_product *= pv
        work[r] = [c / pv for c in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots, pivot_product


def oracle_rank(rows: list[list]) -> int:
    return len(fraction_echelon(rows)[1])


def oracle_det(rows: list[list]) -> Fraction:
    _, pivots, pivot_product = fraction_echelon(rows)
    return pivot_product if len(pivots) == len(rows) else Fraction(0)


def oracle_nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """One basis vector per free column, in column order: 1 in its own free
    column, 0 in the other free columns."""
    work, pivots, _ = fraction_echelon(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -work[r][free]
        basis.append(x)
    return basis


def is_full_dimensional(points: list[tuple], n: int) -> bool:
    """True iff the differences of the points span dimension n."""
    pts = sorted(set(points))
    return oracle_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == n


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _canon(c) -> Fraction | int:
    c = Fraction(c)
    return int(c) if c.denominator == 1 else c


def _primitive(vec) -> tuple[int, ...]:
    fracs = [Fraction(c) for c in vec]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints)
    return tuple(i // g for i in ints)


def _sign_key(vec) -> int:
    for c in vec:
        if c != 0:
            return 1 if c > 0 else -1
    return 0


def _classify(points, normal, offset) -> int:
    """+1 if all <= offset, -1 if all >= offset, 0 if points on both open sides."""
    has_above = has_below = False
    for p in points:
        s = _dot(normal, p)
        if s > offset:
            has_above = True
        elif s < offset:
            has_below = True
        if has_above and has_below:
            return 0
    if not has_above:
        return 1
    return -1


def hull_oracle(points: list[tuple], n: int) -> tuple[tuple, tuple]:
    """(vertices, facets) of a full-dimensional point set in any dimension n,
    in the layout of `Polytope`, by exhaustive supporting-hyperplane search:
    every n-subset whose differences leave a one-dimensional nullspace spans
    a hyperplane, which is tested against every point, so the cost is
    O(N^(n+1)).  A vertex is a point on at least n facets."""
    pts = sorted(set(points))
    facets: dict[tuple[tuple[int, ...], Fraction], None] = {}
    tested: set[tuple[tuple[int, ...], Fraction]] = set()
    for subset in combinations(pts, n):
        normals = oracle_nullspace([[b - a for a, b in zip(subset[0], p)] for p in subset[1:]], n)
        if len(normals) != 1:
            continue
        prim = _primitive(normals[0])
        offset = Fraction(_dot(prim, subset[0]))
        key = (prim, offset) if _sign_key(prim) > 0 else (tuple(-c for c in prim), -offset)
        if key in tested:
            continue
        tested.add(key)
        side = _classify(pts, prim, offset)
        if side == 1:
            facets[(prim, offset)] = None
        elif side == -1:
            facets[(tuple(-c for c in prim), -offset)] = None
    facet_list = sorted(facets)
    vertices = sorted(
        tuple(_canon(c) for c in p)
        for p in pts
        if sum(1 for normal, offset in facet_list if _dot(normal, p) == offset) >= n
    )
    return tuple(vertices), tuple(facet_list)


def dual_vertices_oracle(vertices: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """Vertices of {y : <y, v> >= -1 for every v}: each n vertices with an
    invertible matrix give one candidate by Cramer's rule, kept when it
    satisfies every inequality."""
    n = len(vertices[0])
    rows = [[Fraction(c) for c in v] for v in vertices]
    out = set()
    for subset in combinations(rows, n):
        det = determinant(list(subset))
        if det == 0:
            continue
        y = tuple(
            determinant([row[:j] + [Fraction(-1)] + row[j + 1:] for row in subset]) / det
            for j in range(n)
        )
        if all(_dot(v, y) >= -1 for v in rows):
            out.add(tuple(_canon(c) for c in y))
    return tuple(sorted(out))


def ehrhart_oracle(vertices: tuple[tuple, ...], facets: tuple, kmax: int) -> tuple[int, ...]:
    """Lattice point counts of k*P for k = 0..kmax by testing every integer
    point of the bounding box of k*P against every facet."""
    n = len(vertices[0])
    # den * <normal, x> <= k * num keeps the inner test in integers
    facets = [(normal, Fraction(offset).numerator, Fraction(offset).denominator) for normal, offset in facets]
    counts = [1]
    for k in range(1, kmax + 1):
        box = [
            range(math.ceil(min(Fraction(v[c]) for v in vertices) * k),
                  math.floor(max(Fraction(v[c]) for v in vertices) * k) + 1)
            for c in range(n)
        ]
        counts.append(sum(
            1 for x in product(*box)
            if all(den * _dot(normal, x) <= k * num for normal, num, den in facets)
        ))
    return tuple(counts)
