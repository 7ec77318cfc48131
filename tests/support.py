"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the package internals:
expansion oracles use plain dict convolution, expression evaluation uses
Fractions, the unimodular sampler certifies its own determinant, and the
polytope oracles search exhaustively where the package is clever.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from weaklg.expr import Const, Diff, Expr, Pow, Prod, Quot, Sum, Var

Term = tuple[tuple[int, ...], int]


def convolve_terms(left: dict[tuple[int, ...], int], right: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            key = tuple(a + b for a, b in zip(ea, eb))
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


def is_full_dimensional(points: list[tuple], n: int) -> bool:
    """True iff some n+1 of the points span an n-simplex."""
    pts = sorted(set(points))
    return any(
        determinant([[Fraction(a - b) for a, b in zip(p, s[0])] for p in s[1:]]) != 0
        for s in combinations(pts, n + 1)
    )


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
    """(vertices, facets) of a full-dimensional point set in dimension n <= 3,
    in the layout of `Polytope`, by exhaustive supporting-hyperplane search:
    every n-subset that spans a hyperplane is tested against every point, so
    the cost is O(N^(n+1)).  A vertex is a point on at least n facets."""
    pts = sorted(set(points))
    if n == 1:
        lo, hi = min(pts)[0], max(pts)[0]
        return ((_canon(lo),), (_canon(hi),)), (((1,), Fraction(hi)), ((-1,), Fraction(-lo)))
    facets: dict[tuple[tuple[int, ...], Fraction], None] = {}
    tested: set[tuple[tuple[int, ...], Fraction]] = set()
    for subset in combinations(pts, n):
        u = tuple(b - a for a, b in zip(subset[0], subset[1]))
        if n == 2:
            normal = (u[1], -u[0])
        else:
            v = tuple(b - a for a, b in zip(subset[0], subset[2]))
            normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if all(c == 0 for c in normal):
            continue
        prim = _primitive(normal)
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
