"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the package internals:
expansion oracles use plain dict convolution, expression evaluation uses
Fractions, the identity-test oracle evaluates one point at a time by
recursion with a modular inverse per division, the unimodular sampler
certifies its own determinant, and the polytope oracles search
exhaustively where the package is clever.  The recursive render,
substitute and (numerator, denominator) walkers that the package replaced
by iterative passes and one compiled-program driver are kept verbatim.
So are the exhaustive annihilator sweep that a mod-p screen replaced, the
solve of the whole annihilator matrix that a solve per grading class
replaced (but for its re-check, which sums the matrix's columns itself),
the term-by-term ladder polynomial that the sum of its hyperplane-class
factors replaced, the recursive == and repr() of expression nodes (compared and
printed field by field, as a frozen value class does), the
character-level parser that the token-list parser replaced, and the two
signed-sum loops of LaurentPolynomial.render and DifferentialOperator.pretty
that one printer replaced.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

from weaklg import expr as ex
from weaklg.expr import Const, Diff, Expr, IdentityResult, IdentityTestError, Pow, Prod, Quot, Sum, Var
from weaklg.laurent import LaurentPolynomial
from weaklg.linalg import nullspace
from weaklg.operators import DifferentialOperator
from weaklg.series import IntegerSeries

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


# The character-level parser weaklg.expr had before it lexed the text into a
# token list, kept as an oracle: parse_oracle(text) must give the same tree,
# or a ParseError with the same message and offset.  Two things changed since:
# integers are read with str.isdecimal, which accepts exactly the digits int()
# does, instead of str.isdigit, which also accepts '²' and then raised a bare
# ValueError from int(); and a unary minus is taken by the factor, not the
# atom, so -x^2 is -(x^2) as the grammar of weaklg.expr now says.

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0  # open parentheses and unary minus signs

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ex.ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start:self.pos]


def parse_oracle(text: str) -> Expr:
    tok = _Tokenizer(text)
    node = _parse_expr(tok)
    tok.skip_ws()
    if tok.pos != len(text):
        raise ex.ParseError(f"unexpected character {text[tok.pos]!r}", tok.pos)
    return node


def _parse_expr(tok: _Tokenizer) -> Expr:
    node = _parse_term(tok)
    while True:
        ch = tok.peek()
        if ch == "+":
            tok.take()
            rhs = _parse_term(tok)
            if isinstance(node, Sum):
                node = Sum(node.terms + (rhs,))
            else:
                node = Sum((node, rhs))
        elif ch == "-":
            tok.take()
            node = Diff(node, _parse_term(tok))
        else:
            return node


def _parse_term(tok: _Tokenizer) -> Expr:
    node = _parse_factor(tok)
    while True:
        ch = tok.peek()
        if ch == "*":
            tok.take()
            rhs = _parse_factor(tok)
            if isinstance(node, Prod):
                node = Prod(node.factors + (rhs,))
            else:
                node = Prod((node, rhs))
        elif ch == "/":
            tok.take()
            node = Quot(node, _parse_factor(tok))
        else:
            return node


def _parse_factor(tok: _Tokenizer) -> Expr:
    if tok.peek() == "-":
        _enter(tok)
        inner = _parse_factor(tok)
        tok.nesting -= 1
        return Const(-inner.value) if isinstance(inner, Const) else Prod((Const(-1), inner))
    base = _parse_atom(tok)
    if tok.peek() == "^":
        tok.take()
        negative = False
        if tok.peek() == "-":
            tok.take()
            negative = True
        exponent = tok.integer()
        return Pow(base, -exponent if negative else exponent)
    return base


def _enter(tok: _Tokenizer) -> None:
    """Take a '(' or a unary '-', one more level of nesting."""
    if tok.nesting == ex.MAX_NESTING:
        raise ex.ParseError(f"expression nested too deeply (the limit is {ex.MAX_NESTING} levels)", tok.pos)
    tok.nesting += 1
    tok.take()


def _parse_atom(tok: _Tokenizer) -> Expr:
    ch = tok.peek()
    if ch == "":
        raise ex.ParseError("unexpected end of input", tok.pos)
    if ch == "(":
        _enter(tok)
        node = _parse_expr(tok)
        if tok.peek() != ")":
            raise ex.ParseError("expected ')'", tok.pos)
        tok.take()
        tok.nesting -= 1
        return node
    if ch.isdecimal():
        return Const(tok.integer())
    if ch.isalpha():
        return Var(tok.name())
    raise ex.ParseError(f"unexpected character {ch!r}", tok.pos)


# The recursive walkers of weaklg.expr and weaklg.constructors before they
# became iterative passes and one compiled-program driver, kept verbatim as
# oracles; _render(e, 0) is the old render(e).

def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return 5 if e.value >= 0 else 0
    if isinstance(e, Var):
        return 5
    if isinstance(e, (Sum, Diff)):
        return 1
    if isinstance(e, (Prod, Quot)):
        return 2
    return 3  # Pow


def _render(e: Expr, min_prec: int) -> str:
    if isinstance(e, Const):
        body = str(e.value)
    elif isinstance(e, Var):
        body = e.name
    elif isinstance(e, Sum):
        parts = [_render(e.terms[0], 1)] + [_render(t, 2) for t in e.terms[1:]]
        body = " + ".join(parts)
    elif isinstance(e, Diff):
        body = _render(e.left, 1) + " - " + _render(e.right, 2)
    elif isinstance(e, Prod):
        parts = [_render(e.factors[0], 2)] + [_render(f, 3) for f in e.factors[1:]]
        body = "*".join(parts)
    elif isinstance(e, Quot):
        body = _render(e.numerator, 2) + "/" + _render(e.denominator, 3)
    elif isinstance(e, Pow):
        body = _render(e.base, 4) + "^" + str(e.exponent)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _prec(e) < min_prec:
        return "(" + body + ")"
    return body


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Replace variables simultaneously; folds integer constants, nothing else."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Sum):
        terms = tuple(substitute(t, bindings) for t in e.terms)
        if all(isinstance(t, Const) for t in terms):
            return Const(sum(t.value for t in terms))
        return Sum(terms)
    if isinstance(e, Diff):
        left = substitute(e.left, bindings)
        right = substitute(e.right, bindings)
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value - right.value)
        return Diff(left, right)
    if isinstance(e, Prod):
        factors = tuple(substitute(f, bindings) for f in e.factors)
        if all(isinstance(f, Const) for f in factors):
            value = 1
            for f in factors:
                value *= f.value
            return Const(value)
        return Prod(factors)
    if isinstance(e, Quot):
        num = substitute(e.numerator, bindings)
        den = substitute(e.denominator, bindings)
        if isinstance(num, Const) and isinstance(den, Const) and den.value != 0:
            q, r = divmod(num.value, den.value)
            if r == 0:
                return Const(q)
        return Quot(num, den)
    if isinstance(e, Pow):
        base = substitute(e.base, bindings)
        if isinstance(base, Const):
            if e.exponent >= 0:
                return Const(base.value ** e.exponent)
            if base.value in (1, -1):
                return Const(base.value ** (-e.exponent % 2) if base.value == -1 else 1)
        return Pow(base, e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# The fields of each kind of expression node, in constructor order.
NODE_FIELDS = {Const: ("value",), Var: ("name",), Sum: ("terms",), Diff: ("left", "right"),
               Prod: ("factors",), Quot: ("numerator", "denominator"), Pow: ("base", "exponent")}


def expr_equal(a, b) -> bool:
    """Structural == by recursion: the same node class and equal fields,
    tuples of operands compared element by element."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(expr_equal, a, b))
    if type(a) not in NODE_FIELDS:
        return a == b
    return type(a) is type(b) and all(expr_equal(getattr(a, f), getattr(b, f)) for f in NODE_FIELDS[type(a)])


def expr_repr(e) -> str:
    """The repr() Kind(field=value, ...) by recursion."""
    if isinstance(e, tuple):
        return "(" + ", ".join(map(expr_repr, e)) + ("," if len(e) == 1 else "") + ")"
    if type(e) not in NODE_FIELDS:
        return repr(e)
    return f"{type(e).__name__}(" + ", ".join(f"{f}={expr_repr(getattr(e, f))}" for f in NODE_FIELDS[type(e)]) + ")"


def _expr_to_fraction(e: Expr, names: Sequence[str]) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Rewrite an expression as an unreduced quotient of two honest
    polynomials (no negative exponents) over the given variables."""
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    one = LaurentPolynomial.one(n)

    def walk(node: Expr) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        if isinstance(node, Const):
            return LaurentPolynomial.constant(n, node.value), one
        if isinstance(node, Var):
            return LaurentPolynomial.variable(n, index[node.name]), one
        if isinstance(node, Sum):
            num, den = walk(node.terms[0])
            for t in node.terms[1:]:
                tn, td = walk(t)
                num = num * td + tn * den
                den = den * td
            return num, den
        if isinstance(node, Diff):
            ln, ld = walk(node.left)
            rn, rd = walk(node.right)
            return ln * rd - rn * ld, ld * rd
        if isinstance(node, Prod):
            num, den = walk(node.factors[0])
            for f in node.factors[1:]:
                fn, fd = walk(f)
                num = num * fn
                den = den * fd
            return num, den
        if isinstance(node, Quot):
            ln, ld = walk(node.numerator)
            rn, rd = walk(node.denominator)
            if not rn:
                raise ZeroDivisionError(f"denominator {ex.render(node.denominator)} is identically zero")
            return ln * rd, ld * rn
        if isinstance(node, Pow):
            bn, bd = walk(node.base)
            if node.exponent >= 0:
                return bn ** node.exponent, bd ** node.exponent
            if not bn:
                raise ZeroDivisionError(f"negative power of identically zero base {ex.render(node.base)}")
            return bd ** (-node.exponent), bn ** (-node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    return walk(e)


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
    O(N^(n+1)).  A vertex is a point whose facets' normals have rank n: in
    dimension 4 and up a point on n facets can still lie inside an edge."""
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
        if oracle_rank([list(normal) for normal, offset in facet_list if _dot(normal, p) == offset]) == n
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


def find_annihilator_dense(
    s: IntegerSeries,
    order: int,
    degree: int,
) -> list[DifferentialOperator]:
    """find_annihilator as one solve of the whole matrix, which the package
    replaced by a solve per grading class (kept verbatim but for the
    re-check, which sums the columns itself rather than call the package's
    operator action).

    All operators with D-order <= order and t-degree <= degree that kill
    the coefficients of s through its truncation order.

    Returns a basis of the solution space, each element scaled so its first
    nonzero coefficient in (l, j)-lexicographic order is 1.  An empty list
    means no such operator exists at these bounds.  Every returned operator
    is re-checked against the series before being handed back, with the
    integer coefficients the nullspace gives it, before they are scaled.
    """
    if order < 0 or degree < 0:
        raise ValueError("order and degree must be >= 0")
    cols = [(l, j) for l in range(degree + 1) for j in range(order + 1)]
    columns = list(_annihilator_columns(s, order, degree))
    rows = zip(*columns)
    # content stripping is applied to the input rows only: stripping
    # mid-elimination would break Bareiss's exact divisions
    basis = nullspace([_strip_content(row) for row in rows if any(row)], len(cols))
    ops = []
    for vec in basis:
        coeffs = {cols[k]: v for k, v in enumerate(vec) if v != 0}
        if any(sum(v * e for v, e in zip(vec, row)) for row in zip(*columns)):
            raise ArithmeticError("solver returned an operator that fails its own equations")
        ops.append(DifferentialOperator(coeffs).scaled_canonical())
    return ops


def _strip_content(row: Sequence[int]) -> Sequence[int]:
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _annihilator_columns(s: IntegerSeries, order: int, degree: int) -> Iterator[list[int]]:
    """find_annihilator's columns (l, j), j <= order, for l = 0..degree in
    turn: entry i of (l, j) is s_(i-l) (i-l)^j, 0 for i < l."""
    powers = [list(s.coeffs)]  # s_k k^j, j = 0..order
    for _ in range(order):
        powers.append([c * k for k, c in enumerate(powers[-1])])
    for l in range(degree + 1):
        for row in powers:
            yield ([0] * l + row)[: len(row)]


def find_minimal_annihilator_oracle(
    s: IntegerSeries,
    max_order: int = 4,
    max_degree: int = 6,
) -> tuple[int, int, list[DifferentialOperator]] | None:
    """The exhaustive sweep: solve every (order, degree) cell exactly, by
    increasing order + degree, then order, and return the first cell with a
    nonempty annihilator basis, each by one solve of the whole matrix.  A
    cell is skipped when some class c mod g, g the gcd of the indices of the
    nonzero coefficients of s, has fewer equations i = c mod g than unknowns
    (l, j) with l = c mod g, each counted one by one, and when a column of
    the whole matrix is zero."""
    g = math.gcd(*(i for i, c in enumerate(s.coeffs) if c)) or 1

    def determined(m: int, r: int) -> bool:
        equations = [sum(1 for i in range(len(s)) if i % g == c) for c in range(g)]
        unknowns = [sum(1 for l in range(r + 1) for _ in range(m + 1) if l % g == c) for c in range(g)]
        counted = all(e >= u for e, u in zip(equations, unknowns))
        return counted and all(any(column) for column in _annihilator_columns(s, m, r))

    cells = sorted(
        ((m, r) for m in range(max_order + 1) for r in range(max_degree + 1) if determined(m, r)),
        key=lambda mr: (mr[0] + mr[1], mr[0]),
    )
    for m, r in cells:
        ops = find_annihilator_dense(s, m, r)
        if ops:
            return m, r, ops
    return None


def grassmannian_polynomial_oracle(k: int, n: int) -> LaurentPolynomial:
    """The ladder polynomial of G(k, N) term by term on its (N-k) x k grid:
    X_11, X_(a+1,b)/X_(a,b) and X_(a,b+1)/X_(a,b) inside the grid, and
    1/X_(N-k,k), each with coefficient 1."""
    rows, cols = n - k, k
    nv = rows * cols

    def idx(a: int, b: int) -> int:
        return (a - 1) * cols + (b - 1)

    terms: dict[tuple[int, ...], int] = {}

    def add_term(exps: list[int]) -> None:
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + 1

    e = [0] * nv
    e[idx(1, 1)] = 1
    add_term(e)
    for a in range(1, rows + 1):
        for b in range(1, cols + 1):
            for ta, tb in ((a + 1, b), (a, b + 1)):
                if ta <= rows and tb <= cols:
                    e = [0] * nv
                    e[idx(ta, tb)] = 1
                    e[idx(a, b)] = -1
                    add_term(e)
    e = [0] * nv
    e[idx(rows, cols)] = -1
    add_term(e)
    return LaurentPolynomial(nv, terms)


def render_oracle(f: LaurentPolynomial, names: Sequence[str] | None = None) -> str:
    """LaurentPolynomial.render with its own signed-sum loop (kept verbatim)."""
    if not f._terms:
        return "0"
    if names is None:
        names = f.default_names()
    if len(names) != f._nvars:
        raise ValueError(f"need {f._nvars} variable names, got {len(names)}")
    pieces: list[str] = []
    for exps in sorted(f._terms, reverse=True):
        coeff = f._terms[exps]
        factors = [f"{names[i]}^{e}" if e != 1 else names[i] for i, e in enumerate(exps) if e != 0]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def pretty_oracle(op: DifferentialOperator) -> str:
    """DifferentialOperator.pretty with its own signed-sum loop (kept verbatim)."""
    pieces = []
    for (l, j) in sorted(op.coeffs, key=lambda k: (-k[1], k[0])):
        c = op.coeffs[(l, j)]
        factors = []
        if abs(c) != 1 or (l == 0 and j == 0):
            factors.append(str(abs(c)))
        if l:
            factors.append("t" if l == 1 else f"t^{l}")
        if j:
            factors.append("D" if j == 1 else f"D^{j}")
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)
