"""Rational expression trees: parsing, Laurent conversion, identity testing.

The text grammar (whitespace-insensitive, explicit ``*`` required):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' ['-'] integer]
    atom   := integer | name | '(' expr ')' | '-' atom
    name   := letter (letter|digit)*

Trees are built from integer constants, variables, n-ary sums and products,
binary differences and quotients, and integer powers.  No simplification is
performed except folding of exact integer arithmetic, so an expression keeps
the shape the user wrote.

Equality of two expressions as rational functions is tested probabilistically
by evaluating both sides at random points over the fixed prime field
F_p with p = 2^61 - 1.  For expressions whose numerator and denominator
degrees are below D, a single agreeing evaluation is wrong with probability
at most D/(p - 1); twenty agreeing trials push that below 2^-800 for every
polynomial appearing in the bundled corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .laurent import LaurentPolynomial, is_probable_prime

# Fixed public prime 2^61 - 1 (Mersenne), used by random_equal.
IDENTITY_PRIME = (1 << 61) - 1

# Deepest nesting of parentheses and unary minus signs parse accepts: the
# parser recurses about four interpreter frames per level, well inside the
# default recursion limit of 1000 frames.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error, carrying the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class NotLaurentError(ValueError):
    """Raised when an expression is not a Laurent polynomial over Z."""


class IdentityTestError(RuntimeError):
    """Raised when random_equal exhausts its retry budget."""


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Sum:
    terms: tuple["Expr", ...]


@dataclass(frozen=True)
class Diff:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Prod:
    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Quot:
    numerator: "Expr"
    denominator: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Const, Var, Sum, Diff, Prod, Quot, Pow]


# ---------------------------------------------------------------------------
# parsing

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start:self.pos]


def parse(text: str) -> Expr:
    """Parse an expression string; raises ParseError with a byte offset."""
    tok = _Tokenizer(text)
    node = _parse_expr(tok)
    tok.skip_ws()
    if tok.pos != len(text):
        raise ParseError(f"unexpected character {text[tok.pos]!r}", tok.pos)
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


def _parse_atom(tok: _Tokenizer) -> Expr:
    ch = tok.peek()
    if ch == "":
        raise ParseError("unexpected end of input", tok.pos)
    if ch in "(-":
        if tok.nesting == MAX_NESTING:
            raise ParseError(f"expression nested too deeply (the limit is {MAX_NESTING} levels)", tok.pos)
        tok.nesting += 1
        tok.take()
        if ch == "(":
            node = _parse_expr(tok)
            if tok.peek() != ")":
                raise ParseError("expected ')'", tok.pos)
            tok.take()
        else:
            inner = _parse_atom(tok)
            node = Const(-inner.value) if isinstance(inner, Const) else Prod((Const(-1), inner))
        tok.nesting -= 1
        return node
    if ch.isdigit():
        return Const(tok.integer())
    if ch.isalpha():
        return Var(tok.name())
    raise ParseError(f"unexpected character {ch!r}", tok.pos)


# ---------------------------------------------------------------------------
# rendering

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


def render(e: Expr) -> str:
    """Canonical text form; parse(render(e)) reproduces e exactly."""
    return _render(e, 0)


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


def variables(e: Expr) -> tuple[str, ...]:
    """Free variable names, sorted."""
    seen: set[str] = set()
    _collect_vars(e, seen)
    return tuple(sorted(seen))


def _collect_vars(e: Expr, out: set[str]) -> None:
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Sum):
        for t in e.terms:
            _collect_vars(t, out)
    elif isinstance(e, Prod):
        for f in e.factors:
            _collect_vars(f, out)
    elif isinstance(e, Diff):
        _collect_vars(e.left, out)
        _collect_vars(e.right, out)
    elif isinstance(e, Quot):
        _collect_vars(e.numerator, out)
        _collect_vars(e.denominator, out)
    elif isinstance(e, Pow):
        _collect_vars(e.base, out)


# ---------------------------------------------------------------------------
# conversion to Laurent polynomials

def to_laurent(e: Expr, variable_order: Sequence[str]) -> LaurentPolynomial:
    """Expand e into a Laurent polynomial over the given variables.

    Every quotient denominator and every negatively-powered base must expand
    to a single monomial, and all coefficient divisions must be exact over Z;
    otherwise NotLaurentError names the offending subexpression.
    """
    names = list(variable_order)
    if len(set(names)) != len(names):
        raise ValueError("variable_order contains duplicates")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    if n < 1:
        raise ValueError("variable_order must name at least one variable")

    def walk(node: Expr) -> LaurentPolynomial:
        if isinstance(node, Const):
            return LaurentPolynomial.constant(n, node.value)
        if isinstance(node, Var):
            if node.name not in index:
                raise NotLaurentError(f"unknown variable {node.name!r}")
            return LaurentPolynomial.variable(n, index[node.name])
        if isinstance(node, Sum):
            total = walk(node.terms[0])
            for t in node.terms[1:]:
                total = total + walk(t)
            return total
        if isinstance(node, Diff):
            return walk(node.left) - walk(node.right)
        if isinstance(node, Prod):
            total = walk(node.factors[0])
            for f in node.factors[1:]:
                total = total * walk(f)
            return total
        if isinstance(node, Quot):
            num = walk(node.numerator)
            den = walk(node.denominator)
            return _divide_by_monomial(num, den, node.denominator)
        if isinstance(node, Pow):
            base = walk(node.base)
            if node.exponent >= 0:
                return base ** node.exponent
            inv = _invert_monomial(base, node.base)
            return inv ** (-node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    return walk(e)


def _divide_by_monomial(num: LaurentPolynomial, den: LaurentPolynomial, source: Expr) -> LaurentPolynomial:
    if len(den) != 1:
        raise NotLaurentError(f"non-monomial denominator: {render(source)}")
    (dexps, dcoeff), = den.terms.items()
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in num.terms.items():
        q, r = divmod(coeff, dcoeff)
        if r != 0:
            raise NotLaurentError(
                f"coefficient {coeff} is not divisible by {dcoeff} in quotient by {render(source)}"
            )
        out[tuple(a - b for a, b in zip(exps, dexps))] = q
    return LaurentPolynomial(num.nvars, out)


def _invert_monomial(base: LaurentPolynomial, source: Expr) -> LaurentPolynomial:
    if len(base) != 1:
        raise NotLaurentError(f"negative power of a non-monomial: {render(source)}")
    (exps, coeff), = base.terms.items()
    if coeff not in (1, -1):
        raise NotLaurentError(
            f"negative power of monomial with non-unit coefficient {coeff}: {render(source)}"
        )
    return LaurentPolynomial.monomial(base.nvars, tuple(-e for e in exps), coeff)


# ---------------------------------------------------------------------------
# substitution

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


# ---------------------------------------------------------------------------
# randomized identity testing

@dataclass(frozen=True)
class IdentityResult:
    """Outcome of a randomized equality test.

    equal is the verdict; trials counts point evaluations where both sides
    were defined; witness is a disagreeing point when equal is False.
    """

    equal: bool
    trials: int
    witness: dict[str, int] | None

    def __bool__(self) -> bool:
        return self.equal


class _UndefinedPoint(Exception):
    pass


def _eval_mod(e: Expr, env: Mapping[str, int], p: int) -> int:
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


def random_equal(
    left: Expr,
    right: Expr,
    trials: int = 20,
    seed: int = 0,
    prime: int = IDENTITY_PRIME,
) -> IdentityResult:
    """Schwartz-Zippel equality test of two expressions as rational functions.

    Draws points with all coordinates in [1, p-1] from a deterministic
    seeded generator.  Points where either side hits a zero denominator are
    discarded and redrawn; the retry budget is 8*trials + 16 total draws.
    Returns a verdict plus the witness point when a disagreement is found.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if prime < 3 or not is_probable_prime(prime):
        raise ValueError(f"modulus {prime} is not an odd prime")
    names = sorted(set(variables(left)) | set(variables(right)))
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


def laurent_to_expr(f: LaurentPolynomial, names: Sequence[str] | None = None) -> Expr:
    """Expression tree for a Laurent polynomial (via its canonical rendering)."""
    return parse(f.render(names))
