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

random_equal(), variables() and to_laurent() share one compiled form: an
iterative walk lists each distinct subexpression once, operands first, and
an evaluator runs down that list, dropping each value after its last use.
The identity test evaluates a whole batch of points per step, as a
numerator and a denominator vector mod p, and compares the two sides by
cross-multiplying, so it computes no modular inverse.  render() and
substitute() still recurse once per level of the tree.
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

# Most terms a power in to_laurent may expand to, bounded before expanding:
# (x+y+z+1)^37, with 9,880, is the highest power of x+y+z+1 allowed.
# Repeated squaring multiplies smaller powers of the base, so this also
# bounds the term products a power forms.
MAX_POWER_TERMS = 10_000

# Most term products |A|*|B| one product in to_laurent may form, bounded
# before forming it.  The corpus, the constructors' models and the tests
# form at most 30; the squaring (x+y+z+1)^16 * (x+y+z+1)^16 inside an allowed
# power forms 938,961, so a product written out is allowed as many.
MAX_TERM_PRODUCTS = 1_000_000


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


# ---------------------------------------------------------------------------
# compiled programs

_EMIT = object()


class _Program:
    """The subexpressions under some roots as one program, operands first.

    nodes[i] is computed from the values of the slots operands[i]; last[j]
    is the step that reads slot j last, where an evaluator can drop it, or
    -1 for a root; roots[k] is the slot of the k-th root.
    Equal subtrees share a slot: a step is numbered by its kind, its leaf
    value or exponent and its operands' slots, so a subtree that substitute
    shares, or that the text repeats (x^-1 in every term), is computed once.
    An n-ary sum or product becomes a chain of binary steps, each taken as
    soon as its operand is ready, so no step holds more than two values.
    The walk is iterative, so a chain such as x-x-...-x needs no recursion.
    """

    __slots__ = ("nodes", "operands", "last", "roots")

    def __init__(self, *roots: Expr):
        slot: dict[int, int] = {}  # id(node) -> slot, for every node placed
        slot_of = slot.__getitem__
        number: dict = {}  # name, value or (kind, [exponent,] reads) -> slot
        nodes: list[Expr] = []
        operands: list[list[int]] = []
        last: list[int] = []
        # A node with operands is pushed back as (operands, node, _EMIT)
        # under them and placed when the marker comes back up.  Reads are
        # lists: tuple(map(...)) starts at ten slots and shrinks, so every
        # call moves a block into the small-tuple free lists, which fill up
        # (2,000 blocks per size) and stay full.
        stack: list = list(reversed(roots))
        pop = stack.pop
        while stack:
            node = pop()
            if node is _EMIT:
                node = pop()
                reads = [*map(slot_of, map(id, pop()))]
                kind = type(node)
                key = (kind, node.exponent, *reads) if kind is Pow else (kind, *reads)
            elif id(node) in slot:
                continue
            else:
                kind = type(node)
                if kind is Var:
                    reads, key = [], node.name
                elif kind is Const:
                    reads, key = [], node.value
                else:
                    if kind is Sum:
                        kids = node.terms
                    elif kind is Prod:
                        kids = node.factors
                    elif kind is Pow:
                        kids = (node.base,)
                    elif kind is Diff:
                        kids = (node.left, node.right)
                    elif kind is Quot:
                        kids = (node.numerator, node.denominator)
                    else:
                        raise TypeError(f"not an expression node: {node!r}")
                    if len(kids) > 2:
                        # Each further operand of a sum or product is folded
                        # into the partial result, placed under id(node).
                        for k in kids[:1:-1]:
                            stack += ((node, k), node, _EMIT, k)
                        kids = kids[:2]
                    stack += (kids, node, _EMIT)
                    stack += reversed(kids)
                    continue
            here = number.setdefault(key, len(nodes))
            if here == len(nodes):
                for j in reads:
                    last[j] = here
                nodes.append(node)
                operands.append(reads)
                last.append(-1)
            slot[id(node)] = here
        self.nodes = nodes
        self.operands = operands
        self.roots = [slot[id(root)] for root in roots]
        for j in self.roots:
            last[j] = -1
        self.last = last

    def variables(self) -> list[str]:
        return sorted({node.name for node in self.nodes if type(node) is Var})


def variables(e: Expr) -> tuple[str, ...]:
    """Free variable names, sorted."""
    return tuple(_Program(e).variables())


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

    program = _Program(e)
    # Leaves are immutable, so each distinct one is built once and shared.
    generators = {name: LaurentPolynomial.variable(n, i) for name, i in index.items()}
    constants: dict[int, LaurentPolynomial] = {}
    values: list[LaurentPolynomial | None] = [None] * len(program.nodes)
    # A power is expanded when a step reads it, so that a product can bound
    # its term products by the power's term bound first: slot -> (base,
    # exponent, term bound) of each power not yet expanded.
    powers: dict[int, tuple[LaurentPolynomial, int, int]] = {}

    def read(j: int) -> LaurentPolynomial:
        if j in powers:
            base, exponent, _ = powers.pop(j)
            values[j] = base ** exponent
        return values[j]

    def size(j: int) -> int:
        return powers[j][2] if j in powers else len(values[j])

    last = program.last
    for i, node in enumerate(program.nodes):
        reads = program.operands[i]
        kind = type(node)
        if kind is Const:
            value = constants.get(node.value)
            if value is None:
                value = constants[node.value] = LaurentPolynomial.constant(n, node.value)
        elif kind is Var:
            value = generators.get(node.name)
            if value is None:
                raise NotLaurentError(f"unknown variable {node.name!r}")
        elif kind is Sum:
            value = read(reads[0])
            for j in reads[1:]:
                value = value + read(j)
        elif kind is Diff:
            value = read(reads[0]) - read(reads[1])
        elif kind is Prod:
            # the program's product steps have two operands (or one)
            if len(reads) == 2 and size(reads[0]) * size(reads[1]) > MAX_TERM_PRODUCTS:
                raise ValueError(
                    f"a product of {size(reads[0])} and {size(reads[1])} terms may form more than"
                    f" {MAX_TERM_PRODUCTS} term products (the limit MAX_TERM_PRODUCTS)"
                )
            value = read(reads[0])
            for j in reads[1:]:
                value = value * read(j)
        elif kind is Quot:
            value = _divide_by_monomial(read(reads[0]), read(reads[1]), node.denominator)
        elif node.exponent >= 0:
            base = read(reads[0])
            bound = _power_terms_bound(base, node.exponent)
            if bound > MAX_POWER_TERMS:
                raise ValueError(
                    f"a power with exponent {node.exponent} of {len(base)} terms may expand to more than"
                    f" {MAX_POWER_TERMS} terms (the limit MAX_POWER_TERMS)"
                )
            powers[i] = (base, node.exponent, bound)
            value = None
        else:
            value = _invert_monomial(read(reads[0]), node.base) ** (-node.exponent)
        values[i] = value
        for j in reads:
            if last[j] == i:
                values[j] = None
    return read(len(values) - 1)


def _power_terms_bound(base: LaurentPolynomial, k: int) -> int:
    """An upper bound on the terms of base**k, or a number past
    MAX_POWER_TERMS: the C(k+m-1, m-1) multisets of k of its m terms,
    counted up only until they pass the limit, and past it the lesser of
    that and the lattice points in k times the bounding box of base's
    exponents."""
    m = len(base)
    multisets = 1
    for j in range(1, min(k, m - 1) + 1):
        multisets = multisets * (k + m - j) // j
        if multisets > MAX_POWER_TERMS:
            break
    else:
        return multisets
    exps = list(base.terms)
    box = 1
    for c in range(base.nvars):
        box *= k * (max(e[c] for e in exps) - min(e[c] for e in exps)) + 1
    return min(box, multisets)


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


# A step's value over a batch of points is a pair (numerators, denominators)
# of vectors mod p, one entry per point, with None for all-one denominators.
# Nothing is inverted: the two sides agree at a point where ln*rd == rn*ld.
# A denominator is 0 exactly where the step, or a step below it, divides by
# 0, and such points are redrawn: the quotient of a/b by c/d is
# (a*d*d)/(b*c*d), keeping d where c/d would cancel it, and a power of a/b
# with exponent k <= 0 keeps b, as b/b or b^(1-k)/(a^-k*b).

_Vector = list[int]
_Pair = tuple[_Vector, Union[_Vector, None]]


def _mul(a: _Vector, b: _Vector, p: int) -> list[int]:
    return [x * y % p for x, y in zip(a, b)]


def _mul_opt(a: _Vector | None, b: _Vector | None, p: int) -> _Vector | None:
    if a is None:
        return b
    if b is None:
        return a
    return _mul(a, b, p)


def _power(a: _Vector, k: int, p: int) -> _Vector:
    return a if k == 1 else [pow(x, k, p) for x in a]


def _add(x: _Pair, y: _Pair, sign: int, p: int) -> _Pair:
    """x + sign*y, sign = 1 or -1."""
    (a, b), (c, d) = x, y
    if b is None and d is None:
        return [(s + sign * t) % p for s, t in zip(a, c)], None
    if b is None:
        return [(s * v + sign * t) % p for s, t, v in zip(a, c, d)], d
    if d is None:
        return [(s + sign * t * u) % p for s, t, u in zip(a, c, b)], b
    return [(s * v + sign * t * u) % p for s, t, u, v in zip(a, c, b, d)], _mul(b, d, p)


def _evaluate_mod(program: _Program, coords: Mapping[str, _Vector], count: int, p: int) -> list[_Pair]:
    """Each root's value at count points; coords maps a name to its coordinates."""
    values: list[_Pair | None] = [None] * len(program.nodes)
    value_of = values.__getitem__
    last = program.last
    for i, node in enumerate(program.nodes):
        reads = program.operands[i]
        args = [*map(value_of, reads)]
        kind = type(node)
        if kind is Const:
            value = [node.value % p] * count, None
        elif kind is Var:
            value = coords[node.name], None
        elif kind is Sum:
            value = args[0]
            for term in args[1:]:
                value = _add(value, term, 1, p)
        elif kind is Diff:
            value = _add(args[0], args[1], -1, p)
        elif kind is Prod:
            num, den = args[0]
            for a, b in args[1:]:
                num, den = _mul(num, a, p), _mul_opt(den, b, p)
            value = num, den
        elif kind is Quot:
            (a, b), (c, d) = args
            if d is None:
                value = a, _mul_opt(b, c, p)
            else:
                value = _mul(_mul(a, d, p), d, p), _mul(_mul_opt(b, c, p), d, p)
        else:
            (a, b), k = args[0], node.exponent
            if k > 0:
                value = _power(a, k, p), None if b is None else _power(b, k, p)
            elif b is None:
                value = [1] * count, None if k == 0 else _power(a, -k, p)
            else:
                value = (b, b) if k == 0 else (_power(b, 1 - k, p), _mul(_power(a, -k, p), b, p))
        values[i] = value
        for j in reads:
            if last[j] == i:
                values[j] = None
    return [values[j] for j in program.roots]


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

    Both sides are compiled into one program and evaluated a batch of
    points at a time, each batch being the points still needed, drawn in
    the order one point at a time would draw them; so the batching changes
    neither the verdict nor trials nor the witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if prime < 3 or not is_probable_prime(prime):
        raise ValueError(f"modulus {prime} is not an odd prime")
    program = _Program(left, right)
    names = program.variables()
    rng = random.Random(seed)
    budget = 8 * trials + 16
    drawn = done = 0
    while drawn < budget:
        # The points still needed if all are defined, drawn in the order a
        # point-at-a-time loop would draw them.
        count = min(trials - done, budget - drawn)
        points = [[rng.randrange(1, prime) for _ in names] for _ in range(count)]
        drawn += count
        coords = {name: [point[k] for point in points] for k, name in enumerate(names)}
        (ln, ld), (rn, rd) = _evaluate_mod(program, coords, count, prime)
        for j, point in enumerate(points):
            lden = 1 if ld is None else ld[j]
            rden = 1 if rd is None else rd[j]
            if lden == 0 or rden == 0:
                continue
            if ln[j] * rden % prime != rn[j] * lden % prime:
                return IdentityResult(equal=False, trials=done + 1, witness=dict(zip(names, point)))
            done += 1
            if done == trials:
                return IdentityResult(equal=True, trials=done, witness=None)
    raise IdentityTestError(
        f"exhausted {budget} draws with only {done}/{trials} defined evaluations"
    )


def laurent_to_expr(f: LaurentPolynomial, names: Sequence[str] | None = None) -> Expr:
    """Expression tree for a Laurent polynomial (via its canonical rendering)."""
    return parse(f.render(names))
