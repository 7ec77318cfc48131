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

random_equal(), variables(), to_laurent() and to_fraction() share one
compiled form: an iterative walk lists each distinct subexpression once,
operands first, and one driver runs down that list with a step function per
kind of node, dropping each value after its last use.  The three rings are
Laurent polynomials, (numerator, denominator) pairs of polynomials, and
batches of points mod p: the identity test evaluates a whole batch per
step, as a numerator and a denominator vector, and compares the two sides
by cross-multiplying, so it computes no modular inverse.  render() and
substitute() walk the tree bottom-up without recursion, each distinct node
once, as do ==, hash() and repr() of a node, so only the parser recurses,
at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from math import prod
from typing import Callable, Mapping, Sequence, Union

from .laurent import LaurentPolynomial

# Fixed public prime 2^61 - 1 (Mersenne), used by random_equal.
IDENTITY_PRIME = (1 << 61) - 1

# Most point-steps random_equal may evaluate, bounded before it draws: its
# 8*trials + 16 draws times the steps of the compiled program, a power
# counted as one step per bit of its exponent.  A point-step took 0.3-0.6 us
# on a 2-vCPU Linux host with Python 3.11.7 (x+y+z against z+y+x; two
# 5,000-term chains; x^(10^12) against itself), so this is about a second.
# Points are evaluated IDENTITY_BATCH at a time, so memory holds at most
# one list of that many residues per live value, whatever trials is.
MAX_IDENTITY_WORK = 2_000_000
IDENTITY_BATCH = 1_000

# Deepest nesting of parentheses and unary minus signs parse accepts: the
# parser recurses about four interpreter frames per level, well inside the
# default recursion limit of 1000 frames.
MAX_NESTING = 100

# Most terms a power in to_laurent may expand to, bounded before expanding:
# (x+y+z+1)^37, with 9,880, is the highest power of x+y+z+1 allowed.
MAX_POWER_TERMS = 10_000

# Most term products one product |A|*|B|, or one power, in to_laurent may
# form, bounded before forming them.  The corpus, the constructors' models
# and the tests form at most 30 in a product; f^k multiplies f^j by f for
# j < k, and (x+y+z+1)^37 forms at most 4*C(40, 4) = 365,560.
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


def past_digit_limit(base: int, exponent: int) -> int:
    """sys.get_int_max_str_digits() if integers up to base**exponent may have
    more digits than Python converts to text, else 0 (also for no limit, 0)."""
    limit = sys.get_int_max_str_digits()
    bits = base.bit_length() * exponent
    # 2^(bits - k) <= base^k < 2^bits, and 2^(3*limit) < 10^limit < 2^(4*limit)
    if limit and base > 1 and bits >= 3 * limit and (bits - exponent >= 4 * limit or base**exponent >= 10**limit):
        return limit
    return 0


class _Node:
    """Structural ==, hash() and repr() without recursion, so that a 5,000-term
    chain x-x-...-x compares, hashes and prints: two nodes are equal when
    their heads (_head) are and their operands are, in order."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        shapes: dict[tuple, int] = {}  # one number per distinct subtree of either side
        number = lambda node, kids: shapes.setdefault((_head(node), *kids), len(shapes))
        return _fold(self, number) == _fold(other, number)

    def __hash__(self) -> int:
        return _fold(self, lambda node, kids: hash((_head(node), *kids)))

    def __repr__(self) -> str:
        return _fold(self, _repr_node)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    value: int


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_Node):
    terms: tuple["Expr", ...]


@dataclass(frozen=True, eq=False, repr=False)
class Diff(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Prod(_Node):
    factors: tuple["Expr", ...]


@dataclass(frozen=True, eq=False, repr=False)
class Quot(_Node):
    numerator: "Expr"
    denominator: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Pow(_Node):
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

def render(e: Expr) -> str:
    """Canonical text form; parse(render(e)) reproduces e exactly.

    Each distinct node is written once, after its operands, with its
    precedence: 1 for a sum or difference, 2 for a product or quotient, 3
    for a power, 5 for a leaf and 0 for a negative constant.  An operand of
    lower precedence than its place asks is parenthesised: the first operand
    of an infix kind asks for the kind's precedence, the others one more."""
    return _fold(e, _render_node)[0]


_INFIX = {Sum: (" + ", 1), Diff: (" - ", 1), Prod: ("*", 2), Quot: ("/", 2)}  # operator, precedence


def _render_node(node: Expr, kids: list[tuple[str, int]]) -> tuple[str, int]:
    kind = type(node)
    if kind is Const:
        return str(node.value), 5 if node.value >= 0 else 0
    if kind is Var:
        return node.name, 5
    if kind is Pow:
        return _wrap(kids[0], 4) + "^" + str(node.exponent), 3
    op, prec = _INFIX[kind]
    return op.join([_wrap(kids[0], prec), *(_wrap(k, prec + 1) for k in kids[1:])]), prec


def _wrap(text: tuple[str, int], min_prec: int) -> str:
    body, prec = text
    return "(" + body + ")" if prec < min_prec else body


def _repr_node(node: Expr, kids: list[str]) -> str:
    """The dataclass repr of a node, given its operands' reprs."""
    names = [f.name for f in fields(node)]
    if len(names) == 1 and kids:  # the operand tuple of a sum or a product
        kids = ["(" + ", ".join(kids) + ("," if len(kids) == 1 else "") + ")"]
    values = kids + [repr(getattr(node, name)) for name in names[len(kids):]]
    return f"{type(node).__name__}({', '.join(map('{}={}'.format, names, values))})"


def _head(node: Expr) -> tuple:
    """A node's kind and fields, an operand given as None and a tuple of
    operands as its length: its leaf, its exponent or its operand count."""
    return type(node), *(None if isinstance(v, _Node) else len(v) if type(v) is tuple else v for v in vars(node).values())


def _operands(node: Expr) -> tuple[Expr, ...]:
    kind = type(node)
    if kind is Var or kind is Const:
        return ()
    if kind is Sum or kind is Prod:
        return node.terms if kind is Sum else node.factors
    if kind is Diff or kind is Quot:
        return (node.left, node.right) if kind is Diff else (node.numerator, node.denominator)
    if kind is Pow:
        return (node.base,)
    raise TypeError(f"not an expression node: {node!r}")


def _postorder(*roots: Expr) -> list[Expr]:
    """Each distinct node under the roots (by identity) once, after its
    operands: an iterative walk, so a chain such as x-x-...-x needs no
    recursion."""
    order: list[Expr] = []
    seen: set[int] = set()
    stack: list = list(reversed(roots))
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            order.append(node[0])
        elif id(node) not in seen:
            seen.add(id(node))
            kids = _operands(node)
            if kids:
                stack.append((node,))
                stack += reversed(kids)
            else:
                order.append(node)
    return order


def _fold(e: Expr, build: Callable[[Expr, list], object]):
    """build(node, its operands' values) for each distinct node under e
    (by identity), operands first, without recursion; each value is
    dropped once every node that reads it is built.  Returns e's value."""
    order = _postorder(e)
    readers = Counter(map(id, chain.from_iterable(map(_operands, order))))
    values: dict[int, object] = {}
    for node in order:
        kids = []
        for key in map(id, _operands(node)):
            readers[key] -= 1
            kids.append(values[key] if readers[key] else values.pop(key))
        values[id(node)] = build(node, kids)
    return values[id(e)]


# ---------------------------------------------------------------------------
# compiled programs


class _Program:
    """The subexpressions under some roots as one program, operands first.

    nodes[i] is computed from the values of the slots operands[i]; last[j]
    is the step that reads slot j last, where an evaluator can drop it, or
    -1 for a root; roots[k] is the slot of the k-th root.
    Equal subtrees share a slot: a step is numbered by its kind, its leaf
    value or exponent and its operands' slots, so a subtree that substitute
    shares, or that the text repeats (x^-1 in every term), is computed once.
    A sum, product, difference or quotient folds its operands left in binary
    steps; a sum or product of one operand is that operand.
    """

    __slots__ = ("nodes", "operands", "last", "roots")

    def __init__(self, *roots: Expr):
        slot: dict[int, int] = {}  # id(node) -> slot
        number: dict = {}  # name, value or (kind, [exponent,] reads) -> slot
        nodes: list[Expr] = []
        operands: list[list[int]] = []
        last: list[int] = []

        def place(node: Expr, key, reads: list[int]) -> int:
            here = number.setdefault(key, len(nodes))
            if here == len(nodes):
                for j in reads:
                    last[j] = here
                nodes.append(node)
                operands.append(reads)
                last.append(-1)
            return here

        for node in _postorder(*roots):
            kind = type(node)
            if kind is Var or kind is Const:
                here = place(node, node.name if kind is Var else node.value, [])
            elif kind is Pow:
                base = slot[id(node.base)]
                here = place(node, (Pow, node.exponent, base), [base])
            else:
                here, *rest = [slot[id(k)] for k in _operands(node)]
                for j in rest:
                    here = place(node, (kind, here, j), [here, j])
            slot[id(node)] = here
        self.nodes, self.operands = nodes, operands
        self.roots = [slot[id(root)] for root in roots]
        for j in self.roots:
            last[j] = -1
        self.last = last

    def run(self, steps: Mapping[type, Callable]) -> list:
        """Each root's value.  A step's value is steps[kind](node, *values
        of its operands), kind being the node's type, and each value is
        dropped after the step that reads it last."""
        values: list = [None] * len(self.nodes)
        value_of = values.__getitem__
        last = self.last
        for i, node in enumerate(self.nodes):
            reads = self.operands[i]
            values[i] = steps[type(node)](node, *map(value_of, reads))
            for j in reads:
                if last[j] == i:
                    values[j] = None
        return [values[j] for j in self.roots]


def variables(e: Expr) -> tuple[str, ...]:
    """Free variable names, sorted."""
    return tuple(sorted({node.name for node in _postorder(e) if type(node) is Var}))


# ---------------------------------------------------------------------------
# conversion to Laurent polynomials

def to_laurent(e: Expr, variable_order: Sequence[str]) -> LaurentPolynomial:
    """Expand e into a Laurent polynomial over the given variables.

    Every quotient denominator and every negatively-powered base must expand
    to a single monomial, and all coefficient divisions must be exact over Z;
    otherwise NotLaurentError names the offending subexpression.
    """
    constant, variable = _leaves(variable_order)

    def power(node: Pow, a):
        a = _expand(a)
        if node.exponent < 0:
            return _invert_monomial(a, node.base) ** -node.exponent
        return _Power(a, node.exponent, _power_bound(a, node.exponent))

    root, = _Program(e).run({
        Const: constant,
        Var: variable,
        Sum: lambda node, a, b: _expand(a) + _expand(b),
        Diff: lambda node, a, b: _expand(a) - _expand(b),
        Prod: lambda node, a, b: _product(a, b),
        Quot: lambda node, a, b: _divide_by_monomial(_expand(a), _expand(b), node.denominator),
        Pow: power,
    })
    return _expand(root)


def to_fraction(e: Expr, variable_order: Sequence[str]) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Rewrite an expression as an unreduced quotient of two honest
    polynomials (no negative exponents) over the given variables.

    Sums and products fold left, a/b + c/d as (a*d + c*b)/(b*d).  Dividing
    by an identically zero polynomial raises ZeroDivisionError, and a power
    or a product that may pass to_laurent's limits raises ValueError."""
    constant, variable = _leaves(variable_order)
    one = LaurentPolynomial.one(len(variable_order))

    def quotient(node: Quot, x, y) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        (ln, ld), (rn, rd) = x, y
        if not rn:
            raise ZeroDivisionError(f"denominator {render(node.denominator)} is identically zero")
        return _product(ln, rd), _product(ld, rn)

    def power(node: Pow, x) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        (bn, bd), k = x, node.exponent
        if k < 0:
            if not bn:
                raise ZeroDivisionError(f"negative power of identically zero base {render(node.base)}")
            bn, bd, k = bd, bn, -k
        _power_bound(bn, k)
        _power_bound(bd, k)
        return bn ** k, bd ** k

    root, = _Program(e).run({
        Const: lambda node: (constant(node), one),
        Var: lambda node: (variable(node), one),
        Sum: lambda node, x, y: (_product(x[0], y[1]) + _product(y[0], x[1]), _product(x[1], y[1])),
        Diff: lambda node, x, y: (_product(x[0], y[1]) - _product(y[0], x[1]), _product(x[1], y[1])),
        Prod: lambda node, x, y: (_product(x[0], y[0]), _product(x[1], y[1])),
        Quot: quotient,
        Pow: power,
    })
    return root


def _leaves(variable_order: Sequence[str]) -> tuple[Callable, Callable]:
    """The Laurent polynomial of a constant node and of a variable node."""
    names = list(variable_order)
    if len(set(names)) != len(names):
        raise ValueError("variable_order contains duplicates")
    if not names:
        raise ValueError("variable_order must name at least one variable")
    n, index = len(names), {name: i for i, name in enumerate(names)}

    def variable(node: Var) -> LaurentPolynomial:
        if node.name not in index:
            raise NotLaurentError(f"unknown variable {node.name!r}")
        return LaurentPolynomial.variable(n, index[node.name])

    return (lambda node: LaurentPolynomial.constant(n, node.value)), variable


@dataclass
class _Power:
    """base**exponent, which to_laurent expands when a step first reads it,
    so that a product can bound its term products by `terms` first."""

    base: LaurentPolynomial | None
    exponent: int
    terms: int
    value: LaurentPolynomial | None = None

    def __len__(self) -> int:
        return self.terms


def _product(a, b) -> LaurentPolynomial:
    """a * b for to_laurent or to_fraction values, or ValueError if it may
    form more than MAX_TERM_PRODUCTS term products."""
    if len(a) * len(b) > MAX_TERM_PRODUCTS:
        raise ValueError(
            f"a product of {len(a)} and {len(b)} terms may form more than"
            f" {MAX_TERM_PRODUCTS} term products (the limit MAX_TERM_PRODUCTS)"
        )
    return _expand(a) * _expand(b)


def _expand(value) -> LaurentPolynomial:
    """A to_laurent value, a power expanded once for all its readers."""
    if type(value) is not _Power:
        return value
    if value.value is None:
        value.value = value.base ** value.exponent
        value.base, value.terms = None, len(value.value)
    return value.value


def _power_bound(base: LaurentPolynomial, k: int) -> int:
    """_power_terms_bound(base, k), for k >= 0, or ValueError naming the
    limit base**k may pass: on its terms, its term products, or the digits
    of its coefficients, which are at most the sum of |base|'s to the k."""
    bound = _power_terms_bound(base, k)
    limit = past_digit_limit(sum(map(abs, base.terms.values())), k)
    for passed, what in (
        (bound > MAX_POWER_TERMS, f"expand to more than {MAX_POWER_TERMS} terms (the limit MAX_POWER_TERMS)"),
        (_power_work_bound(base, k) > MAX_TERM_PRODUCTS,
         f"form more than {MAX_TERM_PRODUCTS} term products (the limit MAX_TERM_PRODUCTS)"),
        (limit, f"have coefficients of more than {limit} digits"
                " (the limit sys.get_int_max_str_digits() on printing an integer)"),
    ):
        if passed:
            raise ValueError(f"a power with exponent {k} of {len(base)} terms may {what}")
    return bound


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
    return min(prod(k * (max(c) - min(c)) + 1 for c in zip(*base.terms)), multisets)


def _power_work_bound(base: LaurentPolynomial, k: int) -> int:
    """An upper bound on the term products of base**k, or a number past
    MAX_TERM_PRODUCTS: |base| * sum_(j<k) _power_terms_bound(base, j),
    summed only until it passes the limit, for the k - 1 multiplications
    of base^j by base.  A base of fewer than two terms is raised without
    forming any."""
    m = len(base)
    if m < 2:
        return 0
    work = 0
    for j in range(k):
        work += m * _power_terms_bound(base, j)
        if work > MAX_TERM_PRODUCTS:
            break
    return work


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
    """Replace variables simultaneously; folds integer constants, nothing else.

    The tree is rebuilt bottom-up, each distinct node (by identity) once,
    so a subtree shared in e is shared in the result.  A power of a
    constant that may have more digits than sys.get_int_max_str_digits()
    allows printing is left unfolded."""
    new: dict[int, Expr] = {}
    for node in _postorder(e):
        kind = type(node)
        if kind is Var or kind is Const:
            new[id(node)] = bindings.get(node.name, node) if kind is Var else node
            continue
        kids = [new[id(k)] for k in _operands(node)]
        values = [k.value for k in kids if isinstance(k, Const)]
        folds = len(values) == len(kids)  # every operand a constant
        if kind is Sum or kind is Prod:
            out = Const(sum(values) if kind is Sum else prod(values)) if folds else kind(tuple(kids))
        elif kind is Diff:
            out = Const(values[0] - values[1]) if folds else Diff(*kids)
        elif kind is Quot:
            exact = folds and values[1] != 0 and values[0] % values[1] == 0
            out = Const(values[0] // values[1]) if exact else Quot(*kids)
        else:
            k = node.exponent
            folds = folds and (values[0] in (1, -1) if k < 0 else not past_digit_limit(abs(values[0]), k))
            out = Const(values[0] ** abs(k)) if folds else Pow(kids[0], k)
        new[id(node)] = out
    return new[id(e)]


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

    def quotient(node: Quot, x: _Pair, y: _Pair) -> _Pair:
        (a, b), (c, d) = x, y
        if d is None:
            return a, _mul_opt(b, c, p)
        return _mul(_mul(a, d, p), d, p), _mul(_mul_opt(b, c, p), d, p)

    def power(node: Pow, x: _Pair) -> _Pair:
        (a, b), k = x, node.exponent
        if k > 0:
            return _power(a, k, p), None if b is None else _power(b, k, p)
        if b is None:
            return [1] * count, None if k == 0 else _power(a, -k, p)
        return (b, b) if k == 0 else (_power(b, 1 - k, p), _mul(_power(a, -k, p), b, p))

    return program.run({
        Const: lambda node: ([node.value % p] * count, None),
        Var: lambda node: (coords[node.name], None),
        Sum: lambda node, x, y: _add(x, y, 1, p),
        Diff: lambda node, x, y: _add(x, y, -1, p),
        Prod: lambda node, x, y: (_mul(x[0], y[0], p), _mul_opt(x[1], y[1], p)),
        Quot: quotient,
        Pow: power,
    })


def random_equal(
    left: Expr,
    right: Expr,
    trials: int = 20,
    seed: int = 0,
) -> IdentityResult:
    """Schwartz-Zippel equality test of two expressions as rational functions.

    Draws points with all coordinates in [1, p-1], p = IDENTITY_PRIME, from
    a deterministic seeded generator.  Points where either side hits a zero
    denominator are discarded and redrawn; the retry budget is 8*trials + 16
    total draws.  Returns a verdict plus the witness point when a
    disagreement is found.

    Both sides are compiled into one program and evaluated a batch of
    points at a time, each batch being the points still needed, at most
    IDENTITY_BATCH, drawn in the order one point at a time would draw them;
    so the batching changes neither the verdict nor trials nor the witness,
    and memory does not grow with trials.  A ValueError refuses trials
    whose draws may evaluate more than MAX_IDENTITY_WORK point-steps.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    program = _Program(left, right)
    budget = 8 * trials + 16
    steps = sum(max(1, abs(node.exponent).bit_length()) if type(node) is Pow else 1 for node in program.nodes)
    if budget * steps > MAX_IDENTITY_WORK:
        raise ValueError(
            f"{trials} trials may evaluate {budget} points of {steps} program steps each,"
            f" more than {MAX_IDENTITY_WORK} point-steps (the limit MAX_IDENTITY_WORK)"
        )
    names = sorted({node.name for node in program.nodes if type(node) is Var})
    rng = random.Random(seed)
    drawn = done = 0
    while drawn < budget:
        # The points still needed if all are defined, at most a batch, drawn
        # in the order a point-at-a-time loop would draw them.
        count = min(trials - done, budget - drawn, IDENTITY_BATCH)
        points = [[rng.randrange(1, IDENTITY_PRIME) for _ in names] for _ in range(count)]
        drawn += count
        coords = {name: [point[k] for point in points] for k, name in enumerate(names)}
        (ln, ld), (rn, rd) = _evaluate_mod(program, coords, count, IDENTITY_PRIME)
        for j, point in enumerate(points):
            lden = 1 if ld is None else ld[j]
            rden = 1 if rd is None else rd[j]
            if lden == 0 or rden == 0:
                continue
            if ln[j] * rden % IDENTITY_PRIME != rn[j] * lden % IDENTITY_PRIME:
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
