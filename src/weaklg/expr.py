"""Rational expression trees: parsing, Laurent conversion, identity testing.

The text grammar (whitespace-insensitive, explicit ``*`` required):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ['^' ['-'] integer]
    atom   := integer | name | '(' expr ')'
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

parse() lexes the text once into a list of tokens, builds each run of
n-ary operands (a+b+...+z, a*b*...*z) as one Sum or Prod from a list, and
builds one node per distinct name, constant and power of the text.

Every operation on a tree runs on one compiled program, built at the
tree's first use and kept on its root: an iterative walk lists each
distinct subexpression once, operands first, as one step per node (a sum
or product of any number of operands too), and one driver runs down that
list with a step function per kind of node, dropping each value after its
last use.  random_equal(), to_laurent() and to_fraction() evaluate in
three rings: Laurent polynomials (a product's one-term factors multiplied
as one monomial), (numerator, denominator) pairs of polynomials, and
batches of points mod p; the identity test evaluates a whole batch per
step as one vector of residues, divides by one batch inversion per vector
(Montgomery's trick), and keeps the set of points where some step divided
by zero.  render(), substitute(), hash() and repr() run step tables of
their own, variables() reads the program's variable steps, and two trees
are == when their roots share a step of the joint program that merging
their two programs gives, as random_equal does.  Only the parser recurses,
at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Callable, Mapping, Sequence
from functools import reduce
from math import prod
from operator import sub

from ._frozen import frozen, refuse_assignment
from .laurent import LaurentPolynomial

_set = object.__setattr__  # how a node's __init__ sets its fields, as nodes refuse assignment

# Fixed public prime 2^61 - 1 (Mersenne), used by random_equal.
IDENTITY_PRIME = (1 << 61) - 1

# Most point-steps random_equal may evaluate, bounded before it draws: its
# 8*trials + 16 draws times the steps of the compiled program, a k-operand
# sum or product counted as k - 1 steps and a power as one step per bit of
# its exponent, plus IDENTITY_STEP_WORK for each step in each batch it may
# evaluate.  On a 2-vCPU Linux host with Python 3.11.7 a point-step took
# 0.03-0.3 us in sums, differences, products and powers (x+y+z against
# z+y+x; 5,000-term chains of +, - and * at 47 trials; x^(10^12) against
# itself) and 0.55-1.1 us in a quotient, which inverts its divisor (x/y/z
# against x/(y*z); a 5,000-term chain of /).  A step also costs about 1.1 us
# per batch in a difference and 4.9 us in a quotient, 6-10 of its
# point-steps, whatever the batch holds: 1/(x-x)/x/.../x with 80,000
# quotients, undefined everywhere, took 3.0-3.7 s at trials=1 (1.92*10^6
# point-steps, in batches of 1 and 23 points) before that cost was counted.
# Points are evaluated IDENTITY_BATCH at a time, so memory holds at most
# one list of that many residues per live value, whatever trials is.
MAX_IDENTITY_WORK = 2_000_000
IDENTITY_STEP_WORK = 8
IDENTITY_BATCH = 1_000

# Deepest nesting of parentheses and unary minus signs parse accepts: the
# parser recurses about four interpreter frames per level, well inside the
# default recursion limit of 1000 frames.
MAX_NESTING = 100

# Most terms a power in to_laurent may expand to, bounded before expanding:
# (x+y+z+1)^37, with 9,880, is the highest power of x+y+z+1 allowed.
MAX_POWER_TERMS = 10_000

# Most term products one to_laurent or to_fraction call may form in all its
# products, powers and quotients by monomials together, each bounded before
# it is formed; a term of a quotient or of a monomial's power counts as one.
# A term product in n > 3 variables counts as (n + 8)/11 of one: in
# LaurentPolynomial.__mul__ it took about 0.45 us plus 0.055 us per
# coordinate (0.62 us at 3 variables, 1.2 at 8, 2.0 at 24, 7.7 at 100, 192
# at 4,000, on a 2-vCPU Linux host with Python 3.11.7), and a power, whose
# term products add packed keys, decodes each of its terms one coordinate
# at a time.  f^k multiplies f^j by f for j < k, so (x+y+z+1)^37 forms at
# most 4*C(40, 4) = 365,560; one call of a model-construction round forms
# at most 9,520, in at most 8 variables.
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
    their heads (_head) are and their operands are, in order.  A node is
    frozen: assigning to or deleting a field raises AttributeError.  The slot
    _program (see _compiled) is no field: vars(), copies and pickles omit it."""

    __slots__ = ("_program",)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        left, right = _joint(self, other).roots  # equal subtrees share a slot
        return left == right

    def __hash__(self) -> int:
        return _compiled(self).run(dict.fromkeys(_KINDS, lambda node, *kids: hash((_head(node), *kids))))[0]

    def __repr__(self) -> str:
        return _compiled(self).run(dict.fromkeys(_KINDS, _repr_node))[0]

    __getstate__ = lambda self: vars(self)  # what copies and pickles hold: the fields
    __setattr__ = __delattr__ = refuse_assignment


class Const(_Node):
    def __init__(self, value: int):
        _set(self, "value", value)


class Var(_Node):
    def __init__(self, name: str):
        _set(self, "name", name)


class Sum(_Node):
    def __init__(self, terms: tuple[Expr, ...]):
        _set(self, "terms", terms)


class Diff(_Node):
    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)


class Prod(_Node):
    def __init__(self, factors: tuple[Expr, ...]):
        _set(self, "factors", factors)


class Quot(_Node):
    def __init__(self, numerator: Expr, denominator: Expr):
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)


class Pow(_Node):
    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


Expr = Const | Var | Sum | Diff | Prod | Quot | Pow
_KINDS = (Const, Var, Sum, Diff, Prod, Quot, Pow)


# ---------------------------------------------------------------------------
# parsing

def parse(text: str) -> Expr:
    """Parse an expression string; raises ParseError with a byte offset."""
    parser = _Parser(text)
    node = parser.infix(0)
    kind, _, offset = parser.tokens[parser.pos]
    if kind:
        raise ParseError(f"unexpected character {text[offset]!r}", offset)
    return node


def _lex(text: str) -> list[tuple]:
    """The tokens of text, each (kind, text, offset): kind Const for a run of
    decimal digits, Var for a letter and the letters and digits after it,
    else the character itself; whitespace separates tokens and is dropped.
    The list ends with ("", "", len(text))."""
    tokens = []
    pos, end = 0, len(text)
    while pos < end:
        ch = text[pos]
        start = pos
        pos += 1
        if ch.isspace():
            continue
        if ch.isdecimal():  # exactly the digits int() reads
            while pos < end and text[pos].isdecimal():
                pos += 1
            kind = Const
        elif ch.isalpha():
            while pos < end and text[pos].isalnum():
                pos += 1
            kind = Var
        else:
            kind = ch
        tokens.append((kind, text[start:pos], start))
    tokens.append(("", "", end))
    return tokens


# The operators of expr and of term: each level's n-ary one and binary one.
_LEVELS = (("+", Sum, "-", Diff), ("*", Prod, "/", Quot))


class _Parser:
    """Recursive descent over the tokens of one text; pos indexes the next."""

    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.nesting = 0  # open parentheses and unary minus signs
        self.shared: dict = {}  # a name, a value or (id(base), exponent) -> its node

    def node(self, kind: type, *fields: object) -> Expr:
        """The text's one leaf or power kind(*fields).  A power is keyed by its
        base's id, which the table keeps in use by holding the power."""
        key = (id(fields[0]), fields[1]) if kind is Pow else fields[0]
        if key not in self.shared:
            self.shared[key] = kind(*fields)
        return self.shared[key]

    def infix(self, level: int) -> Expr:
        """An expr (level 0) or a term (level 1).  Each run of the n-ary
        operator is built as one node, which also takes in the operands of a
        first operand of its kind: (a+b)+c is a+b+c."""
        nary_op, nary, binary_op, binary = _LEVELS[level]
        node = run = op = None
        while True:
            operand = self.factor() if level else self.infix(1)
            if op == binary_op:
                node, run = binary(nary(tuple(run)) if run else node, operand), None
            elif op:
                if run is None:
                    run = list(_operands(node)) if type(node) is nary else [node]
                run.append(operand)
            else:
                node = operand
            op = self.tokens[self.pos][0]
            if op != nary_op and op != binary_op:
                return nary(tuple(run)) if run else node
            self.pos += 1

    def factor(self) -> Expr:
        if self.tokens[self.pos][0] == "-":  # -x^2 is -(x^2)
            self.enter()
            inner = self.factor()
            self.nesting -= 1
            return self.node(Const, -inner.value) if type(inner) is Const else Prod((self.node(Const, -1), inner))
        base = self.atom()
        if self.tokens[self.pos][0] != "^":
            return base
        negative = self.tokens[self.pos + 1][0] == "-"
        self.pos += 1 + negative
        kind, digits, offset = self.tokens[self.pos]
        if kind is not Const:
            raise ParseError("expected an integer", offset)
        self.pos += 1
        return self.node(Pow, base, -int(digits) if negative else int(digits))

    def atom(self) -> Expr:
        kind, value, offset = self.tokens[self.pos]
        if kind is Var or kind is Const:
            self.pos += 1
            return self.node(kind, value if kind is Var else int(value))
        if kind == "(":
            self.enter()
            node = self.infix(0)
            close, _, offset = self.tokens[self.pos]
            if close != ")":
                raise ParseError("expected ')'", offset)
            self.pos += 1
            self.nesting -= 1
            return node
        if not kind:
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected character {kind!r}", offset)

    def enter(self) -> None:
        """Step past a '(' or a unary '-', one more level of nesting."""
        if self.nesting == MAX_NESTING:
            raise ParseError(f"expression nested too deeply (the limit is {MAX_NESTING} levels)",
                             self.tokens[self.pos][2])
        self.nesting += 1
        self.pos += 1


# ---------------------------------------------------------------------------
# rendering

def render(e: Expr) -> str:
    """Canonical text form; parse(render(e)) reproduces e when e is a tree
    in the parser's normal form.  substitute can build others: x + c with x
    bound to a + b renders as a + b + c, which parses as one flat sum.

    Each distinct node is written once, after its operands, with its
    precedence: 1 for a sum or difference, 2 for a product or quotient, 3
    for a power, 5 for a leaf and 0 for a negative constant.  An operand of
    lower precedence than its place asks is parenthesised: the first operand
    of an infix kind asks for the kind's precedence, the others one more."""
    return _compiled(e).run(dict.fromkeys(_KINDS, _render_node))[0][0]


_INFIX = {Sum: (" + ", 1), Diff: (" - ", 1), Prod: ("*", 2), Quot: ("/", 2)}  # operator, precedence


def _render_node(node: Expr, *kids: tuple[str, int]) -> tuple[str, int]:
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


def _repr_node(node: Expr, *kids: str) -> str:
    """A node's repr, Kind(field=value, ...), given its operands' reprs."""
    names = list(vars(node))
    if len(names) == 1 and kids:  # the operand tuple of a sum or a product
        kids = ("(" + ", ".join(kids) + ("," if len(kids) == 1 else "") + ")",)
    values = [*kids, *(repr(getattr(node, name)) for name in names[len(kids):])]
    return f"{type(node).__name__}({', '.join(map('{}={}'.format, names, values))})"


def _head(node: Expr) -> tuple:
    """A node's kind and fields, an operand given as None and a tuple of
    operands as its length: its leaf, its exponent or its operand count."""
    return type(node), *(None if isinstance(v, _Node) else len(v) if type(v) is tuple else v for v in vars(node).values())


def _operands(node: Expr) -> tuple[Expr, ...]:
    kind = type(node)
    if kind is Sum or kind is Prod:
        return node.terms if kind is Sum else node.factors
    if kind is Diff or kind is Quot:
        return (node.left, node.right) if kind is Diff else (node.numerator, node.denominator)
    if kind is Pow:
        return (node.base,)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# compiled programs


class _Program:
    """The subexpressions under some roots as one program, operands first.

    nodes[i] is computed from the values of the slots operands[i]; last[j]
    is the step that reads slot j last, where an evaluator can drop it, or
    -1 for a root; roots[k] is the slot of the k-th root.
    Equal subtrees share a slot: number maps a step's key, its leaf value or
    its kind, exponent and operands' slots, to its slot, so a subtree that
    the text repeats (x^-1 in every term) is computed once, and two roots
    are equal trees exactly when they share a slot.  Each node is one step,
    a sum or product of any number of operands too.  The steps are numbered
    in the walk that lists the nodes: iterative, each distinct node (by
    identity) once, after its operands.  It is the only walk over a tree
    besides the parser.
    """

    __slots__ = ("nodes", "operands", "last", "roots", "number")

    def __init__(self, *roots: Expr):
        self.nodes, self.operands, self.last, self.number = [], [], [], {}
        slot: dict[int, int] = {}  # id(node) -> slot
        stack: list = list(reversed(roots))
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is tuple:  # (node, its operands), the operands placed
                node, kids = node
                slot[id(node)] = self.step(node, *map(slot.__getitem__, map(id, kids)))
            elif id(node) in slot:
                continue
            elif kind is Var or kind is Const:
                slot[id(node)] = self.step(node)
            else:
                kids = _operands(node)
                stack.append((node, kids))
                stack += reversed(kids)
        self.roots = [slot[id(root)] for root in roots]
        for j in self.roots:
            self.last[j] = -1

    def step(self, node: Expr, *reads: int) -> int:
        """The slot of node, its operands in the slots reads, listed if new."""
        kind = type(node)
        key = (node.name if kind is Var else node.value if kind is Const
               else (Pow, node.exponent, *reads) if kind is Pow else (kind, *reads))
        here = self.number.setdefault(key, len(self.nodes))
        if here == len(self.nodes):
            for j in reads:
                self.last[j] = here
            self.nodes.append(node)
            self.operands.append(reads)
            self.last.append(-1)
        return here

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


def _compiled(e: Expr) -> _Program:
    """_Program(e), compiled at e's first use and kept on e without its last
    node, e itself, so that e and its program form no reference cycle."""
    kept = getattr(e, "_program", None)
    if kept is None:
        _set(e, "_program", kept := _Program(e))
        kept.nodes.pop()
    program = object.__new__(_Program)
    program.operands, program.last, program.roots, program.number = kept.operands, kept.last, kept.roots, kept.number
    program.nodes = [*kept.nodes, e]
    return program


def _joint(left: Expr, right: Expr) -> _Program:
    """_Program(left, right) without a walk: right's program adds its steps,
    in order, to a copy of left's, keyed by the joint program's slots."""
    joint, second = _compiled(left), _compiled(right)
    joint.operands, joint.last, joint.number = joint.operands[:], joint.last[:], dict(joint.number)
    joint.roots = [*joint.roots, *second.run(dict.fromkeys(_KINDS, joint.step))]
    joint.last[joint.roots[0]] = joint.last[joint.roots[1]] = -1
    return joint


def variables(e: Expr) -> tuple[str, ...]:
    """Free variable names, sorted."""
    return tuple(sorted({node.name for node in _compiled(e).nodes if type(node) is Var}))


# ---------------------------------------------------------------------------
# conversion to Laurent polynomials

def to_laurent(e: Expr, variable_order: Sequence[str]) -> LaurentPolynomial:
    """Expand e into a Laurent polynomial over the given variables.

    Every quotient denominator and every negatively-powered base must expand
    to a single monomial, and all coefficient divisions must be exact over Z;
    otherwise NotLaurentError names the offending subexpression.  A step
    that may pass MAX_POWER_TERMS or, with the steps before it,
    MAX_TERM_PRODUCTS raises ValueError before it runs.
    """
    ring = _Ring(variable_order)

    def raise_to(node: Pow, a: LaurentPolynomial) -> LaurentPolynomial:
        k = node.exponent
        return ring.power(_invert_monomial(a, node.base), -k) if k < 0 else ring.power(a, k)

    def quotient(node: Quot, a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
        ring.charge(len(a), "a quotient of {} terms", len(a))  # a term product per term
        return _divide_by_monomial(a, b, node.denominator)

    def total(node: Sum, *values: LaurentPolynomial) -> LaurentPolynomial:
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for f in values:
            for exps, coeff in f.terms.items():
                out[exps] = get(exps, 0) + coeff
        return LaurentPolynomial._raw(len(variable_order), {exps: coeff for exps, coeff in out.items() if coeff})

    def product(node: Prod, *values: LaurentPolynomial) -> LaurentPolynomial:
        # the one-term factors as one monomial, one term product each past the first
        ones, others = [f for f in values if len(f) == 1], [f for f in values if len(f) != 1]
        if len(ones) > 1:
            ring.charge(len(ones) - 1, "a product of {} and {} terms", 1, 1)
            exps, coeffs = zip(*[term for f in ones for term in f.terms.items()])
            ones = [LaurentPolynomial._raw(ring.n, {tuple(map(sum, zip(*exps))): prod(coeffs)})]
        return reduce(ring.product, others, *ones)

    return _compiled(e).run({
        Const: ring.constant,
        Var: ring.variable,
        Sum: total,
        Diff: lambda node, a, b: a - b,
        Prod: product,
        Quot: quotient,
        Pow: raise_to,
    })[0]


def to_fraction(e: Expr, variable_order: Sequence[str]) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Rewrite an expression as an unreduced quotient of two honest
    polynomials (no negative exponents) over the given variables.

    Sums and products fold left, a/b + c/d as (a*d + c*b)/(b*d).  Dividing
    by an identically zero polynomial raises ZeroDivisionError, and a power
    or a product that may pass to_laurent's limits raises ValueError."""
    ring = _Ring(variable_order)
    product, one = ring.product, LaurentPolynomial.one(ring.n)

    def quotient(node: Quot, x, y) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        (ln, ld), (rn, rd) = x, y
        if not rn:
            raise ZeroDivisionError(f"denominator {render(node.denominator)} is identically zero")
        return product(ln, rd), product(ld, rn)

    def raise_to(node: Pow, x) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        (bn, bd), k = x, node.exponent
        if k < 0:
            if not bn:
                raise ZeroDivisionError(f"negative power of identically zero base {render(node.base)}")
            bn, bd, k = bd, bn, -k
        return ring.power(bn, k), ring.power(bd, k)

    root, = _compiled(e).run({
        Const: lambda node: (ring.constant(node), one),
        Var: lambda node: (ring.variable(node), one),
        Sum: lambda node, *values: reduce(
            lambda x, y: (product(x[0], y[1]) + product(y[0], x[1]), product(x[1], y[1])), values),
        Diff: lambda node, x, y: (product(x[0], y[1]) - product(y[0], x[1]), product(x[1], y[1])),
        Prod: lambda node, *values: reduce(lambda x, y: (product(x[0], y[0]), product(x[1], y[1])), values),
        Quot: quotient,
        Pow: raise_to,
    })
    return root


class _Ring:
    """The Laurent polynomials of one to_laurent or to_fraction call: the
    value of a constant node and of a variable node, and products and
    powers, each charged before it is formed to the call's one budget of
    MAX_TERM_PRODUCTS term products, in which a term product in n > 3
    variables counts as (n + 8)/11 of one."""

    def __init__(self, variable_order: Sequence[str]):
        names = list(variable_order)
        if len(set(names)) != len(names):
            raise ValueError("variable_order contains duplicates")
        if not names:
            raise ValueError("variable_order must name at least one variable")
        self.n, self.index = len(names), {name: i for i, name in enumerate(names)}
        self.weight, self.left = max(self.n, 3) + 8, 11 * MAX_TERM_PRODUCTS  # in elevenths of a term product

    def constant(self, node: Const) -> LaurentPolynomial:
        return LaurentPolynomial.constant(self.n, node.value)

    def variable(self, node: Var) -> LaurentPolynomial:
        if node.name not in self.index:
            raise NotLaurentError(f"unknown variable {node.name!r}")
        return LaurentPolynomial.variable(self.n, self.index[node.name])

    def charge(self, products: int, what: str, *sizes: int) -> None:
        """Count products more term products, or raise ValueError past the
        budget, naming what, a template that sizes fill."""
        self.left -= self.weight * products
        if self.left < 0:
            raise ValueError(f"{what.format(*sizes)} in {self.n} variables may take this conversion past"
                             f" {MAX_TERM_PRODUCTS} term products (the limit MAX_TERM_PRODUCTS)")

    def product(self, a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
        self.charge(len(a) * len(b), "a product of {} and {} terms", len(a), len(b))
        return a * b

    def power(self, base: LaurentPolynomial, k: int) -> LaurentPolynomial:
        """base**k for k >= 0, or ValueError naming the limit it may pass: on
        its terms, its term products, or the digits of its coefficients,
        which are at most the sum of |base|'s to the k."""
        what = "a power with exponent {} of {} terms"
        if _power_terms_bound(base, k) > MAX_POWER_TERMS:
            raise ValueError(f"{what.format(k, len(base))} may expand to more than {MAX_POWER_TERMS} terms"
                             " (the limit MAX_POWER_TERMS)")
        self.charge(max(_power_work_bound(base, k), len(base)), what, k, len(base))  # a monomial in closed form: one
        limit = past_digit_limit(sum(map(abs, base.terms.values())), k)
        if limit:
            raise ValueError(f"{what.format(k, len(base))} may have coefficients of more than {limit} digits"
                             " (the limit sys.get_int_max_str_digits() on printing an integer)")
        return base ** k


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
        out[tuple(map(sub, exps, dexps))] = q
    return LaurentPolynomial._raw(num.nvars, out)


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

    The tree is rebuilt bottom-up, each subtree once however often it
    occurs, so equal subtrees of e are one object in the result.  A power
    of a constant that may have more digits than
    sys.get_int_max_str_digits() allows printing is left unfolded."""

    def fold(node: Expr, *kids: Expr) -> Expr:
        kind = type(node)
        values = [k.value for k in kids if isinstance(k, Const)]
        folds = len(values) == len(kids)  # every operand a constant
        if kind is Sum or kind is Prod:
            return Const(sum(values) if kind is Sum else prod(values)) if folds else kind(kids)
        if kind is Diff:
            return Const(values[0] - values[1]) if folds else Diff(*kids)
        if kind is Quot:
            exact = folds and values[1] != 0 and values[0] % values[1] == 0
            return Const(values[0] // values[1]) if exact else Quot(*kids)
        k = node.exponent
        folds = folds and (values[0] in (1, -1) if k < 0 else not past_digit_limit(abs(values[0]), k))
        return Const(values[0] ** abs(k)) if folds else Pow(kids[0], k)

    steps = dict.fromkeys(_KINDS, fold)
    steps[Const], steps[Var] = (lambda node: node), (lambda node: bindings.get(node.name, node))
    return _compiled(e).run(steps)[0]


# ---------------------------------------------------------------------------
# randomized identity testing

@frozen
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


def _evaluate_mod(program: _Program, coords: Mapping[str, list[int]], count: int, p: int) -> tuple[list, set[int]]:
    """Each root's residues at count points, coords mapping a name to its
    coordinates, and the points where some step divides by zero, at which
    the residues are meaningless."""
    undefined: set[int] = set()

    def inverse(values: list[int]) -> list[int]:
        """Each value's inverse mod p by Montgomery's trick, one pow and 3n
        products; a point where a value is 0 is undefined."""
        if 0 in values:
            undefined.update(j for j, x in enumerate(values) if not x)
            values = [x or 1 for x in values]
        acc, before = 1, []  # the product of the values before each
        for x in values:
            before.append(acc)
            acc = acc * x % p
        inv, out = pow(acc, -1, p), [0] * count
        for j in range(count - 1, -1, -1):
            out[j] = inv * before[j] % p
            inv = inv * values[j] % p
        return out

    def product(node: Prod, *values: list[int]) -> list[int]:
        # at most eight factors at a time, so no intermediate passes 8*61 bits
        out = [prod(col) % p for col in zip(*values[:8])]
        for i in range(8, len(values), 7):
            out = [prod(col) % p for col in zip(out, *values[i:i + 7])]
        return out

    def power(node: Pow, values: list[int]) -> list[int]:
        k = node.exponent
        if k < 0:
            values, k = inverse(values), -k
        return values if k == 1 else [pow(x, k, p) for x in values]

    return program.run({
        Const: lambda node: [node.value % p] * count,
        Var: lambda node: coords[node.name],
        Sum: lambda node, *values: [sum(col) % p for col in zip(*values)],
        Diff: lambda node, x, y: [(a - b) % p for a, b in zip(x, y)],
        Prod: product,
        Quot: lambda node, x, y: [a * b % p for a, b in zip(x, inverse(y))],
        Pow: power,
    }), undefined


def _test_batch(program: _Program, names: list[str], rng: random.Random, count: int, needed: int,
                p: int) -> tuple[int, dict | None]:
    """Draws count points and evaluates both roots there.  Of the points
    where both are defined, in order: how many agree, up to needed, before
    the first that differs, and that point, or None.  Nothing of the batch
    outlives the call."""
    n = len(names)
    drawn = [rng.randrange(1, p) for _ in range(count * n)]  # point by point
    (left, right), undefined = _evaluate_mod(program, {name: drawn[k::n] for k, name in enumerate(names)}, count, p)
    agree = 0
    for j in range(count):
        if j not in undefined:
            if left[j] != right[j]:
                return agree, dict(zip(names, drawn[j * n:j * n + n]))
            agree += 1
            if agree == needed:
                break
    return agree, None


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
    points at a time, each batch being the points still needed (once a
    point was undefined, the draws left), at most IDENTITY_BATCH, drawn in
    the order one point at a time would draw them; so the batching changes
    neither the verdict nor trials nor the witness, and memory, which holds
    one batch at a time, does not grow with trials.
    A ValueError refuses trials whose draws may evaluate more than
    MAX_IDENTITY_WORK point-steps, a k-operand step counted as k - 1 and
    each step of each batch as IDENTITY_STEP_WORK more.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    program = _joint(left, right)
    budget = 8 * trials + 16
    steps = sum(
        max(1, abs(node.exponent).bit_length() if type(node) is Pow else len(reads) - 1)
        for node, reads in zip(program.nodes, program.operands)
    )
    batches = -(-budget // IDENTITY_BATCH) + 1  # the trials points, then the rest of the draws
    if budget * steps + batches * len(program.nodes) * IDENTITY_STEP_WORK > MAX_IDENTITY_WORK:
        raise ValueError(
            f"{trials} trials may evaluate {budget} points of {steps} program steps each, in up to"
            f" {batches} batches of {len(program.nodes)} steps at {IDENTITY_STEP_WORK} each,"
            f" more than {MAX_IDENTITY_WORK} point-steps (the limit MAX_IDENTITY_WORK)"
        )
    names = sorted({node.name for node in program.nodes if type(node) is Var})
    rng = random.Random(seed)
    drawn = done = 0
    while drawn < budget:
        # The points still needed, while every point drawn was defined.  At
        # IDENTITY_PRIME a point is undefined by chance with probability
        # about deg/p, so one that is not almost always means a denominator
        # that vanishes identically: then the rest of the draws are taken.
        count = min(trials - done if done == drawn else budget - drawn, IDENTITY_BATCH)
        drawn += count
        agree, witness = _test_batch(program, names, rng, count, trials - done, IDENTITY_PRIME)
        done += agree
        if witness is not None:
            return IdentityResult(equal=False, trials=done + 1, witness=witness)
        if done == trials:
            return IdentityResult(equal=True, trials=done, witness=None)
    raise IdentityTestError(
        f"exhausted {budget} draws with only {done}/{trials} defined evaluations"
    )

