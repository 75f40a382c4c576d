"""Tiny scalar expression language in the variables x and y.

Coefficient fields are declared in config files as strings like
``"1 + 0.5*sin(pi*x)*y"``.  The grammar is fixed:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

``^`` is right associative; all other binary operators are left
associative.  Note that the left operand of ``^`` is a ``unary``, so
``-x^2`` parses as ``(-x)^2``.  Known functions: sin, cos, exp, sqrt,
abs (one argument), min, max (two arguments).  ``pi`` is a constant.

eval_expr evaluates a tree at one point and is the reference semantics.
compile_expr turns a tree into a numpy closure over arrays of points
that agrees with eval_expr point by point, domain errors included.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse_expr",
    "eval_expr",
    "compile_expr",
    "FUNCTIONS",
]

# function name -> arity
FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "sqrt": 1, "abs": 1, "min": 2, "max": 2}

_VARIABLES = ("x", "y")


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    offset: int = field(default=-1, compare=False)


Expr = Num | Var | Neg | BinOp | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source):
    """Return a list of (kind, text, offset) triples plus an EOF marker."""
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            # skip leading whitespace before reporting
            stripped = pos + len(source[pos:]) - len(source[pos:].lstrip())
            if stripped >= n:
                break
            raise ParseError(f"unexpected character {source[stripped]!r}", stripped)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = BinOp(text, e, self.term(), offset)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = BinOp(text, e, self.factor(), offset)
            else:
                return e

    def factor(self):
        e = self.unary()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right associative: the exponent is itself a factor
            return BinOp("^", e, self.factor(), offset)
        return e

    def unary(self):
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary(), offset)
        return self.atom()

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text), offset)
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                return self.call(text, offset)
            if text in _VARIABLES:
                return Var(text, offset)
            if text == "pi":
                return Num(math.pi, offset)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(
            "expected a number, identifier or parenthesized expression", offset
        )

    def call(self, name, offset):
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", offset)
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if len(args) != FUNCTIONS[name]:
            raise ParseError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}", offset
            )
        return Call(name, tuple(args), offset)


def parse_expr(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers and arity mismatches.
    """
    return _Parser(source).parse()


def eval_expr(e: Expr, x: float, y: float) -> float:
    """Evaluate the tree at the point (x, y) in double precision.

    Division by zero, sqrt of a negative number, a negative base raised
    to a non-integer power, and exp overflow raise EvalDomainError
    carrying the source offset of the offending node.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x) if e.name == "x" else float(y)
    if isinstance(e, Neg):
        return -eval_expr(e.operand, x, y)
    if isinstance(e, BinOp):
        a = eval_expr(e.left, x, y)
        b = eval_expr(e.right, x, y)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero", e.offset)
            return a / b
        # '^'
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(f"pow domain error: {exc}", e.offset) from None
    if isinstance(e, Call):
        vals = [eval_expr(a, x, y) for a in e.args]
        try:
            if e.func == "sin":
                return math.sin(vals[0])
            if e.func == "cos":
                return math.cos(vals[0])
            if e.func == "exp":
                return math.exp(vals[0])
            if e.func == "sqrt":
                return math.sqrt(vals[0])
            if e.func == "abs":
                return abs(vals[0])
            if e.func == "min":
                return min(vals[0], vals[1])
            if e.func == "max":
                return max(vals[0], vals[1])
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(f"{e.func} domain error: {exc}", e.offset) from None
        raise EvalDomainError(f"unknown function {e.func!r}", e.offset)
    raise TypeError(f"not an expression node: {e!r}")


# numpy's SIMD exp and pow round differently from libm on about 5% of
# points, and an expression can amplify one ulp into many (exp(exp(y)),
# exp(y) - 2), so those two nodes call libm itself through numpy.
_LIBM_EXP = np.frompyfunc(math.exp, 1, 1)
_LIBM_POW = np.frompyfunc(math.pow, 2, 1)
_EXP_SAFE = 709.0          # math.exp overflows only above log(DBL_MAX) ~ 709.78
_POW_SAFE = 1e308          # numpy pow below this cannot overflow in libm


def _libm(fn, flag, *args):
    """fn over the points not flagged (those cannot raise); nan elsewhere."""
    args = np.broadcast_arrays(*args)
    out = np.full(args[0].shape, np.nan)
    ok = ~np.broadcast_to(flag, out.shape)
    out[ok] = fn(*(a[ok] for a in args))
    return out


def _power(a, b):
    # math.pow raises only for finite operands with a nan or inf result
    flag = (np.isfinite(a) & np.isfinite(b)
            & ~(np.abs(np.power(a, b)) <= _POW_SAFE))
    return _libm(_LIBM_POW, flag, a, b), flag


def _exp(a):
    flag = a > _EXP_SAFE
    return _libm(_LIBM_EXP, flag, a), flag


# operator or function name -> f(*operands) = (values, flag).  The flag
# marks every point where eval_expr may raise at that node; marking more
# is harmless, since flagged points are evaluated again with eval_expr.
_NODES = {
    "+": lambda a, b: (np.add(a, b), False),
    "-": lambda a, b: (np.subtract(a, b), False),
    "*": lambda a, b: (np.multiply(a, b), False),
    "/": lambda a, b: (np.divide(a, b), b == 0.0),
    "^": _power,
    "sin": lambda a: (np.sin(a), np.isinf(a)),
    "cos": lambda a: (np.cos(a), np.isinf(a)),
    "exp": _exp,
    "sqrt": lambda a: (np.sqrt(a), a < 0.0),
    "abs": lambda a: (np.abs(a), False),
    # Python's min/max keep the first argument unless the second is
    # strictly smaller/larger (nan and -0.0 included)
    "min": lambda a, b: (np.where(b < a, b, a), False),
    "max": lambda a, b: (np.where(b > a, b, a), False),
}


def _unknown_node(*operands):
    return np.float64(np.nan), True


def _compile(e):
    """Node closure (xs, ys, flagged) -> values; ORs domain flags into flagged."""
    if isinstance(e, Num):
        value = np.float64(e.value)
        return lambda xs, ys, flagged: value
    if isinstance(e, Var):
        if e.name == "x":
            return lambda xs, ys, flagged: xs
        return lambda xs, ys, flagged: ys
    if isinstance(e, Neg):
        operand = _compile(e.operand)
        return lambda xs, ys, flagged: -operand(xs, ys, flagged)
    if isinstance(e, BinOp):
        node, children = _NODES[e.op], (e.left, e.right)
    elif isinstance(e, Call):
        node, children = _NODES.get(e.func, _unknown_node), e.args
    else:
        raise TypeError(f"not an expression node: {e!r}")
    operands = [_compile(c) for c in children]

    def apply(xs, ys, flagged):
        values, flag = node(*(f(xs, ys, flagged) for f in operands))
        flagged |= flag
        return values

    return apply


def compile_expr(e: Expr):
    """Compile the tree into a closure ``(xs, ys) -> ndarray``.

    The closure evaluates one node at a time over all points (xs and ys
    broadcast together) with numpy, and gives the bits eval_expr gives
    wherever numpy's sin and cos agree with libm's.  Every node where
    eval_expr can raise flags the points at risk; those points are
    evaluated again with eval_expr in ravel order, so each takes the
    scalar value or the first failing one raises the same
    EvalDomainError (message and offset).
    """
    node = _compile(e)

    def evaluate(xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        flagged = np.zeros(shape, dtype=bool)
        with np.errstate(all="ignore"):
            out = np.array(np.broadcast_to(node(xs, ys, flagged), shape),
                           dtype=float)
        if flagged.any():
            fx = np.broadcast_to(xs, shape).ravel()
            fy = np.broadcast_to(ys, shape).ravel()
            flat = out.reshape(-1)
            for i in np.flatnonzero(flagged):
                flat[i] = eval_expr(e, fx[i], fy[i])
        return out

    return evaluate
