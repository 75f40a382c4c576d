"""Parser and evaluator tests, including the independent reference
evaluator (a one-pass recursive descent over source text, no tree)."""

import math
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnlab.errors import EvalDomainError, ParseError
from dtnlab.exprlang import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    eval_expr,
    parse_expr,
)

from helpers import format_expr


def test_literal():
    assert parse_expr("1") == Num(1.0)


def test_sin_example():
    e = parse_expr("1 + 0.5*sin(pi*x)*y")
    assert eval_expr(e, 0.5, 1.0) == pytest.approx(1.5, abs=1e-15)


def test_power_right_associative():
    assert eval_expr(parse_expr("2^3^2"), 0, 0) == 512.0


def test_power_binds_outside_unary():
    # the grammar makes the left operand of ^ a unary
    assert eval_expr(parse_expr("-2^2"), 0, 0) == 4.0
    assert eval_expr(parse_expr("2^-1"), 0, 0) == 0.5


def test_mul_example():
    assert eval_expr(parse_expr("x*y"), 3, 4) == 12.0


def test_min_abs_example():
    assert eval_expr(parse_expr("min(x, y) + abs(-2)"), 1, 5) == 3.0


def test_division_by_zero_reports_offset():
    with pytest.raises(EvalDomainError) as err:
        eval_expr(parse_expr("1/x"), 0.0, 0.0)
    assert err.value.offset == 1


def test_sqrt_negative():
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("sqrt(0 - x)"), 4.0, 0.0)


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse_expr("1 + z")
    assert err.value.offset == 4


def test_unknown_function():
    with pytest.raises(ParseError):
        parse_expr("tan(x)")


def test_arity_mismatch():
    with pytest.raises(ParseError):
        parse_expr("sin(x, y)")
    with pytest.raises(ParseError):
        parse_expr("min(x)")


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("1 + * 2")
    assert err.value.offset == 4


def test_trailing_input():
    with pytest.raises(ParseError):
        parse_expr("1 2")


def test_whitespace_insensitive():
    assert parse_expr(" 1+2 * x ") == parse_expr("1 + 2*x")


def test_precedence_shape():
    e = parse_expr("1 + 2*3")
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.right, BinOp) and e.right.op == "*"


# ---------------------------------------------------------------------------
# reference evaluator: one-pass recursive descent over the source


class _RefError(Exception):
    pass


_TOK = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)

_REF_FN = {
    "sin": (1, math.sin), "cos": (1, math.cos), "exp": (1, math.exp),
    "sqrt": (1, math.sqrt), "abs": (1, abs),
    "min": (2, min), "max": (2, max),
}


def reference_eval(src, x, y):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOK.match(src, pos)
        if m is None:
            if not src[pos:].strip():
                break
            raise _RefError("bad char")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", ""))
    i = 0

    def peek():
        return tokens[i]

    def take():
        nonlocal i
        tok = tokens[i]
        i += 1
        return tok

    def expr():
        v = term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            op = take()[1]
            w = term()
            v = v + w if op == "+" else v - w
        return v

    def term():
        v = factor()
        while peek() == ("op", "*") or peek() == ("op", "/"):
            op = take()[1]
            w = factor()
            if op == "*":
                v = v * w
            else:
                if w == 0.0:
                    raise _RefError("div0")
                v = v / w
        return v

    def factor():
        v = unary()
        if peek() == ("op", "^"):
            take()
            w = factor()
            try:
                return math.pow(v, w)
            except (ValueError, OverflowError):
                raise _RefError("pow") from None
        return v

    def unary():
        if peek() == ("op", "-"):
            take()
            return -unary()
        return atom()

    def atom():
        kind, text = take()
        if kind == "num":
            return float(text)
        if kind == "ident":
            if peek() == ("op", "("):
                take()
                args = [expr()]
                while peek() == ("op", ","):
                    take()
                    args.append(expr())
                if take() != ("op", ")"):
                    raise _RefError("paren")
                arity, fn = _REF_FN[text]
                if len(args) != arity:
                    raise _RefError("arity")
                try:
                    return fn(*args)
                except (ValueError, OverflowError):
                    raise _RefError("domain") from None
            if text == "x":
                return float(x)
            if text == "y":
                return float(y)
            if text == "pi":
                return math.pi
            raise _RefError("ident")
        if (kind, text) == ("op", "("):
            v = expr()
            if take() != ("op", ")"):
                raise _RefError("paren")
            return v
        raise _RefError("atom")

    v = expr()
    if peek()[0] != "eof":
        raise _RefError("trailing")
    return v


# random tree corpus -------------------------------------------------------

import random


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return Num(float(rng.choice([0, 1, 2, 3, 0.5, 1.25, 7])))
        if choice < 0.5:
            return Num(math.pi)
        return Var(rng.choice(["x", "y"]))
    choice = rng.random()
    if choice < 0.15:
        return Neg(_random_tree(rng, depth - 1))
    if choice < 0.75:
        op = rng.choice(["+", "-", "*", "/", "^"])
        left = _random_tree(rng, depth - 1)
        right = _random_tree(rng, depth - 1)
        if op == "^":
            # keep exponents tame so values stay comparable
            right = Num(float(rng.choice([0, 1, 2, 3])))
        return BinOp(op, left, right)
    name = rng.choice(["sin", "cos", "exp", "sqrt", "abs", "min", "max"])
    if name in ("min", "max"):
        return Call(name, (_random_tree(rng, depth - 1),
                           _random_tree(rng, depth - 1)))
    return Call(name, (_random_tree(rng, depth - 1),))


def _outcome(fn, *args):
    try:
        return ("value", struct.pack("<d", fn(*args)))
    except (EvalDomainError, _RefError):
        return ("error", None)


def test_reference_evaluator_bit_equality_1000():
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        tree = _random_tree(rng, 4)
        src = format_expr(tree)
        x = rng.uniform(-2, 2)
        y = rng.uniform(-2, 2)
        mine = _outcome(lambda: eval_expr(parse_expr(src), x, y))
        ref = _outcome(lambda: reference_eval(src, x, y))
        assert mine == ref, f"disagreement on {src!r} at ({x}, {y})"
        checked += 1


def test_roundtrip_1000_random_trees():
    rng = random.Random(99)
    for _ in range(1000):
        tree = _random_tree(rng, 4)
        src = format_expr(tree)
        again = parse_expr(src)
        assert again == tree, src
        assert parse_expr(format_expr(again)) == again


# hypothesis: the same properties over an independently generated corpus

_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0, max_value=100,
                             allow_nan=False, allow_infinity=False)),
    st.builds(Var, st.sampled_from(["x", "y"])),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]),
                  children, children),
        st.builds(lambda f, a: Call(f, (a,)),
                  st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                  children),
        st.builds(lambda f, a, b: Call(f, (a, b)),
                  st.sampled_from(["min", "max"]), children, children),
    )


_trees = st.recursive(_leaf, _extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_print_parse_roundtrip(tree):
    assert parse_expr(format_expr(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_eval_matches_reference_on_fixed_source(x, y):
    src = "1 + 0.5*sin(pi*x)*y - max(x, y)/(2 + abs(x))"
    assert struct.pack("<d", eval_expr(parse_expr(src), x, y)) \
        == struct.pack("<d", reference_eval(src, x, y))


# compiled (numpy) evaluator against the per-point eval_expr loop ----------

import numpy as np

from dtnlab.coeffs import ScalarField


def _loop_outcome(tree, xs, ys):
    try:
        return ("value", np.array([eval_expr(tree, x, y)
                                   for x, y in zip(xs, ys)]))
    except EvalDomainError as exc:
        return ("error", type(exc), str(exc), exc.offset)


def _batch_outcome(tree, xs, ys):
    try:
        return ("value", ScalarField(tree).eval_batch(xs, ys))
    except EvalDomainError as exc:
        return ("error", type(exc), str(exc), exc.offset)


def _ulps(a, b):
    """Distance in units in the last place (0 for equal values or two nans)."""
    # map the sign-magnitude bit patterns onto a monotone line of
    # Python integers (no int64 overflow between opposite infinities)
    ia = a.view(np.int64).astype(object)
    ib = b.view(np.int64).astype(object)
    ia = np.where(ia < 0, -(1 << 63) - ia, ia)
    ib = np.where(ib < 0, -(1 << 63) - ib, ib)
    both_nan = np.isnan(a) & np.isnan(b)
    return np.where(both_nan, 0, np.abs(ia - ib))


def test_compiled_batch_matches_scalar_loop_1000():
    rng = random.Random(20261018)
    points = np.random.default_rng(7)
    for _ in range(1000):
        tree = _random_tree(rng, 4)
        xs, ys = points.uniform(-2.0, 2.0, size=(2, 64))
        loop = _loop_outcome(tree, xs, ys)
        batch = _batch_outcome(tree, xs, ys)
        src = format_expr(tree)
        assert loop[0] == batch[0], src
        if loop[0] == "error":
            assert batch == loop, src
        else:
            assert batch[1].shape == (64,)
            assert int(np.max(_ulps(loop[1], batch[1]))) <= 4, src


@pytest.mark.parametrize("src, bad_x, message", [
    ("1 + 1/x", 0.0, "division by zero"),
    ("1 + sqrt(x)", -1.0, "sqrt domain error"),
    ("1 + x^0.5", -2.0, "pow domain error"),
    ("1 + exp(x)", 800.0, "exp domain error"),
    ("1 + sin(x)", math.inf, "sin domain error"),
])
def test_batch_raises_the_scalar_domain_error(src, bad_x, message):
    xs = np.linspace(0.5, 1.5, 65)
    xs[32] = bad_x
    xs[40] = bad_x          # only the first failing point is reported
    ys = np.zeros_like(xs)
    loop = _loop_outcome(parse_expr(src), xs, ys)
    assert loop[0] == "error" and message in loop[2]
    assert _batch_outcome(parse_expr(src), xs, ys) == loop
    # 2-d input: the first failing point in ravel order decides
    assert _batch_outcome(parse_expr(src), xs[:64].reshape(8, 8),
                          ys[:64].reshape(8, 8)) == loop


def test_batch_reports_the_first_error_in_point_order():
    tree = parse_expr("sqrt(x) + 1/y")
    xs = np.ones(16)
    ys = np.ones(16)
    xs[9] = -1.0            # sqrt fails at point 9
    ys[5] = 0.0             # the division fails earlier, at point 5
    loop = _loop_outcome(tree, xs, ys)
    assert loop[2].startswith("division by zero")
    assert _batch_outcome(tree, xs, ys) == loop
    ys[5] = 1.0
    ys[9] = 0.0             # both fail at point 9: sqrt is evaluated first
    loop = _loop_outcome(tree, xs, ys)
    assert loop[2].startswith("sqrt domain error")
    assert _batch_outcome(tree, xs, ys) == loop


def test_flagged_points_that_evaluate_cleanly_keep_the_scalar_value():
    # exp near overflow, exp(inf), pow with infinite operands and nan
    # inputs are flagged or special but raise nothing in eval_expr
    xs = np.array([709.5, math.inf, -math.inf, math.nan, 0.5, -0.0])
    ys = np.array([1.0, -math.inf, 2.0, 0.0, math.inf, 3.0])
    for src in ("exp(x)", "x^y", "min(x, y)", "max(x, -y)", "x/(y + 1)"):
        tree = parse_expr(src)
        loop = _loop_outcome(tree, xs, ys)
        batch = _batch_outcome(tree, xs, ys)
        assert loop[0] == batch[0] == "value", src
        assert loop[1].tobytes() == batch[1].tobytes(), src
