"""Expression trees for DDE right-hand sides.

Grammar (usual precedence, ^ binds tightest and is right-associative):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('-'|'+') unary | power
    power  := atom (('^'|'**') unary)?
    atom   := NUMBER | x<i>@<k> | NAME '(' expr ')' | NAME | '(' expr ')'

x<i>@<k> is component i of the state evaluated at the k-th delay; every other
NAME is a parameter. The function catalog is fixed (exp, log, sin, cos) so
that third-order differentiation stays total on the evaluation domain.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from ._jets import Jet3, jet_cos, jet_exp, jet_log, jet_sin
from .errors import EvalDomainError, ExprSyntaxError, UnknownSymbolError

Expr = Union["Num", "Param", "State", "Neg", "BinOp", "Call"]

FUNCTION_CATALOG = ("exp", "log", "sin", "cos")

#: deepest expression tree accepted from text: the tree walks here recurse
#: once per level, and Python's parser takes at most 200 nested parentheses
MAX_DEPTH = 200

_NUM_FUNCS = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos}
_JET_FUNCS = {"exp": jet_exp, "log": jet_log, "sin": jet_sin, "cos": jet_cos}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class State:
    comp: int
    lag: int


@dataclass(frozen=True)
class Neg:
    arg: Expr


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call:
    fn: str
    arg: Expr


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<state>x\d+@\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])"
    r")"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        if kind == "op" and val == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "state":
            comp, lag = val[1:].split("@")
            return State(int(comp), int(lag))
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in FUNCTION_CATALOG:
                    raise ExprSyntaxError(f"unknown function {val!r}", off)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            return Param(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            "expected a number, name or parenthesized expression", off
        )


def parse_expr(text: str) -> Expr:
    """Parse expression text into an immutable tree; text nested past the
    parser's recursion, or a tree deeper than MAX_DEPTH, is refused."""
    parser = _Parser(text)
    try:
        tree = parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.peek()[2]) from None
    if max(depth for _, depth in _walk(tree)) > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return tree


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def to_text(node: Expr) -> str:
    """Canonical printer; parse(to_text(e)) reproduces e structurally."""
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(node, Param):
        return node.name
    if isinstance(node, State):
        return f"x{node.comp}@{node.lag}"
    if isinstance(node, Neg):
        inner = to_text(node.arg)
        if _prec(node.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left = to_text(node.left)
        right = to_text(node.right)
        # left-assoc ops parenthesize an equal-precedence right child;
        # right-assoc ^ does the opposite
        if node.op == "^":
            if _prec(node.left) <= p:
                left = f"({left})"
            if _prec(node.right) < p:
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        if node.op in "+-":
            return f"{left} {node.op} {right}"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def _walk(node: Expr):
    """Every node of the tree with its depth, the root at 1; a loop, not a
    recursion, so it walks trees of any depth."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, BinOp):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, (Neg, Call)):
            stack.append((node.arg, depth + 1))


def state_symbols(node: Expr) -> set:
    """All (comp, lag) pairs referenced by the tree."""
    return {(e.comp, e.lag) for e, _ in _walk(node) if isinstance(e, State)}


def param_names(node: Expr) -> set:
    """All parameter names referenced by the tree."""
    return {e.name for e, _ in _walk(node) if isinstance(e, Param)}


def evaluate(node: Expr, state, params, funcs=None):
    """Evaluate the tree.

    state maps (comp, lag) to a value; values may be floats, complex numbers
    or Jet3 instances (pass funcs accordingly: default real-math catalog,
    jet catalog when state values are jets).
    """
    if funcs is None:
        funcs = _NUM_FUNCS
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Param):
        try:
            return params[node.name]
        except KeyError:
            raise UnknownSymbolError(f"unknown parameter {node.name!r}") from None
    if isinstance(node, State):
        try:
            return state[(node.comp, node.lag)]
        except KeyError:
            raise UnknownSymbolError(
                f"unbound state symbol x{node.comp}@{node.lag}"
            ) from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, state, params, funcs)
    if isinstance(node, BinOp):
        a = evaluate(node.left, state, params, funcs)
        b = evaluate(node.right, state, params, funcs)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            return a**b
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), to_text(node)) from None
    if isinstance(node, Call):
        arg = evaluate(node.arg, state, params, funcs)
        try:
            return funcs[node.fn](arg)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), to_text(node)) from None
    raise TypeError(f"not an expression node: {node!r}")


def eval_jet3(node: Expr, base, directions, params=None):
    """Directional Taylor data of the tree at `base`.

    base maps (comp, lag) to a complex value; directions is a sequence of one
    to three such maps. One direction returns the full Jet3 along it; two or
    three return the complex-bilinear/trilinear derivative value recovered by
    polarization (conjugate arguments must be passed explicitly).
    """
    params = params or {}
    dirs = list(directions)
    if not 1 <= len(dirs) <= 3:
        raise ValueError("eval_jet3 takes one to three directions")

    def jet_along(direction):
        env = {
            key: Jet3(val, direction.get(key, 0.0)) for key, val in base.items()
        }
        out = evaluate(node, env, params, _JET_FUNCS)
        # constant subtrees evaluate to plain scalars
        return out if isinstance(out, Jet3) else Jet3(out)

    def combine(*ds):
        keys = set()
        for d in ds:
            keys.update(d)
        return {k: sum(d.get(k, 0.0) for d in ds) for k in keys}

    if len(dirs) == 1:
        return jet_along(dirs[0])
    if len(dirs) == 2:
        u, v = dirs
        plus = jet_along(combine(u, v)).c[2]
        minus = jet_along(combine(u, {k: -x for k, x in v.items()})).c[2]
        # c2 carries f''/2; B(w) := D^2 f(w, w) = 2 c2
        return 2.0 * (plus - minus) / 4.0
    u, v, w = dirs
    t = (
        jet_along(combine(u, v, w)).c[3]
        - jet_along(combine(u, v)).c[3]
        - jet_along(combine(u, w)).c[3]
        - jet_along(combine(v, w)).c[3]
        + jet_along(u).c[3]
        + jet_along(v).c[3]
        + jet_along(w).c[3]
    )
    # c3 carries f'''/6; T(z) := D^3 f(z, z, z) = 6 c3
    return t


_ZERO, _ONE = Num(0.0), Num(1.0)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return a
    if a == _ZERO:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return _ZERO
    if b == _ONE:
        return a
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return _ONE
    if b == _ONE:
        return a
    return BinOp("^", a, b)


def diff(node: Expr, leaf) -> Expr:
    """Derivative of the tree with respect to a State or Param leaf.

    The constants 0 and 1 are folded, so a derivative that vanishes comes out
    as Num(0.0). A power whose exponent does not depend on the leaf is
    differentiated as b a^(b-1) a', which keeps integer powers of
    non-positive bases defined.
    """
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, (Param, State)):
        return _ONE if node == leaf else _ZERO
    if isinstance(node, Neg):
        return _neg(diff(node.arg, leaf))
    if isinstance(node, Call):
        a = node.arg
        da = diff(a, leaf)
        if node.fn == "exp":
            return _mul(node, da)
        if node.fn == "log":
            return _div(da, a)
        if node.fn == "sin":
            return _mul(Call("cos", a), da)
        if node.fn == "cos":
            return _neg(_mul(Call("sin", a), da))
        raise ValueError(f"no derivative for function {node.fn!r}")
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da, db = diff(a, leaf), diff(b, leaf)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            return _sub(_div(da, b), _div(_mul(a, db), _mul(b, b)))
        if db == _ZERO:
            lowered = Num(b.value - 1.0) if isinstance(b, Num) else _sub(b, _ONE)
            return _mul(_mul(b, _pow(a, lowered)), da)
        # d(a^b) = a^b (b' log a + b a'/a)
        return _mul(node, _add(_mul(db, Call("log", a)), _div(_mul(b, da), a)))
    raise TypeError(f"not an expression node: {node!r}")


def _source(node: Expr, leaf) -> str:
    """Python source of the tree; `leaf` prints the Param and State nodes."""
    if isinstance(node, Num):
        return f"({node.value!r})"  # in parentheses: (-a)**b is not -(a**b)
    if isinstance(node, (Param, State)):
        return leaf(node)
    if isinstance(node, Neg):
        return f"(-{_source(node.arg, leaf)})"
    if isinstance(node, BinOp):
        op = "**" if node.op == "^" else node.op
        return f"({_source(node.left, leaf)}{op}{_source(node.right, leaf)})"
    if isinstance(node, Call):
        return f"{node.fn}({_source(node.arg, leaf)})"
    raise TypeError(f"not an expression node: {node!r}")


def _compile(source: str):
    try:
        code = compile(source, "<rhs>", "exec")
    except (SyntaxError, RecursionError):
        # only nesting past what Python's parser or compiler takes
        raise ExprSyntaxError("expression nested too deeply to compile", 0) from None
    scope = dict(_NUM_FUNCS, EvalDomainError=EvalDomainError)
    exec(code, scope)
    return scope["f"]


def compile_rhs(exprs, params, n_lags: int):
    """Compile expression trees into one writer for time stepping.

    Parameter values are baked in as literals. f(v, out) reads lag values
    v[lag, comp] as numpy scalars (overflow gives inf, not an exception),
    writes out in one tuple assignment, so out may alias v's last lag row,
    and raises EvalDomainError where a value leaves its function's domain.
    """

    def leaf(node) -> str:
        if isinstance(node, Param):
            try:
                return f"({float(params[node.name])!r})"
            except KeyError:
                raise UnknownSymbolError(
                    f"unknown parameter {node.name!r}"
                ) from None
        if node.lag >= n_lags:
            raise UnknownSymbolError(f"delay index {node.lag} out of range")
        return f"v[{node.lag},{node.comp}]"

    targets = "".join(f"out[{i}], " for i in range(len(exprs)))
    body = "".join(f"{_source(e, leaf)}, " for e in exprs)
    return _compile(
        f"def f(v, out):\n    try:\n        {targets}= {body}\n"
        "    except (ValueError, ZeroDivisionError, OverflowError) as exc:\n"
        "        raise EvalDomainError(str(exc), 'model rhs at node 0') from None\n"
    )


def compile_rows(rows, names):
    """Compile rows of trees into one callable per row, for evaluation at a
    constant state.

    Each callable takes (x, p) and returns the row's values as a list:
    x[comp] is read for every lag of component comp, and p holds the
    parameter values in the order of `names`.
    """
    index = {name: i for i, name in enumerate(names)}

    def leaf(node) -> str:
        if isinstance(node, Param):
            return f"p[{index[node.name]}]"
        return f"x[{node.comp}]"

    lambdas = ", ".join(
        "lambda x, p: [" + ", ".join(_source(e, leaf) for e in row) + "]"
        for row in rows
    )
    return _compile(f"f = ({lambdas},)")
