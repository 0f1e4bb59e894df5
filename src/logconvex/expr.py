"""Expression language for representers: parser, evaluator, symbolic derivatives.

Grammar (EBNF, '^' right-associative, unary minus binds tighter than binary):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'x' | IDENT | IDENT '(' expr ')' | '(' expr ')'

IDENT resolves to a function (exp, log, sin, cos, sqrt) when followed by '(',
to a named constant (pi, e, phi), or to a parameter substituted at parse time.
Parse errors carry the byte offset of the offending input and the set of
tokens that would have been accepted there.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UnboundParameter

CONSTANTS = {"pi": math.pi, "e": math.e, "phi": (1.0 + math.sqrt(5.0)) / 2.0}


# --------------------------------------------------------------------------
# AST nodes. Frozen dataclasses give structural equality for free, which the
# round-trip property relies on.
# --------------------------------------------------------------------------

class Expr:
    """Base node. Subclasses implement eval/diff/pretty via module functions."""

    def eval(self, x):
        return evaluate(self, x)

    def diff(self) -> "Expr":
        return simplify(differentiate(self))

    def pretty(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # a key of _UNARY
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # a key of _BINARY
    lhs: Expr
    rhs: Expr


# --------------------------------------------------------------------------
# Operators, each defined once: the parser accepts the unary names, _eval
# applies the functions (with their real-domain guards), differentiate the
# derivative rules, and simplify folds constants through _eval.
# --------------------------------------------------------------------------

def _log(u):
    if np.any(np.asarray(u) <= 0.0):
        raise DomainError("log requires a positive argument")
    return np.log(u)


def _sqrt(u):
    if np.any(np.asarray(u) < 0.0):
        raise DomainError("sqrt requires a non-negative argument")
    return np.sqrt(u)


def _div(a, b):
    if np.any(np.asarray(b) == 0.0):
        raise DomainError("division by zero")
    return a / b


def _pow(a, b):
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any((a_arr < 0.0) & (b_arr != np.floor(b_arr))):
        raise DomainError("x^c with non-integer c needs x > 0 (real branch)")
    if np.any((a_arr == 0.0) & (b_arr < 0.0)):
        raise DomainError("0^c undefined for negative c")
    with np.errstate(invalid="ignore"):
        out = np.power(a, b)
    if np.any(np.isnan(np.asarray(out))) and np.all(np.isfinite(a_arr)) and np.all(np.isfinite(b_arr)):
        raise DomainError("power evaluation left the real branch")
    return out


_UNARY = {"neg": operator.neg, "exp": np.exp, "log": _log, "sin": np.sin, "cos": np.cos, "sqrt": _sqrt}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}
#: d/dx of ``node`` = Unary(op, u), given u and du = u'
_UNARY_DERIVATIVE = {
    "neg": lambda node, u, du: Unary("neg", du),
    "exp": lambda node, u, du: Binary("*", node, du),
    "log": lambda node, u, du: Binary("/", du, u),
    "sin": lambda node, u, du: Binary("*", Unary("cos", u), du),
    "cos": lambda node, u, du: Unary("neg", Binary("*", Unary("sin", u), du)),
    "sqrt": lambda node, u, du: Binary("/", du, Binary("*", Const(2.0), node)),
}

FUNCTIONS = tuple(op for op in _UNARY if op != "neg")


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"
# typographic variants normalized before scanning
_UNICODE_MAP = {"−": "-", "×": "*", "÷": "/"}


@dataclass(frozen=True)
class Token:
    kind: str  # num, ident, op, end
    text: str
    pos: int  # character position in the normalized source


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def tokenize(src: str) -> list[Token]:
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(src, i)
        if m:
            out.append(Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            out.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in _OPS:
            out.append(Token("op", ch, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {ch!r} at offset {_byte_offset(src, i)}",
            offset=_byte_offset(src, i),
            expected={"number", "identifier", "operator"},
        )
    out.append(Token("end", "", n))
    return out


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------

_ATOM_EXPECTED = frozenset({"number", "'x'", "identifier", "'('", "'-'"})
_CONTINUATION = frozenset({"'+'", "'-'", "'*'", "'/'", "'^'"})


class _Parser:
    def __init__(self, src: str, params: dict[str, float]):
        self.src = src
        self.params = params
        self.tokens = tokenize(src)
        self.i = 0
        self.unbound: set[str] = set()

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, tok: Token, expected) -> ParseError:
        what = f"{tok.text!r}" if tok.kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {what} at offset {_byte_offset(self.src, tok.pos)}, "
            f"expected one of {sorted(expected)}",
            offset=_byte_offset(self.src, tok.pos),
            expected=expected,
        )

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, _CONTINUATION | {"end of input"})
        if self.unbound:
            raise UnboundParameter(self.unbound)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            inner = self.power()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary("neg", inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.take()
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                if name not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {name!r} at offset {_byte_offset(self.src, tok.pos)}",
                        offset=_byte_offset(self.src, tok.pos),
                        expected=frozenset(FUNCTIONS),
                    )
                self.take()
                arg = self.expr()
                closing = self.peek()
                if not (closing.kind == "op" and closing.text == ")"):
                    self.fail(closing, _CONTINUATION | {"')'"})
                self.take()
                return Unary(name, arg)
            if name == "x":
                return Var()
            if name in CONSTANTS:
                return Const(CONSTANTS[name])
            if name in self.params:
                return Const(float(self.params[name]))
            self.unbound.add(name)
            return Param(name)
        if tok.kind == "op" and tok.text == "(":
            self.take()
            node = self.expr()
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                self.fail(closing, _CONTINUATION | {"')'"})
            self.take()
            return node
        self.fail(tok, _ATOM_EXPECTED)


def parse(src: str, params: dict[str, float] | None = None) -> Expr:
    """Parse ``src``, substituting ``params`` as constants at parse time."""
    if not src or not src.strip():
        raise ParseError("empty expression", offset=0, expected=_ATOM_EXPECTED)
    for uni, ascii_ in _UNICODE_MAP.items():
        src = src.replace(uni, ascii_)
    return _Parser(src, dict(params or {})).parse()


# --------------------------------------------------------------------------
# Evaluation (scalar floats or numpy arrays)
# --------------------------------------------------------------------------

def _is_int_valued(v: float) -> bool:
    return math.isfinite(v) and float(v).is_integer()


def evaluate(node: Expr, x):
    """Evaluate ``node`` at scalar or ndarray ``x`` on the real branch.

    Raises DomainError for log/sqrt outside their real domains, for division
    by zero and for ``u^v`` with negative base and non-integer exponent.
    """
    arr = isinstance(x, np.ndarray)
    v = _eval(node, x)
    if arr and np.ndim(v) == 0:
        v = np.full(np.shape(x), float(v))
    return v


def _eval(node: Expr, x):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Param):
        raise UnboundParameter({node.name})
    if isinstance(node, Unary):
        return _UNARY[node.op](_eval(node.arg, x))
    if isinstance(node, Binary):
        return _BINARY[node.op](_eval(node.lhs, x), _eval(node.rhs, x))
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Symbolic differentiation
# --------------------------------------------------------------------------

def differentiate(node: Expr) -> Expr:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Param):
        raise UnboundParameter({node.name})
    if isinstance(node, Unary):
        return _UNARY_DERIVATIVE[node.op](node, node.arg, differentiate(node.arg))
    if isinstance(node, Binary):
        a, b = node.lhs, node.rhs
        da, db = differentiate(a), differentiate(b)
        op = node.op
        if op == "+":
            return Binary("+", da, db)
        if op == "-":
            return Binary("-", da, db)
        if op == "*":
            return Binary("+", Binary("*", da, b), Binary("*", a, db))
        if op == "/":
            num = Binary("-", Binary("*", da, b), Binary("*", a, db))
            return Binary("/", num, Binary("^", b, Const(2.0)))
        if op == "^":
            if isinstance(b, Const):
                # d/dx u^c = c * u^(c-1) * u'
                return Binary("*", Binary("*", b, Binary("^", a, Const(b.value - 1.0))), da)
            # general: u^v * (v' log u + v u'/u)
            term1 = Binary("*", db, Unary("log", a))
            term2 = Binary("/", Binary("*", b, da), a)
            return Binary("*", node, Binary("+", term1, term2))
        raise ValueError(f"unknown binary op {op!r}")
    raise TypeError(f"not an expression node: {node!r}")


def simplify(node: Expr) -> Expr:
    """Bottom-up constant folding plus a few identities; keeps derivative trees small.

    A node whose operands are all constants folds to exactly the value
    ``evaluate`` gives. If that raises DomainError or is not finite, the
    node stays as it is, so evaluation reports the failure.
    """
    if isinstance(node, Unary):
        u = simplify(node.arg)
        if isinstance(u, Const):
            return _folded(Unary(node.op, u))
        if node.op == "neg" and isinstance(u, Unary) and u.op == "neg":
            return u.arg
        return Unary(node.op, u)
    if isinstance(node, Binary):
        a = simplify(node.lhs)
        b = simplify(node.rhs)
        op = node.op
        if isinstance(a, Const) and isinstance(b, Const):
            return _folded(Binary(op, a, b))
        if op == "+":
            if _is_zero(a):
                return b
            if _is_zero(b):
                return a
        elif op == "-":
            if _is_zero(b):
                return a
            if _is_zero(a):
                return simplify(Unary("neg", b))
        elif op == "*":
            if _is_zero(a) or _is_zero(b):
                return Const(0.0)
            if _is_one(a):
                return b
            if _is_one(b):
                return a
        elif op == "/":
            if _is_zero(a):
                return Const(0.0)
            if _is_one(b):
                return a
        elif op == "^":
            if _is_one(b):
                return a
            if _is_zero(b):
                return Const(1.0)
        return Binary(op, a, b)
    return node


def _folded(node: Expr) -> Expr:
    """``node``, whose operands are constants, as the Const it evaluates to, if finite."""
    try:
        with np.errstate(all="ignore"):
            v = float(_eval(node, 0.0))
    except DomainError:
        return node
    return Const(v) if math.isfinite(v) else node


def _is_zero(node: Expr) -> bool:
    return isinstance(node, Const) and node.value == 0.0


def _is_one(node: Expr) -> bool:
    return isinstance(node, Const) and node.value == 1.0


# --------------------------------------------------------------------------
# Pretty printer. to_source(parse(s)) reparses to a structurally equal tree.
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: Expr) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    if isinstance(node, Const) and node.value < 0:
        return _PREC["neg"]  # prints with a leading minus
    return 9


def _const_str(v: float) -> str:
    if _is_int_valued(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(node: Expr) -> str:
    if isinstance(node, Const):
        return _const_str(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            # '-' binds a whole power; looser binary operands need parentheses
            if isinstance(node.arg, Binary) and node.arg.op != "^":
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_source(node.arg)})"
    if isinstance(node, Binary):
        op = node.op
        lhs, rhs = to_source(node.lhs), to_source(node.rhs)
        if op == "^":
            # base must be atom-like; '^' is right-associative
            if not (isinstance(node.lhs, Var)
                    or (isinstance(node.lhs, Const) and node.lhs.value >= 0)
                    or (isinstance(node.lhs, Unary) and node.lhs.op != "neg")):
                lhs = f"({lhs})"
            if isinstance(node.rhs, Binary) and node.rhs.op != "^":
                rhs = f"({rhs})"
            return f"{lhs}^{rhs}"
        p = _PREC[op]
        if _prec(node.lhs) < p:
            lhs = f"({lhs})"
        # left-associative: equal-precedence right operands need parentheses
        if _prec(node.rhs) <= p:
            rhs = f"({rhs})"
        joiner = f" {op} " if op in "+-" else op
        return f"{lhs}{joiner}{rhs}"
    raise TypeError(f"not an expression node: {node!r}")
