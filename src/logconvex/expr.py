"""Expression language for representers: parser, evaluator, compiler, symbolic derivatives.

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

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParseError, UnboundParameter

CONSTANTS = {"pi": math.pi, "e": math.e, "phi": (1.0 + math.sqrt(5.0)) / 2.0}


# --------------------------------------------------------------------------
# AST nodes. Frozen dataclasses give structural equality for free, which the
# round-trip property relies on.
# --------------------------------------------------------------------------

class Expr:
    """Base node. Subclasses implement diff/pretty via module functions."""

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
# Operators, each defined once: the parser accepts the unary names,
# compile_expr applies the functions (with their real-domain guards),
# differentiate the derivative rules, and simplify folds constants with the
# same functions.
# --------------------------------------------------------------------------

# Each guard takes a scalar branch for float operands: the same checks and the
# same numpy call as the array branch, without its np.asarray/np.any cost.

def _log(u):
    if (u <= 0.0) if isinstance(u, float) else np.any(np.asarray(u) <= 0.0):
        raise DomainError("log requires a positive argument")
    return np.log(u)


def _sqrt(u):
    if (u < 0.0) if isinstance(u, float) else np.any(np.asarray(u) < 0.0):
        raise DomainError("sqrt requires a non-negative argument")
    return np.sqrt(u)


def _div(a, b):
    if (b == 0.0) if isinstance(b, float) else np.any(np.asarray(b) == 0.0):
        raise DomainError("division by zero")
    return a / b


def _pow(a, b):
    # A zero power takes C99 pow's sign, -0.0 only for a negative base and an
    # odd integer exponent, on every path: numpy gives (-0.0)^0.5 = sqrt(-0.0)
    # = -0.0 for a 0-d or a scalar exponent, where its 1-d loop gives +0.0.
    if isinstance(b, float):
        if isinstance(a, float):
            return _pow_scalar(a, b)
        if type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 1:
            return _pow_array(a, b)
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any((a_arr < 0.0) & (b_arr != np.floor(b_arr))):
        raise DomainError(_POW_BRANCH)
    if np.any((a_arr == 0.0) & (b_arr < 0.0)):
        raise DomainError(_POW_ZERO)
    with np.errstate(invalid="ignore"):
        out = np.power(a, b)
    if b_arr.ndim:
        # numpy squares, inverts or takes sqrt for a scalar exponent of 2, -1 or
        # 0.5, which can differ in the last bit from its loop over an exponent
        # array: redo those elements with a scalar exponent, so that c^x on a grid
        # has the bits of c^x at each point. The first pass raised any signal.
        with np.errstate(all="ignore"):
            for s in (2.0, -1.0, 0.5):
                hit = np.broadcast_to(b_arr == s, out.shape)
                if hit.any():
                    out[hit] = np.power(np.broadcast_to(a_arr, out.shape)[hit], s)
    if np.any(np.isnan(np.asarray(out))) and np.all(np.isfinite(a_arr)) and np.all(np.isfinite(b_arr)):
        raise DomainError("power evaluation left the real branch")
    zero = out == 0.0
    if np.any(zero):
        with np.errstate(invalid="ignore"):  # an infinite exponent's remainder is nan: not odd
            odd = np.mod(b_arr, 2.0) == 1.0
        out = np.where(zero, np.copysign(0.0, np.where(odd, a_arr, 1.0)), out)[()]
    return out


def _pow_scalar(a: float, b: float):
    # b != floor(b) as np.floor sees it: false for +-inf, true for nan
    # (math.floor raises on both)
    if a < 0.0 and not (b.is_integer() or math.isinf(b)):
        raise DomainError(_POW_BRANCH)
    if a == 0.0 and b < 0.0:
        raise DomainError(_POW_ZERO)
    # Past the two checks a negative base has an integer or infinite exponent,
    # so the power never signals invalid and is NaN only for a NaN operand: the
    # array branch's errstate and NaN check have nothing to do here.
    out = np.power(a, b)
    if out == 0.0:
        out = np.copysign(out, a if b % 2.0 == 1.0 else 1.0)
    return out


def _pow_array(a: np.ndarray, b: float):
    # The scalar branch's checks and argument, elementwise: the power never
    # signals invalid and is NaN only for a NaN operand, so the general
    # branch's errstate and NaN scans have nothing to do here.
    if not (b.is_integer() or math.isinf(b)) and (a < 0.0).any():
        raise DomainError(_POW_BRANCH)
    if b < 0.0 and (a == 0.0).any():
        raise DomainError(_POW_ZERO)
    out = np.power(a, b)
    zero = out == 0.0
    if zero.any():
        out[zero] = np.copysign(0.0, a[zero]) if b % 2.0 == 1.0 else 0.0
    return out


_POW_BRANCH = "x^c with non-integer c needs x > 0 (real branch)"
_POW_ZERO = "0^c undefined for negative c"

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
    """Evaluate ``node`` at scalar or ndarray ``x`` on the real branch: ``compile_expr(node)(x)``.

    Raises DomainError for log/sqrt outside their real domains, for division
    by zero and for ``u^v`` with negative base and non-integer exponent.
    """
    return compile_expr(node)(x)


def _shaped(v, x):
    """``v``, broadcast to the shape of ``x`` when ``x`` is an array and ``v`` is not."""
    if isinstance(x, np.ndarray) and np.ndim(v) == 0:
        return np.full(np.shape(x), float(v))
    return v


def compile_expr(node: Expr) -> Callable:
    """``node`` as a function of x, scalar or ndarray; an array x gives an array of its shape.

    The body is straight-line code with one line per distinct subtree. Each
    line calls its node's operator function (``_UNARY`` or ``_BINARY``) in
    depth-first, left-to-right order, so the first guard to raise is the one
    a recursive evaluation of the tree would reach first. Operator functions
    and constants are closure variables, so the source depends only on the
    tree's shape and trees of one shape share one compiled code object.

    Raises UnboundParameter for a tree with a free parameter, as
    ``differentiate`` does.
    """
    bound: list = []  # closure values k0, k1, ...: operator functions and constants
    steps: list[tuple] = []  # (function, operands); an operand is "x", "k<i>" or a step index
    names: dict = {}  # hash-consing: constant bits, operator or step -> its name or index

    def closure_var(key, value) -> str:
        name = names.get(key)
        if name is None:
            name = names[key] = f"k{len(bound)}"
            bound.append(value)
        return name

    def visit(node: Expr):
        if isinstance(node, Binary):
            step = (closure_var(node.op, _BINARY[node.op]), visit(node.lhs), visit(node.rhs))
        elif isinstance(node, Unary):
            step = (closure_var(node.op, _UNARY[node.op]), visit(node.arg))
        elif isinstance(node, Var):
            return "x"
        elif isinstance(node, Const):
            v = node.value
            # keyed by bits: Const(0.0) == Const(-0.0), but their values differ
            return closure_var((type(v), v.hex() if isinstance(v, float) else v), v)
        elif isinstance(node, Param):
            raise UnboundParameter({node.name})
        else:
            raise TypeError(f"not an expression node: {node!r}")
        index = names.get(step)
        if index is None:
            index = names[step] = len(steps)
            steps.append(step)
        return index

    result = visit(node)
    return _code_factory(tuple(steps), result, len(bound))(*bound)


@functools.lru_cache(maxsize=1024)
def _code_factory(steps: tuple, result, n_bound: int) -> Callable:
    """A function of the closure values k0, k1, ... returning ``def f(x)``; cached by shape."""
    params = ", ".join(f"k{i}" for i in range(n_bound))
    source = f"def make({params}):\n    def f(x):\n{_straight_line(steps, result)}    return f\n"
    namespace = {"shaped": _shaped}
    exec(compile(source, "<expr>", "exec"), namespace)
    return namespace["make"]


def _straight_line(steps: tuple, result) -> str:
    """The body of ``f``; a value's variable is reused once its last reader has run."""
    last_read = {result: len(steps)}
    for i, (_, *operands) in enumerate(steps):
        last_read.update((a, i) for a in operands if isinstance(a, int))
    slot: dict[int, str] = {}
    free: list[str] = []
    fresh = (f"v{j}" for j in itertools.count())

    def name(a) -> str:
        return slot[a] if isinstance(a, int) else a

    lines = []
    for i, (fn, *operands) in enumerate(steps):
        call = f"{fn}({', '.join(map(name, operands))})"
        free.extend(slot[a] for a in sorted({a for a in operands if isinstance(a, int)}) if last_read[a] == i)
        slot[i] = free.pop() if free else next(fresh)
        lines.append(f"        {slot[i]} = {call}\n")
    return "".join(lines) + f"        return shaped({name(result)}, x)\n"


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
    node stays as it is and no identity drops it, so evaluation reports the
    failure.
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
            if (_is_zero(a) and _droppable(b)) or (_is_zero(b) and _droppable(a)):
                return Const(0.0)
            if _is_one(a):
                return b
            if _is_one(b):
                return a
        elif op == "/":
            if _is_zero(a) and _droppable(b):
                return Const(0.0)
            if _is_one(b):
                return a
        elif op == "^":
            if _is_one(b):
                return a
            if _is_zero(b) and _droppable(a):
                return Const(1.0)
        return Binary(op, a, b)
    return node


def _folded(node: Expr) -> Expr:
    """``node``, whose operands are constants, as the Const it evaluates to, if finite."""
    try:
        with np.errstate(all="ignore"):
            if isinstance(node, Unary):
                v = float(_UNARY[node.op](node.arg.value))
            else:
                v = float(_BINARY[node.op](node.lhs.value, node.rhs.value))
    except DomainError:
        return node
    return Const(v) if math.isfinite(v) else node


def _droppable(node: Expr) -> bool:
    """Whether an identity may drop the simplified ``node``.

    Not if it holds an operator node whose operands are all constants: simplify
    left that node unfolded because evaluating it raised or was not finite, and
    dropping it would hide the failure.
    """
    if isinstance(node, Unary):
        operands = (node.arg,)
    elif isinstance(node, Binary):
        operands = (node.lhs, node.rhs)
    else:
        return True
    return not all(isinstance(u, Const) for u in operands) and all(map(_droppable, operands))


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
