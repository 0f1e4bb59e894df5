"""Representer functions g for the multiplicative equation f(x+1) = g(x) f(x).

Builtins, the parsed expression language, and Artinian derivative chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import NonPositiveError, PoleError, ZeroDerivative
from .funcore import RealFunction

_INF = math.inf

#: |fib_real(x)| below this raises PoleError in the fibonacci representer.
FIB_POLE_TOL = 1e-12


@dataclass(frozen=True)
class Representer:
    """A positive function g with exact first and second derivatives.

    ``positivity_domain`` is the interval on which g is promised positive;
    construction spot-checks it on a 64-point grid.
    """

    fn: RealFunction
    positivity_domain: tuple[float, float] = (0.0, _INF)
    name: str = ""
    ast: ex.Expr | None = None

    def __post_init__(self):
        for x in _spot_grid(*self.positivity_domain):
            if self.fn(float(x)) <= 0.0:
                raise NonPositiveError(
                    f"representer {self.name or self.fn.name or '?'} is not positive "
                    f"at x={float(x)!r} inside {self.positivity_domain}"
                )

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def values(self, xs) -> np.ndarray:
        return self.fn.values(xs)

    def d1(self, x: float) -> float:
        return self.fn.derivative(x, 1)

    def d2(self, x: float) -> float:
        return self.fn.derivative(x, 2)

    def d1_values(self, xs) -> np.ndarray:
        if self.fn.d1 is None:
            return np.array([self.fn.derivative(float(t), 1) for t in np.asarray(xs, dtype=float)])
        return np.asarray(self.fn.d1(np.asarray(xs, dtype=float)), dtype=float)

    def d2_values(self, xs) -> np.ndarray:
        if self.fn.d2 is None:
            return np.array([self.fn.derivative(float(t), 2) for t in np.asarray(xs, dtype=float)])
        return np.asarray(self.fn.d2(np.asarray(xs, dtype=float)), dtype=float)


def _spot_grid(a: float, b: float, n: int = 64) -> np.ndarray:
    # a window of length 8 stands in for an infinite end
    if math.isinf(a) and math.isinf(b):
        return np.linspace(-4.0, 4.0, n)
    if math.isinf(b):
        return a + 8.0 * (np.arange(n) + 0.5) / n
    if math.isinf(a):
        return b - 8.0 * (np.arange(n) + 0.5) / n
    return a + (b - a) * (np.arange(n) + 0.5) / n


def function_from_ast(tree: ex.Expr, domain: tuple[float, float] = (-_INF, _INF),
                      name: str = "") -> RealFunction:
    """Wrap an expression tree as a RealFunction with symbolic d1 and d2, each compiled once."""
    d1_tree = tree.diff()
    d2_tree = d1_tree.diff()
    return RealFunction(
        fn=ex.compile_expr(tree),
        d1=ex.compile_expr(d1_tree),
        d2=ex.compile_expr(d2_tree),
        domain=domain,
        name=name or tree.pretty(),
        ast=tree,
    )


def parse_representer(src: str, params: dict[str, float] | None = None,
                      positivity_domain: tuple[float, float] = (0.0, _INF)) -> Representer:
    """Parse ``src`` (substituting ``params``) into a representer named ``src.strip()``.

    Exact d1/d2 come from symbolic differentiation; positivity over
    ``positivity_domain`` is spot-checked at construction.
    """
    tree = ex.simplify(ex.parse(src, params))
    name = src.strip()
    return Representer(fn=function_from_ast(tree, name=name), positivity_domain=positivity_domain,
                       name=name, ast=tree)


def builtin(name: str, c: float | None = None, v: float | None = None) -> Representer:
    """Built-in representers: identity, power(c), constant(v), fibonacci."""
    if name == "identity":
        tree = ex.Var()
        return Representer(fn=function_from_ast(tree, name="identity"),
                           positivity_domain=(0.0, _INF), name="identity", ast=tree)
    if name == "power":
        if c is None or not math.isfinite(c):
            raise ValueError("power representer needs a finite exponent c")
        tree = ex.simplify(ex.Binary("^", ex.Var(), ex.Const(float(c))))
        domain = (-_INF, _INF) if float(c).is_integer() and c >= 0 else (0.0, _INF)
        return Representer(fn=function_from_ast(tree, domain=domain, name=f"power(c={c})"),
                           positivity_domain=(0.0, _INF), name=f"power(c={c})", ast=tree)
    if name == "constant":
        if v is None or not (v > 0):
            raise ValueError("constant representer needs v > 0")
        tree = ex.Const(float(v))
        return Representer(fn=function_from_ast(tree, name=f"constant({v})"),
                           positivity_domain=(-_INF, _INF), name=f"constant({v})", ast=tree)
    if name == "fibonacci":
        from .special import fib_real_fn  # imported here: only this builtin needs special

        # g = u/v with u(x) = fib_real(x+1), v(x) = fib_real(x) and the exact Binet derivatives
        fib = fib_real_fn()
        fn = _quotient(fib.shifted(1.0), fib, _fib_pole_check, name="fibonacci")
        return Representer(fn=fn, positivity_domain=(0.0, _INF), name="fibonacci")
    raise ValueError(f"unknown builtin representer {name!r}")


def _fib_pole_check(x, v) -> None:
    bad = np.abs(v) < FIB_POLE_TOL
    if np.any(bad):
        pt = float(np.asarray(x)[bad][0])
        raise PoleError(f"fibonacci representer pole: fib_real({pt!r}) ~ 0", point=pt)


def _quotient(u: RealFunction, v: RealFunction, check, name: str, ast=None) -> RealFunction:
    """u/v with quotient-rule d1 and d2; ``check(x, v(x))`` runs before each division.

    u and v need exact d1 and d2; every callable accepts floats and arrays.
    """
    def den(x):
        vx = v.fn(x)
        check(x, vx)
        return vx

    def val(x):
        return u.fn(x) / den(x)

    def d1(x):
        vx = den(x)
        return (u.d1(x) * vx - u.fn(x) * v.d1(x)) / (vx * vx)

    def d2(x):
        vx = den(x)
        ux, du, dv = u.fn(x), u.d1(x), v.d1(x)
        ddu, ddv = u.d2(x), v.d2(x)
        return (ddu * vx - ux * ddv) / (vx * vx) - 2.0 * dv * (du * vx - ux * dv) / (vx * vx * vx)

    return RealFunction(fn=val, d1=d1, d2=d2, name=name, ast=ast)


def from_spec(spec: str, params: dict[str, float] | None = None) -> Representer:
    """Resolve a CLI representer spec.

    Reserved names: "identity", "fibonacci", "power:c=<v>", "const:<v>".
    Anything else is parsed as an expression in x.
    """
    s = spec.strip()
    if s == "identity":
        return builtin("identity")
    if s == "fibonacci":
        return builtin("fibonacci")
    if s.startswith("power:c="):
        return builtin("power", c=float(s[len("power:c="):]))
    if s.startswith("const:"):
        return builtin("constant", v=float(s[len("const:"):]))
    return parse_representer(spec, params)


# --------------------------------------------------------------------------
# Artinian derivative chains: g_n = (g_{n-1} f^(n-1))' / f^(n)
# --------------------------------------------------------------------------

#: |f^(k)(x)| below this raises ZeroDerivative.
DERIVATIVE_TOL = 1e-12


def artinian_chain(g0: Representer, f: RealFunction, n: int) -> list[RealFunction]:
    """Successive representers of the derivatives of a solution for g0.

    Returns [g_1, ..., g_n] where g_k(x) = (g_{k-1} f^(k-1))'(x) / f^(k)(x),
    built from symbolic trees; f and g0 must both carry an expression tree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(f.ast, ex.Expr) or g0.ast is None:
        raise ValueError("the Artinian chain needs f and g0 built from expressions")
    return _chain_symbolic(g0.ast, f.ast, n)


def function_from_source(src: str, params: dict[str, float] | None = None,
                         domain: tuple[float, float] = (-_INF, _INF)) -> RealFunction:
    """Parse an expression into a RealFunction, keeping the tree for chains."""
    tree = ex.simplify(ex.parse(src, params))
    return function_from_ast(tree, domain=domain)


def _zero_derivative_check(x, dv) -> None:
    if np.any(np.abs(np.asarray(dv)) < DERIVATIVE_TOL):
        raise ZeroDerivative(f"|f^(k)| < {DERIVATIVE_TOL} in the chain at x={x!r}")


def _chain_symbolic(g_ast: ex.Expr, f_ast: ex.Expr, n: int) -> list[RealFunction]:
    f_derivs = [ex.simplify(f_ast)]
    for _ in range(n):
        f_derivs.append(f_derivs[-1].diff())
    out: list[RealFunction] = []
    prev = ex.simplify(g_ast)  # g_{k-1} as a full tree (quotients included)
    for k in range(1, n + 1):
        num = ex.simplify(ex.Binary("*", prev, f_derivs[k - 1])).diff()
        den = f_derivs[k]
        g_k = _quotient(function_from_ast(num), function_from_ast(den), _zero_derivative_check,
                        name=f"g{k}", ast=ex.simplify(ex.Binary("/", num, den)))
        out.append(g_k)
        prev = g_k.ast
    return out
