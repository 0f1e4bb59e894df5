"""Evaluable real functions, central finite differences, and uniform grids.

Everything here is pure and immutable after construction; values may be used
concurrently without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteError

EPS = float(np.finfo(np.float64).eps)

#: Default step scale for order-1 central differences (truncation/rounding balance).
STEP_ORDER1 = EPS ** (1.0 / 3.0)
#: Default step scale for order-2 central differences (fourth-root scaling).
STEP_ORDER2 = EPS ** 0.25

_INF = math.inf


def default_step(x: float, order: int) -> float:
    """Default finite-difference step at ``x`` for derivative ``order`` (1 or 2)."""
    scale = STEP_ORDER1 if order == 1 else STEP_ORDER2
    return scale * max(1.0, abs(x))


@dataclass(frozen=True)
class RealFunction:
    """An evaluable scalar function of one real variable.

    ``fn`` must be deterministic (same x, bit-identical output). ``d1`` and
    ``d2`` are optional exact derivatives; when absent, callers fall back to
    central finite differences. ``domain`` is an open interval, either end
    may be infinite.
    """

    fn: Callable[[float], float]
    d1: Callable[[float], float] | None = None
    d2: Callable[[float], float] | None = None
    domain: tuple[float, float] = (-_INF, _INF)
    name: str = ""
    #: expression tree the function was built from, when applicable (opaque here)
    ast: object = None

    def contains(self, x: float) -> bool:
        a, b = self.domain
        return a < x < b

    def __call__(self, x: float) -> float:
        if not self.contains(x):
            raise DomainError(f"{self.name or 'function'}: x={float(x)!r} outside open domain {self.domain}")
        v = float(self.fn(x))
        if not math.isfinite(v):
            raise NonFiniteError(f"{self.name or 'function'}: non-finite value {v!r} at x={float(x)!r}", x=x, value=v)
        return v

    def values(self, xs) -> np.ndarray:
        """Vectorized evaluation with the same domain and finiteness checks."""
        xs = np.asarray(xs, dtype=float)
        a, b = self.domain
        if xs.size and (xs.min() <= a or xs.max() >= b):
            bad = xs[(xs <= a) | (xs >= b)][0]
            raise DomainError(f"{self.name or 'function'}: x={float(bad)!r} outside open domain {self.domain}")
        try:
            out = np.asarray(self.fn(xs), dtype=float)
            if out.shape != xs.shape:
                out = np.broadcast_to(out, xs.shape).astype(float)
        except (TypeError, ValueError):
            # what a scalar-only fn raises for an array: evaluate point by point
            out = np.array([float(self.fn(float(t))) for t in xs])
        if not np.isfinite(out).all():
            i = int(np.flatnonzero(~np.isfinite(out))[0])
            raise NonFiniteError(
                f"{self.name or 'function'}: non-finite value at x={float(xs[i])!r}",
                x=float(xs[i]),
                value=float(out[i]),
            )
        return out

    def derivative(self, x: float, order: int, h: float | None = None) -> float:
        """Exact derivative when available, otherwise a central difference."""
        if order == 1 and self.d1 is not None:
            return float(self.d1(x))
        if order == 2 and self.d2 is not None:
            return float(self.d2(x))
        return fd_derivative(self, x, order, h)

    # -- combinators ------------------------------------------------------
    # Derived functions keep exact derivatives whenever both operands have
    # them; domains intersect.

    def __add__(self, other: "RealFunction") -> "RealFunction":
        dom = (max(self.domain[0], other.domain[0]), min(self.domain[1], other.domain[1]))
        d1 = d2 = None
        if self.d1 is not None and other.d1 is not None:
            d1 = lambda x, f=self, g=other: f.d1(x) + g.d1(x)
        if self.d2 is not None and other.d2 is not None:
            d2 = lambda x, f=self, g=other: f.d2(x) + g.d2(x)
        return RealFunction(
            fn=lambda x, f=self.fn, g=other.fn: f(x) + g(x),
            d1=d1, d2=d2, domain=dom,
            name=f"({self.name}+{other.name})" if self.name and other.name else "",
        )

    def __mul__(self, other: "RealFunction") -> "RealFunction":
        dom = (max(self.domain[0], other.domain[0]), min(self.domain[1], other.domain[1]))
        d1 = d2 = None
        if self.d1 is not None and other.d1 is not None:
            d1 = lambda x, f=self, g=other: f.d1(x) * g.fn(x) + f.fn(x) * g.d1(x)
            if self.d2 is not None and other.d2 is not None:
                d2 = lambda x, f=self, g=other: (
                    f.d2(x) * g.fn(x) + 2.0 * f.d1(x) * g.d1(x) + f.fn(x) * g.d2(x)
                )
        return RealFunction(
            fn=lambda x, f=self.fn, g=other.fn: f(x) * g(x),
            d1=d1, d2=d2, domain=dom,
            name=f"({self.name}*{other.name})" if self.name and other.name else "",
        )

    def shifted(self, c: float) -> "RealFunction":
        """x -> f(x + c); domain shifts accordingly."""
        a, b = self.domain
        d1 = None if self.d1 is None else (lambda x, d=self.d1: d(x + c))
        d2 = None if self.d2 is None else (lambda x, d=self.d2: d(x + c))
        return RealFunction(fn=lambda x, f=self.fn: f(x + c), d1=d1, d2=d2,
                            domain=(a - c, b - c), name=self.name)

    def scaled_arg(self, c: float) -> "RealFunction":
        """x -> f(c*x) for c != 0; chain rule on derivatives."""
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        a, b = self.domain
        dom = (a / c, b / c) if c > 0 else (b / c, a / c)
        d1 = None if self.d1 is None else (lambda x, d=self.d1: c * d(c * x))
        d2 = None if self.d2 is None else (lambda x, d=self.d2: c * c * d(c * x))
        return RealFunction(fn=lambda x, f=self.fn: f(c * x), d1=d1, d2=d2,
                            domain=dom, name=self.name)


@dataclass(frozen=True)
class Grid:
    """Uniformly spaced samples (x, f(x)) over [a, b], endpoints included."""

    a: float
    b: float
    n: int
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.n < 2 or len(self.xs) != self.n or len(self.ys) != self.n:
            raise ValueError("grid needs n >= 2 points with matching value array")
        dx = np.diff(self.xs)
        if np.any(dx <= 0):
            raise ValueError("grid points must be strictly increasing")
        h = (self.b - self.a) / (self.n - 1)
        slack = 8.0 * EPS * max(abs(self.a), abs(self.b), h, 1.0)
        if np.any(np.abs(dx - h) > slack):
            raise ValueError("grid spacing not uniform to within ulp-scaled tolerance")

    @property
    def pairs(self) -> np.ndarray:
        """The samples as an (n, 2) array of [x, f(x)] rows."""
        return np.column_stack([self.xs, self.ys])


def log_d2(fv, f1, f2):
    """(log f)'' = f''/f - (f'/f)^2 from f, f' and f'', on floats or arrays. It
    never forms f f, so it leaves float range only where (f'/f)^2 or f''/f does."""
    r = f1 / fv
    return f2 / fv - r * r


def fd_derivative(f: RealFunction, x: float, order: int, h: float | None = None) -> float:
    """Central-difference derivative of ``f`` at ``x``.

    order 1: (f(x+h) - f(x-h)) / (2h)
    order 2: (f(x+h) - 2 f(x) + f(x-h)) / h^2

    Raises DomainError when the stencil leaves the open domain and
    NonFiniteError when any evaluation is NaN or infinite.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    if h is None:
        h = default_step(x, order)
    if not (h > 0):
        raise ValueError(f"step h must be positive, got {h!r}")
    a, b = f.domain
    if not (a < x - h and x + h < b):
        raise DomainError(f"stencil [{x - h!r}, {x + h!r}] leaves open domain {f.domain}")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def sample_grid(f: RealFunction, a: float, b: float, n: int) -> Grid:
    """Sample ``f`` at ``n`` uniformly spaced points of [a, b], endpoints included."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")
    da, db = f.domain
    if not (da < a and b < db):
        raise DomainError(f"[{a!r}, {b!r}] not inside open domain {f.domain}")
    xs = np.linspace(a, b, n)
    ys = f.values(xs)
    return Grid(a=a, b=b, n=n, xs=xs, ys=ys)
