"""Seeded inputs for the three workloads, and the library objects they need.

Only the standard library is imported here, so a fresh process can import
this module, start its clock, and then time ``import logconvex`` plus the
construction of every representer and candidate function (``setup_s``).

Each workload is built from fixed *strata*: a block holds one input of every
stratum, and a run draws whole blocks. The seed moves parameters and points
inside their strata; it never changes the mix of representer families,
integer anchors, tolerances or candidate kinds, so the accuracy shares are
comparable across seeds and commits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: log f above this would leave float range; such points are not generated
#: (no public call can return them until a log-space API exists).
LOG_RANGE = 700.0

TOLS = (1e-8, 1e-12)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --------------------------------------------------------------------------
# representer families shared by point_eval, report_grid and convexity_scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A representer g with its closed-form interpolant f = Gamma-type.

    ``kind`` is one of identity, shift (x+a), rising (x*(x+1)), power (x^c),
    fibonacci; ``param`` is a or c.
    """

    kind: str
    param: float = 0.0

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.param!r}"

    def log_f(self, x: float) -> float:
        """log|f(x)| from math.lgamma, used only to keep points in float range."""
        if self.kind == "identity":
            return math.lgamma(x)
        if self.kind == "shift":
            return math.lgamma(x + self.param) - math.lgamma(1.0 + self.param)
        if self.kind == "rising":
            return math.lgamma(x) + math.lgamma(x + 1.0)
        if self.kind == "power":
            return self.param * math.lgamma(x)
        return x * math.log((1.0 + math.sqrt(5.0)) / 2.0)

    def cli_spec(self) -> str:
        """The same representer as a ``--representer`` spec."""
        return {
            "identity": "identity",
            "shift": f"x+{self.param!r}",
            "rising": "x*(x+1)",
            "power": f"power:c={self.param!r}",
            "fibonacci": "fibonacci",
        }[self.kind]


def build_representer(lc, fam: Family):
    """Construct ``fam`` from its CLI spec, as ``eval`` and ``report`` do."""
    return lc.from_spec(fam.cli_spec())


def _draw_param(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def draw_family(rng: random.Random, kind: str) -> Family:
    """A family of ``kind`` with its parameter drawn by the seed.

    The ranges keep x*(x+1) the family with the largest product and series
    error, so the error maxima do not hinge on one extreme draw.
    """
    if kind == "shift":
        return Family("shift", _draw_param(rng, 0.25, 1.0))
    if kind == "power":
        return Family("power", _draw_param(rng, 1.2, 1.6))
    return Family(kind)


# --------------------------------------------------------------------------
# point_eval
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    family: Family
    x: float
    tol: float
    integer: bool


#: (family kind, x class, tol) per stratum; a block holds one of each.
POINT_STRATA = (
    ("identity", "pos", 1e-8),
    ("identity", "neg", 1e-12),
    ("identity", "int", 1e-8),
    ("shift", "pos", 1e-12),
    ("shift", "int", 1e-8),
    ("rising", "pos", 1e-8),
    ("rising", "pos", 1e-12),
    ("power", "pos", 1e-8),
    ("power", "int", 1e-12),
    ("power", "pos", 1e-12),
    ("fibonacci", "pos", 1e-12),
    ("fibonacci", "pos", 1e-8),
)
POINT_BLOCKS = 20
X_MAX = 170.0


@dataclass
class PointInputs:
    families: list[Family]
    points: list[Point]
    cli_points: list[Point] = field(default_factory=list)


def _draw_x(rng: random.Random, fam: Family, xclass: str, frac: float) -> float:
    """x of class ``xclass`` whose fractional part is ``frac`` in [0, 1).

    The product error depends on the fractional part, so the caller spreads
    it evenly over the blocks (one sub-interval of [0, 1) per block).
    """
    if xclass == "neg":
        return -rng.randint(1, 5) + 0.02 + 0.96 * frac
    top = int(X_MAX)
    while top > 1 and fam.log_f(float(top)) >= LOG_RANGE:
        top -= 1
    if xclass == "int":
        return float(rng.randint(1, top))
    return rng.randint(0, top - 1) + max(frac, 1e-3)


def point_inputs(seed: int) -> PointInputs:
    rng = _rng("point_eval", seed)
    by_kind = {
        "identity": [Family("identity")],
        "fibonacci": [Family("fibonacci")],
        "rising": [Family("rising")],
        "shift": [draw_family(rng, "shift") for _ in range(2)],
        "power": [draw_family(rng, "power") for _ in range(2)],
    }
    families = [f for fams in by_kind.values() for f in fams]
    # one permutation of the blocks per stratum: stratum s of block b takes
    # its fractional part from the sub-interval perms[s][b] / POINT_BLOCKS
    perms = [rng.sample(range(POINT_BLOCKS), POINT_BLOCKS) for _ in POINT_STRATA]
    points = []
    for b in range(POINT_BLOCKS):
        block = []
        for (kind, xclass, tol), perm in zip(POINT_STRATA, perms):
            fam = rng.choice(by_kind[kind])
            frac = (perm[b] + rng.random()) / POINT_BLOCKS
            block.append(Point(fam, _draw_x(rng, fam, xclass, frac), tol, xclass == "int"))
        rng.shuffle(block)
        points.extend(block)
    # the CLI leg: one process each for five algebraic representers
    cli = []
    for fam in by_kind["identity"] + by_kind["rising"] + by_kind["power"] + by_kind["shift"][:1]:
        cli.append(Point(fam, _draw_x(rng, fam, "pos", rng.random()), 1e-8, False))
    return PointInputs(families=families, points=points, cli_points=cli)


# --------------------------------------------------------------------------
# report_grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    family: Family
    a: float
    b: float
    n: int
    tol: float

    def argv(self) -> list[str]:
        return ["report", "--representer", self.family.cli_spec(),
                "--range", repr(self.a), repr(self.b), str(self.n), "--tol", repr(self.tol)]

    @property
    def step(self) -> float:
        """Row spacing, computed exactly as the CLI computes it."""
        return (self.b - self.a) / (self.n - 1)

    def xs(self) -> list[float]:
        """Row abscissae computed exactly as the CLI computes them."""
        return [self.a + self.step * i for i in range(self.n)]


@dataclass
class ReportInputs:
    """Short reports (the timed operations) and full-size reports (the CLI leg)."""

    reports: list[Report]
    cli_reports: list[Report]


#: Short reports: 8 consecutive quarter points always hold exactly two
#: integers, so every report has the same share of exact anchors. With a
#: of fractional part 0.5 or 0.75, the 10 samples (8 rows and one stencil
#: sample either side) hold two integers too, so every report runs 8 products.
REPORT_STEP = 0.25
REPORT_ROWS = 8
REPORT_ROUNDS = 4
REPORT_KINDS = ("identity", "shift", "rising", "power")
#: Full-size reports, as documented (``--range 0.5 4.5 100``): 100 rows over
#: a range 4 wide, one report per kind. As gcd(4, 99) = 1, the fractional
#: parts of the rows run through every k/99; a start half a spacing past an
#: integer gives every report the same fractional parts, none of them 0, so
#: each report runs 102 full products.
FULL_ROWS = 100
FULL_WIDTH = 4.0
FULL_PHASE = 0.5 / (FULL_ROWS - 1)


def report_inputs(seed: int) -> ReportInputs:
    rng = _rng("report_grid", seed)
    reports = []
    span = REPORT_STEP * (REPORT_ROWS - 1)
    # a = j/4 with j = 2 or 3 mod 4, so a >= 0.5 and the stencil sample left of a stays > 0
    j_max = int((12.0 - span) / REPORT_STEP)
    for r in range(REPORT_ROUNDS):
        block = []
        for i, kind in enumerate(REPORT_KINDS):
            fam = draw_family(rng, kind)
            a = REPORT_STEP * (4 * rng.randint(0, (j_max - 3) // 4) + rng.choice((2, 3)))
            block.append(Report(fam, a, a + span, REPORT_ROWS, TOLS[(r + i) % 2]))
        rng.shuffle(block)
        reports.extend(block)
    full = []
    for i, kind in enumerate(REPORT_KINDS):
        fam = draw_family(rng, kind)
        a = rng.randint(1, int(12.0 - FULL_WIDTH) - 1) + FULL_PHASE
        full.append(Report(fam, a, a + FULL_WIDTH, FULL_ROWS, TOLS[i % 2]))
    return ReportInputs(reports=reports, cli_reports=full)


def report_families(inp: ReportInputs) -> list[Family]:
    seen = {}
    for rep in inp.reports + inp.cli_reports:
        seen.setdefault(rep.family.key, rep.family)
    return list(seen.values())


# --------------------------------------------------------------------------
# convexity_scan
# --------------------------------------------------------------------------

LOG_CONVEX = "LogConvex"
NOT_LOG_CONVEX = "NotLogConvex"

SCAN_GRID = 64
SERIES_TOL = 1e-6
PROBE_TOL = 1e-9


@dataclass(frozen=True)
class Candidate:
    """One candidate with its known verdict on its interval.

    ``kind`` is "function" (scan only), "representer" (scan of g, whose log
    is concave, plus the series of its interpolant at ``series_xs``) or
    "mellin" (probe of the Mellin transform of a positive ``source``).
    """

    kind: str
    source: str
    params: tuple[tuple[str, float], ...]
    interval: tuple[float, float]
    verdict: str
    family: Family | None = None
    series_xs: tuple[float, ...] = ()
    probe_xs: tuple[float, ...] = ()


CANDIDATE_BLOCKS = 12
#: Blocks cycle through four representer kinds and two Mellin sources, so
#: the mix of candidate kinds is exact after every four blocks.
CANDIDATE_ROUND = 4


def _fn(source, params, lo, hi, verdict):
    return Candidate("function", source, tuple(params.items()), (lo, hi), verdict)


def candidate_inputs(seed: int) -> list[Candidate]:
    rng = _rng("convexity_scan", seed)
    u = rng.uniform
    out = []
    rep_kinds = ("identity", "shift", "rising", "power")
    # probe cost falls with b; these ranges keep each source's cost steady
    mellin = (
        ("exp(-b*x)", "b", 1.5, 2.0),
        ("exp(-b*x)*(1+x)", "b", 0.75, 1.0),
    )
    for blk in range(CANDIDATE_BLOCKS):
        block = []
        lo = u(-2.0, 2.0)
        block.append(_fn("exp(a*x^2+b*x)", {"a": _draw_param(rng, 0.1, 1.0), "b": _draw_param(rng, -1.0, 1.0)},
                         lo, lo + u(1.0, 3.0), LOG_CONVEX))
        lo = u(-2.0, 2.0)
        block.append(_fn("exp(a*x^2+b*x)", {"a": _draw_param(rng, -1.0, -0.1), "b": _draw_param(rng, -1.0, 1.0)},
                         lo, lo + u(1.0, 3.0), NOT_LOG_CONVEX))
        lo = u(0.3, 2.0)
        block.append(_fn("x^c", {"c": _draw_param(rng, 0.5, 3.0)}, lo, lo + u(1.0, 3.0), NOT_LOG_CONVEX))
        c = _draw_param(rng, 0.2, 2.0)
        lo = 1.2 * math.sqrt(c) + u(0.0, 1.0)
        block.append(_fn("1/(x^2+c)", {"c": c}, lo, lo + u(1.0, 3.0), LOG_CONVEX))
        block.append(_fn("1/(x^2+c)", {"c": _draw_param(rng, 0.2, 2.0)}, u(-1.5, -0.2), u(0.2, 1.5),
                         NOT_LOG_CONVEX))
        lo = u(0.3, 2.0)
        block.append(_fn("exp(-x^2/2)*sqrt(x^2+1)", {}, lo, lo + u(1.0, 3.0), NOT_LOG_CONVEX))
        fam = draw_family(rng, rep_kinds[blk % len(rep_kinds)])
        lo = u(0.2, 4.0)
        # past x = 2.5 the series stops at the same k whatever x is, and its
        # error grows with x: narrow strata keep its cost and maximum steady
        block.append(Candidate("representer", fam.cli_spec(), (), (lo, lo + u(1.0, 4.0)), NOT_LOG_CONVEX,
                               family=fam, series_xs=(u(2.5, 3.0), u(5.9, 6.0))))
        src, name, plo, phi = mellin[blk % len(mellin)]
        lo = u(1.3, 2.0)
        block.append(Candidate("mellin", src, ((name, _draw_param(rng, plo, phi)),), (lo, lo + 1.5),
                               LOG_CONVEX, probe_xs=tuple(lo + 0.5 * i for i in range(4))))
        rng.shuffle(block)
        out.extend(block)
    return out


def candidate_families(cands: list[Candidate]) -> list[Family]:
    seen = {}
    for c in cands:
        if c.family is not None:
            seen.setdefault(c.family.key, c.family)
    return list(seen.values())


def build_candidate(lc, cand: Candidate, reps: dict):
    """The object a candidate is tested on: a RealFunction, or a Representer."""
    if cand.kind == "representer":
        return reps[cand.family.key]
    return lc.function_from_source(cand.source, dict(cand.params))


# --------------------------------------------------------------------------
# the representers each workload builds
# --------------------------------------------------------------------------

def families_for(workload: str, seed: int) -> list[Family]:
    if workload == "point_eval":
        return point_inputs(seed).families
    if workload == "report_grid":
        return report_families(report_inputs(seed))
    return candidate_families(candidate_inputs(seed))
