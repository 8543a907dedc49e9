"""Superpotential families of the translated-parameter type.

A family bundles the affine part W0(x, m) = k0(x) + m*k1(x) with the two
log-derivative corrections W1+(x, m) and W1-(x, m), each evaluated together
with its analytic x-derivative (k0' and k1' come with k0 and k1), the
non-singularity predicate, pole bookkeeping and the closed-form ends of
its grid.  The corrections come from one evaluator for a whole list of
m, so a grid that several m share costs one pass.  Instances are immutable,
every evaluation is a pure vectorised function of x, and the complex
PT-symmetric family shares all code paths: real families compute and
return float64 arrays, the complex family complex128 ones.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError, UnsupportedError, UsageError

# make_grid keeps every abscissa this far from each pole that poles() reports.
# Inside the region the only pole a catalog family has in its domain is
# Xl-PT-Scarf's declared x = 0 puncture.
_POLE_RADIUS = 1e-3

_TANH_GAMMA = 0.995


class Verdict(NamedTuple):
    valid: bool
    violated: str | None


@dataclass(frozen=True)
class ParamPoint:
    """Numeric values for the family constants plus the translated parameter m."""

    m: float
    c: float | None = None
    beta: float | None = None
    d: float | None = None
    omega: float | None = None
    B: float | None = None
    ell: int | None = None

    def __post_init__(self):
        for name in _PARAM_FIELDS[:-1]:  # ell is checked below
            v = getattr(self, name)
            if v is not None and not math.isfinite(float(v)):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.ell is not None:
            if not float(self.ell).is_integer() or self.ell < 0:
                raise ValueError(f"ell must be a nonnegative integer, got {self.ell!r}")
            object.__setattr__(self, "ell", int(self.ell))

    def constants(self) -> dict:
        return {
            k: getattr(self, k) for k in _PARAM_FIELDS[1:] if getattr(self, k) is not None
        }

    def to_dict(self) -> dict:
        return {"m": self.m, **self.constants()}


# m, then the family constants; ell comes last
_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ParamPoint))


@dataclass(frozen=True)
class GridSpec:
    """The number of verification abscissae that make_grid lays out."""

    n_points: int = 512

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 16:
            raise ValueError("n_points must be >= 16")


@dataclass(frozen=True)
class SuperpotentialFamily:
    """Evaluation contract for one family at fixed constants.

    The callables are closures over the constants; m stays a call argument
    because every check sweeps it.  ``affine`` maps x to the tuple
    (k0, k0', k1, k1') of the affine part W0 = k0 + m*k1.  ``w1`` maps
    (x, m_values) to the tuple (W1+, W1+', W1-, W1-'), each with one row per
    m (a leading axis of len(m_values)), all from one evaluation of the
    gauge denominators D+- with W1 = D'/D; on the Xl families that is one
    polynomial kernel pass for every m.  ``w_rows`` assembles W from both.
    W1- is always its own transcribed formula rather than W1+ at m - 1, so
    the translation identity is a genuine two-route check.

    Where the family does not evaluate (g(x) overflows, D vanishes) the
    evaluators return inf or nan, and they neither raise nor warn there
    (the catalog's evaluate under np.errstate): intermediate overflow at
    deep asymptotic points is expected, and a nan still fails every verdict
    that reads it.  grid_ends_fn maps m_values to the ends (a, b) of
    make_grid's window (the domain is finite, (lo, inf) or (-inf, inf)).
    ends holds each finite end e as (e, side, K0, K1, g''), side 1 at the
    left end and -1 at the right: next to e, W ~ sigma/(x - e) with sigma =
    (K0 + m*K1)/g'', which places the spectral walls.  expected_ab holds the
    factorization constants (a, b) that run_condition_checks matches the
    inferred ones against; None leaves that match out.
    """

    name: str
    tag: str
    domain: tuple[float, float]
    params: ParamPoint
    is_real: bool
    affine: Callable
    w1: Callable
    validity_fn: Callable[[float], Verdict] = field(repr=False)
    poles_fn: Callable[[tuple], tuple] = field(repr=False)
    grid_ends_fn: Callable[[tuple], tuple[float, float]] = field(repr=False)
    ends: tuple[tuple[float, float, float, float, float], ...] = field(repr=False)
    expected_ab: tuple[float, float] | None = None

    def __post_init__(self):
        lo, hi = self.domain  # a NaN end (X1-trigonometric at c <= 0) is validity's to name
        if lo >= hi or (lo == -math.inf and hi != math.inf):
            raise UsageError(f"{self.name}: domain {self.domain} is not finite, (lo, inf) or (-inf, inf)")

    def w_rows(self, x, m_values):
        """(W, W') with W = W0 + W1+ - W1-, one row per m, from one call of
        each evaluator."""
        return assemble_w(self.affine(x), self.w1(x, m_values), m_values)

    def validity(self, m: float) -> Verdict:
        return self.validity_fn(m)

    def poles(self, m_values) -> tuple:
        """x positions of all denominator roots inside the domain at every
        m of m_values, each distinct denominator's found once."""
        return self.poles_fn(m_values)


def assemble_w(affine: tuple, w1: tuple, m_values):
    """(W, W') with W = W0 + W1+ - W1-, one row per m, from the affine tuple
    (k0, k0', k1, k1') and the w1 tuple (W1+, W1+', W1-, W1-') whose rows
    belong to m_values."""
    k0, k0d, k1, k1d = affine
    p, pd, q, qd = w1
    m = _rows(m_values, np.ndim(p) - 1)
    return k0 + m * k1 + p - q, k0d + m * k1d + pd - qd


def _rows(values, ndim: int) -> np.ndarray:
    """The floats values as a column that broadcasts one per row against
    arrays of ndim further axes."""
    return np.reshape(np.asarray(values, dtype=float), (-1,) + (1,) * ndim)


def _tanh_points(a: float, b: float, n: int, symmetric: bool) -> np.ndarray:
    """n abscissae a + (b - a)*atanh(u)/atanh(_TANH_GAMMA), u uniform on
    [0, _TANH_GAMMA]; symmetric: b*atanh(u)/..., u on [-_TANH_GAMMA, ...]."""
    u = np.linspace(-_TANH_GAMMA if symmetric else 0.0, _TANH_GAMMA, n)
    u = np.arctanh(u) / np.arctanh(_TANH_GAMMA)
    return b * u if symmetric else a + (b - a) * u


def require_region(family: SuperpotentialFamily, m_values) -> tuple[float, ...]:
    """m_values as floats, once the family is non-singular at every one of
    them: the region gate of every grid and spectral window.  An empty list
    or an m that is not finite raises UsageError, and the first m outside
    the region InvalidParameterError naming the inequality it violates."""
    m_values = tuple(float(m) for m in m_values)
    if not m_values:
        raise UsageError(f"{family.name}: no m to validate")
    for m in m_values:
        if not math.isfinite(m):
            raise UsageError(f"{family.name}: m = {m} is not finite")
        verdict = family.validity(m)
        if not verdict.valid:
            raise InvalidParameterError(
                verdict.violated,
                f"{family.tag}: m = {m} violates {verdict.violated}",
            )
    return m_values


def make_grid(family: SuperpotentialFamily, spec: GridSpec | None = None,
              m_values=None) -> np.ndarray:
    """Verification abscissae strictly inside the family's domain.

    Every m in m_values (default: the family's own m) passes require_region
    first, and every point keeps _POLE_RADIUS distance from every pole that
    family.poles reports at those m; inside the region that is only
    Xl-PT-Scarf's declared x = 0 puncture.  A UsageError says so when that
    exclusion leaves fewer than spec.n_points abscissae after the retries
    that top the layout up.

    The points lie between the ends (a, b) that the family states in
    closed form (grid_ends_fn), so no W is evaluated: linearly on a finite
    domain, compressed through the tanh layout towards an infinite side,
    the whole line symmetrically.  An empty window raises UnsupportedError.
    """
    spec = spec or GridSpec()
    m_values = require_region(family, (family.params.m,) if m_values is None else m_values)

    lo, hi = family.domain
    a, b = family.grid_ends_fn(m_values)
    if not b > a:
        raise UnsupportedError(f"{family.name}: the grid window [{a:g}, {b:g}] is empty")
    poles = family.poles(m_values)

    n_gen = spec.n_points
    points = np.empty(0)
    for _ in range(4):
        if math.isinf(hi):
            points = _tanh_points(a, b, n_gen, math.isinf(lo))
        else:
            points = np.linspace(a, b, n_gen)
        if poles:
            keep = np.ones(points.shape, dtype=bool)
            for p in poles:
                keep &= np.abs(points - p) >= _POLE_RADIUS
            points = points[keep]
        if points.size >= spec.n_points:
            break
        n_gen += 2 * (spec.n_points - points.size) + 8
    else:
        raise UsageError(
            f"{family.name}: pole exclusion radius {_POLE_RADIUS:g} leaves "
            f"{points.size} of {spec.n_points} grid points")
    if points.size > spec.n_points:
        idx = np.floor(np.linspace(0.0, points.size - 1e-9, spec.n_points)).astype(int)
        points = points[idx]
    return points


PERTURBATION_MODES = (
    "wminus-slope",    # W1- += size*x : breaks the translation relation
    "wplus-slope",     # W1+ += size*x : breaks it from the other side
    "wminus-offset",   # W1- += size   : value-only translation defect
    "paired-mx-slope", # W1+- += size*(m resp. m-1)*x : translation intact,
                       #                 compatibility broken
    "k1-slope",        # k1 += size*x  : breaks the factorization constants
)


def with_perturbation(family: SuperpotentialFamily, mode: str,
                      size: float) -> SuperpotentialFamily:
    """A copy of the family with a controlled defect injected.

    Used by negative-control tests and the CLI's hidden perturbation hook;
    poles, validity, the grid ends and the finite ends' record are
    inherited unchanged (the injected terms are entire), so a control runs
    on its family's grid, between its family's spectral walls.
    The W1 defects apply at every m of a w1 call.
    """
    if mode not in PERTURBATION_MODES:
        raise UsageError(f"unknown perturbation mode {mode!r}")
    size = float(size)
    w1, affine = family.w1, family.affine
    # the slopes s(m) of W1+ and W1-, each adding (s*x, s) to (W1, W1'), and
    # an offset of W1- that shifts its value alone; None leaves a term as is
    plus, minus, offset = {
        "wminus-slope": (None, lambda m: size, None),
        "wplus-slope": (lambda m: size, None, None),
        "wminus-offset": (None, None, size),
        "paired-mx-slope": (lambda m: size * m, lambda m: size * (m - 1.0), None),
    }.get(mode, (None,) * 3)

    def patched(x, m_values):
        p, pd, q, qd = w1(x, m_values)
        xs = np.asarray(x, dtype=float)
        if plus is not None:
            slope = _rows([plus(m) for m in m_values], xs.ndim)
            p, pd = p + slope * xs, pd + slope
        if minus is not None:
            slope = _rows([minus(m) for m in m_values], xs.ndim)
            q, qd = q + slope * xs, qd + slope
        if offset is not None:
            q = q + offset
        return p, pd, q, qd

    if mode != "k1-slope":
        patch = dict(w1=patched)
    else:
        def sloped_affine(x):
            k0, k0d, k1, k1d = affine(x)
            return k0, k0d, k1 + size * np.asarray(x, dtype=float), k1d + size

        patch = dict(affine=sloped_affine)
    return dataclasses.replace(family, name=f"{family.name}+{mode}@{size:g}", **patch)
