"""Superpotential families of the translated-parameter type.

A family bundles the affine part W0(x, m) = k0(x) + m*k1(x) with the two
log-derivative corrections W1+(x, m) and W1-(x, m), each evaluated together
with its analytic x-derivative (k0' and k1' come with k0 and k1), the
non-singularity predicate and pole bookkeeping.  The corrections come from
one evaluator for a whole list of m, so a grid that several m share costs
one pass.  Instances are immutable, every evaluation is a pure vectorised
function of x, and the complex PT-symmetric family shares all code paths:
real families compute and return float64 arrays, the complex family
complex128 ones.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError, PoleError, UsageError

DEFAULT_POLE_RADIUS = 1e-3

# Window growth on infinite domain sides stops once |W| exceeds this cap or
# evaluation stops being finite.  The remainder check subtracts V = W^2
# values, whose rounding noise is eps * W_edge^2; the cap keeps that noise
# three decades under the 1e-9 flatness tolerance while windows still reach
# far into the asymptotic region.
_EDGE_W_CAP = 1e2
_EDGE_X_CAP = 1e6
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

    def with_m(self, m: float) -> "ParamPoint":
        return dataclasses.replace(self, m=float(m))


# m, then the family constants; ell comes last
_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ParamPoint))


@dataclass(frozen=True)
class GridSpec:
    """How to lay out verification abscissae inside a family's domain.

    boundary_margin is a fraction of the width for finite domains and an
    absolute inset next to a finite endpoint of a half-infinite domain.  The
    layout follows the domain: linear on a finite interval, tanh compression
    towards every infinite side.
    """

    n_points: int = 512
    boundary_margin: float = 0.05
    pole_exclusion_radius: float = DEFAULT_POLE_RADIUS

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 16:
            raise ValueError("n_points must be >= 16")
        if not (0.0 < self.boundary_margin < 0.5):
            raise ValueError("boundary_margin must lie in (0, 0.5)")
        if not (math.isfinite(self.pole_exclusion_radius) and self.pole_exclusion_radius > 0.0):
            raise ValueError("pole_exclusion_radius must be finite and > 0")


def _quiet(fn):
    """Silence IEEE warnings inside evaluators: intermediate overflow at deep
    asymptotic points (1/sinh^2 underflowing through inf) is expected and
    benign; genuine NaNs still propagate and fail verdicts loudly."""

    def wrapped(*args):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args)

    wrapped._quiet_wrapped = True
    return wrapped


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
    scan_clear_fn: Callable[[float], bool] = field(repr=False)

    _EVALUATORS = ("affine", "w1")

    def __post_init__(self):
        for fname in self._EVALUATORS:
            fn = getattr(self, fname)
            if not getattr(fn, "_quiet_wrapped", False):
                object.__setattr__(self, fname, _quiet(fn))

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

    def scan_clear(self, m: float) -> bool:
        """Independent root test: True when no offending root is found."""
        return self.scan_clear_fn(m)


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


def _as_x(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def eval_w(family: SuperpotentialFamily, x, m: float | None = None,
           pole_radius: float = DEFAULT_POLE_RADIUS):
    """W(x, m) as complex, guarding a pole_radius neighbourhood of each pole."""
    return _eval_guarded(family, x, m, pole_radius, 0)


def eval_w_deriv(family: SuperpotentialFamily, x, m: float | None = None,
                 pole_radius: float = DEFAULT_POLE_RADIUS):
    """dW/dx assembled from the analytic component derivatives."""
    return _eval_guarded(family, x, m, pole_radius, 1)


def _eval_guarded(family, x, m, pole_radius, entry):
    m = family.params.m if m is None else float(m)
    xs, scalar = _as_x(x)
    lo, hi = family.domain
    if np.any(xs <= lo) or np.any(xs >= hi):
        raise UsageError(f"x outside the open domain ({lo}, {hi}) of {family.name}")
    for root in family.poles((m,)):
        dist = np.abs(xs - root)
        if np.any(dist < pole_radius):
            bad = float(np.asarray(xs)[dist < pole_radius].flat[0])
            raise PoleError(bad, root)
    out = np.asarray(family.w_rows(xs, (m,))[entry][0], dtype=np.complex128)
    return complex(out[()]) if scalar else out


def _edge_passes(family, m_values, xs: np.ndarray) -> np.ndarray:
    """Which abscissae pass the edge test at every m: W and W' finite there
    and |W| <= _EDGE_W_CAP.  One call of (W, W') for all m."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w, wd = family.w_rows(xs, m_values)
        return np.all(np.isfinite(w) & np.isfinite(wd) & (np.abs(w) <= _EDGE_W_CAP), axis=0)


def _expand_edge(family, m_values, start: float, signs: tuple) -> tuple:
    """Largest |edge| in a doubling sequence that still evaluates cleanly,
    on each side sign * x of signs.

    The candidates start*2**k, k < 40, up to _EDGE_X_CAP of every side are
    tested in one array probe; a side's edge is the last one before its
    first failure.  When start itself fails on a side, that side's edge is
    the first of start/2**k, k >= 1, above 1e-3 that passes, probed for
    that side alone.
    """
    up = start * 2.0 ** np.arange(40)
    up = up[up <= _EDGE_X_CAP]
    passes = _edge_passes(family, m_values, np.concatenate([sign * up for sign in signs]))
    edges = []
    for sign, ok in zip(signs, passes.reshape(len(signs), -1)):
        leading = int(np.sum(np.logical_and.accumulate(ok)))
        if leading:
            edges.append(float(up[leading - 1]))
            continue
        down = start / 2.0 ** np.arange(1, max(1, math.ceil(math.log2(start / 1e-3))) + 2)
        down = down[down > 1e-3]
        ok = _edge_passes(family, m_values, sign * down)
        if not ok.any():
            raise InvalidParameterError(
                "evaluable window", f"{family.name}: no evaluable window edge found"
            )
        edges.append(float(down[np.argmax(ok)]))
    return tuple(edges)


def _tanh_points(a: float, b: float, n: int, symmetric: bool,
                 dense_end: str = "lo") -> np.ndarray:
    scale = float(np.arctanh(_TANH_GAMMA))
    if symmetric:
        t = np.linspace(-_TANH_GAMMA, _TANH_GAMMA, n)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * np.arctanh(t) / scale
    t = np.linspace(0.0, _TANH_GAMMA, n)
    if dense_end == "lo":
        return a + (b - a) * np.arctanh(t) / scale
    return (b - (b - a) * np.arctanh(t) / scale)[::-1]


def make_grid(family: SuperpotentialFamily, spec: GridSpec | None = None,
              m_values=None) -> np.ndarray:
    """Verification abscissae strictly inside the family's domain.

    Validity is enforced for every m in m_values (raising
    InvalidParameterError naming the violated inequality), infinite sides are
    compressed through x = a + L*atanh(u), and every point keeps
    pole_exclusion_radius distance from every detected denominator root of
    every requested m.  A UsageError says so when that exclusion leaves
    fewer than spec.n_points abscissae after the retries that top the
    layout up.

    The edges of the infinite sides come from one array probe: the pair
    (W, W') is evaluated at every doubling candidate of every infinite side
    and every m in one call, and a candidate fails where either is not
    finite (the family's evaluators return nan or inf where g(x) overflows
    or D vanishes, they do not raise) or where |W| exceeds _EDGE_W_CAP.  A
    side's edge is its last candidate before its first failure; a side
    whose first candidate fails is probed again alone, inwards.
    """
    spec = spec or GridSpec()
    if m_values is None:
        m_values = (family.params.m,)
    m_values = tuple(float(m) for m in m_values)
    for m in m_values:
        verdict = family.validity(m)
        if not verdict.valid:
            raise InvalidParameterError(
                verdict.violated,
                f"{family.tag}: m = {m} violates {verdict.violated}",
            )

    lo, hi = family.domain
    lo_inf, hi_inf = math.isinf(lo), math.isinf(hi)
    margin = spec.boundary_margin

    if not lo_inf and not hi_inf:
        a = lo + margin * (hi - lo)
        b = hi - margin * (hi - lo)
        layout, symmetric, dense_end = "linear", True, "lo"
    elif not lo_inf:
        a = lo + margin
        b = _expand_edge(family, m_values, max(2.0 * a, a + 1.0), (+1.0,))[0]
        layout, symmetric, dense_end = "tanh", False, "lo"
    elif not hi_inf:
        b = hi - margin
        a = -_expand_edge(family, m_values, max(2.0 * abs(b), abs(b) + 1.0), (-1.0,))[0]
        layout, symmetric, dense_end = "tanh", False, "hi"
    else:
        right, left = _expand_edge(family, m_values, 1.0, (+1.0, -1.0))
        a, b = -left, right
        layout, symmetric, dense_end = "tanh", True, "lo"

    poles = family.poles(m_values)

    n_gen = spec.n_points
    points = np.empty(0)
    for _ in range(4):
        if layout == "linear":
            points = np.linspace(a, b, n_gen)
        else:
            points = _tanh_points(a, b, n_gen, symmetric, dense_end)
        if poles:
            keep = np.ones(points.shape, dtype=bool)
            for p in poles:
                keep &= np.abs(points - p) >= spec.pole_exclusion_radius
            points = points[keep]
        if points.size >= spec.n_points:
            break
        n_gen += 2 * (spec.n_points - points.size) + 8
    else:
        raise UsageError(
            f"{family.name}: pole exclusion radius {spec.pole_exclusion_radius:g} leaves "
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
    poles and validity are inherited unchanged (the injected terms are
    entire).  The W1 defects apply at every m of a w1 call.
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
