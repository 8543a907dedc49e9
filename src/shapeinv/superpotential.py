"""Superpotential families of the translated-parameter type.

A family bundles the affine part W0(x, m) = k0(x) + m*k1(x) with the two
log-derivative corrections W1+(x, m) and W1-(x, m), each evaluated together
with its analytic x-derivative, the non-singularity predicate and pole
bookkeeping.  Instances are immutable, every evaluation is a pure vectorised
function of x, and the complex PT-symmetric family shares all code paths
(real families simply return float64 arrays whose cast to complex has an
exactly zero imaginary part).
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

    _CONSTANTS = ("c", "beta", "d", "omega", "B", "ell")

    def __post_init__(self):
        for name in ("m", "c", "beta", "d", "omega", "B"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(float(v)):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.ell is not None:
            if not float(self.ell).is_integer() or self.ell < 0:
                raise ValueError(f"ell must be a nonnegative integer, got {self.ell!r}")
            object.__setattr__(self, "ell", int(self.ell))

    def constants(self) -> dict:
        return {
            k: getattr(self, k) for k in self._CONSTANTS if getattr(self, k) is not None
        }

    def to_dict(self) -> dict:
        return {"m": self.m, **self.constants()}

    def with_m(self, m: float) -> "ParamPoint":
        return dataclasses.replace(self, m=float(m))


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
        if self.pole_exclusion_radius <= 0.0:
            raise ValueError("pole_exclusion_radius must be > 0")


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
    because every check sweeps it.  ``w1plus`` and ``w1minus`` map (x, m) to
    the pair (W1, W1'), both from one evaluation of the gauge denominator D
    with W1 = D'/D, and ``W`` returns the pair (W, W') built from them.
    ``w1minus`` is always its own transcribed formula rather than ``w1plus``
    at m - 1, so the translation identity is a genuine two-route check.
    """

    name: str
    tag: str
    domain: tuple[float, float]
    params: ParamPoint
    is_real: bool
    k0: Callable
    k0_deriv: Callable
    k1: Callable
    k1_deriv: Callable
    w1plus: Callable
    w1minus: Callable
    validity_fn: Callable[[float], Verdict] = field(repr=False)
    poles_fn: Callable[[float], tuple] = field(repr=False)
    scan_clear_fn: Callable[[float], bool] = field(repr=False)

    _EVALUATORS = ("k0", "k0_deriv", "k1", "k1_deriv", "w1plus", "w1minus")

    def __post_init__(self):
        for fname in self._EVALUATORS:
            fn = getattr(self, fname)
            if not getattr(fn, "_quiet_wrapped", False):
                object.__setattr__(self, fname, _quiet(fn))

    def w0(self, x, m):
        return self.k0(x) + m * self.k1(x)

    def W(self, x, m):
        """(W, W') with W = W0 + W1+ - W1-."""
        p, pd = self.w1plus(x, m)
        q, qd = self.w1minus(x, m)
        return (self.w0(x, m) + p - q,
                self.k0_deriv(x) + m * self.k1_deriv(x) + pd - qd)

    def validity(self, m: float) -> Verdict:
        return self.validity_fn(m)

    def poles(self, m: float) -> tuple:
        """x positions of all denominator roots inside the domain at this m."""
        return self.poles_fn(m)

    def scan_clear(self, m: float) -> bool:
        """Independent root test: True when no offending root is found."""
        return self.scan_clear_fn(m)


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
    for root in family.poles(m):
        dist = np.abs(xs - root)
        if np.any(dist < pole_radius):
            bad = float(np.asarray(xs)[dist < pole_radius].flat[0])
            raise PoleError(bad, root)
    out = np.asarray(family.W(xs, m)[entry], dtype=np.complex128)
    return complex(out[()]) if scalar else out


def _edge_passes(family, m_values, xs: np.ndarray) -> np.ndarray:
    """Which abscissae pass the edge test at every m: W and W' finite there
    and |W| <= _EDGE_W_CAP.  One array call of (W, W') per m."""
    ok = np.ones(xs.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in m_values:
            w, wd = family.W(xs, m)
            ok &= np.isfinite(w) & np.isfinite(wd) & (np.abs(w) <= _EDGE_W_CAP)
    return ok


def _expand_edge(family, m_values, start: float, sign: float) -> float:
    """Largest |edge| in a doubling sequence that still evaluates cleanly.

    The candidates start*2**k, k < 40, up to _EDGE_X_CAP are tested in one
    array probe; the edge is the last one before the first failure.  When
    start itself fails, the edge is the first of start/2**k, k >= 1, above
    1e-3 that passes.
    """
    up = start * 2.0 ** np.arange(40)
    up = up[up <= _EDGE_X_CAP]
    leading = int(np.sum(np.logical_and.accumulate(_edge_passes(family, m_values, sign * up))))
    if leading:
        return float(up[leading - 1])
    down = start / 2.0 ** np.arange(1, max(1, math.ceil(math.log2(start / 1e-3))) + 2)
    down = down[down > 1e-3]
    ok = _edge_passes(family, m_values, sign * down)
    if ok.any():
        return float(down[np.argmax(ok)])
    raise InvalidParameterError(
        "evaluable window", f"{family.name}: no evaluable window edge found"
    )


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
              m_values=None, exclude_poles: bool = True) -> np.ndarray:
    """Verification abscissae strictly inside the family's domain.

    Validity is enforced for every m in m_values (raising
    InvalidParameterError naming the violated inequality), infinite sides are
    compressed through x = a + L*atanh(u), and every point keeps
    pole_exclusion_radius distance from every detected denominator root of
    every requested m.

    The edge of an infinite side comes from one array probe per side: the
    pair (W, W') is evaluated at every doubling candidate in one call per m,
    and a candidate fails where either is not finite (the family's
    evaluators return nan or inf where g(x) overflows or D vanishes, they do
    not raise) or where |W| exceeds _EDGE_W_CAP.  The edge is the last candidate before
    the first failure.
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
        b = _expand_edge(family, m_values, max(2.0 * a, a + 1.0), +1.0)
        layout, symmetric, dense_end = "tanh", False, "lo"
    elif not hi_inf:
        b = hi - margin
        a = -_expand_edge(family, m_values, max(2.0 * abs(b), abs(b) + 1.0), -1.0)
        layout, symmetric, dense_end = "tanh", False, "hi"
    else:
        b = _expand_edge(family, m_values, 1.0, +1.0)
        a = -_expand_edge(family, m_values, 1.0, -1.0)
        layout, symmetric, dense_end = "tanh", True, "lo"

    poles: list[float] = []
    if exclude_poles:
        for m in m_values:
            poles.extend(family.poles(m))

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
    entire).
    """
    if mode not in PERTURBATION_MODES:
        raise UsageError(f"unknown perturbation mode {mode!r}")
    size = float(size)
    w1p, w1m = family.w1plus, family.w1minus
    k1, k1d = family.k1, family.k1_deriv

    def sloped(fn, slope):
        # (W1, W1') + (slope(m)*x, slope(m))
        def patched(x, m):
            w, wd = fn(x, m)
            return w + slope(m) * np.asarray(x, dtype=float), wd + slope(m)

        return patched

    def offset(x, m):
        # the value shifts, W1-' does not
        w, wd = w1m(x, m)
        return w + size, wd

    if mode == "wminus-slope":
        patch = dict(w1minus=sloped(w1m, lambda m: size))
    elif mode == "wplus-slope":
        patch = dict(w1plus=sloped(w1p, lambda m: size))
    elif mode == "wminus-offset":
        patch = dict(w1minus=offset)
    elif mode == "paired-mx-slope":
        patch = dict(w1plus=sloped(w1p, lambda m: size * m),
                     w1minus=sloped(w1m, lambda m: size * (m - 1.0)))
    else:
        patch = dict(
            k1=lambda x: k1(x) + size * np.asarray(x, dtype=float),
            k1_deriv=lambda x: k1d(x) + size,
        )
    return dataclasses.replace(family, name=f"{family.name}+{mode}@{size:g}", **patch)
