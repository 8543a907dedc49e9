"""Jacobi and Laguerre polynomials for arbitrary real parameters.

The classical three-term recurrences come with stability guarantees only for
classical parameter ranges (alpha, beta > -1).  The rationally extended
families this package verifies need polynomials at negative, m-dependent
parameters such as -B - m - 3/2, so evaluation goes through the explicit
finite series in rising-factorial form with compensated (Kahan) summation.
Degrees stay small (<= 10 in the shipped catalog; hard cap 64), which keeps
the series cheap and its worst-case cancellation bounded.

The Jacobi series runs in u = (z - 1)/2.  Near z = 0 (|u| close to 1/2) its
alternating terms cancel, so arguments with |z| < 1 are evaluated in the
monomial basis in z instead.  Those coefficients are computed exactly in
rational arithmetic (float parameters are exact rationals) from the same
series and rounded once to float64.  Arguments with |z| >= 1, among them
every cosh(x) and every real root scan, keep the series about z = 1.

Real parameters with a real argument are evaluated in float64 and only cast
to complex on output, so the imaginary part of such results is exactly zero.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedError

JACOBI = "jacobi"
LAGUERRE = "laguerre"

DEGREE_CAP = 64

# Root scan: subintervals per unit length, doubled until the root count is
# stable twice.  The first pass is capped so very wide root windows start
# coarser (refinement still reaches _MAX_SCAN_POINTS); catalog windows stay
# below the cap and get the full base resolution.
SCAN_RESOLUTION = 4096
_BASE_SCAN_CAP = 1 << 16
_MAX_SCAN_POINTS = 1 << 22
_BISECT_TOL = 1e-12
_BISECT_STEPS = 200
# Coefficient caches, keyed by PolySpec; bounded because every new parameter
# point brings new specs.
_COEF_CACHE_SIZE = 4096


@dataclass(frozen=True)
class PolySpec:
    """Identifies one polynomial: P_n^(alpha,beta) or L_n^(alpha)."""

    kind: str
    degree: int
    alpha: float
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in (JACOBI, LAGUERRE):
            raise ValueError(f"kind must be {JACOBI!r} or {LAGUERRE!r}, got {self.kind!r}")
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")
        if self.degree > DEGREE_CAP:
            raise UnsupportedError(f"degree {self.degree} above the documented cap {DEGREE_CAP}")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.kind == JACOBI:
            if self.beta is None or not math.isfinite(self.beta):
                raise ValueError("Jacobi needs a finite beta")
        elif self.beta is not None:
            raise ValueError("Laguerre takes no beta")


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def _series_coefficients(spec: PolySpec) -> np.ndarray:
    """Coefficients c_s of the series sum_s c_s * u**s, read-only.

    Jacobi uses u = (z - 1)/2, Laguerre u = z (signs folded in).  Rising
    factorials are built multiplicatively, the descending one backwards, so
    no division by (alpha + s + 1) occurs: parameters that are negative
    integers stay exact.
    """
    n = spec.degree
    if spec.kind == JACOBI:
        a, b = spec.alpha, spec.beta
        rf_up = np.empty(n + 1)
        rf_up[0] = 1.0
        for s in range(n):
            rf_up[s + 1] = rf_up[s] * (n + a + b + 1.0 + s)
        rf_down = np.empty(n + 1)
        rf_down[n] = 1.0
        for s in range(n - 1, -1, -1):
            rf_down[s] = (a + s + 1.0) * rf_down[s + 1]
        binom = np.empty(n + 1)
        binom[0] = 1.0
        for s in range(n):
            binom[s + 1] = binom[s] * (n - s) / (s + 1.0)
        coef = binom * rf_up * rf_down / float(math.factorial(n))
    else:
        a = spec.alpha
        coef = np.empty(n + 1)
        rf = 1.0  # (a + s + 1)_{n - s}, filled backwards
        for s in range(n, -1, -1):
            coef[s] = ((-1.0) ** s) * rf / (math.factorial(n - s) * math.factorial(s))
            if s > 0:
                rf *= a + s
    coef.setflags(write=False)
    return coef


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def monomial_coefficients(spec: PolySpec) -> np.ndarray:
    """Coefficients d_k of the polynomial as sum_k d_k * z**k, read-only.

    Jacobi coefficients are exact rationals, from the series about z = 1
    with c_s = C(n, s) (n+a+b+1)_s (a+s+1)_{n-s} / n!, rounded once to
    float64.  Laguerre's series already runs in z.
    """
    if spec.kind == LAGUERRE:
        return _series_coefficients(spec)
    n = spec.degree
    (pa, qa), (pb, qb) = (float(v).as_integer_ratio() for v in (spec.alpha, spec.beta))
    den = max(qa, qb)  # both powers of two
    ia, ib = pa * (den // qa), pb * (den // qb)
    # In integers: c_s * n! * den**n = C(n, s) * prod(up[:s]) * prod(down[s:])
    up = [(n + 1 + j) * den + ia + ib for j in range(n)]
    down = [(j + 1) * den + ia for j in range(n)]
    prefix = list(itertools.accumulate(up, operator.mul, initial=1))
    suffix = list(itertools.accumulate(reversed(down), operator.mul, initial=1))[::-1]
    c = [math.comb(n, s) * prefix[s] * suffix[s] for s in range(n + 1)]
    # ((z - 1)/2)**s = sum_k C(s, k) (-1)**(s - k) z**k / 2**s; int / int
    # rounds correctly
    scale = math.factorial(n) * den ** n * 2 ** n
    coef = np.array([
        sum(c[s] * math.comb(s, k) * (-1) ** (s - k) * 2 ** (n - s) for s in range(k, n + 1))
        / scale
        for k in range(n + 1)
    ])
    coef.setflags(write=False)
    return coef


def _eval_series(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Kahan-compensated sum of coef[s] * u**s with iterated powers."""
    total = np.zeros_like(u)
    comp = np.zeros_like(u)
    power = np.ones_like(u)
    for c in coef:
        term = c * power
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        power = power * u
    return total


def _prepare_argument(z):
    arr = np.asarray(z)
    if arr.dtype.kind not in "fcib":
        raise DomainError(f"polynomial argument must be numeric, got dtype {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite polynomial argument")
    if np.iscomplexobj(arr) and np.any(arr.imag != 0.0):
        work = arr.astype(np.complex128)
    else:
        work = arr.real.astype(np.float64)
    return work, arr.ndim == 0


def poly_eval(spec: PolySpec, z):
    """Evaluate the polynomial at z (scalar or array, real or complex).

    Returns complex128; real parameters with real argument give an exactly
    zero imaginary part.  Jacobi arguments with |z| < 1 go through the
    monomial basis (see the module docstring).
    """
    work, scalar = _prepare_argument(z)
    if spec.kind == JACOBI:
        out = np.asarray(_eval_series(_series_coefficients(spec), (work - 1.0) / 2.0))
        inner = np.abs(work) < 1.0
        if inner.any():
            out[inner] = _eval_series(monomial_coefficients(spec), work[inner])
    else:
        out = _eval_series(_series_coefficients(spec), work)
    out = out.astype(np.complex128)
    return complex(out[()]) if scalar else out


def derivative_spec(spec: PolySpec) -> tuple[float, PolySpec | None]:
    """Parameter-shift form of d/dz: (factor, shifted spec), or (0, None)."""
    n = spec.degree
    if n == 0:
        return 0.0, None
    if spec.kind == JACOBI:
        return (n + spec.alpha + spec.beta + 1.0) / 2.0, PolySpec(
            JACOBI, n - 1, spec.alpha + 1.0, spec.beta + 1.0
        )
    return -1.0, PolySpec(LAGUERRE, n - 1, spec.alpha + 1.0)


def poly_deriv(spec: PolySpec, z):
    """d/dz of the polynomial, via the parameter-shift identities."""
    factor, shifted = derivative_spec(spec)
    if shifted is None:
        work, scalar = _prepare_argument(z)
        return 0j if scalar else np.zeros(work.shape, dtype=np.complex128)
    return factor * poly_eval(shifted, z)


def poly_deriv2(spec: PolySpec, z):
    """Second derivative, by applying the parameter shift twice."""
    f1, s1 = derivative_spec(spec)
    if s1 is None:
        return poly_deriv(spec, z) * 0.0
    f2, s2 = derivative_spec(s1)
    if s2 is None:
        work, scalar = _prepare_argument(z)
        return 0j if scalar else np.zeros(work.shape, dtype=np.complex128)
    return f1 * f2 * poly_eval(s2, z)


def root_window(spec: PolySpec) -> tuple[float, float]:
    """A finite interval certain to contain every root (Fujiwara bound).

    Returns (0.0, 0.0) when the polynomial has no roots to find (constants
    and the identically zero degenerate cases).
    """
    coef = _series_coefficients(spec)
    mags = np.abs(coef)
    top = float(mags.max())
    if top == 0.0:
        return 0.0, 0.0
    # Effective leading index: trailing coefficients can vanish for special
    # parameter combinations (e.g. n + alpha + beta + 1 a negative integer).
    lead = int(np.max(np.nonzero(mags > top * 1e-12)[0]))
    if lead == 0:
        return 0.0, 0.0
    ratios = [
        (mags[lead - j] / mags[lead]) ** (1.0 / j) for j in range(1, lead + 1)
    ]
    r_u = 2.0 * max(ratios) + 1e-12
    if spec.kind == JACOBI:
        return 1.0 - 2.0 * r_u, 1.0 + 2.0 * r_u
    return -r_u, r_u


def _sample(f, lo: float, hi: float, n_sub: int, coarse=None):
    """Scan nodes np.linspace(lo, hi, n_sub + 1) and the values of f there.

    coarse is the (nodes, values) pair of a pass with half as many
    subintervals.  Where its nodes are bit for bit the even nodes of this
    pass, their values are reused and only the odd nodes are evaluated.
    """
    xs = np.linspace(lo, hi, n_sub + 1)
    if coarse is not None and np.array_equal(xs[::2], coarse[0]):
        vals = np.empty(xs.shape)
        vals[::2] = coarse[1]
        vals[1::2] = np.asarray(f(xs[1::2]), dtype=float)
        return xs, vals
    return xs, np.asarray(f(xs), dtype=float)


def _bisect(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Midpoints of the brackets [a, b] (f(a) = fa) after bisection, all
    brackets in lockstep with one call of f per step.  Each bracket stops at
    width <= _BISECT_TOL, collapses onto an exact zero at its midpoint, and
    takes at most _BISECT_STEPS steps."""
    a, b, fa = a.copy(), b.copy(), fa.copy()
    live = np.arange(a.size)
    for _ in range(_BISECT_STEPS):
        # a collapsed bracket has width 0 and drops out here
        live = live[(b[live] - a[live]) > _BISECT_TOL]
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        fm = np.asarray(f(mid), dtype=float)
        zero = fm == 0.0
        left = ~zero & (fa[live] * fm < 0)
        right = ~zero & ~left
        a[live[zero]] = mid[zero]
        b[live[zero]] = mid[zero]
        b[live[left]] = mid[left]
        a[live[right]] = mid[right]
        fa[live[right]] = fm[right]
    return 0.5 * (a + b)


def scan_roots(f, lo: float, hi: float, n_sub: int, xs=None, vals=None) -> list[float]:
    """Bracket sign changes of f on [lo, hi] with n_sub subintervals, then
    bisect each bracket to 1e-12 absolute.  Exact zeros at scan nodes are
    returned directly.  f must accept an ndarray.  xs and vals, when given,
    are the nodes np.linspace(lo, hi, n_sub + 1) and f's values there."""
    if not (hi > lo):
        return []
    if xs is None:
        xs, vals = _sample(f, lo, hi, n_sub)
    roots = xs[vals == 0.0].tolist()
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots += _bisect(f, xs[idx], xs[idx + 1], vals[idx]).tolist()
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-10:
            merged.append(r)
    return merged


def real_roots_in(spec: PolySpec, interval: tuple[float, float]) -> list[float]:
    """All real roots inside the interval, sorted ascending.

    Half-infinite intervals are clamped by the Cauchy root bound.  Resolution
    starts at SCAN_RESOLUTION subintervals per unit length and doubles until
    the root count is unchanged twice in a row; even-multiplicity roots that
    produce no sign change are out of scope.
    """
    lo, hi = float(interval[0]), float(interval[1])
    w_lo, w_hi = root_window(spec)
    if w_lo == w_hi:
        return []
    lo = max(lo, w_lo - 1e-6)
    hi = min(hi, w_hi + 1e-6)
    if not (hi > lo):
        return []

    coef = _series_coefficients(spec)
    if spec.kind == JACOBI:
        f = lambda x: _eval_series(coef, (x - 1.0) / 2.0)
    else:
        f = lambda x: _eval_series(coef, x)

    span = hi - lo
    n_sub = min(max(int(SCAN_RESOLUTION * span), 64), _BASE_SCAN_CAP)
    counts: list[int] = []
    roots: list[float] = []
    coarse = None
    for _ in range(7):
        coarse = _sample(f, lo, hi, n_sub, coarse)
        roots = scan_roots(f, lo, hi, n_sub, *coarse)
        counts.append(len(roots))
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            break
        if n_sub >= _MAX_SCAN_POINTS:
            break
        n_sub = min(n_sub * 2, _MAX_SCAN_POINTS)
    # Respect open/half-open interval endpoints passed by callers.
    return [r for r in roots if interval[0] < r < interval[1]]
