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
every cosh(x), keep the series about z = 1.

Derivatives come from the same pass: the coefficient row of P is
differentiated in place (row j + 1 holds (s + 1) * c_{s+1} / h of row j,
with h = 2 for the Jacobi series in u and h = 1 for the monomial and
Laguerre bases), and every row is summed against one shared table of powers
of u, so P, P' and P'' cost one call and one set of powers.

Root questions are decided on those exact coefficients, in Python integers
(module intpoly): Descartes' rule of signs certifies an interval free of
roots, Vincent-Collins-Akritas bisection isolates the roots that are there,
and a bisection at float midpoints refines each root inside its isolating
interval, with every sign taken exactly in integers.

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

_BISECT_TOL = 1e-12
_BISECT_STEPS = 200
# Coefficient caches, keyed by PolySpec; bounded because every new parameter
# point brings new specs.
_COEF_CACHE_SIZE = 4096
# z = z0 + h*u: where each kind's series variable u starts and its scale
_ORIGIN = {JACOBI: (1, 2), LAGUERRE: (0, 1)}


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


def _exact_series(spec: PolySpec) -> tuple[list[int], int]:
    """The series coefficients c_s exactly: integers N_s and a positive
    integer S with c_s = N_s / S.

    Float parameters are exact rationals p / q with q a power of two, so
    with den the larger denominator, Jacobi has N_s = C(n, s) *
    prod_{j<s} ((n+1+j)*den + ia + ib) * prod_{j>=s} ((j+1)*den + ia) and
    Laguerre N_s = (-1)**s * C(n, s) * den**s * prod_{j>s} (ia + j*den),
    both over S = n! * den**n.
    """
    n = spec.degree
    params = (spec.alpha,) if spec.kind == LAGUERRE else (spec.alpha, spec.beta)
    ratios = [float(v).as_integer_ratio() for v in params]
    den = max(q for _, q in ratios)  # all powers of two
    ia, ib = ([p * (den // q) for p, q in ratios] + [0])[:2]
    if spec.kind == JACOBI:
        up = [(n + 1 + j) * den + ia + ib for j in range(n)]
        down = [(j + 1) * den + ia for j in range(n)]
        prefix = list(itertools.accumulate(up, operator.mul, initial=1))
        suffix = list(itertools.accumulate(reversed(down), operator.mul, initial=1))[::-1]
        nums = [math.comb(n, s) * prefix[s] * suffix[s] for s in range(n + 1)]
    else:
        tail = [ia + j * den for j in range(n, 0, -1)]
        suffix = list(itertools.accumulate(tail, operator.mul, initial=1))[::-1]
        nums = [(-1) ** s * math.comb(n, s) * den ** s * suffix[s] for s in range(n + 1)]
    return nums, math.factorial(n) * den ** n


def _monomial_integers(spec: PolySpec) -> tuple[list[int], int]:
    """The coefficients d_k in z exactly, as integers over one positive
    integer.  Jacobi's u = (z - 1)/2 is undone by an exact Taylor shift."""
    from . import intpoly

    nums, scale = _exact_series(spec)
    if spec.kind == LAGUERRE:
        return nums, scale
    n = spec.degree
    return intpoly.taylor_shift([c << (n - s) for s, c in enumerate(nums)], -1), scale << n


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def monomial_coefficients(spec: PolySpec) -> np.ndarray:
    """Coefficients d_k of the polynomial as sum_k d_k * z**k, read-only.

    Jacobi coefficients are exact rationals, from the series about z = 1
    with c_s = C(n, s) (n+a+b+1)_s (a+s+1)_{n-s} / n!, rounded once to
    float64.  Laguerre's series already runs in z.
    """
    if spec.kind == LAGUERRE:
        return _series_coefficients(spec)
    nums, scale = _monomial_integers(spec)
    coef = np.array([d / scale for d in nums])  # int / int rounds correctly
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


def _derivative_rows(coef: np.ndarray, order: int, h: float) -> np.ndarray:
    """Rows 0..order: the coefficients of P and of its first `order`
    derivatives in z, for P(z) = sum_s coef[s] * u**s with u = (z - z0)/h.
    Row j + 1 is (s + 1) * row_j[s + 1] / h; row j has degree n - j, and its
    entries past that stay zero."""
    rows = np.zeros((order + 1, coef.size))
    rows[0] = coef
    k = np.arange(1, coef.size)
    for j in range(order):
        rows[j + 1, :-1] = k * rows[j, 1:] / h
    return rows


def _eval_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Kahan-compensated sums of rows[j, s] * u**s for every row j, over a
    1-d u, with one table of iterated powers shared by all rows.  Row j
    stops at its degree n - j, so a zero past it never meets an overflowed
    power (0 * inf).  Row 0 is bit for bit _eval_series(rows[0], u)."""
    n = rows.shape[1] - 1
    total = np.zeros((rows.shape[0], u.size), dtype=np.result_type(rows, u))
    comp = np.zeros_like(total)
    power = np.ones_like(u)
    for s in range(n + 1):
        live = min(rows.shape[0], n + 1 - s)  # rows whose degree reaches s
        y = rows[:live, s, None] * power - comp[:live]
        t = total[:live] + y
        comp[:live] = (t - total[:live]) - y
        total[:live] = t
        power = power * u
    return total


def poly_eval(spec: PolySpec, z, order: int = 0):
    """Evaluate the polynomial at z (scalar or array, real or complex).

    Returns complex128; real parameters with real argument give an exactly
    zero imaginary part.  Jacobi arguments with |z| < 1 go through the
    monomial basis (see the module docstring).  With order > 0 it returns
    the tuple (P, P', ..., P^(order)) from one pass, each entry shaped like
    the order-0 result.
    """
    work, scalar = _prepare_argument(z)
    flat = work.reshape(-1)
    if spec.kind == JACOBI:
        out = _eval_rows(_derivative_rows(_series_coefficients(spec), order, 2.0),
                         (flat - 1.0) / 2.0)
        inner = np.abs(flat) < 1.0
        if inner.any():
            out[:, inner] = _eval_rows(
                _derivative_rows(monomial_coefficients(spec), order, 1.0), flat[inner])
    else:
        out = _eval_rows(_derivative_rows(_series_coefficients(spec), order, 1.0), flat)
    out = out.astype(np.complex128).reshape((order + 1,) + work.shape)
    vals = [complex(v) for v in out] if scalar else list(out)
    return vals[0] if order == 0 else tuple(vals)


def poly_deriv(spec: PolySpec, z):
    """d/dz of the polynomial, from its differentiated coefficient row."""
    return poly_eval(spec, z, 1)[1]


def poly_deriv2(spec: PolySpec, z):
    """Second derivative, from the twice differentiated coefficient row."""
    return poly_eval(spec, z, 2)[2]


def root_window(spec: PolySpec) -> tuple[float, float]:
    """A finite interval certain to contain every root (Fujiwara bound).

    The bound runs on the exact series coefficients, so the leading index
    is that of the last nonzero one; it is widened by a relative 1e-9 to
    cover its own rounding, then to a power of two.  Returns (0.0, 0.0) when
    the polynomial has no roots to find (constants and the identically zero
    degenerate cases).
    """
    nums = _exact_series(spec)[0]
    lead = max((k for k, c in enumerate(nums) if c), default=0)
    if lead == 0:
        return 0.0, 0.0
    log_lead = math.log(abs(nums[lead]))
    r_u = 2.0 * max(
        (math.exp((math.log(abs(nums[lead - j])) - log_lead) / j)
         for j in range(1, lead + 1) if nums[lead - j]),
        default=0.0,
    ) * (1.0 + 1e-9) + 1e-12
    # a power of two keeps the exact arithmetic on the window's ends short
    r_u = 2.0 ** math.ceil(math.log2(r_u))
    z0, h = _ORIGIN[spec.kind]
    return z0 - h * r_u, z0 + h * r_u


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
    """Roots of f from its signs at sorted nodes: every node where f is zero,
    and a bisection to 1e-12 absolute of each sign change between
    neighbouring nodes.  f must accept an ndarray.  The nodes are xs, with
    vals the values of f there (only their signs are read); by default they
    are np.linspace(lo, hi, n_sub + 1) and f evaluated on them."""
    if xs is None:
        if not (hi > lo):
            return []
        xs = np.linspace(lo, hi, n_sub + 1)
        vals = np.asarray(f(xs), dtype=float)
    roots = xs[vals == 0.0].tolist()
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    roots += _bisect(f, xs[idx], xs[idx + 1], vals[idx]).tolist()
    return sorted(roots)


def _dyadic_u(z: float, z0: int, h: int) -> tuple[int, int]:
    """u = (z - z0)/h for a finite float z, exactly, as (numerator, a power
    of two)."""
    p, q = z.as_integer_ratio()
    return p - z0 * q, h * q


def real_roots_in(spec: PolySpec, interval: tuple[float, float]) -> list[float]:
    """All real roots inside the open interval, sorted ascending, each
    distinct root once.  The count is certified; each location is a float
    within 1e-12 of its root.

    The test runs on the exact integer series coefficients in u, where
    z = 1 + 2u for Jacobi and z = u for Laguerre.  A root at u = 0 is read
    off the constant term.  Descartes' rule on the interval's image on
    (0, inf) (for Jacobi on (1, inf) the coefficients themselves, for
    Laguerre on (-inf, 0) their alternating signs) certifies most intervals
    empty with no float evaluation.  Otherwise a half-infinite interval is
    clamped to root_window, the square-free part is isolated by
    Vincent-Collins-Akritas bisection in integers, and scan_roots bisects
    each isolating interval at float midpoints, reading the square-free
    part's exact sign at each.  A root at an interval end is decided
    exactly, and excluded.
    """
    from . import intpoly

    lo, hi = float(interval[0]), float(interval[1])
    a = intpoly.trimmed(_exact_series(spec)[0])
    if not (hi > lo) or len(a) < 2:
        return []  # constants, and the zero polynomial, have no roots to find
    z0, h = _ORIGIN[spec.kind]
    found = []
    if a[0] == 0:
        a = a[next(k for k, c in enumerate(a) if c):]
        if lo < z0 < hi:
            found.append(float(z0))
    # Descartes' rule on the image of (lo, hi) on (0, inf)
    if math.isinf(lo) and math.isinf(hi):
        images = [a, [c if k % 2 == 0 else -c for k, c in enumerate(a)]]
    elif math.isinf(hi):
        p, q = _dyadic_u(lo, z0, h)
        images = [intpoly.affine_image(a, p, p + 1, q)]  # t = q*u - p
    elif math.isinf(lo):
        p, q = _dyadic_u(hi, z0, h)
        images = [intpoly.affine_image(a, p, p - 1, q)]  # t = p - q*u
    else:
        images = []
    if len(a) < 2 or (images and not any(intpoly.variations(b) for b in images)):
        return found

    w_lo, w_hi = root_window(spec)
    lo, hi = max(lo, w_lo), min(hi, w_hi)
    if not (hi > lo):
        return found
    (p1, q1), (p2, q2) = _dyadic_u(lo, z0, h), _dyadic_u(hi, z0, h)
    den = max(q1, q2)
    p1, p2 = p1 * (den // q1), p2 * (den // q2)
    a = intpoly.squarefree(a)
    leaves = intpoly.isolate(intpoly.affine_image(a, p1, p2, den))
    if not leaves:
        return found

    def z_at(c: int, k: int) -> float:
        # z = z0 + h*(p1 + (p2 - p1)*c/2**k)/den, rounded once
        return (z0 * den * 2 ** k + h * (p1 * 2 ** k + (p2 - p1) * c)) / (den * 2 ** k)

    return sorted(found + _refine(a, leaves, z_at, z0, h))


def _refine(a: list[int], leaves: list, z_at, z0: int, h: int) -> list[float]:
    """The roots that intpoly.isolate found for a, as floats, through
    scan_roots.

    Its nodes: a root exactly at a node has value 0, and across an isolating
    interval the sign just right of its left end flips once.  Every
    bisection sign is exact: that of a at the midpoint's binary fraction,
    by Horner's rule in integers (intpoly.sign_at).
    """
    from . import intpoly

    xs, vals = [], []
    for c, k, sign in leaves:
        xs.append(z_at(c, k))
        vals.append(sign)
        if sign:
            xs.append(z_at(c + 1, k))
            vals.append(-sign)

    def f(x):
        return [intpoly.sign_at(a, *_dyadic_u(z, z0, h)) for z in x.tolist()]

    return scan_roots(f, xs[0], xs[-1], len(xs) - 1, np.array(xs), np.array(vals, dtype=float))


def has_imaginary_root(spec: PolySpec) -> bool:
    """Whether the polynomial has a root i*s with real s != 0, decided
    exactly on its integer coefficients (intpoly.has_imaginary_root)."""
    from . import intpoly

    return intpoly.has_imaginary_root(_monomial_integers(spec)[0])
