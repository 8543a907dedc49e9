"""Jacobi and Laguerre polynomials for arbitrary real parameters.

The classical three-term recurrences come with stability guarantees only for
classical parameter ranges (alpha, beta > -1).  The rationally extended
families this package verifies need polynomials at negative, m-dependent
parameters such as -B - m - 3/2, so evaluation goes through the explicit
finite series in rising-factorial form with compensated (Kahan) summation.
Its coefficients are computed exactly in rational arithmetic (float
parameters are exact rationals) and rounded once to float64.
Degrees stay small (<= 10 in the shipped catalog; hard cap 64), which keeps
the series cheap and its worst-case cancellation bounded.

The Jacobi series runs in u = (z - 1)/2.  Near z = 0 (|u| close to 1/2) its
alternating terms cancel, and on the imaginary axis (Xl-PT-Scarf's
i*sinh(x)) its term sizes sum_s |c_s| |u|**s stay above the monomial
basis's at every |z|, by orders of magnitude at high degree.  Arguments
with |z| < 1 or Re z = 0 are therefore evaluated in the monomial basis in
z instead, whose coefficients come exactly from the same series, by a
Taylor shift in integers, and are rounded once.  Every other argument,
among them every cosh(x), keeps the series about z = 1; each point goes
through exactly one of the two bases.

Derivatives come from the same pass: the coefficient row of P is
differentiated in place (row j + 1 holds (s + 1) * c_{s+1} / h of row j,
with h = 2 for the Jacobi series in u and h = 1 for the monomial and
Laguerre bases), and every row is summed against one shared table of powers
of u, so P, P' and P'' cost one call and one set of powers.  Several
polynomials of one kind and degree share that table too: poly_eval's
``more`` stacks their rows into the same pass, and each value equals that
of its own call bit for bit, because every row is summed alone.  An
argument far enough out that a power of u overflows gives a value that is
not finite, without a floating-point warning (kernel_reach: how far out).

Root questions are decided on those exact coefficients, in Python integers
(module intpoly): Descartes' rule of signs certifies an interval free of
roots, Vincent-Collins-Akritas bisection isolates the roots that are there,
and a bisection at float midpoints refines each root inside its isolating
interval, with every sign taken exactly in integers.  Whether a root lies
in a given set at all (has_root_in) stops before the refinement: Descartes'
rule answers most such questions alone.  The exact series of a polynomial
is built once for each parameter point a run checks: a small cache, sized
to one point's few polynomials, serves the root questions and the float
coefficient caches alike.  Descartes' rule reads only the signs of a
half-line's image, so a half-line that ends at the series origin (Jacobi's
(1, inf), Laguerre's (-inf, 0)) needs no Taylor shift: its image is the
series itself, or the series with alternating signs.

A real argument is evaluated in float64 and returned as float64 (a Python
float for a scalar); only a complex argument gives complex128 results, and
one whose imaginary part is zero everywhere is still evaluated in float64,
so the imaginary part of its results is exactly zero.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedError

JACOBI = "jacobi"
LAGUERRE = "laguerre"

DEGREE_CAP = 64

_BISECT_TOL = 1e-12
_FLOAT_MAX = sys.float_info.max
# Coefficient caches, keyed by PolySpec; bounded because every new parameter
# point brings new specs.
_COEF_CACHE_SIZE = 4096
# The exact series cache holds one parameter point's polynomials (P+- at a
# few m): the root questions, the kernel's coefficient caches and
# has_imaginary_root then share one build per PolySpec
_SERIES_CACHE_SIZE = 64
# z = z0 + h*u: where each kind's series variable u starts and its scale
_ORIGIN = {JACOBI: (1, 2), LAGUERRE: (0, 1)}
# kernel_reach's bound on terms and powers: sums of DEGREE_CAP + 1 of them,
# and P'' times g'**2 in a W1 evaluator, stay finite
_REACH_LOG2 = 1000


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


@functools.lru_cache(maxsize=_SERIES_CACHE_SIZE)
def _exact_series(spec: PolySpec) -> tuple[tuple[int, ...], int]:
    """The series coefficients c_s exactly: integers N_s and a positive
    integer S with c_s = N_s / S, cached (the tuple is immutable).

    Float parameters are exact rationals p / q with q a power of two, so
    with den the larger denominator, Jacobi has N_s = C(n, s) *
    prod_{j<s} ((n+1+j)*den + ia + ib) * F_s and Laguerre
    N_s = (-1)**s * C(n, s) * den**s * F_s, both over S = n! * den**n, with
    the same falling product F_s = prod_{k>s} (ia + k*den).  C(n, s) and
    the rising product are running products along s, F_s comes from one
    suffix table, and den**s is a shift.
    """
    n = spec.degree
    ia, den = float(spec.alpha).as_integer_ratio()
    ib = 0
    if spec.kind == JACOBI:
        ib, q = float(spec.beta).as_integer_ratio()
        if q > den:
            ia, den = ia * (q // den), q
        else:
            ib *= den // q
    shift = den.bit_length() - 1  # den is a power of two
    suffix, acc = [1] * (n + 1), 1
    for k in range(n, 0, -1):
        acc *= ia + k * den
        suffix[k - 1] = acc
    nums, comb = [], 1
    if spec.kind == JACOBI:
        rising, up = 1, (n + 1) * den + ia + ib
        for s in range(n + 1):
            nums.append(comb * rising * suffix[s])
            comb = comb * (n - s) // (s + 1)
            rising *= up
            up += den
    else:
        for s in range(n + 1):
            nums.append((comb * suffix[s]) << (s * shift))
            comb = -comb * (n - s) // (s + 1)
    return tuple(nums), math.factorial(n) << (n * shift)


def _rounded(spec: PolySpec, nums: tuple[int, ...], scale: int) -> np.ndarray:
    """The exact ratios nums[k] / scale, each rounded once, read-only."""
    try:
        coef = np.array([c / scale for c in nums])  # int / int rounds correctly
    except OverflowError:
        raise UnsupportedError(
            f"coefficients of {spec} exceed the float range: parameters too large") from None
    coef.setflags(write=False)
    return coef


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def _series_coefficients(spec: PolySpec) -> np.ndarray:
    """Coefficients c_s of the series sum_s c_s * u**s, read-only: the exact
    N_s / S of _exact_series, each rounded once.  Jacobi uses u = (z - 1)/2,
    Laguerre u = z (signs folded in)."""
    return _rounded(spec, *_exact_series(spec))


def _monomial_integers(spec: PolySpec) -> tuple[tuple[int, ...], int]:
    """The coefficients d_k in z exactly, as integers over one positive
    integer.  Jacobi's u = (z - 1)/2 is undone by an exact Taylor shift."""
    from . import intpoly

    nums, scale = _exact_series(spec)
    if spec.kind == LAGUERRE:
        return nums, scale
    n = spec.degree
    return tuple(intpoly.taylor_shift([c << (n - s) for s, c in enumerate(nums)], -1)), scale << n


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def monomial_coefficients(spec: PolySpec) -> np.ndarray:
    """Coefficients d_k of the polynomial as sum_k d_k * z**k, read-only.

    Jacobi coefficients are exact rationals, from the series about z = 1
    with c_s = C(n, s) (n+a+b+1)_s (a+s+1)_{n-s} / n!, rounded once to
    float64.  Laguerre's series already runs in z.
    """
    if spec.kind == LAGUERRE:
        return _series_coefficients(spec)
    return _rounded(spec, *_monomial_integers(spec))


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
    return work, arr.ndim == 0, np.iscomplexobj(arr)


def _derivative_rows(coefs: list, order: int, h: float) -> np.ndarray:
    """The coefficients of each P and of its first `order` derivatives in z,
    for P(z) = sum_s coef[s] * u**s with u = (z - z0)/h, one row per
    (derivative, polynomial), derivative-major: all P rows, then all P'
    rows, and so on.  Row j + 1 of a polynomial is (s + 1) * row_j[s + 1] / h;
    derivative j has degree n - j, and its entries past that stay zero."""
    rows = np.zeros((order + 1, len(coefs), coefs[0].size))
    rows[0] = coefs
    k = np.arange(1, coefs[0].size)
    for j in range(order):
        rows[j + 1, :, :-1] = k * rows[j, :, 1:] / h
    return rows.reshape(-1, coefs[0].size)


def _eval_rows(rows: np.ndarray, u: np.ndarray, width: int) -> np.ndarray:
    """Kahan-compensated sums of rows[r, s] * u**s for every row r, over a
    1-d u, with one table of iterated powers shared by all rows.  The rows
    are _derivative_rows' blocks of `width` rows each, one block per
    derivative order, so the rows whose degree reaches s are a prefix; a
    row stops at its degree, and a zero past it never meets an overflowed
    power (0 * inf).

    Each term s >= 1 is the Kahan step y = c*u**s - comp, t = total + y,
    comp = (t - total) - y, total = t.  The s = 0 term sets total = c_0
    and comp = 0 directly, which is what that step gives from zero sums for
    finite c_0, so s = 1 skips subtracting comp.  Three (rows x points)
    buffers hold the sums, their compensations and y, allocated once per
    call; every term writes into views of them and the power is raised in
    place.  Once y is formed the compensations are spent, so t goes into
    their buffer, and (t - total) - y into the spent sums' buffer; the two
    buffers then swap roles, with no copy.  A row that stops at its degree
    is copied once into the new sums' buffer, which no later term writes
    for it."""
    n = rows.shape[1] - 1
    power = np.ones_like(u) * u  # the signed zeros of 1 * u, as the iterated product has
    total = np.empty((rows.shape[0], u.size), dtype=np.result_type(rows, u))
    # + 0.0 gives the +0.0 that the Kahan step makes of a c_0 of -0.0
    np.add(rows[:, 0, None], 0.0, out=total)
    comp, y_buf = np.empty_like(total), np.empty_like(total)
    was_live = rows.shape[0]
    for s in range(1, n + 1):
        live = min(rows.shape[0], (n + 1 - s) * width)  # rows whose degree reaches s
        tot, c, y = total[:live], comp[:live], y_buf[:live]
        np.multiply(rows[:live, s, None], power, out=y)
        if s > 1:
            np.subtract(y, c, out=y)
        np.add(tot, y, out=c)  # t
        np.subtract(c, tot, out=tot)
        np.subtract(tot, y, out=tot)  # the new compensation
        if live < was_live:  # these rows stopped at s - 1
            comp[live:was_live] = total[live:was_live]
        total, comp, was_live = comp, total, live
        if s < n:
            np.multiply(power, u, out=power)
    return total


def _stack(spec: PolySpec, more) -> tuple:
    """(spec, *more), after checking that more is None or a tuple of
    PolySpecs of spec's kind and degree."""
    if more is None:
        return (spec,)
    if not isinstance(more, tuple) or not all(
            isinstance(s, PolySpec) and (s.kind, s.degree) == (spec.kind, spec.degree)
            for s in more):
        raise ValueError(f"more must be a tuple of {spec.kind} PolySpecs of degree "
                         f"{spec.degree}, got {more!r}")
    return (spec, *more)


def poly_eval(spec: PolySpec, z, order: int = 0, *, more: tuple | None = None):
    """Evaluate the polynomial at z (scalar or array, real or complex).

    Returns float64 for a real argument (a Python float for a scalar) and
    complex128 for a complex one; a complex argument with zero imaginary
    part gives an exactly zero imaginary part.  Jacobi arguments with
    |z| < 1 or Re z = 0 go through the monomial basis (see the module
    docstring).  With order > 0 it returns the tuple (P, P', ..., P^(order))
    from one pass, each entry shaped like the order-0 result.

    more, a tuple of further PolySpecs of spec's kind and degree (it may be
    empty), joins the same pass: each entry then gains a leading axis, one
    row per polynomial of (spec, *more), and every row equals the
    polynomial's own call bit for bit.
    """
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    specs = _stack(spec, more)
    work, scalar, complex_arg = _prepare_argument(z)
    flat = work.reshape(-1)

    def basis(coefficients, u, h):
        rows = _derivative_rows([coefficients(s) for s in specs], order, h)
        return _eval_rows(rows, u, len(specs))

    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == LAGUERRE:
            out = basis(_series_coefficients, flat, 1.0)
        else:
            # each point in one basis: the monomial one where the series
            # about z = 1 cancels, near z = 0 and on the imaginary axis
            mono = (np.abs(flat) < 1.0) | (flat.real == 0.0)
            if mono.all():
                out = basis(monomial_coefficients, flat, 1.0)
            elif not mono.any():
                out = basis(_series_coefficients, (flat - 1.0) / 2.0, 2.0)
            else:
                far = ~mono
                out = np.empty(((order + 1) * len(specs), flat.size), dtype=flat.dtype)
                out[:, mono] = basis(monomial_coefficients, flat[mono], 1.0)
                out[:, far] = basis(_series_coefficients, (flat[far] - 1.0) / 2.0, 2.0)
    if complex_arg:
        out = out.astype(np.complex128, copy=False)
    out = out.reshape((order + 1, len(specs)) + work.shape)
    if more is not None:
        vals = list(out)
    else:
        vals = [v[0].item() for v in out] if scalar else [v[0] for v in out]
    return vals[0] if order == 0 else tuple(vals)


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def kernel_reach(spec: PolySpec, imaginary: bool) -> float:
    """The largest |z| up to which every term |c_s| |u|**s of
    poly_eval(spec, z, 2), times s**2 for its derivatives, and every power
    |u|**s stay below 2**_REACH_LOG2, from the basis's exact integers: for
    z >= 1 (Jacobi) or real z (Laguerre) in the series, on the imaginary
    axis in the monomial basis."""
    nums, scale = _monomial_integers(spec) if imaginary else _exact_series(spec)
    z0, h = (0, 1) if imaginary else _ORIGIN[spec.kind]
    n, top = spec.degree, _REACH_LOG2 + math.log2(scale)
    log_u = min([_REACH_LOG2 / max(n, 1)] + [
        (top - math.log2(abs(c)) - 2.0 * math.log2(s)) / s for s, c in enumerate(nums) if s and c])
    return z0 + h * 2.0 ** log_u


def poly_deriv(spec: PolySpec, z):
    """d/dz of the polynomial, from its differentiated coefficient row."""
    return poly_eval(spec, z, 1)[1]


def poly_deriv2(spec: PolySpec, z):
    """Second derivative, from the twice differentiated coefficient row."""
    return poly_eval(spec, z, 2)[2]


def root_window(spec: PolySpec) -> tuple[float, float]:
    """An interval certain to contain every root (Fujiwara bound).

    The bound runs on the exact series coefficients, so the leading index
    is that of the last nonzero one; it is widened by a relative 1e-9 to
    cover its own rounding, then to a power of two.  Returns (0.0, 0.0) when
    the polynomial has no roots to find (constants and the identically zero
    degenerate cases), and (-inf, inf) when the bound exceeds the float
    range.
    """
    from . import intpoly

    return _window(intpoly.trimmed(_exact_series(spec)[0]), spec.kind)


def _window(a: list[int], kind: str) -> tuple[float, float]:
    """root_window on the trimmed exact series a of a polynomial of the
    given kind.  Zero low-order coefficients do not change it."""
    lead = len(a) - 1
    if lead < 1:
        return 0.0, 0.0
    log_lead = math.log(abs(a[lead]))
    z0, h = _ORIGIN[kind]
    try:
        r_u = 2.0 * max(
            (math.exp((math.log(abs(a[lead - j])) - log_lead) / j)
             for j in range(1, lead + 1) if a[lead - j]),
            default=0.0,
        ) * (1.0 + 1e-9) + 1e-12
        # a power of two keeps the exact arithmetic on the window's ends short
        r_u = 2.0 ** math.ceil(math.log2(r_u))
        return z0 - h * r_u, z0 + h * r_u  # inf where h * r_u overflows
    except OverflowError:
        return -math.inf, math.inf


def _bisect(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Midpoints of the brackets [a, b] (f(a) = fa) after bisection, all
    brackets in lockstep with one call of f per step.  Each bracket stops at
    width <= _BISECT_TOL or when its ends are neighbouring floats, and
    collapses onto an exact zero at its midpoint."""
    # a and b hold half of each end: their sum is the midpoint, and it
    # cannot overflow where the ends come near the float range's edge
    a, b, fa = 0.5 * a, 0.5 * b, fa.copy()
    live = np.arange(a.size)
    # the halvings that bring the widest bracket down to _BISECT_TOL, and two
    # more for rounding.  A bracket whose ends become neighbouring floats
    # first (only beyond 2**13, where those are farther apart than
    # _BISECT_TOL) has its midpoint on an end and no longer moves.
    half = float(np.max(b - a, initial=_BISECT_TOL))
    for _ in range(math.ceil(math.log2(half) - math.log2(_BISECT_TOL)) + 3):
        # a collapsed bracket has width 0 and drops out here
        live = live[(b[live] - a[live]) > 0.5 * _BISECT_TOL]
        if live.size == 0:
            break
        mid = a[live] + b[live]
        fm = np.asarray(f(mid), dtype=float)
        mid = 0.5 * mid
        zero = fm == 0.0
        left = ~zero & (fa[live] * fm < 0)
        right = ~zero & ~left
        a[live[zero]] = mid[zero]
        b[live[zero]] = mid[zero]
        b[live[left]] = mid[left]
        a[live[right]] = mid[right]
        fa[live[right]] = fm[right]
    return a + b


def scan_roots(f, lo: float, hi: float, n_sub: int, xs, vals) -> list[float]:
    """Roots of f from its signs at sorted nodes: every node where f is zero,
    and a bisection to 1e-12 absolute of each sign change between
    neighbouring nodes.  f must accept an ndarray.  The nodes are the array
    xs, with vals the values of f there (only their signs are read); lo, hi
    and n_sub describe them (their span and number of gaps) and are not
    read by the scan."""
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


class Interval(NamedTuple):
    """The real numbers between lo and hi.  Each end is open unless
    closed = (lower, upper) marks it closed; an infinite end is never in
    the interval."""

    lo: float
    hi: float
    closed: tuple[bool, bool] = (False, False)

    def __contains__(self, t: float) -> bool:
        if self.lo < t < self.hi:
            return True
        return math.isfinite(t) and ((t == self.lo and self.closed[0])
                                     or (t == self.hi and self.closed[1]))


def _origin_split(a: list[int]) -> tuple[bool, list[int]]:
    """Whether the trimmed exact series a has a root at the series origin
    z0 (u = 0), and a with that root divided out."""
    if a[0]:
        return False, a
    return True, a[next(k for k, c in enumerate(a) if c):]


def _half_line_images(a: list[int], lo: float, hi: float, z0: int, h: int):
    """For Descartes' rule: the polynomials whose positive roots are the
    roots of a (in u) in (lo, hi), when that interval is a half-line or the
    whole line; None for a bounded interval.  Only their signs are read, so
    the end p/q is taken in lowest terms, and a half-line that ends at the
    series origin (for Jacobi (1, inf), for Laguerre (-inf, 0)) needs no
    shift or scaling: its image is a, or a with alternating signs."""
    from . import intpoly

    if math.isinf(lo) and math.isinf(hi):
        return [a, intpoly.reflected(a)]
    if math.isinf(hi):
        p, q = _dyadic_u(lo, z0, h)
    elif math.isinf(lo):
        # the roots u < p/q of a are the roots -u > -p/q of a(-u)
        p, q = _dyadic_u(hi, z0, h)
        a, p = intpoly.reflected(a), -p
    else:
        return None
    if p == 0:
        return [a]
    k = min(p & -p, q)  # their common power of two
    return [intpoly.affine_image(a, p // k, p // k + 1, q // k)]  # t = q*u - p


def _isolate(a: list[int], kind: str, lo: float, hi: float):
    """The certified isolation stage: the roots of the integer series a
    (trimmed, a(0) != 0, of the given kind) in the open interval (lo, hi).

    A half-infinite interval is clamped to the root window, the square-free
    part of a is taken, and its roots there are isolated by
    Vincent-Collins-Akritas bisection in integers.  Returns that square-free
    part, the lazy intpoly.isolate leaves, and z_at(c, k), the float z of
    the leaf end c/2**k; or None when a root of the interval lies beyond
    the float range.
    """
    from . import intpoly

    z0, h = _ORIGIN[kind]
    w_lo, w_hi = _window(a, kind)
    lo, hi = max(lo, w_lo), min(hi, w_hi)
    if not (hi > lo):
        return a, (), None
    a = intpoly.squarefree(a)
    for end, edge in ((hi, _FLOAT_MAX), (lo, -_FLOAT_MAX)):
        if math.isinf(end) and _has_root_beyond(a, *_dyadic_u(edge, z0, h)):
            return None
    lo, hi = max(lo, -_FLOAT_MAX), min(hi, _FLOAT_MAX)
    (p1, q1), (p2, q2) = _dyadic_u(lo, z0, h), _dyadic_u(hi, z0, h)
    den = max(q1, q2)
    p1, p2 = p1 * (den // q1), p2 * (den // q2)

    def z_at(c: int, k: int) -> float:
        # z = z0 + h*(p1 + (p2 - p1)*c/2**k)/den, rounded once
        return (z0 * den * 2 ** k + h * (p1 * 2 ** k + (p2 - p1) * c)) / (den * 2 ** k)

    return a, intpoly.isolate(intpoly.affine_image(a, p1, p2, den)), z_at


def real_roots_in(spec: PolySpec, interval: tuple[float, float]) -> list[float]:
    """All real roots inside the open interval, sorted ascending, each
    distinct root once.  The count is certified; each location is a float
    within 1e-12 of its root, or a neighbouring float where floats are
    sparser than that.

    The test runs on the exact integer series coefficients in u, where
    z = 1 + 2u for Jacobi and z = u for Laguerre.  A root at u = 0 is read
    off the constant term.  Descartes' rule on the image of a half-line on
    (0, inf) certifies most intervals empty with no float evaluation.
    Otherwise the isolation stage (_isolate) brackets each root, and
    scan_roots bisects each isolating interval at float midpoints, reading
    the square-free part's exact sign at each.  A root at an interval end
    is decided exactly, and excluded.  A root of the interval beyond the
    float range raises UnsupportedError; one outside the interval does not.
    """
    from . import intpoly

    lo, hi = float(interval[0]), float(interval[1])
    a = intpoly.trimmed(_exact_series(spec)[0])
    if not (hi > lo) or len(a) < 2:
        return []  # constants, and the zero polynomial, have no roots to find
    z0, h = _ORIGIN[spec.kind]
    at_origin, a = _origin_split(a)
    found = [float(z0)] if at_origin and lo < z0 < hi else []
    images = _half_line_images(a, lo, hi, z0, h)
    if len(a) < 2 or (images is not None and not any(intpoly.variations(b) for b in images)):
        return found
    stage = _isolate(a, spec.kind, lo, hi)
    if stage is None:
        raise UnsupportedError(f"{spec} has a real root beyond the float range")
    a, leaves, z_at = stage
    leaves = list(leaves)
    if not leaves:
        return found
    return sorted(found + _refine(a, leaves, z_at, z0, h))


def has_root_in(spec: PolySpec, intervals) -> bool:
    """Whether the polynomial has a real root in the union of the given
    Intervals, decided exactly and without locating any root.

    Per interval: a closed finite end is a root when the exact sign there
    is zero; a root at the series origin is read off the constant term;
    Descartes' rule on the image of a half-line on (0, inf) settles the
    rest when its sign variations are zero (no root) or odd (a root); only
    otherwise does the isolation stage (_isolate) run, and it stops at the
    first isolated root.  A root beyond the float range counts, so this
    never raises.  Constants and the zero polynomial have no root.
    """
    from . import intpoly

    a = intpoly.trimmed(_exact_series(spec)[0])
    if len(a) < 2:
        return False
    z0, h = _ORIGIN[spec.kind]
    at_origin, b = _origin_split(a)
    for iv in intervals:
        lo, hi = float(iv.lo), float(iv.hi)
        for end, closed in zip((lo, hi), iv.closed):
            if closed and math.isfinite(end) and intpoly.sign_at(a, *_dyadic_u(end, z0, h)) == 0:
                return True
        if not (hi > lo):
            continue
        if at_origin and lo < z0 < hi:
            return True
        images = _half_line_images(b, lo, hi, z0, h)
        if images is not None:
            counts = [intpoly.variations(image) for image in images]
            if any(v % 2 for v in counts):
                return True
            if not any(counts):
                continue
        stage = _isolate(b, spec.kind, lo, hi)
        if stage is None or any(stage[1]):
            return True
    return False


def _has_root_beyond(a: list[int], p: int, q: int) -> bool:
    """Whether the square-free a, with a(0) != 0, has a root u beyond p/q
    (above it for p > 0, below it for p < 0): its reversal, whose roots are
    the 1/u, has one between 0 and q/p."""
    from . import intpoly

    return any(intpoly.isolate(intpoly.affine_image(a[::-1], 0, q if p > 0 else -q, abs(p))))


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


@functools.lru_cache(maxsize=_COEF_CACHE_SIZE)
def has_imaginary_root(spec: PolySpec) -> bool:
    """Whether the polynomial has a root i*s with real s != 0, decided
    exactly on its integer coefficients (intpoly.has_imaginary_root)."""
    from . import intpoly

    return intpoly.has_imaginary_root(_monomial_integers(spec)[0])
