"""The six built-in superpotential families.

Every family has W0 = k0 + m*k1 and W1+- = D+-'/D+-, where each gauge
denominator is a polynomial in one function g of x: D+-(x, m) = P+-_m(g(x)).
The affine part is polynomial in t = g(x) as well: g'**2 = R(t) with deg R
<= 2, and W0*g' = K0(t) + m*K1(t) with deg K0, K1 <= 1.  A family is
therefore one data record, ``FamilyData``, from which one builder derives
the rest:

  g'' = R'(t)/2, k = K(t)/g' and k' = K'(t) - k*g''/g' for k0 and k1;
  W1 = D'/D and W1' = D''/D - W1**2, with D' = P'(g) g' and
      D'' = P''(g) g'**2 + P'(g) g'' (for degree-1 P, D'' = p1 g'');
  the poles, as g^-1 of the real roots of P+- that lie in g(domain): a
      real g is monotonic on the domain, so g(domain) lies between g at
      the domain's ends;
  each finite end e, a root t = g(e) of R, as (e, side, K0(t), K1(t),
      g''(t)): W ~ sigma/(x - e) with sigma = (K0 + m*K1)/g'' places the
      spectral wall and the grid's end, where |W| reaches 100; on an
      infinite side, W has settled: t = 2**52 on a plateau (deg R = 2),
      |W| = 100 where W grows (deg R = 1), and within the kernel's reach;
  the certified witness test, which passes when P+- has no real root in
      the set of t where the family's non-singularity statement forbids one.

For the Xl families both root questions are decided on the exact
coefficients of P+- (polynomials.real_roots_in for the poles; for the
witness polynomials.has_root_in, which only asks whether a root exists, and
has_imaginary_root for Xl-PT-Scarf), so the count of roots is certified, not
sampled; the X1 families' degree-1 P has its root in closed form.
The region is stated once, as a Region (conditions on the constants and
open m-intervals) that the predicate, the sampler and the tests read; the
witness test on the roots of P+- is an independent second encoding.
Xl-PT-Scarf's region has no closed form, so that test is its predicate.
Each real family's forbidden set covers g(domain), so inside the region
no real family has a pole in its domain, and the poles found there are
Xl-PT-Scarf's declared x = 0 puncture alone.
P- is transcribed on its own, not taken as P+ at m - 1, so the translation
identity stays a two-route check.

To add a family, write one function from its constants to a FamilyData and
register it in ``_FAMILIES`` with the names of those constants.  The fields:
domain (finite, (lo, inf) or (-inf, inf)); R, K0 and K1 (coefficient tuples
in ascending powers of t, as above); g, g_deriv and g_inv (the argument of
P, its x-derivative and its inverse on the domain; Xl-PT-Scarf's gives
|x| from |g|); p_plus and p_minus (m -> P+-_m: a pair (p0, p1) for
p0 + p1*t when linear is set, else a PolySpec); forbidden (where the
region allows no real root t of P, as a tuple of polynomials.Interval,
each end open or closed); region (where the family is non-singular, a
Region); expected_ab (the factorization constants, which the built family
carries for run_condition_checks to match); and for a complex family
is_real, punctures (its declared poles) and scan (a test of P that
replaces the real-root test; Xl-PT-Scarf's asks exactly whether P has a
root i*s, real s != 0).

Family tags, in catalog order:

  X1-hyperbolic          W0 = -beta/c*coth(c x) + d/sinh(c x) + m*c*coth(c x)
  X1-radial-oscillator   W0 = omega*x/2 + d/x + m/x
  X1-trigonometric       W0 = -beta/c*tan(c x) + d/cos(c x) - m*c*tan(c x)
  Xl-Poschl-Teller       W0 = -B/sinh(x) + m*coth(x), Jacobi ratio of degree l
  Xl-PT-Scarf            W0 = i*B/cosh(x) + m*tanh(x), Jacobi ratio at i*sinh(x)
  Xl-radial-oscillator   W0 = omega*x/2 + m/x, Laguerre ratio of degree l
"""

from __future__ import annotations

import functools
import math
import sys
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InvalidParameterError,
    ParamSchemaError,
    SamplingError,
    UnsupportedError,
)
from .polynomials import (
    JACOBI,
    LAGUERRE,
    Interval,
    PolySpec,
    has_imaginary_root,
    has_root_in,
    kernel_reach,
    poly_eval,
    real_roots_in,
)
from .superpotential import ParamPoint, SuperpotentialFamily, Verdict

# Parameter boxes the sampler draws from.  Test-coverage choices, not theory:
# margins keep 0.1 clearance from region boundaries and leave room for the
# translates m-1, m-2 that every verification run also evaluates.
_SAMPLER_MARGIN = 0.1
# Largest Xl degree the sampler draws; verification is checked up to here.
_ELL_MAX = 10
# |W| at both grid ends stays under _EDGE_W_CAP: the remainder subtracts
# V = W^2 values, and the cap keeps their rounding eps*W^2 three decades under
# its 1e-9 gate.  On a plateau W's O(1/t) corrections reach eps at _PLATEAU_T.
_EDGE_W_CAP = 1e2
_PLATEAU_T = 2.0 ** 52
# The grid's least distance from a finite end, times a finite domain's width
_INSET = 0.05


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violated: str | None
    scan_clear: bool
    agrees: bool


class Region(NamedTuple):
    """Where a family is non-singular: every condition on its constants holds
    (each a pair (holds, statement)) and m lies in one of the open intervals,
    which statement states.  intervals None: the exact root test decides."""

    conditions: tuple[tuple[bool, str], ...]
    intervals: tuple[Interval, ...] | None
    statement: str


def _region(conditions: tuple, statement: str, intervals: Callable[[], tuple]) -> Region:
    """The Region with the m-intervals that intervals() returns, called only
    where every condition holds: an edge may divide by a constant (c = 0)."""
    return Region(conditions, intervals() if all(h for h, _ in conditions) else (), statement)


@dataclass(frozen=True, slots=True)
class FamilyData:
    """One family at fixed constants, as data (fields: module docstring)."""

    domain: tuple[float, float]
    R: tuple[float, ...]
    K0: tuple[float, ...]
    K1: tuple[float, ...]
    g: Callable
    g_deriv: Callable
    p_plus: Callable
    p_minus: Callable
    region: Region
    expected_ab: tuple[float, float]
    g_inv: Callable | None = None
    forbidden: tuple[Interval, ...] = ()
    linear: bool = False
    is_real: bool = True
    punctures: tuple = ()
    scan: Callable[[PolySpec], bool] | None = None


# The builder: everything the record does not state, in one code path.

def _roots(data: FamilyData, spec, lo: float, hi: float) -> list:
    """Real roots of the polynomial spec, one P+-(m), in the open interval (lo, hi)."""
    if not data.linear:
        return real_roots_in(spec, (lo, hi))
    p0, p1 = spec
    return [-p0 / p1] if p1 != 0.0 and lo < -p0 / p1 < hi else []


def _horner(coef: tuple, t):
    """sum_k coef[k] * t**k by Horner's rule, in plain Python arithmetic."""
    return functools.reduce(lambda acc, c: acc * t + c, reversed(coef))


def _deriv(coef: tuple) -> tuple:
    """The coefficient tuple of the derivative in t."""
    return tuple(k * c for k, c in enumerate(coef))[1:] or (0.0,)


def _log_derivs(data: FamilyData, g_dd: Callable):
    """The evaluator (x, m_values) -> (W1+, W1+', W1-, W1-'), each with one
    row per m: W1 = D'/D and W1' = D''/D - W1**2, with g'' = g_dd(g(x)).
    For the Xl families D, D' and D'' of every distinct P+-(m) come from one
    order-2 kernel call; equal specs (P- at m often equals P+ at m - 1)
    share a row.  The X1 families' degree-1 P is evaluated directly.  The
    polynomial kernel returns float64 for the real families' real g(x) and
    complex128 for the complex family's imaginary one, so W1 keeps the
    family's dtype.  W1 and W1' are formed once per distinct spec and then
    gathered into their (P, m) rows.  Where g(x) is not finite D is nan, and
    where D is zero W1 is not finite: the evaluator neither raises nor warns
    there, and a nan fails every verdict that reads it."""
    g, g_d, linear = data.g, data.g_deriv, data.linear
    pair = (data.p_plus, data.p_minus)

    def w1(x, m_values):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gx = g(x)
            if linear:
                # D'' = p1*g'' alone: P''(g)*g'**2 would be 0*inf = nan
                # wherever g'**2 overflows (cosh(c x) beyond c x = 355)
                coef = np.array([P(m) for P in pair for m in m_values], dtype=float)
                p0, p1 = coef.T.reshape((2, -1) + (1,) * np.ndim(gx))  # one row per (P, m)
                D, D1, D2 = p0 + p1 * gx, p1 * g_d(x), p1 * g_dd(gx)
                rows = slice(None)
            else:
                specs = [P(m) for P in pair for m in m_values]
                distinct = list(dict.fromkeys(specs))
                bad = ~np.isfinite(gx)
                # z = 1 stands in where g(x) is not finite: any finite value
                # would do, and |z| = 1 keeps those points in the series basis
                rows = [distinct.index(s) for s in specs]
                P0, P1, P2 = poly_eval(distinct[0], np.where(bad, 1.0, gx), 2,
                                       more=tuple(distinct[1:]))
                gd = g_d(x)
                D, D1, D2 = np.where(bad, np.nan, P0), P1 * gd, P2 * gd * gd + P1 * g_dd(gx)
            r = D1 / D
            rd = D2 / D - r * r
        r, rd = r[rows], rd[rows]
        k = len(m_values)
        return r[:k], rd[:k], r[k:], rd[k:]

    return w1


def _affine(data: FamilyData, g_dd: Callable):
    """The evaluator x -> (k0, k0', k1, k1'): at t = g(x), k = K(t)/g' and
    k' = K'(t) - k*g''/g', so g and g' are evaluated once for all four."""
    dK0, dK1 = _deriv(data.K0), _deriv(data.K1)

    def affine(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t, gd = data.g(x), data.g_deriv(x)
            ratio = g_dd(t) / gd
            k0, k1 = _horner(data.K0, t) / gd, _horner(data.K1, t) / gd
            return k0, _horner(dK0, t) - k0 * ratio, k1, _horner(dK1, t) - k1 * ratio

    return affine


def _scan_clear(data: FamilyData, m) -> bool:
    """The certified witness test: no root of P+-(m) where the region forbids one."""
    pair = (data.p_plus, data.p_minus)
    if data.scan is not None:
        return all(data.scan(P(m)) for P in pair)
    if data.linear:
        return not any(t in iv for P in pair for t in _roots(data, P(m), -np.inf, np.inf)
                       for iv in data.forbidden)
    return not any(has_root_in(P(m), data.forbidden) for P in pair)


def _verdict(data: FamilyData, m) -> Verdict:
    """The region's verdict at m: the first condition on the constants that
    fails, else whether m lies in an interval (or passes the exact root test)."""
    conditions, intervals, statement = data.region
    for holds, condition in conditions:
        if not holds:
            return Verdict(False, condition)
    inside = _scan_clear(data, m) if intervals is None else any([lo < m < hi for lo, hi, _ in intervals])
    return Verdict(True, None) if inside else Verdict(False, statement)


def _build(name: str, tag: str, params: ParamPoint, data: FamilyData) -> SuperpotentialFamily:
    pair = (data.p_plus, data.p_minus)
    dR = _deriv(data.R)

    def g_dd(t):
        # g'' = R'(g)/2, from g'**2 = R(g)
        return _horner(dR, t) / 2.0

    def poles(m_values):
        # P- at m often equals P+ at m - 1: each distinct spec is solved once
        found = list(data.punctures)
        if data.is_real:
            # g(domain) between g at the domain's ends; + 0.0 turns -0.0 into 0.0
            t_ends = sorted(float(data.g(e)) + 0.0 for e in data.domain)
            specs = dict.fromkeys(P(m) for P in pair for m in m_values)
            found += [float(data.g_inv(t)) for spec in specs for t in _roots(data, spec, *t_ends)]
        return tuple(sorted(found))

    # each finite end e, its inward side, and K0, K1 and g'' at t = g(e),
    # divided past the region gate only: g'' = 0 at X1-hyperbolic's c = 0
    ends = tuple((e, side, _horner(data.K0, t), _horner(data.K1, t), g_dd(t))
                 for e, side in zip(data.domain, (1.0, -1.0)) if math.isfinite(e)
                 for t in (float(data.g(e)),))
    return SuperpotentialFamily(
        name=name, tag=tag, domain=data.domain, params=params, is_real=data.is_real,
        affine=_affine(data, g_dd), w1=_log_derivs(data, g_dd),
        validity_fn=functools.partial(_verdict, data), poles_fn=poles,
        grid_ends_fn=functools.partial(_grid_ends, name, data, ends), ends=ends,
        expected_ab=tuple(float(v) for v in data.expected_ab),
    )


def _grid_ends(name: str, data: FamilyData, ends: tuple, m_values) -> tuple[float, float]:
    """(a, b) of make_grid's window at every m of m_values.  Next to each
    finite end e of ends, W ~ sigma/|x - e| with sigma = (K0 + m*K1)/g'':
    the grid stops max(|sigma|/_EDGE_W_CAP, _INSET*s) from e, s = 1 or a
    finite domain's width.  An infinite side stops at _far_edge."""
    lo, hi = data.domain
    scale = hi - lo if math.isfinite(hi) else 1.0
    near = [e + side * max(max(abs(k0 + m * k1) for m in m_values) / abs(gdd * _EDGE_W_CAP),
                           _INSET * scale)
            for e, side, k0, k1, gdd in ends]
    if math.isfinite(hi):
        return near[0], near[1]
    far = _far_edge(name, data, m_values)
    return (near[0] if near else -far), far


def _far_edge(name: str, data: FamilyData, m_values) -> float:
    """|x| of the grid's edge on an infinite side, where W has settled at
    every m of m_values.  With K = K0 + m*K1 of slope k in t = g(x): where
    deg R = 2, W tends to the plateau k/sqrt(R_2) (W1+ - W1- -> 0), and the
    edge is at t = _PLATEAU_T; a plateau above _EDGE_W_CAP raises.  Where
    deg R = 1, |W| ~ |k|*sqrt(|t/R_1|) reaches _EDGE_W_CAP at the edge.  On
    the Xl families |t| stays within the kernel's reach of every P+-(m).
    Then x = g_inv(t).  A slope whose square overflows raises
    UnsupportedError."""
    k0, k1 = (data.K0 + (0.0,))[1], (data.K1 + (0.0,))[1]
    slope, R = max(abs(k0 + m * k1) for m in m_values), data.R
    if len(R) == 3:
        plateau = slope / R[2] ** 0.5
        if plateau > _EDGE_W_CAP:
            raise InvalidParameterError(f"|W| <= {_EDGE_W_CAP:g} on the plateau", f"{name}: |W| "
                                        f"tends to {plateau:g} on the plateau, above the grid's cap")
        t = _PLATEAU_T
    else:
        try:
            t = _EDGE_W_CAP ** 2 * abs(R[1]) / slope ** 2
        except OverflowError:
            raise UnsupportedError(f"{name}: the slope {slope:g} of W0*g' is outside the float "
                                   f"support: its square overflows") from None
    if not data.linear:
        specs = dict.fromkeys(P(m) for P in (data.p_plus, data.p_minus) for m in m_values)
        t = min([t] + [kernel_reach(spec, not data.is_real) for spec in specs])
    # t > 0 on a plateau; where g'^2 = R_1*t grows, t has the sign of R_1
    return float(data.g_inv(math.copysign(t, R[-1])))


# X1 families: P is p0 + p1*t in t = cosh(c x), x**2 or sin(c x).

def _x1_conditions(tag: str, c: float, d: float) -> tuple:
    """The conditions on X1-hyperbolic's and X1-trigonometric's constants.
    Their m edges divide by 2*c^2, and k0, k1 carry c^2: below about
    1.5e-154, c^2 is subnormal and loses its digits (2*c^2 is 0 below
    about 1e-162), and above about 1.3e154 it is infinite.  That is where
    float64 stops, not the region, so a c > 0 there raises
    UnsupportedError before any edge or expected (a, b) is formed."""
    if c > 0.0 and not sys.float_info.min <= c * c <= sys.float_info.max:
        raise UnsupportedError(
            f"{tag}: c = {c!r} is outside the float support: c^2 is not a normal double")
    return (c > 0.0, "c > 0"), (d != 0.0, "d != 0")


def _x1_hyperbolic(c: float, beta: float, d: float) -> FamilyData:
    conditions = _x1_conditions("X1-hyperbolic", c, d)
    return FamilyData(
        domain=(0.0, np.inf),
        R=(-c * c, 0.0, c * c), K0=(c * d, -beta), K1=(0.0, c * c),
        g=lambda x: np.cosh(c * x),
        g_deriv=lambda x: c * np.sinh(c * x),
        g_inv=lambda t: np.arccosh(t) / c,
        p_plus=lambda m: (-2.0 * beta + c * c * (2.0 * m + 1.0), 2.0 * c * d),
        p_minus=lambda m: (-2.0 * beta + c * c * (2.0 * m - 1.0), 2.0 * c * d),
        linear=True, forbidden=(Interval(1.0, np.inf),),
        region=_region(
            conditions,
            "m < (2*beta - c^2 - 2*c*d)/(2*c^2)" if d < 0.0
            else "m > (2*beta + c^2 - 2*c*d)/(2*c^2)",
            lambda: (Interval(-np.inf, (2.0 * beta - c * c - 2.0 * c * d) / (2.0 * c * c)),)
            if d < 0.0 else (Interval((2.0 * beta + c * c - 2.0 * c * d) / (2.0 * c * c), np.inf),),
        ),
        expected_ab=(c ** 2, beta),
    )


def _x1_radial(omega: float, d: float) -> FamilyData:
    return FamilyData(
        domain=(0.0, np.inf),
        R=(0.0, 4.0), K0=(2.0 * d, omega), K1=(2.0,),
        g=lambda x: x * x,
        g_deriv=lambda x: 2.0 * x,
        g_inv=np.sqrt,
        p_plus=lambda m: (1.0 + 2.0 * d + 2.0 * m, -omega),
        p_minus=lambda m: (-1.0 + 2.0 * d + 2.0 * m, -omega),
        linear=True, forbidden=(Interval(0.0, np.inf),),
        region=Region(((omega > 0.0, "omega > 0"), (d > 0.0, "d > 0")),
                      (Interval(-np.inf, -(1.0 + 2.0 * d) / 2.0),), "m < -(1 + 2*d)/2"),
        expected_ab=(0.0, -omega),
    )


def _x1_trigonometric(c: float, beta: float, d: float) -> FamilyData:
    conditions = _x1_conditions("X1-trigonometric", c, d)

    def intervals():
        # Both denominators keep a fixed sign while sin(c x) sweeps (-1, 1) for
        # m below hi or above lo (in |d|, so for either sign of d), and where
        # their constant terms outweigh their sin(c x) terms: in the band
        # |2*beta + 2*c^2*m| < c^2 - 2*c*|d| between the two, where c > 2|d|.
        hi = (-2.0 * beta - c * c - 2.0 * c * abs(d)) / (2.0 * c * c)
        lo = (-2.0 * beta + c * c + 2.0 * c * abs(d)) / (2.0 * c * c)
        band = c * c - 2.0 * c * abs(d)
        return (Interval(-np.inf, hi), Interval(lo, np.inf)) + (
            (Interval((-band - 2.0 * beta) / (2.0 * c * c), (band - 2.0 * beta) / (2.0 * c * c)),)
            if band > 0.0 else ())

    s1, s2 = ("-", "+") if d > 0.0 else ("+", "-")
    statement = (f"m < (-2*beta - c^2 {s1} 2*c*d)/(2*c^2) or m > (-2*beta + c^2 {s2} 2*c*d)/(2*c^2)"
                 " or |2*beta + 2*c^2*m| < c^2 - 2*c*|d|")
    return FamilyData(
        domain=(-np.pi / (2.0 * c), np.pi / (2.0 * c)) if c > 0.0 else (np.nan, np.nan),
        R=(c * c, 0.0, -c * c), K0=(c * d, -beta), K1=(0.0, -c * c),
        g=lambda x: np.sin(c * x),
        g_deriv=lambda x: c * np.cos(c * x),
        g_inv=lambda t: np.arcsin(t) / c,
        p_plus=lambda m: (2.0 * beta + c * c * (1.0 + 2.0 * m), -2.0 * c * d),
        p_minus=lambda m: (-2.0 * beta + c * c * (1.0 - 2.0 * m), 2.0 * c * d),
        linear=True, forbidden=(Interval(-1.0, 1.0),),
        region=_region(conditions, statement, intervals),
        expected_ab=(-c ** 2, beta),
    )


# Xl families: P is a Jacobi or Laguerre polynomial of degree ell.

def _check_prefactor(tag: str, ell: int, B: float) -> None:
    # ell - 2B - 1 multiplies both W1 ratios; a vanishing prefactor is a
    # degenerate extension, not a singular one, and is rejected outright
    if abs(ell - 2.0 * B - 1.0) < 1e-9:
        raise InvalidParameterError(
            "|ell - 2*B - 1| >= 1e-9",
            f"{tag}: degenerate extension prefactor ell - 2*B - 1 = 0",
        )


def _jacobi_pair(B: float, ell: int) -> dict:
    """P+- of both Xl Poschl-Teller families, and their shared affine part:
    g'**2 = g**2 - 1 and W0*g' = -B + m*g for g = cosh(x) and i*sinh(x)."""
    return dict(
        R=(-1.0, 0.0, 1.0), K0=(-B,), K1=(0.0, 1.0),
        p_plus=lambda m: PolySpec(JACOBI, ell, -B + m - 0.5, -B - m - 1.5),
        p_minus=lambda m: PolySpec(JACOBI, ell, -B + m - 1.5, -B - m - 0.5),
    )


def _xl_poschl_teller(B: float, ell: int) -> FamilyData:
    _check_prefactor("Xl-Poschl-Teller", ell, B)
    return FamilyData(
        domain=(0.0, np.inf), **_jacobi_pair(B, ell),
        g=np.cosh, g_deriv=np.sinh, g_inv=np.arccosh,
        forbidden=(Interval(-np.inf, -1.0, (False, True)),
                   Interval(1.0, np.inf, (True, False))),
        region=Region(((B < -0.5, "B < -1/2"),), (Interval((1.0 + 2.0 * B) / 2.0, -(1.0 + 2.0 * B) / 2.0),),
                      "(1 + 2*B)/2 < m < -(1 + 2*B)/2"),
        expected_ab=(1.0, 0.0),
    )


# Xl-PT-Scarf's P has an imaginary argument, so apart from the declared x = 0
# puncture the family is singular exactly where P+- has a root i*s, s != 0: a
# region with no closed form, whose predicate is the exact root test itself.
_SCARF_REGION = Region((), None, "P+- has no root i*s with real s != 0")


def _xl_pt_scarf(B: float, ell: int) -> FamilyData:
    _check_prefactor("Xl-PT-Scarf", ell, B)
    return FamilyData(
        domain=(-np.inf, np.inf), **_jacobi_pair(B, ell),
        g=lambda x: 1j * np.sinh(np.asarray(x, dtype=float)),
        g_deriv=lambda x: 1j * np.cosh(np.asarray(x, dtype=float)),
        g_inv=lambda t: np.arcsinh(abs(t)),  # |x| from |g| = sinh|x|; no pole reads it
        region=_SCARF_REGION,
        expected_ab=(1.0, 0.0), is_real=False, punctures=(0.0,),
        scan=lambda spec: not has_imaginary_root(spec),
    )


def _xl_radial(omega: float, ell: int) -> FamilyData:
    return FamilyData(
        domain=(0.0, np.inf),
        R=(0.0, -2.0 * omega), K0=(0.0, omega), K1=(-omega,),
        g=lambda x: -omega * np.asarray(x, dtype=float) ** 2 / 2.0,
        g_deriv=lambda x: -omega * np.asarray(x, dtype=float),
        g_inv=lambda u: np.sqrt(-2.0 * u / omega),
        p_plus=lambda m: PolySpec(LAGUERRE, ell, -m - 1.5),
        p_minus=lambda m: PolySpec(LAGUERRE, ell, -m - 0.5),
        forbidden=(Interval(-np.inf, 0.0, (False, True)),),
        # m < -1/2 keeps both Laguerre parameters above -1, so every root
        # lies in (0, inf), which the argument -omega*x^2/2 never reaches
        region=Region(((omega > 0.0, "omega > 0"),), (Interval(-np.inf, -0.5),), "m < -1/2"),
        expected_ab=(0.0, -omega),
    )


# tag -> (the constants its record function takes, in order; the function)
_FAMILIES = {
    "X1-hyperbolic": (("c", "beta", "d"), _x1_hyperbolic),
    "X1-radial-oscillator": (("omega", "d"), _x1_radial),
    "X1-trigonometric": (("c", "beta", "d"), _x1_trigonometric),
    "Xl-Poschl-Teller": (("B", "ell"), _xl_poschl_teller),
    "Xl-PT-Scarf": (("B", "ell"), _xl_pt_scarf),
    "Xl-radial-oscillator": (("omega", "ell"), _xl_radial),
}

FAMILY_TAGS = tuple(_FAMILIES)

REAL_TAGS = tuple(t for t in FAMILY_TAGS if t != "Xl-PT-Scarf")


def family_data(tag: str, params: ParamPoint) -> FamilyData:
    """The tagged family's data record; raises as get_family does."""
    if tag not in _FAMILIES:
        raise UnsupportedError(f"unknown family tag {tag!r}; known: {FAMILY_TAGS}")
    names, record = _FAMILIES[tag]
    missing = [n for n in names if getattr(params, n) is None]
    if missing:
        raise ParamSchemaError(f"family {tag} needs constants {missing}")
    values = [(int if n == "ell" else float)(getattr(params, n)) for n in names]
    if names[-1] == "ell" and values[-1] == 0:
        raise UnsupportedError(f"{tag}: ell = 0 is a degenerate extension")
    return record(*values)


def get_family(tag: str, params: ParamPoint) -> SuperpotentialFamily:
    """Build the tagged family at the given parameters, with its expected
    factorization constants as expected_ab.

    Raises ParamSchemaError for missing constants, UnsupportedError for an
    unknown tag, ell = 0 or an X1 c > 0 whose c^2 is not a finite normal
    double, InvalidParameterError for the degenerate PT-Scarf prefactor.
    """
    data = family_data(tag, params)
    constants = ", ".join(f"{n}={float(getattr(params, n)):g}" for n in _FAMILIES[tag][0])
    return _build(f"{tag}({constants})", tag, params, data)


def validity_witness(tag: str, params: ParamPoint) -> ValidityReport:
    """Analytic non-singularity verdict, cross-checked by the independent,
    certified test on the roots of P+- (belt and braces: the two must
    agree).  Xl-PT-Scarf's predicate is that test, so there the cross-check
    is not independent and `agrees` always holds."""
    data = family_data(tag, params)
    verdict = _verdict(data, params.m)
    clear = _scan_clear(data, params.m)
    return ValidityReport(verdict.valid, verdict.violated, clear, clear == verdict.valid)


def _sampler_rng(tag: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _draw_params(tag: str, rng: np.random.Generator) -> tuple[ParamPoint, FamilyData]:
    """One draw from the tag's box and its record: the constants, then m in
    one interval of the region, with m and m - 2 the margin inside it."""
    u, ell = rng.uniform, lambda: int(rng.integers(1, _ELL_MAX + 1))
    side = 0  # which interval of the region
    if tag == "X1-hyperbolic":
        c, beta = u(0.5, 2.0), u(-3.0, 3.0)
        constants = dict(c=c, beta=beta, d=u(-3.0, -0.3) if rng.integers(0, 2) == 0 else u(0.3, 3.0))
    elif tag == "X1-radial-oscillator":
        constants = dict(omega=u(0.5, 3.0), d=u(0.3, 3.0))
    elif tag == "X1-trigonometric":
        c, beta = u(0.5, 2.0), u(-3.0, 3.0)
        constants = dict(c=c, beta=beta, d=(1.0 if rng.integers(0, 2) == 0 else -1.0) * u(0.3, 3.0))
        side = int(rng.integers(0, 2))
    elif tag == "Xl-Poschl-Teller":
        # B <= -1.7 keeps the m window wider than 2.2: m, m-1, m-2 and the margin
        B, fraction = u(-4.0, -1.7), rng.random()
        constants = dict(B=B, ell=ell())
    elif tag == "Xl-radial-oscillator":
        fraction = rng.random()
        constants = dict(omega=u(0.5, 3.0), ell=ell())
    else:  # Xl-PT-Scarf, whose region has no edges; family_data rejects an unknown tag
        p = ParamPoint(m=u(-2.0, 2.0), B=u(-4.0, -0.6), ell=ell())
        return p, family_data(tag, p)
    data = family_data(tag, ParamPoint(m=0.0, **constants))
    iv = data.region.intervals[side]
    lo, hi = iv.lo + 2.0 + _SAMPLER_MARGIN, iv.hi - _SAMPLER_MARGIN
    if tag.startswith("X1-"):
        # a step past the margin from the interval's one finite edge
        step = u(0.0, 3.0)
        m = hi - step if np.isinf(lo) else lo + step
    else:
        # uniform on (lo, hi), a half-line cut at m = -4: the fraction was
        # drawn before the constants that fix lo and hi, and lo + (hi - lo) *
        # rng.random() is rng.uniform(lo, hi) bit for bit
        lo = max(lo, -4.0)
        m = lo + (hi - lo) * fraction
    return ParamPoint(m=m, **constants), data


def sample_valid_params(tag: str, count: int, seed: int) -> list[ParamPoint]:
    """Deterministic valid parameter points: each family's box of constants,
    then m in its region with m and m - 2 at least 0.1 from every edge.
    Validity is enforced at m, m-1 and m-2, which every verification reads."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _sampler_rng(tag, seed)
    out: list[ParamPoint] = []
    rejections = 0
    while len(out) < count:
        p, data = _draw_params(tag, rng)
        if all(_verdict(data, p.m - k).valid for k in (0, 1, 2)):
            out.append(p)
        else:
            rejections += 1
            if rejections > 10_000:
                raise SamplingError(
                    f"{tag}: rejection budget exhausted; region empty or razor-thin"
                )
    return out
