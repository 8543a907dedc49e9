"""The six built-in superpotential families.

Every family has W0 = k0 + m*k1 and W1+- = D+-'/D+-, where each gauge
denominator is a polynomial in one function g of x: D+-(x, m) = P+-_m(g(x)).
A family is therefore one data record, ``FamilyData``, from which one builder
derives the rest:

  W1 = D'/D and W1' = D''/D - W1**2, with D' = P'(g) g' and
      D'' = P''(g) g'**2 + P'(g) g'' (for degree-1 P, D'' = p1 g'');
  the poles, as g^-1 of the real roots of P+- that lie in g(domain);
  the certified witness test, which passes when every real root of P+- is
      one the family's non-singularity statement allows.

For the Xl families both root questions are decided on the exact
coefficients of P+- (polynomials.real_roots_in, and has_imaginary_root for
Xl-PT-Scarf), so the count of roots is certified, not sampled; the X1
families' degree-1 P has its root in closed form.
The region is thus encoded twice, as a strict-inequality predicate in m and
as that test on the roots of P+-.  P- is transcribed on its own, not taken
as P+ at m - 1, so the translation identity stays a two-route check.

To add a family, write one function from its constants to a FamilyData and
register it in ``_FAMILIES`` with the names of those constants.  The fields:
domain; k0, k0_deriv, k1, k1_deriv (the affine part); g, g_deriv, g_deriv2
and g_inv (the argument of P, its x-derivatives and its inverse on the
domain); g_range (g(domain), where a real root of P is a pole); p_plus and
p_minus (m -> P+-_m: a pair (p0, p1) for p0 + p1*t when linear is set, else
a PolySpec); root_allowed (t -> whether the region allows a real root t of
P); validity (the analytic predicate, m -> Verdict); expected_ab (the
factorization constants); and for a complex family is_real, punctures (its
declared poles) and scan (a test of P that replaces the real-root test;
Xl-PT-Scarf's asks exactly whether P has a root i*s with real s != 0).

Family tags, in catalog order:

  X1-hyperbolic          W0 = -beta/c*coth(c x) + d/sinh(c x) + m*c*coth(c x)
  X1-radial-oscillator   W0 = omega*x/2 + d/x + m/x
  X1-trigonometric       W0 = -beta/c*tan(c x) + d/cos(c x) - m*c*tan(c x)
  Xl-Poschl-Teller       W0 = -B/sinh(x) + m*coth(x), Jacobi ratio of degree l
  Xl-PT-Scarf            W0 = i*B/cosh(x) + m*tanh(x), Jacobi ratio at i*sinh(x)
  Xl-radial-oscillator   W0 = omega*x/2 + m/x, Laguerre ratio of degree l
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

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
    PolySpec,
    has_imaginary_root,
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


@dataclass(frozen=True)
class CatalogEntry:
    """A parameter-bound family plus its expected factorization constants."""

    family: SuperpotentialFamily
    expected_a: float
    expected_b: float
    section_tag: str


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violated: str | None
    scan_clear: bool
    agrees: bool


@dataclass(frozen=True)
class FamilyData:
    """One family at fixed constants, as data (fields: module docstring)."""

    domain: tuple[float, float]
    k0: Callable
    k0_deriv: Callable
    k1: Callable
    k1_deriv: Callable
    g: Callable
    g_deriv: Callable
    g_deriv2: Callable
    p_plus: Callable
    p_minus: Callable
    validity: Callable[[float], Verdict]
    expected_ab: tuple[float, float]
    g_inv: Callable | None = None
    g_range: tuple[float, float] | None = None
    root_allowed: Callable[[float], bool] | None = None
    linear: bool = False
    is_real: bool = True
    punctures: tuple = ()
    scan: Callable[[PolySpec], bool] | None = None


def _first_violated(*conditions) -> Verdict:
    """Verdict of the first (holds, statement) pair that fails, else valid."""
    for holds, statement in conditions:
        if not holds:
            return Verdict(False, statement)
    return Verdict(True, None)


# The builder: everything the record does not state, in one code path.

def _roots(data: FamilyData, P: Callable, m, lo: float, hi: float) -> list:
    """Real roots of P(m) in the open interval (lo, hi)."""
    if not data.linear:
        return real_roots_in(P(m), (lo, hi))
    p0, p1 = P(m)
    return [-p0 / p1] if p1 != 0.0 and lo < -p0 / p1 < hi else []


def _log_derivs(data: FamilyData, P: Callable):
    """(D, W1 = D'/D, W1' = D''/D - W1**2), each from one kernel call.  The
    polynomial kernel returns complex values; real families drop their
    exactly zero imaginary part.  Where g(x) is not finite D is nan, and
    where D is zero W1 is not finite: the evaluators never raise there, so
    the grid's edge probe can test many abscissae in one call."""
    g, g_d, g_dd, linear = data.g, data.g_deriv, data.g_deriv2, data.linear
    real = data.is_real and not linear

    def derivatives(x, m, order):
        # [D, D', ...] up to the given order
        s, gx = P(m), g(x)
        if linear:
            out = [s[0] + s[1] * gx]
            if order >= 1:
                out.append(s[1] * g_d(x))
            if order >= 2:
                # D'' = p1*g'' alone: P''(g)*g'**2 would be 0*inf = nan
                # wherever g'**2 overflows (cosh(c x) beyond c x = 355)
                out.append(s[1] * g_dd(x))
            return out
        bad = ~np.isfinite(gx)
        # z = 1 stands in where g(x) is not finite: any finite value would
        # do, and |z| = 1 keeps those points in the series basis
        vals = poly_eval(s, np.where(bad, 1.0, gx), order)
        vals = (vals,) if order == 0 else vals
        out = [np.where(bad, np.nan, vals[0])]
        if order >= 1:
            gd = g_d(x)
            out.append(vals[1] * gd)
        if order >= 2:
            out.append(vals[2] * gd * gd + vals[1] * g_dd(x))
        return out

    def den(x, m):
        D = derivatives(x, m, 0)[0]
        return D.real if real else D

    def w1(x, m):
        D, D1 = derivatives(x, m, 1)
        r = D1 / D
        return r.real if real else r

    def w1_deriv(x, m):
        D, D1, D2 = derivatives(x, m, 2)
        r = D1 / D
        out = D2 / D - r * r
        return out.real if real else out

    return den, w1, w1_deriv


def _build(name: str, tag: str, params: ParamPoint, data: FamilyData) -> SuperpotentialFamily:
    pair = (data.p_plus, data.p_minus)

    def poles(m):
        found = list(data.punctures)
        if data.g_range is not None:
            found += [float(data.g_inv(t)) for P in pair for t in _roots(data, P, m, *data.g_range)]
        return tuple(sorted(found))

    def scan_clear(m):
        if data.scan is not None:
            return all(data.scan(P(m)) for P in pair)
        return all(data.root_allowed(t) for P in pair for t in _roots(data, P, m, -np.inf, np.inf))

    den_p, w1p, w1pd = _log_derivs(data, data.p_plus)
    den_m, w1m, w1md = _log_derivs(data, data.p_minus)
    return SuperpotentialFamily(
        name=name, tag=tag, domain=data.domain, params=params, is_real=data.is_real,
        k0=data.k0, k0_deriv=data.k0_deriv, k1=data.k1, k1_deriv=data.k1_deriv,
        w1plus=w1p, w1plus_deriv=w1pd, w1minus=w1m, w1minus_deriv=w1md,
        denom_plus=den_p, denom_minus=den_m,
        validity_fn=data.validity, poles_fn=poles, scan_clear_fn=scan_clear,
    )


# X1 families: P is p0 + p1*t in t = cosh(c x), x**2 or sin(c x).

def _x1_hyperbolic(c: float, beta: float, d: float) -> FamilyData:
    thr_neg = (2.0 * beta - c * c - 2.0 * c * d) / (2.0 * c * c)
    thr_pos = (2.0 * beta + c * c - 2.0 * c * d) / (2.0 * c * c)

    def k0(x):
        sh = np.sinh(c * x)
        return -beta / c * np.cosh(c * x) / sh + d / sh

    return FamilyData(
        domain=(0.0, np.inf),
        k0=k0,
        k0_deriv=lambda x: (beta - c * d * np.cosh(c * x)) / np.square(np.sinh(c * x)),
        k1=lambda x: c * np.cosh(c * x) / np.sinh(c * x),
        k1_deriv=lambda x: -c * c / np.square(np.sinh(c * x)),
        g=lambda x: np.cosh(c * x),
        g_deriv=lambda x: c * np.sinh(c * x),
        g_deriv2=lambda x: c * c * np.cosh(c * x),
        g_inv=lambda t: np.arccosh(t) / c, g_range=(1.0, np.inf),
        p_plus=lambda m: (-2.0 * beta + c * c * (2.0 * m + 1.0), 2.0 * c * d),
        p_minus=lambda m: (-2.0 * beta + c * c * (2.0 * m - 1.0), 2.0 * c * d),
        linear=True, root_allowed=lambda t: t <= 1.0,
        validity=lambda m: _first_violated(
            (c > 0.0, "c > 0"),
            (d != 0.0, "d != 0"),
            (m < thr_neg, "m < (2*beta - c^2 - 2*c*d)/(2*c^2)") if d < 0.0
            else (m > thr_pos, "m > (2*beta + c^2 - 2*c*d)/(2*c^2)"),
        ),
        expected_ab=(c ** 2, beta),
    )


def _x1_radial(omega: float, d: float) -> FamilyData:
    return FamilyData(
        domain=(0.0, np.inf),
        k0=lambda x: omega * x / 2.0 + d / x,
        k0_deriv=lambda x: omega / 2.0 - d / (x * x),
        k1=lambda x: 1.0 / x,
        k1_deriv=lambda x: -1.0 / (x * x),
        g=lambda x: x * x,
        g_deriv=lambda x: 2.0 * x,
        g_deriv2=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
        g_inv=np.sqrt, g_range=(0.0, np.inf),
        p_plus=lambda m: (1.0 + 2.0 * d + 2.0 * m, -omega),
        p_minus=lambda m: (-1.0 + 2.0 * d + 2.0 * m, -omega),
        linear=True, root_allowed=lambda t: t <= 0.0,
        validity=lambda m: _first_violated(
            (omega > 0.0, "omega > 0"),
            (d > 0.0, "d > 0"),
            (m < -(1.0 + 2.0 * d) / 2.0, "m < -(1 + 2*d)/2"),
        ),
        expected_ab=(0.0, -omega),
    )


def _x1_trigonometric(c: float, beta: float, d: float) -> FamilyData:
    half_width = np.pi / (2.0 * c)
    # Both denominators keep a fixed sign while sin(c x) sweeps (-1, 1); in
    # |d| the two edges of that region read the same for either sign of d.
    hi = (-2.0 * beta - c * c - 2.0 * c * abs(d)) / (2.0 * c * c)
    lo = (-2.0 * beta + c * c + 2.0 * c * abs(d)) / (2.0 * c * c)
    s1, s2 = ("-", "+") if d > 0.0 else ("+", "-")
    statement = f"m < (-2*beta - c^2 {s1} 2*c*d)/(2*c^2) or m > (-2*beta + c^2 {s2} 2*c*d)/(2*c^2)"

    def k0(x):
        cs = np.cos(c * x)
        return -beta / c * np.sin(c * x) / cs + d / cs

    return FamilyData(
        domain=(-half_width, half_width),
        k0=k0,
        k0_deriv=lambda x: (-beta + c * d * np.sin(c * x)) / np.square(np.cos(c * x)),
        k1=lambda x: -c * np.sin(c * x) / np.cos(c * x),
        k1_deriv=lambda x: -c * c / np.square(np.cos(c * x)),
        g=lambda x: np.sin(c * x),
        g_deriv=lambda x: c * np.cos(c * x),
        g_deriv2=lambda x: -c * c * np.sin(c * x),
        g_inv=lambda t: np.arcsin(t) / c, g_range=(-1.0, 1.0),
        p_plus=lambda m: (2.0 * beta + c * c * (1.0 + 2.0 * m), -2.0 * c * d),
        p_minus=lambda m: (-2.0 * beta + c * c * (1.0 - 2.0 * m), 2.0 * c * d),
        linear=True, root_allowed=lambda t: abs(t) >= 1.0,
        validity=lambda m: _first_violated(
            (c > 0.0, "c > 0"), (d != 0.0, "d != 0"), (m < hi or m > lo, statement)),
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


def _xl_poschl_teller(B: float, ell: int) -> FamilyData:
    _check_prefactor("Xl-Poschl-Teller", ell, B)
    return FamilyData(
        domain=(0.0, np.inf),
        k0=lambda x: -B / np.sinh(x),
        k0_deriv=lambda x: B * np.cosh(x) / np.square(np.sinh(x)),
        k1=lambda x: np.cosh(x) / np.sinh(x),
        k1_deriv=lambda x: -1.0 / np.square(np.sinh(x)),
        g=np.cosh, g_deriv=np.sinh, g_deriv2=np.cosh, g_inv=np.arccosh,
        g_range=(1.0, np.inf),
        p_plus=lambda m: PolySpec(JACOBI, ell, -B + m - 0.5, -B - m - 1.5),
        p_minus=lambda m: PolySpec(JACOBI, ell, -B + m - 1.5, -B - m - 0.5),
        root_allowed=lambda t: -1.0 < t < 1.0,
        validity=lambda m: _first_violated(
            (B < -0.5, "B < -1/2"),
            ((1.0 + 2.0 * B) / 2.0 < m < -(1.0 + 2.0 * B) / 2.0,
             "(1 + 2*B)/2 < m < -(1 + 2*B)/2"),
        ),
        expected_ab=(1.0, 0.0),
    )


def _xl_pt_scarf(B: float, ell: int) -> FamilyData:
    _check_prefactor("Xl-PT-Scarf", ell, B)

    def g(x):
        return 1j * np.sinh(np.asarray(x, dtype=float))

    # Non-singular on the whole real line apart from the declared x = 0
    # puncture: the argument of P is purely imaginary, so no real root of P
    # maps into the domain, and the witness asks for roots i*s, s != 0.
    return FamilyData(
        domain=(-np.inf, np.inf),
        k0=lambda x: 1j * B / np.cosh(x),
        k0_deriv=lambda x: -1j * B * np.sinh(x) / np.square(np.cosh(x)),
        k1=np.tanh,
        k1_deriv=lambda x: 1.0 / np.square(np.cosh(x)),
        g=g, g_deriv=lambda x: 1j * np.cosh(np.asarray(x, dtype=float)), g_deriv2=g,
        p_plus=lambda m: PolySpec(JACOBI, ell, -B + m - 0.5, -B - m - 1.5),
        p_minus=lambda m: PolySpec(JACOBI, ell, -B + m - 1.5, -B - m - 0.5),
        validity=lambda m: Verdict(True, None), expected_ab=(1.0, 0.0),
        is_real=False, punctures=(0.0,), scan=lambda spec: not has_imaginary_root(spec),
    )


def _xl_radial(omega: float, ell: int) -> FamilyData:
    return FamilyData(
        domain=(0.0, np.inf),
        k0=lambda x: omega * x / 2.0,
        k0_deriv=lambda x: omega / 2.0 * np.ones_like(np.asarray(x, dtype=float)),
        k1=lambda x: 1.0 / x,
        k1_deriv=lambda x: -1.0 / (x * x),
        g=lambda x: -omega * np.asarray(x, dtype=float) ** 2 / 2.0,
        g_deriv=lambda x: -omega * np.asarray(x, dtype=float),
        g_deriv2=lambda x: -omega * np.ones_like(np.asarray(x, dtype=float)),
        g_inv=lambda u: np.sqrt(-2.0 * u / omega), g_range=(-np.inf, 0.0),
        p_plus=lambda m: PolySpec(LAGUERRE, ell, -m - 1.5),
        p_minus=lambda m: PolySpec(LAGUERRE, ell, -m - 0.5),
        root_allowed=lambda t: t > 0.0,
        # m < -1/2 keeps both Laguerre parameters above -1, so every root
        # lies in (0, inf), which the argument -omega*x^2/2 never reaches
        validity=lambda m: _first_violated((omega > 0.0, "omega > 0"), (m < -0.5, "m < -1/2")),
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


def get_family(tag: str, params: ParamPoint) -> CatalogEntry:
    """Build the tagged family at the given parameters.

    Raises ParamSchemaError for missing constants, UnsupportedError for an
    unknown tag or ell = 0, InvalidParameterError for the degenerate
    PT-Scarf prefactor.
    """
    data = family_data(tag, params)
    constants = ", ".join(f"{n}={float(getattr(params, n)):g}" for n in _FAMILIES[tag][0])
    a, b = data.expected_ab
    return CatalogEntry(family=_build(f"{tag}({constants})", tag, params, data),
                        expected_a=float(a), expected_b=float(b), section_tag=tag)


def validity_witness(tag: str, params: ParamPoint, cross_check: bool = True) -> ValidityReport:
    """Analytic non-singularity verdict, optionally cross-checked by the
    independent, certified test on the roots of P+- (belt and braces: the
    two must agree)."""
    family = get_family(tag, params).family
    verdict = family.validity(params.m)
    if not cross_check:
        return ValidityReport(verdict.valid, verdict.violated, verdict.valid, True)
    clear = family.scan_clear(params.m)
    return ValidityReport(verdict.valid, verdict.violated, clear, clear == verdict.valid)


def _sampler_rng(tag: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _draw_params(tag: str, rng: np.random.Generator) -> ParamPoint:
    u = rng.uniform
    if tag == "X1-hyperbolic":
        c = u(0.5, 2.0)
        beta = u(-3.0, 3.0)
        if rng.integers(0, 2) == 0:
            d = u(-3.0, -0.3)
            thr = (2.0 * beta - c * c - 2.0 * c * d) / (2.0 * c * c)
            m = thr - _SAMPLER_MARGIN - u(0.0, 3.0)
        else:
            d = u(0.3, 3.0)
            thr = (2.0 * beta + c * c - 2.0 * c * d) / (2.0 * c * c)
            m = thr + 2.0 + _SAMPLER_MARGIN + u(0.0, 3.0)
        return ParamPoint(m=m, c=c, beta=beta, d=d)
    if tag == "X1-radial-oscillator":
        omega = u(0.5, 3.0)
        d = u(0.3, 3.0)
        thr = -(1.0 + 2.0 * d) / 2.0
        return ParamPoint(m=thr - _SAMPLER_MARGIN - u(0.0, 3.0), omega=omega, d=d)
    if tag == "X1-trigonometric":
        c = u(0.5, 2.0)
        beta = u(-3.0, 3.0)
        sgn = 1.0 if rng.integers(0, 2) == 0 else -1.0
        d = sgn * u(0.3, 3.0)
        hi = (-2.0 * beta - c * c - sgn * 2.0 * c * abs(d)) / (2.0 * c * c)
        lo = (-2.0 * beta + c * c + sgn * 2.0 * c * abs(d)) / (2.0 * c * c)
        if rng.integers(0, 2) == 0:
            m = hi - _SAMPLER_MARGIN - u(0.0, 3.0)
        else:
            m = lo + 2.0 + _SAMPLER_MARGIN + u(0.0, 3.0)
        return ParamPoint(m=m, c=c, beta=beta, d=d)
    if tag == "Xl-Poschl-Teller":
        # B <= -1.7 keeps the m window wider than 2.2, leaving room for the
        # translates m-1, m-2 plus the sampling margin.
        B = u(-4.0, -1.7)
        lo = (1.0 + 2.0 * B) / 2.0
        hi = -lo
        m = u(lo + 2.0 + _SAMPLER_MARGIN, hi - _SAMPLER_MARGIN)
        return ParamPoint(m=m, B=B, ell=int(rng.integers(1, _ELL_MAX + 1)))
    if tag == "Xl-PT-Scarf":
        return ParamPoint(m=u(-2.0, 2.0), B=u(-4.0, -0.6), ell=int(rng.integers(1, _ELL_MAX + 1)))
    if tag == "Xl-radial-oscillator":
        return ParamPoint(m=u(-4.0, -0.5 - _SAMPLER_MARGIN), omega=u(0.5, 3.0),
                          ell=int(rng.integers(1, _ELL_MAX + 1)))
    raise UnsupportedError(f"unknown family tag {tag!r}")


def sample_valid_params(tag: str, count: int, seed: int) -> list[ParamPoint]:
    """Deterministic valid parameter points, margin 0.1 from region borders.

    Validity is enforced at m, m-1 and m-2 because verification runs always
    evaluate those translates.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _sampler_rng(tag, seed)
    out: list[ParamPoint] = []
    rejections = 0
    while len(out) < count:
        p = _draw_params(tag, rng)
        validity = family_data(tag, p).validity
        if all(validity(p.m - k).valid for k in (0, 1, 2)):
            out.append(p)
        else:
            rejections += 1
            if rejections > 10_000:
                raise SamplingError(
                    f"{tag}: rejection budget exhausted; region empty or razor-thin"
                )
    return out
