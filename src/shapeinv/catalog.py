"""The six built-in superpotential families.

Each builder transcribes the family's W1+/W1- expressions literally (W1- is
its own formula, not W1+ shifted, so the translation identity is a real
two-route check), wires analytic x-derivatives through the gauge
denominators D (W1 = D'/D, W1' = D''/D - W1**2), and encodes the family's
non-singularity region twice: as a strict-inequality predicate and as an
independent numeric root scan.

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

import numpy as np

from .errors import (
    InvalidParameterError,
    ParamSchemaError,
    PoleError,
    SamplingError,
    UnsupportedError,
)
from .polynomials import (
    JACOBI,
    LAGUERRE,
    PolySpec,
    monomial_coefficients,
    poly_deriv,
    poly_deriv2,
    poly_eval,
    real_roots_in,
    root_window,
    scan_roots,
)
from .superpotential import ParamPoint, SuperpotentialFamily, Verdict

FAMILY_TAGS = (
    "X1-hyperbolic",
    "X1-radial-oscillator",
    "X1-trigonometric",
    "Xl-Poschl-Teller",
    "Xl-PT-Scarf",
    "Xl-radial-oscillator",
)

REAL_TAGS = tuple(t for t in FAMILY_TAGS if t != "Xl-PT-Scarf")

# Parameter boxes the sampler draws from.  Test-coverage choices, not theory:
# margins keep 0.1 clearance from region boundaries and leave room for the
# translates m-1, m-2 that every verification run also evaluates.
_SAMPLER_MARGIN = 0.1
_SCAN_POINTS = 1 << 14
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


def _need(params: ParamPoint, tag: str, *names: str) -> list:
    missing = [n for n in names if getattr(params, n) is None]
    if missing:
        raise ParamSchemaError(f"family {tag} needs constants {missing}")
    return [getattr(params, n) for n in names]


def _raise_on_zero(den, x):
    arr = np.asarray(den)
    zero = arr == 0
    if np.any(zero):
        xa = np.broadcast_to(np.asarray(x, dtype=float), arr.shape)
        raise PoleError(float(xa[zero].flat[0]))


def _log_deriv_pair(den, den_d, den_dd):
    """(W1, W1') from a gauge denominator and its first two x-derivatives."""

    def w1(x, m):
        D = den(x, m)
        _raise_on_zero(D, x)
        return den_d(x, m) / D

    def w1_deriv(x, m):
        D = den(x, m)
        _raise_on_zero(D, x)
        r = den_d(x, m) / D
        return den_dd(x, m) / D - r * r

    return w1, w1_deriv


def _scan_has_sign_change(fn, lo: float, hi: float) -> bool:
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    vals = np.asarray(fn(xs))
    if np.iscomplexobj(vals):
        vals = vals.real
    sign = np.sign(vals)
    return bool(np.any(sign[:-1] * sign[1:] < 0) or np.any(vals == 0.0))


# ----------------------------------------------------------------------
# X1 families: rational denominators in cosh / x**2 / sin
# ----------------------------------------------------------------------

def _build_x1_hyperbolic(p: ParamPoint) -> SuperpotentialFamily:
    c, beta, d = (float(v) for v in _need(p, "X1-hyperbolic", "c", "beta", "d"))

    def k0(x):
        sh = np.sinh(c * x)
        return -beta / c * np.cosh(c * x) / sh + d / sh

    def k0_deriv(x):
        sh = np.sinh(c * x)
        return (beta - c * d * np.cosh(c * x)) / (sh * sh)

    def k1(x):
        return c * np.cosh(c * x) / np.sinh(c * x)

    def k1_deriv(x):
        sh = np.sinh(c * x)
        return -c * c / (sh * sh)

    def den_plus(x, m):
        return -2.0 * beta + c * c * (2.0 * m + 1.0) + 2.0 * c * d * np.cosh(c * x)

    def den_minus(x, m):
        return -2.0 * beta + c * c * (2.0 * m - 1.0) + 2.0 * c * d * np.cosh(c * x)

    def den_d(x, m):
        return 2.0 * c * c * d * np.sinh(c * x)

    def den_dd(x, m):
        return 2.0 * c ** 3 * d * np.cosh(c * x)

    w1p, w1pd = _log_deriv_pair(den_plus, den_d, den_dd)
    w1m, w1md = _log_deriv_pair(den_minus, den_d, den_dd)

    thr_neg = (2.0 * beta - c * c - 2.0 * c * d) / (2.0 * c * c)
    thr_pos = (2.0 * beta + c * c - 2.0 * c * d) / (2.0 * c * c)

    def validity(m):
        if not c > 0.0:
            return Verdict(False, "c > 0")
        if d == 0.0:
            return Verdict(False, "d != 0")
        if d < 0.0:
            if m < thr_neg:
                return Verdict(True, None)
            return Verdict(False, "m < (2*beta - c^2 - 2*c*d)/(2*c^2)")
        if m > thr_pos:
            return Verdict(True, None)
        return Verdict(False, "m > (2*beta + c^2 - 2*c*d)/(2*c^2)")

    def poles(m):
        # cosh(c x) = t0 has an x > 0 solution iff t0 > 1
        out = []
        for shift in (+1.0, -1.0):
            t0 = (2.0 * beta - c * c * (2.0 * m + shift)) / (2.0 * c * d)
            if t0 > 1.0:
                out.append(float(np.arccosh(t0) / c))
        return tuple(sorted(out))

    def scan_clear(m):
        t_cap = 2.0
        for shift in (+1.0, -1.0):
            t0 = (2.0 * beta - c * c * (2.0 * m + shift)) / (2.0 * c * d)
            t_cap = max(t_cap, abs(t0) + 1.0)
        x_hi = float(np.arccosh(t_cap) / c)
        return not (
            _scan_has_sign_change(lambda x: den_plus(x, m), 1e-6, x_hi)
            or _scan_has_sign_change(lambda x: den_minus(x, m), 1e-6, x_hi)
        )

    return SuperpotentialFamily(
        name=f"X1-hyperbolic(c={c:g}, beta={beta:g}, d={d:g})",
        tag="X1-hyperbolic",
        domain=(0.0, np.inf),
        params=p,
        is_real=True,
        k0=k0, k0_deriv=k0_deriv, k1=k1, k1_deriv=k1_deriv,
        w1plus=w1p, w1plus_deriv=w1pd, w1minus=w1m, w1minus_deriv=w1md,
        denom_plus=den_plus, denom_minus=den_minus,
        validity_fn=validity, poles_fn=poles, scan_clear_fn=scan_clear,
    )


def _build_x1_radial(p: ParamPoint) -> SuperpotentialFamily:
    omega, d = (float(v) for v in _need(p, "X1-radial-oscillator", "omega", "d"))

    def k0(x):
        return omega * x / 2.0 + d / x

    def k0_deriv(x):
        return omega / 2.0 - d / (x * x)

    def k1(x):
        return 1.0 / x

    def k1_deriv(x):
        return -1.0 / (x * x)

    def den_plus(x, m):
        return 1.0 + 2.0 * d + 2.0 * m - omega * x * x

    def den_minus(x, m):
        return -1.0 + 2.0 * d + 2.0 * m - omega * x * x

    def den_d(x, m):
        return -2.0 * omega * x

    def den_dd(x, m):
        return -2.0 * omega * np.ones_like(np.asarray(x, dtype=float))

    w1p, w1pd = _log_deriv_pair(den_plus, den_d, den_dd)
    w1m, w1md = _log_deriv_pair(den_minus, den_d, den_dd)

    def validity(m):
        if not omega > 0.0:
            return Verdict(False, "omega > 0")
        if not d > 0.0:
            return Verdict(False, "d > 0")
        if m < -(1.0 + 2.0 * d) / 2.0:
            return Verdict(True, None)
        return Verdict(False, "m < -(1 + 2*d)/2")

    def poles(m):
        out = []
        for shift in (+1.0, -1.0):
            x2 = (shift + 2.0 * d + 2.0 * m) / omega
            if x2 > 0.0:
                out.append(float(np.sqrt(x2)))
        return tuple(sorted(out))

    def scan_clear(m):
        cap = max(2.0, (abs(1.0 + 2.0 * d + 2.0 * m) + 1.0) / omega)
        x_hi = float(np.sqrt(cap)) + 1.0
        return not (
            _scan_has_sign_change(lambda x: den_plus(x, m), 1e-6, x_hi)
            or _scan_has_sign_change(lambda x: den_minus(x, m), 1e-6, x_hi)
        )

    return SuperpotentialFamily(
        name=f"X1-radial-oscillator(omega={omega:g}, d={d:g})",
        tag="X1-radial-oscillator",
        domain=(0.0, np.inf),
        params=p,
        is_real=True,
        k0=k0, k0_deriv=k0_deriv, k1=k1, k1_deriv=k1_deriv,
        w1plus=w1p, w1plus_deriv=w1pd, w1minus=w1m, w1minus_deriv=w1md,
        denom_plus=den_plus, denom_minus=den_minus,
        validity_fn=validity, poles_fn=poles, scan_clear_fn=scan_clear,
    )


def _build_x1_trigonometric(p: ParamPoint) -> SuperpotentialFamily:
    c, beta, d = (float(v) for v in _need(p, "X1-trigonometric", "c", "beta", "d"))
    half_width = np.pi / (2.0 * c)

    def k0(x):
        cs = np.cos(c * x)
        return -beta / c * np.sin(c * x) / cs + d / cs

    def k0_deriv(x):
        cs = np.cos(c * x)
        return (-beta + c * d * np.sin(c * x)) / (cs * cs)

    def k1(x):
        return -c * np.sin(c * x) / np.cos(c * x)

    def k1_deriv(x):
        cs = np.cos(c * x)
        return -c * c / (cs * cs)

    def den_plus(x, m):
        return 2.0 * beta + c * c * (1.0 + 2.0 * m) - 2.0 * c * d * np.sin(c * x)

    def den_plus_d(x, m):
        return -2.0 * c * c * d * np.cos(c * x)

    def den_plus_dd(x, m):
        return 2.0 * c ** 3 * d * np.sin(c * x)

    def den_minus(x, m):
        return -2.0 * beta + c * c * (1.0 - 2.0 * m) + 2.0 * c * d * np.sin(c * x)

    def den_minus_d(x, m):
        return 2.0 * c * c * d * np.cos(c * x)

    def den_minus_dd(x, m):
        return -2.0 * c ** 3 * d * np.sin(c * x)

    w1p, w1pd = _log_deriv_pair(den_plus, den_plus_d, den_plus_dd)
    w1m, w1md = _log_deriv_pair(den_minus, den_minus_d, den_minus_dd)

    # The d < 0 lower branch follows from requiring both denominators to keep
    # a fixed sign while sin(c x) sweeps (-1, 1); see the validity tests.
    b_hi_neg = (-2.0 * beta - c * c - 2.0 * c * d) / (2.0 * c * c)
    b_lo_neg = (-2.0 * beta + c * c + 2.0 * c * d) / (2.0 * c * c)
    b_hi_pos = (-2.0 * beta - c * c + 2.0 * c * d) / (2.0 * c * c)
    b_lo_pos = (-2.0 * beta + c * c - 2.0 * c * d) / (2.0 * c * c)

    def validity(m):
        if not c > 0.0:
            return Verdict(False, "c > 0")
        if d == 0.0:
            return Verdict(False, "d != 0")
        if d > 0.0:
            if m < b_hi_neg or m > b_lo_neg:
                return Verdict(True, None)
            return Verdict(
                False,
                "m < (-2*beta - c^2 - 2*c*d)/(2*c^2) or m > (-2*beta + c^2 + 2*c*d)/(2*c^2)",
            )
        if m < b_hi_pos or m > b_lo_pos:
            return Verdict(True, None)
        return Verdict(
            False,
            "m < (-2*beta - c^2 + 2*c*d)/(2*c^2) or m > (-2*beta + c^2 - 2*c*d)/(2*c^2)",
        )

    def poles(m):
        out = []
        s0p = (2.0 * beta + c * c * (1.0 + 2.0 * m)) / (2.0 * c * d)
        s0m = (2.0 * beta - c * c * (1.0 - 2.0 * m)) / (2.0 * c * d)
        for s0 in (s0p, s0m):
            if abs(s0) < 1.0:
                out.append(float(np.arcsin(s0) / c))
        return tuple(sorted(out))

    def scan_clear(m):
        eps = 1e-6 * half_width
        return not (
            _scan_has_sign_change(lambda x: den_plus(x, m), -half_width + eps, half_width - eps)
            or _scan_has_sign_change(lambda x: den_minus(x, m), -half_width + eps, half_width - eps)
        )

    return SuperpotentialFamily(
        name=f"X1-trigonometric(c={c:g}, beta={beta:g}, d={d:g})",
        tag="X1-trigonometric",
        domain=(-half_width, half_width),
        params=p,
        is_real=True,
        k0=k0, k0_deriv=k0_deriv, k1=k1, k1_deriv=k1_deriv,
        w1plus=w1p, w1plus_deriv=w1pd, w1minus=w1m, w1minus_deriv=w1md,
        denom_plus=den_plus, denom_minus=den_minus,
        validity_fn=validity, poles_fn=poles, scan_clear_fn=scan_clear,
    )


# ----------------------------------------------------------------------
# Xl families: Jacobi / Laguerre gauge denominators
# ----------------------------------------------------------------------

def _poly_gauge(spec_of_m, g, g_d, g_dd):
    """Gauge denominator D(x, m) = P(g(x)) and its x-derivatives."""

    def den(x, m):
        return poly_eval(spec_of_m(m), g(x))

    def den_d(x, m):
        return poly_deriv(spec_of_m(m), g(x)) * g_d(x)

    def den_dd(x, m):
        s = spec_of_m(m)
        gx = g(x)
        gd = g_d(x)
        return poly_deriv2(s, gx) * gd * gd + poly_deriv(s, gx) * g_dd(x)

    return den, den_d, den_dd


def _real_part_pair(w1, w1_deriv):
    """Real families evaluate through complex poly_eval; strip the exact-zero
    imaginary part so downstream arrays stay float64."""
    return (lambda x, m: w1(x, m).real, lambda x, m: w1_deriv(x, m).real)


def _check_ell(p: ParamPoint, tag: str) -> int:
    (ell,) = _need(p, tag, "ell")
    if ell == 0:
        raise UnsupportedError(f"{tag}: ell = 0 is a degenerate extension")
    return int(ell)


def _check_prefactor(tag: str, ell: int, B: float) -> None:
    # ell - 2B - 1 multiplies both W1 ratios; a vanishing prefactor is a
    # degenerate extension, not a singular one, and is rejected outright
    if abs(ell - 2.0 * B - 1.0) < 1e-9:
        raise InvalidParameterError(
            "|ell - 2*B - 1| >= 1e-9",
            f"{tag}: degenerate extension prefactor ell - 2*B - 1 = 0",
        )


def _build_xl_poschl_teller(p: ParamPoint) -> SuperpotentialFamily:
    (B,) = (float(v) for v in _need(p, "Xl-Poschl-Teller", "B"))
    ell = _check_ell(p, "Xl-Poschl-Teller")
    _check_prefactor("Xl-Poschl-Teller", ell, B)

    def k0(x):
        return -B / np.sinh(x)

    def k0_deriv(x):
        sh = np.sinh(x)
        return B * np.cosh(x) / (sh * sh)

    def k1(x):
        return np.cosh(x) / np.sinh(x)

    def k1_deriv(x):
        sh = np.sinh(x)
        return -1.0 / (sh * sh)

    def spec_plus(m):
        return PolySpec(JACOBI, ell, -B + m - 0.5, -B - m - 1.5)

    def spec_minus(m):
        return PolySpec(JACOBI, ell, -B + m - 1.5, -B - m - 0.5)

    g = np.cosh
    den_p, den_p_d, den_p_dd = _poly_gauge(spec_plus, g, np.sinh, np.cosh)
    den_m, den_m_d, den_m_dd = _poly_gauge(spec_minus, g, np.sinh, np.cosh)

    w1p, w1pd = _real_part_pair(*_log_deriv_pair(den_p, den_p_d, den_p_dd))
    w1m, w1md = _real_part_pair(*_log_deriv_pair(den_m, den_m_d, den_m_dd))

    def validity(m):
        if not B < -0.5:
            return Verdict(False, "B < -1/2")
        if (1.0 + 2.0 * B) / 2.0 < m < -(1.0 + 2.0 * B) / 2.0:
            return Verdict(True, None)
        return Verdict(False, "(1 + 2*B)/2 < m < -(1 + 2*B)/2")

    def poles(m):
        out = []
        for spec in (spec_plus(m), spec_minus(m)):
            for r in real_roots_in(spec, (1.0, np.inf)):
                if r > 1.0 + 1e-12:
                    out.append(float(np.arccosh(r)))
        return tuple(sorted(out))

    def scan_clear(m):
        # Non-singularity statement for this family: every denominator root
        # stays on (-1, 1).
        for spec in (spec_plus(m), spec_minus(m)):
            for r in real_roots_in(spec, (-np.inf, np.inf)):
                if not (-1.0 < r < 1.0):
                    return False
        return True

    return SuperpotentialFamily(
        name=f"Xl-Poschl-Teller(B={B:g}, ell={ell})",
        tag="Xl-Poschl-Teller",
        domain=(0.0, np.inf),
        params=p,
        is_real=True,
        k0=k0, k0_deriv=k0_deriv, k1=k1, k1_deriv=k1_deriv,
        w1plus=w1p, w1plus_deriv=w1pd, w1minus=w1m, w1minus_deriv=w1md,
        denom_plus=lambda x, m: den_p(x, m).real,
        denom_minus=lambda x, m: den_m(x, m).real,
        validity_fn=validity, poles_fn=poles, scan_clear_fn=scan_clear,
    )


def _build_xl_pt_scarf(p: ParamPoint) -> SuperpotentialFamily:
    (B,) = (float(v) for v in _need(p, "Xl-PT-Scarf", "B"))
    ell = _check_ell(p, "Xl-PT-Scarf")
    _check_prefactor("Xl-PT-Scarf", ell, B)

    def k0(x):
        return 1j * B / np.cosh(x)

    def k0_deriv(x):
        ch = np.cosh(x)
        return -1j * B * np.sinh(x) / (ch * ch)

    def k1(x):
        return np.tanh(x)

    def k1_deriv(x):
        ch = np.cosh(x)
        return 1.0 / (ch * ch)

    def spec_plus(m):
        return PolySpec(JACOBI, ell, -B + m - 0.5, -B - m - 1.5)

    def spec_minus(m):
        return PolySpec(JACOBI, ell, -B + m - 1.5, -B - m - 0.5)

    def g(x):
        return 1j * np.sinh(np.asarray(x, dtype=float))

    def g_d(x):
        return 1j * np.cosh(np.asarray(x, dtype=float))

    def g_dd(x):
        return 1j * np.sinh(np.asarray(x, dtype=float))

    den_p, den_p_d, den_p_dd = _poly_gauge(spec_plus, g, g_d, g_dd)
    den_m, den_m_d, den_m_dd = _poly_gauge(spec_minus, g, g_d, g_dd)

    w1p, w1pd = _log_deriv_pair(den_p, den_p_d, den_p_dd)
    w1m, w1md = _log_deriv_pair(den_m, den_m_d, den_m_dd)

    def validity(m):
        # Non-singular on the whole real line apart from the flagged x = 0
        # puncture: the polynomial argument is purely imaginary.
        return Verdict(True, None)

    def poles(m):
        return (0.0,)

    def scan_clear(m):
        # A singularity at real x != 0 needs a purely imaginary polynomial
        # root i*s: both real and imaginary parts of P(i*s) must vanish.  A
        # zero of one part is a root when |P(i*s)| is small against the
        # local size of the polynomial's terms, sum_k |d_k| |s|**k.
        for spec in (spec_plus(m), spec_minus(m)):
            w_lo, w_hi = root_window(spec)
            s_cap = max(2.0, abs(w_lo), abs(w_hi))
            q = lambda s: poly_eval(spec, 1j * np.asarray(s, dtype=float))
            term_size = np.abs(monomial_coefficients(spec))
            for part in (lambda s: q(s).real, lambda s: q(s).imag):
                for s_root in scan_roots(part, -s_cap, s_cap, _SCAN_POINTS):
                    size = np.polynomial.polynomial.polyval(abs(s_root), term_size)
                    if abs(s_root) > 1e-6 and abs(q(np.asarray([s_root]))[0]) < 1e-8 * size:
                        return False
        return True

    return SuperpotentialFamily(
        name=f"Xl-PT-Scarf(B={B:g}, ell={ell})",
        tag="Xl-PT-Scarf",
        domain=(-np.inf, np.inf),
        params=p,
        is_real=False,
        k0=k0, k0_deriv=k0_deriv, k1=k1, k1_deriv=k1_deriv,
        w1plus=w1p, w1plus_deriv=w1pd, w1minus=w1m, w1minus_deriv=w1md,
        denom_plus=den_p, denom_minus=den_m,
        validity_fn=validity, poles_fn=poles, scan_clear_fn=scan_clear,
    )


def _build_xl_radial(p: ParamPoint) -> SuperpotentialFamily:
    (omega,) = (float(v) for v in _need(p, "Xl-radial-oscillator", "omega"))
    ell = _check_ell(p, "Xl-radial-oscillator")

    def k0(x):
        return omega * x / 2.0

    def k0_deriv(x):
        return omega / 2.0 * np.ones_like(np.asarray(x, dtype=float))

    def k1(x):
        return 1.0 / x

    def k1_deriv(x):
        return -1.0 / (x * x)

    def spec_plus(m):
        return PolySpec(LAGUERRE, ell, -m - 1.5)

    def spec_minus(m):
        return PolySpec(LAGUERRE, ell, -m - 0.5)

    def g(x):
        return -omega * np.asarray(x, dtype=float) ** 2 / 2.0

    def g_d(x):
        return -omega * np.asarray(x, dtype=float)

    def g_dd(x):
        return -omega * np.ones_like(np.asarray(x, dtype=float))

    den_p, den_p_d, den_p_dd = _poly_gauge(spec_plus, g, g_d, g_dd)
    den_m, den_m_d, den_m_dd = _poly_gauge(spec_minus, g, g_d, g_dd)

    w1p, w1pd = _real_part_pair(*_log_deriv_pair(den_p, den_p_d, den_p_dd))
    w1m, w1md = _real_part_pair(*_log_deriv_pair(den_m, den_m_d, den_m_dd))

    def validity(m):
        # m < -1/2 keeps both Laguerre parameters above -1, which is
        # sufficient for all denominator roots to sit in (0, inf) while the
        # argument -omega*x^2/2 stays negative.
        if not omega > 0.0:
            return Verdict(False, "omega > 0")
        if m < -0.5:
            return Verdict(True, None)
        return Verdict(False, "m < -1/2")

    def poles(m):
        out = []
        for spec in (spec_plus(m), spec_minus(m)):
            for u in real_roots_in(spec, (-np.inf, 0.0)):
                if u < -1e-300:
                    out.append(float(np.sqrt(-2.0 * u / omega)))
        return tuple(sorted(out))

    def scan_clear(m):
        # Non-singularity statement for this family: every denominator root
        # stays in (0, inf).
        for spec in (spec_plus(m), spec_minus(m)):
            for r in real_roots_in(spec, (-np.inf, np.inf)):
                if not r > 0.0:
                    return False
        return True

    return SuperpotentialFamily(
        name=f"Xl-radial-oscillator(omega={omega:g}, ell={ell})",
        tag="Xl-radial-oscillator",
        domain=(0.0, np.inf),
        params=p,
        is_real=True,
        k0=k0, k0_deriv=k0_deriv, k1=k1, k1_deriv=k1_deriv,
        w1plus=w1p, w1plus_deriv=w1pd, w1minus=w1m, w1minus_deriv=w1md,
        denom_plus=lambda x, m: den_p(x, m).real,
        denom_minus=lambda x, m: den_m(x, m).real,
        validity_fn=validity, poles_fn=poles, scan_clear_fn=scan_clear,
    )


_BUILDERS = {
    "X1-hyperbolic": _build_x1_hyperbolic,
    "X1-radial-oscillator": _build_x1_radial,
    "X1-trigonometric": _build_x1_trigonometric,
    "Xl-Poschl-Teller": _build_xl_poschl_teller,
    "Xl-PT-Scarf": _build_xl_pt_scarf,
    "Xl-radial-oscillator": _build_xl_radial,
}

_EXPECTED_AB = {
    "X1-hyperbolic": lambda p: (p.c ** 2, p.beta),
    "X1-radial-oscillator": lambda p: (0.0, -p.omega),
    "X1-trigonometric": lambda p: (-p.c ** 2, p.beta),
    "Xl-Poschl-Teller": lambda p: (1.0, 0.0),
    "Xl-PT-Scarf": lambda p: (1.0, 0.0),
    "Xl-radial-oscillator": lambda p: (0.0, -p.omega),
}


def get_family(tag: str, params: ParamPoint) -> CatalogEntry:
    """Build the tagged family at the given parameters.

    Raises ParamSchemaError for missing constants, UnsupportedError for an
    unknown tag or ell = 0, InvalidParameterError for the degenerate
    PT-Scarf prefactor.
    """
    if tag not in _BUILDERS:
        raise UnsupportedError(f"unknown family tag {tag!r}; known: {FAMILY_TAGS}")
    family = _BUILDERS[tag](params)
    a, b = _EXPECTED_AB[tag](params)
    return CatalogEntry(family=family, expected_a=float(a), expected_b=float(b),
                        section_tag=tag)


def validity_witness(tag: str, params: ParamPoint, cross_check: bool = True) -> ValidityReport:
    """Analytic non-singularity verdict, optionally cross-checked by the
    independent numeric root scan (belt and braces: the two must agree)."""
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
        family = get_family(tag, p).family
        if all(family.validity(p.m - k).valid for k in (0, 1, 2)):
            out.append(p)
        else:
            rejections += 1
            if rejections > 10_000:
                raise SamplingError(
                    f"{tag}: rejection budget exhausted; region empty or razor-thin"
                )
    return out
