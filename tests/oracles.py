"""Independent high-precision oracles (50 significant digits, mpmath).

Everything here evaluates through mpmath's own special-function routes
(hypergeometric) and numerical differentiation, sharing no code with the
package: poly values, superpotentials and the seven-term compatibility
combination can all be cross-checked against a genuinely separate path.
Real and imaginary roots come from exact Fraction coefficients, a Sturm
count and mpmath's polyroots.  eval_series is the float64 reference
summation of a coefficient row, term by term with Kahan compensation.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 50

HALF = mp.mpf(1) / 2


def jacobi(n, a, b, z):
    return mp.jacobi(n, a, b, z)


def laguerre(n, a, z):
    return mp.laguerre(n, a, z)


def eval_series(coef, u):
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


def poly_derivs(n, a, b, z, order=2):
    """[P, P', ..., P^(order)] at z: numerical differentiation of mpmath's
    own value, P_n^(a,b) for Jacobi, or L_n^(a) when b is None."""
    if b is None:
        f = lambda t: mp.laguerre(n, a, t)
    else:
        f = lambda t: mp.jacobi(n, a, b, t)
    return [mp.diff(f, mp.mpmathify(z), k) for k in range(order + 1)]


def _x1_hyperbolic(c, beta, d):
    c, beta, d = mp.mpf(c), mp.mpf(beta), mp.mpf(d)
    return {
        "k0": lambda x: -beta / c / mp.tanh(c * x) + d / mp.sinh(c * x),
        "k1": lambda x: c / mp.tanh(c * x),
        "w1p": lambda x, m: 2 * c**2 * d * mp.sinh(c * x)
        / (-2 * beta + c**2 * (2 * m + 1) + 2 * c * d * mp.cosh(c * x)),
        "w1m": lambda x, m: 2 * c**2 * d * mp.sinh(c * x)
        / (-2 * beta + c**2 * (2 * m - 1) + 2 * c * d * mp.cosh(c * x)),
    }


def _x1_radial(omega, d):
    omega, d = mp.mpf(omega), mp.mpf(d)
    return {
        "k0": lambda x: omega * x / 2 + d / x,
        "k1": lambda x: 1 / x,
        "w1p": lambda x, m: -2 * omega * x / (1 + 2 * d + 2 * m - omega * x**2),
        "w1m": lambda x, m: -2 * omega * x / (-1 + 2 * d + 2 * m - omega * x**2),
    }


def _x1_trigonometric(c, beta, d):
    c, beta, d = mp.mpf(c), mp.mpf(beta), mp.mpf(d)
    return {
        "k0": lambda x: -beta / c * mp.tan(c * x) + d / mp.cos(c * x),
        "k1": lambda x: -c * mp.tan(c * x),
        "w1p": lambda x, m: -2 * c**2 * d * mp.cos(c * x)
        / (2 * beta + c**2 * (1 + 2 * m) - 2 * c * d * mp.sin(c * x)),
        "w1m": lambda x, m: 2 * c**2 * d * mp.cos(c * x)
        / (-2 * beta + c**2 * (1 - 2 * m) + 2 * c * d * mp.sin(c * x)),
    }


def _xl_poschl_teller(B, ell):
    B = mp.mpf(B)
    pref = HALF * (ell - 2 * B - 1)
    return {
        "k0": lambda x: -B / mp.sinh(x),
        "k1": lambda x: 1 / mp.tanh(x),
        "w1p": lambda x, m: pref * mp.sinh(x)
        * jacobi(ell - 1, -B + m + HALF, -B - m - HALF, mp.cosh(x))
        / jacobi(ell, -B + m - HALF, -B - m - 3 * HALF, mp.cosh(x)),
        "w1m": lambda x, m: pref * mp.sinh(x)
        * jacobi(ell - 1, -B + m - HALF, -B - m + HALF, mp.cosh(x))
        / jacobi(ell, -B + m - 3 * HALF, -B - m - HALF, mp.cosh(x)),
    }


def _xl_pt_scarf(B, ell):
    B = mp.mpf(B)
    i = mp.mpc(0, 1)
    pref = HALF * i * (ell - 2 * B - 1)
    return {
        "k0": lambda x: i * B / mp.cosh(x),
        "k1": lambda x: mp.tanh(x),
        "w1p": lambda x, m: pref * mp.cosh(x)
        * jacobi(ell - 1, -B + m + HALF, -B - m - HALF, i * mp.sinh(x))
        / jacobi(ell, -B + m - HALF, -B - m - 3 * HALF, i * mp.sinh(x)),
        "w1m": lambda x, m: pref * mp.cosh(x)
        * jacobi(ell - 1, -B + m - HALF, -B - m + HALF, i * mp.sinh(x))
        / jacobi(ell, -B + m - 3 * HALF, -B - m - HALF, i * mp.sinh(x)),
    }


def _xl_radial(omega, ell):
    omega = mp.mpf(omega)
    return {
        "k0": lambda x: omega * x / 2,
        "k1": lambda x: 1 / x,
        "w1p": lambda x, m: omega * x
        * laguerre(ell - 1, -m - HALF, -omega * x**2 / 2)
        / laguerre(ell, -m - 3 * HALF, -omega * x**2 / 2),
        "w1m": lambda x, m: omega * x
        * laguerre(ell - 1, -m + HALF, -omega * x**2 / 2)
        / laguerre(ell, -m - HALF, -omega * x**2 / 2),
    }


def family_oracle(tag, params):
    """mpmath evaluators for the tagged family at a ParamPoint."""
    if tag == "X1-hyperbolic":
        return _x1_hyperbolic(params.c, params.beta, params.d)
    if tag == "X1-radial-oscillator":
        return _x1_radial(params.omega, params.d)
    if tag == "X1-trigonometric":
        return _x1_trigonometric(params.c, params.beta, params.d)
    if tag == "Xl-Poschl-Teller":
        return _xl_poschl_teller(params.B, params.ell)
    if tag == "Xl-PT-Scarf":
        return _xl_pt_scarf(params.B, params.ell)
    if tag == "Xl-radial-oscillator":
        return _xl_radial(params.omega, params.ell)
    raise ValueError(tag)


def w_value(tag, params, m, x):
    fns = family_oracle(tag, params)
    x, m = mp.mpf(x), mp.mpf(m)
    return fns["k0"](x) + m * fns["k1"](x) + fns["w1p"](x, m) - fns["w1m"](x, m)


def compatibility_value(tag, params, m, x):
    """The seven-term combination at 50 digits, derivatives by mp.diff."""
    fns = family_oracle(tag, params)
    x, m = mp.mpf(x), mp.mpf(m)
    p = fns["w1p"](x, m)
    q = fns["w1m"](x, m)
    pd = mp.diff(lambda t: fns["w1p"](t, m), x)
    qd = mp.diff(lambda t: fns["w1m"](t, m), x)
    w0 = fns["k0"](x) + m * fns["k1"](x)
    return p**2 + pd + q**2 + qd - 2 * w0 * q + 2 * w0 * p - 2 * q * p


def partner_minus(tag, params, m, x):
    """V-(x) = W^2 - W' at 50 digits."""
    x, m = mp.mpf(x), mp.mpf(m)
    w = w_value(tag, params, m, x)
    wd = mp.diff(lambda t: w_value(tag, params, m, t), x)
    return w**2 - wd


def to_complex(v):
    return complex(mp.mpc(v))


# Real roots by an independent route: exact coefficients from the two-sided
# Jacobi sum and the Laguerre sum in generalized binomials, a Sturm count in
# Fraction, and mpmath's polyroots at 50 digits for the locations.

def _binom(x, k):
    out = Fraction(1)
    for j in range(k):
        out = out * (x - j) / (j + 1)
    return out


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _ppow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _strip(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _prem(p, q):
    """Remainder of p by q over the rationals."""
    p = list(p)
    while len(p) >= len(q):
        c = p[-1] / q[-1]
        shift = len(p) - len(q)
        for j, b in enumerate(q):
            p[shift + j] -= c * b
        p = _strip(p[:-1])
    return p


def _pgcd(p, q):
    while q:
        p, q = q, _prem(p, q)
    return p


def _pdiv(p, q):
    p, out = list(p), [Fraction(0)] * (len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = p[i + len(q) - 1] / q[-1]
        for j, b in enumerate(q):
            p[i + j] -= out[i] * b
    return out


def exact_coefficients(n, a, b=None):
    """P_n^(a,b) in z, or L_n^(a) when b is None, as Fractions, lowest
    degree first."""
    a = Fraction(a)
    if b is None:
        return _strip([(-1) ** s * _binom(n + a, n - s) / math.factorial(s) for s in range(n + 1)])
    b = Fraction(b)
    out = [Fraction(0)] * (n + 1)
    zm, zp = [Fraction(-1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]
    for s in range(n + 1):
        term = _pmul(_ppow(zm, s), _ppow(zp, n - s))
        w = _binom(n + a, n - s) * _binom(n + b, s)
        for k, c in enumerate(term):
            out[k] += w * c
    return _strip(out)


def squarefree_part(p):
    if len(p) < 2:
        return p
    return _pdiv(p, _pgcd(p, [k * c for k, c in enumerate(p)][1:]))


def sturm_count(p, lo, hi):
    """Distinct real roots of p in the open interval (lo, hi), by Sturm."""
    p = squarefree_part(p)
    if len(p) < 2:
        return 0
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _prem(chain[-2], chain[-1])])

    def signs_at(x):
        if math.isinf(x):
            return [c[-1] * (1 if x > 0 or len(c) % 2 else -1) for c in chain]
        x = Fraction(x)
        return [sum(c * x ** k for k, c in enumerate(q)) for q in chain]

    def changes(vals):
        signs = [v > 0 for v in vals if v != 0]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    end_root = not math.isinf(hi) and signs_at(hi)[0] == 0
    return changes(signs_at(lo)) - changes(signs_at(hi)) - end_root


def polynomial_roots(p):
    """All complex roots of p at 50 digits; a failure to converge raises."""
    p = squarefree_part(p)
    if len(p) < 2:
        return []
    coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(p)]
    # roots whose sizes differ by 2**k need about k more bits to converge
    sizes = [abs(c.numerator).bit_length() - c.denominator.bit_length() for c in p if c]
    return mp.polyroots(coeffs, maxsteps=400, extraprec=400 + 2 * (max(sizes) - min(sizes)))


def imaginary_root_count(p):
    """Distinct roots i*s with real s != 0 of p (Fractions, lowest degree
    first), by Sturm on the common real roots of Re p(i*s) and Im p(i*s) as
    polynomials in s."""
    parts = [[c * (-1) ** (k // 2) if k % 2 == odd else Fraction(0) for k, c in enumerate(p)]
             for odd in (0, 1)]
    g = _pgcd(*(_strip(q) for q in parts))
    return sturm_count(g, -math.inf, 0.0) + sturm_count(g, 0.0, math.inf)
