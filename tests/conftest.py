import numpy as np
import pytest

from shapeinv import ParamPoint, SuperpotentialFamily, Verdict, poly_eval


def plain_family(k0, k0_deriv, k1, k1_deriv, domain, m, name="plain", pole=(0.0, 0.0)):
    """A family with no rational extension: W1+- identically zero, and
    make_grid's ends 0.05 (times the width on a finite domain) from a
    finite end and at |x| = 8 on an infinite side.  pole, (K0, K1), states
    W ~ (K0 + m*K1)/(x - e) next to each finite end e: the record, with
    g'' = 1, from which the spectral walls are placed."""
    zero = lambda x, ms: (np.zeros((len(ms),) + np.shape(x)),) * 4
    lo, hi = domain
    inset = 0.05 * (hi - lo if np.isfinite(hi) else 1.0)
    grid_ends = (-8.0 if np.isinf(lo) else lo + inset, hi - inset if np.isfinite(hi) else 8.0)
    return SuperpotentialFamily(
        name=name,
        tag=name,
        domain=domain,
        params=ParamPoint(m=m),
        is_real=True,
        affine=lambda x: (k0(x), k0_deriv(x), k1(x), k1_deriv(x)),
        w1=zero,
        validity_fn=lambda m_: Verdict(True, None),
        poles_fn=lambda m_: (),
        grid_ends_fn=lambda m_: grid_ends,
        ends=tuple((e, side, *pole, 1.0) for e, side in zip(domain, (1.0, -1.0))
                   if np.isfinite(e)),
    )


def denominator(data, spec_of_m, x, m):
    """The gauge denominator D = P_m(g(x)) of a catalog FamilyData record."""
    spec, gx = spec_of_m(m), data.g(x)
    if data.linear:
        return spec[0] + spec[1] * gx
    return poly_eval(spec, gx)


@pytest.fixture
def free_radial():
    """W = m/x on (0, inf): U = 0, every identity holds exactly."""
    return plain_family(
        k0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        k0_deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        k1=lambda x: 1.0 / x,
        k1_deriv=lambda x: -1.0 / (x * x),
        domain=(0.0, np.inf),
        m=2.0,
        name="free-radial",
        pole=(0.0, 1.0),
    )


@pytest.fixture
def plain_oscillator():
    """W = omega*x/2 + m/x with omega = 1: classical radial oscillator."""
    return plain_family(
        k0=lambda x: 0.5 * np.asarray(x, dtype=float),
        k0_deriv=lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
        k1=lambda x: 1.0 / x,
        k1_deriv=lambda x: -1.0 / (x * x),
        domain=(0.0, np.inf),
        m=-2.0,
        name="plain-oscillator",
        pole=(0.0, 1.0),
    )
