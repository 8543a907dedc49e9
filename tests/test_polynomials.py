import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapeinv import DEGREE_CAP, JACOBI, LAGUERRE, PolySpec, poly_deriv, poly_eval, real_roots_in
from shapeinv import catalog, cli, intpoly, polynomials
from shapeinv.errors import DomainError, UnsupportedError
from shapeinv.polynomials import (
    Interval,
    _series_coefficients,
    has_imaginary_root,
    has_root_in,
    monomial_coefficients,
    poly_deriv2,
    root_window,
    scan_roots,
)

import oracles


def richardson_diff(f, z, h):
    def central(hh):
        return (f(z + hh) - f(z - hh)) / (2.0 * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


class TestClosedForms:
    def test_degree0_is_one(self):
        assert poly_eval(PolySpec(JACOBI, 0, -2.3, 7.1), 0.4) == 1.0 + 0.0j

    def test_jacobi_degree1(self):
        a, b, z = -1.2, 0.7, 0.3
        expected = (a + 1.0) + (a + b + 2.0) * (z - 1.0) / 2.0
        assert poly_eval(PolySpec(JACOBI, 1, a, b), z) == pytest.approx(expected, abs=1e-15)

    def test_laguerre_degree1(self):
        a, z = -0.4, 2.0
        assert poly_eval(PolySpec(LAGUERRE, 1, a), z) == pytest.approx(1.0 + a - z, abs=1e-15)

    def test_jacobi_degree4_complex_vs_oracle(self):
        # frozen from the 50-digit hypergeometric evaluation in oracles.py
        got = poly_eval(PolySpec(JACOBI, 4, -1.7, -3.2), 0.35 + 0.9j)
        expected = -0.0268162283837890625 - 0.0110748076171875j
        assert abs(got - expected) < 1e-14 * abs(expected)

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(0, 9))
            a = float(rng.uniform(-8, 8))
            if rng.integers(0, 2):
                spec = PolySpec(JACOBI, n, a, float(rng.uniform(-8, 8)))
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                ref = oracles.to_complex(oracles.jacobi(n, spec.alpha, spec.beta, z))
            else:
                spec = PolySpec(LAGUERRE, n, a)
                z = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
                ref = oracles.to_complex(oracles.laguerre(n, a, z))
            got = poly_eval(spec, z)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


class TestDerivatives:
    def test_degree0_derivative_is_zero(self):
        assert poly_deriv(PolySpec(JACOBI, 0, 1.0, 2.0), 0.7) == 0j
        assert poly_deriv(PolySpec(LAGUERRE, 0, -3.0), 0.7) == 0j

    def test_jacobi_degree1_derivative(self):
        a, b = 0.3, -2.6
        got = poly_deriv(PolySpec(JACOBI, 1, a, b), 0.9)
        assert got == pytest.approx((a + b + 2.0) / 2.0, abs=1e-15)

    def test_laguerre_degree3_fd(self):
        spec = PolySpec(LAGUERRE, 3, -2.5)
        z = 1.3
        fd = richardson_diff(lambda t: poly_eval(spec, t), z, 1e-3)
        an = poly_deriv(spec, z)
        assert abs(fd - an) < 1e-8 * max(1.0, abs(an))

    def test_fd_agreement_1000_draws(self):
        # Derivative identity vs Richardson central difference over the
        # envelope |params| <= 20, degree <= 10, |z| <= 10: within 1e-8
        # relative, plus the finite difference's own roundoff floor
        # (eps * sum|c_s u^s| / h), which dominates only for draws where the
        # series condition number exceeds ~1e7.
        def fd_noise_floor(spec, z, h):
            coef = np.abs(_series_coefficients(spec))
            pts = [
                abs((zz - 1.0) / 2.0) if spec.kind == JACOBI else abs(zz)
                for zz in (z + h, z - h, z + h / 2, z - h / 2)
            ]
            mag = max(float(oracles.eval_series(coef, np.asarray([u]))[0]) for u in pts)
            return 20.0 * 2.2e-16 * mag / h

        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(0, 11))
            if rng.integers(0, 2):
                spec = PolySpec(JACOBI, n, float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
            else:
                spec = PolySpec(LAGUERRE, n, float(rng.uniform(-20, 20)))
            if rng.integers(0, 2):
                z = complex(rng.uniform(-10, 10), rng.uniform(-5, 5))
            else:
                z = complex(rng.uniform(-10, 10), 0.0)
            h = 1e-3 * (1.0 + abs(z))
            fd = richardson_diff(lambda t: poly_eval(spec, t), z, h)
            an = poly_deriv(spec, z)
            scale = max(1.0, abs(an), abs(poly_eval(spec, z)) / (1.0 + abs(z)))
            assert abs(fd - an) <= 1e-8 * scale + fd_noise_floor(spec, z, h)

    def test_second_derivative_fd(self):
        spec = PolySpec(JACOBI, 5, -1.3, 2.2)
        z = 0.4
        fd = richardson_diff(lambda t: poly_deriv(spec, t), z, 1e-3)
        assert abs(poly_deriv2(spec, z) - fd) < 1e-7


class TestOnePassDerivatives:
    # (P, P', P'') from one poly_eval call against the 50-digit oracle.  The
    # bound is float64 rounding of the route the kernel takes: 4 (n + 2) eps
    # times the term sizes sum_s |c_s| |u|**s of the derivative's coefficient
    # row, in the monomial basis (|z| < 1 or Re z = 0) or else the series
    # about z = 1.
    JACOBI_Z = [0.3, 0.97, -0.6, 1.03, 2.5, math.cosh(3.0),
                *(1j * math.sinh(x) for x in (0.3, 0.897, 1.5))]
    LAGUERRE_Z = [-0.2, -3.0, -40.0]

    @staticmethod
    def term_sizes(spec, z, order):
        polyder, polyval = np.polynomial.polynomial.polyder, np.polynomial.polynomial.polyval
        if spec.kind == LAGUERRE:
            coef, u, h = _series_coefficients(spec), abs(z), 1.0
        elif abs(z) < 1.0 or complex(z).real == 0.0:
            coef, u, h = monomial_coefficients(spec), abs(z), 1.0
        else:
            coef, u, h = _series_coefficients(spec), abs((z - 1.0) / 2.0), 2.0
        return polyval(u, np.abs(polyder(coef, m=order, scl=1.0 / h)))

    @pytest.mark.parametrize("n", [1, 10, 16, 32])
    @pytest.mark.parametrize("kind", [JACOBI, LAGUERRE])
    def test_against_oracle(self, kind, n):
        if kind == JACOBI:
            spec, zs = PolySpec(JACOBI, n, 2.1, 0.3), self.JACOBI_Z
        else:
            spec, zs = PolySpec(LAGUERRE, n, -0.2), self.LAGUERRE_Z
        # one array call over both sides of |z| = 1
        got = poly_eval(spec, np.array(zs, dtype=complex), 2)
        eps = np.finfo(float).eps
        for i, z in enumerate(zs):
            ref = oracles.poly_derivs(n, spec.alpha, spec.beta, z)
            for order in range(3):
                bound = 4 * (n + 2) * eps * self.term_sizes(spec, z, order)
                err = abs(got[order][i] - oracles.to_complex(ref[order]))
                assert err <= bound + 1e-300, (n, z, order, err, bound)

    @pytest.mark.parametrize("z", [0.4, 1.7, 0.5j, 2.0 - 0.3j])
    def test_scalar_argument(self, z):
        spec = PolySpec(JACOBI, 5, -1.3, 2.2)
        row = poly_eval(spec, np.array([z]), 2)
        # a real argument gives Python floats, a complex one Python complexes
        kind = complex if isinstance(z, complex) else float
        for arg in (z, np.asarray(z)):
            vals = poly_eval(spec, arg, 2)
            assert isinstance(vals, tuple) and len(vals) == 3
            assert all(type(v) is kind for v in vals)
            assert vals == tuple(kind(r[0]) for r in row)

    def test_orders_agree(self):
        spec = PolySpec(LAGUERRE, 7, -3.5)
        z = np.linspace(-5.0, 5.0, 11).reshape(11, 1)
        p0, p1, p2 = poly_eval(spec, z, 2)
        assert p0.shape == p1.shape == p2.shape == z.shape
        assert np.array_equal(p0, poly_eval(spec, z))
        assert np.array_equal(p1, poly_deriv(spec, z))
        assert np.array_equal(p2, poly_deriv2(spec, z))
        assert np.array_equal(poly_eval(spec, z, 1)[1], p1)

    def test_derivative_row_stops_at_its_degree(self):
        # u**2 overflows at z = 1e200 while u stays finite: P' (degree 1)
        # must not pick up 0 * inf from the padded row
        spec = PolySpec(JACOBI, 2, 0.5, -0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            p0, p1, p2 = poly_eval(spec, np.array([1e200]), 2)
        assert np.isinf(p0[0].real)
        assert np.isfinite(p1[0]) and np.isfinite(p2[0])
        assert p2[0] == poly_eval(spec, 0.3, 2)[2]  # constant


class TestStackedPass:
    """poly_eval with more= against one call per spec, bit for bit.  The
    specs are those of one Xl verify grid, P+- at m, m - 1 and m - 2, so
    some repeat; every case runs under the suite's warnings-as-errors."""

    XS = np.linspace(0.0, 6.0, 25)
    # edge-probe candidates far out, where u**s overflows at high degree
    FAR = 2.0 ** np.arange(11)
    ARGS = {
        "jacobi-series": (JACOBI, np.cosh(np.concatenate([XS, FAR[FAR < 700.0]]))),
        "jacobi-mixed": (JACOBI, np.linspace(-3.0, 3.0, 41)),  # |z| < 1 in the monomial basis
        "jacobi-imaginary": (JACOBI, 1j * np.sinh(np.concatenate([-XS, XS]))),
        "laguerre": (LAGUERRE, -1.3 * np.concatenate([XS, 1e3 * FAR]) ** 2 / 2.0),
    }

    @staticmethod
    def specs(kind, n):
        ms = (0.4, -0.6, -1.6)
        if kind == JACOBI:
            B = -2.3
            return [PolySpec(JACOBI, n, -B + m - a, -B - m - b)
                    for a, b in ((0.5, 1.5), (1.5, 0.5)) for m in ms]
        return [PolySpec(LAGUERRE, n, -m - a) for a in (1.5, 0.5) for m in ms]

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 10, DEGREE_CAP])
    @pytest.mark.parametrize("case", sorted(ARGS))
    def test_equals_separate_calls(self, case, n, order):
        kind, z = self.ARGS[case]
        specs = self.specs(kind, n)
        stacked = poly_eval(specs[0], z, order, more=tuple(specs[1:]))
        stacked = stacked if order else (stacked,)
        for i, spec in enumerate(specs):
            one = poly_eval(spec, z, order)
            one = one if order else (one,)
            for j in range(order + 1):
                assert stacked[j].shape == (len(specs),) + z.shape
                assert np.array_equal(stacked[j][i], one[j], equal_nan=True), (i, j)

    @pytest.mark.parametrize("case", ["jacobi-series", "laguerre"])
    def test_far_candidates_overflow_quietly(self, case):
        kind, z = self.ARGS[case]
        specs = self.specs(kind, DEGREE_CAP)
        p0, p1, p2 = poly_eval(specs[0], z, 2, more=tuple(specs[1:]))
        assert not np.all(np.isfinite(p0))  # the overflow is reached
        assert np.all(np.isfinite(p0[:, :self.XS.size]))

    def test_scalar_argument(self):
        specs = self.specs(JACOBI, 3)
        got = poly_eval(specs[0], 0.4, 1, more=tuple(specs[1:]))
        assert [g.shape for g in got] == [(len(specs),)] * 2
        assert [complex(v) for v in got[1]] == [poly_eval(s, 0.4, 1)[1] for s in specs]

    def test_empty_stack_keeps_the_spec_axis(self):
        spec, z = self.specs(LAGUERRE, 4)[0], np.linspace(-2.0, 2.0, 5)
        p0, p1 = poly_eval(spec, z, 1, more=())
        assert p0.shape == p1.shape == (1, 5)
        assert np.array_equal(p1[0], poly_eval(spec, z, 1)[1])

    @pytest.mark.parametrize("more", [
        (PolySpec(JACOBI, 4, 0.5, 0.5),),
        (PolySpec(LAGUERRE, 3, 0.5),),
        [PolySpec(JACOBI, 3, 0.5, 0.5)],
        ("jacobi",),
    ])
    def test_mixed_stack_rejected(self, more):
        with pytest.raises(ValueError, match="more"):
            poly_eval(PolySpec(JACOBI, 3, 1.5, -0.5), np.array([0.5, 2.0]), 2, more=more)


def allocating_eval_rows(rows, u, width):
    """The kernel loop with fresh temporaries for every term: the reference
    that _eval_rows, which writes into buffers, must equal bit for bit."""
    n = rows.shape[1] - 1
    total = np.zeros((rows.shape[0], u.size), dtype=np.result_type(rows, u))
    comp = np.zeros_like(total)
    power = np.ones_like(u)
    for s in range(n + 1):
        live = min(rows.shape[0], (n + 1 - s) * width)
        y = rows[:live, s, None] * power - comp[:live]
        t = total[:live] + y
        comp[:live] = (t - total[:live]) - y
        total[:live] = t
        if s < n:
            power = power * u
    return total


class TestKernelBuffers:
    """_eval_rows against the allocating loop, compared as bit patterns so
    that nan and inf count too.  Far arguments overflow u**s below the top
    degree: the P rows meet inf, their derivative rows stop before it."""

    REAL_U = np.concatenate([np.linspace(-3.0, 3.0, 13), [0.0, 0.5, -0.5, 1.0],
                             [1e10, -1e20, 3e40, -1e80, 1e160, 1e300]])
    ARGS = {"real": REAL_U, "complex": REAL_U * (0.6 - 0.8j) + 0.25j}

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    @pytest.mark.parametrize("width", range(1, 7))
    @pytest.mark.parametrize("case", sorted(ARGS))
    def test_equals_allocating_loop(self, case, width):
        from shapeinv.polynomials import _derivative_rows, _eval_rows

        u = self.ARGS[case]
        rng = np.random.default_rng(width)
        for degree in range(17):
            coefs = [rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-5, 5, degree + 1)
                     for _ in range(width)]
            for order in (0, 1, 2):
                rows = _derivative_rows(coefs, order, 2.0)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _eval_rows(rows, u, width)
                    want = allocating_eval_rows(rows, u, width)
                assert got.dtype == want.dtype == np.result_type(rows, u)
                assert np.array_equal(self.bits(got), self.bits(want)), (degree, order)
        assert not np.isfinite(got).all()  # the overflow is reached

    def test_three_row_buffers(self):
        # 9 rows of degree 10 over 4000 real points: the sums, their
        # compensations and y are three (rows x points) buffers, plus the
        # power row; the slack covers array headers and small temporaries,
        # and is far below a fourth buffer's 288 KB
        import tracemalloc

        from shapeinv.polynomials import _derivative_rows, _eval_rows

        rng = np.random.default_rng(0)
        rows = _derivative_rows([rng.standard_normal(11) for _ in range(3)], 2, 2.0)
        u = np.linspace(-1.0, 1.0, 4000)
        assert rows.shape == (9, 11)
        tracemalloc.start()
        try:
            _eval_rows(rows, u, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer, power, slack = 9 * 4000 * 8, 4000 * 8, 16 * 1024
        assert peak < 3 * buffer + power + slack


class TestRealness:
    def test_real_input_exactly_real(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 11))
            if rng.integers(0, 2):
                spec = PolySpec(JACOBI, n, float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
            else:
                spec = PolySpec(LAGUERRE, n, float(rng.uniform(-20, 20)))
            z = float(rng.uniform(-10, 10))
            assert poly_eval(spec, z).imag == 0.0
            assert poly_eval(spec, complex(z, 0.0)).imag == 0.0

    @given(
        n=st.integers(min_value=0, max_value=10),
        a=st.floats(min_value=-20, max_value=20, allow_nan=False),
        b=st.floats(min_value=-20, max_value=20, allow_nan=False),
        z=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_realness_property(self, n, a, b, z):
        assert poly_eval(PolySpec(JACOBI, n, a, b), z).imag == 0.0


class TestPolynomialStructure:
    def test_order_np1_differences_vanish(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(0, 11))
            if rng.integers(0, 2):
                spec = PolySpec(JACOBI, n, float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            else:
                spec = PolySpec(LAGUERRE, n, float(rng.uniform(-10, 10)))
            xs = np.linspace(-2.0, 2.0, n + 2)
            vals = np.asarray(poly_eval(spec, xs)).real
            diff = np.diff(vals, n + 1)
            scale = max(np.max(np.abs(vals)), 1.0) * 2.0 ** (n + 1)
            assert np.max(np.abs(diff)) <= 1e-9 * scale


class TestRoots:
    def test_laguerre_linear(self):
        roots = real_roots_in(PolySpec(LAGUERRE, 1, 0.0), (0.0, np.inf))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0, abs=1e-11)

    def test_legendre_linear(self):
        roots = real_roots_in(PolySpec(JACOBI, 1, 0.0, 0.0), (-1.0, 1.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-11)

    def test_catalog_quadratic_frozen(self):
        # parameters from the Poschl-Teller denominator at B = -2, m = -1;
        # roots frozen from the 50-digit companion-root oracle
        roots = real_roots_in(PolySpec(JACOBI, 2, 0.5, 1.5), (-1.0, 1.0))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-0.2742918851774318, abs=2e-12)
        assert roots[1] == pytest.approx(0.6076252185107651, abs=2e-12)

    def test_classical_jacobi_count(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            spec = PolySpec(JACOBI, n, float(rng.uniform(-0.9, 4.0)), float(rng.uniform(-0.9, 4.0)))
            roots = real_roots_in(spec, (-1.0, 1.0))
            assert len(roots) == n
            for r in roots:
                assert abs(poly_eval(spec, r)) < 1e-7 * max(1.0, abs(poly_eval(spec, 1.0)))

    def test_empty_result_is_valid(self):
        assert real_roots_in(PolySpec(JACOBI, 0, 1.0, 1.0), (-1.0, 1.0)) == []
        # L_2^{(0)} has both roots in (0, inf); none below zero
        assert real_roots_in(PolySpec(LAGUERRE, 2, 0.0), (-np.inf, 0.0)) == []

    def test_root_window_contains_roots(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            spec = PolySpec(LAGUERRE, n, float(rng.uniform(-0.9, 6.0)))
            lo, hi = root_window(spec)
            roots = real_roots_in(spec, (-np.inf, np.inf))
            assert len(roots) == n  # classical parameters: all roots real
            assert all(lo <= r <= hi for r in roots)


def reference_scan(f, lo, hi, n_sub, xs=None, vals=None):
    """The scan evaluated in full, one bracket and one point at a time, on
    the nodes xs with values vals, by default np.linspace(lo, hi, n_sub + 1)
    and f there."""
    if xs is None:
        xs = np.linspace(lo, hi, n_sub + 1)
        vals = np.asarray(f(xs), dtype=float)
    roots = [float(x) for x, v in zip(xs, vals) if v == 0.0]
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        a, b, fa = float(xs[i]), float(xs[i + 1]), float(vals[i])
        for _ in range(200):
            if (b - a) <= 1e-12:
                break
            mid = 0.5 * (a + b)
            fm = float(f(np.asarray([mid]))[0])
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return sorted(roots)


class TestScan:
    def test_exact_zero_at_node(self):
        xs = np.linspace(-1.0, 1.0, 65)
        assert scan_roots(lambda x: x, -1.0, 1.0, 64, xs, xs) == [0.0]

    def test_given_nodes_and_signs(self):
        # uneven nodes; only the signs of the values are read
        f = lambda x: (x + 0.5) * (x - 0.25)
        xs = np.array([-1.0, 0.0, 0.25, 2.0])
        roots = scan_roots(f, -1.0, 2.0, 3, xs, np.sign(f(xs)))
        assert roots[1] == 0.25
        assert roots == pytest.approx([-0.5, 0.25], abs=1e-12)

    def test_brackets_bisected_in_lockstep(self):
        # brackets (-0.5, 0), (0, 0.5) and (0.5, 1); the middle one's first
        # midpoint is the exact zero 0.25
        sizes = []

        def f(x):
            sizes.append(x.size)
            return (x + 0.3) * (x - 0.25) * (x - 0.7)

        xs = np.linspace(-1.0, 1.0, 5)
        roots = scan_roots(f, -1.0, 1.0, 4, xs, f(xs))
        # the nodes, then one call per step; the exact zero drops out at once
        assert sizes[:3] == [5, 3, 2]
        assert len(sizes) == 1 + 39
        assert roots[1] == 0.25
        assert roots == pytest.approx([-0.3, 0.25, 0.7], abs=1e-12)
        assert roots == reference_scan(f, -1.0, 1.0, 4)


class TestCertifiedRoots:
    """Roots the float scan used to miss or misplace, and the certified
    finder against the independent route in oracles.py."""

    def test_double_root_counted(self):
        # L_3^(-2) = z**2 (3 - z)/6: the double root at 0 changes no sign
        assert real_roots_in(PolySpec(LAGUERRE, 3, -2.0), (-np.inf, np.inf)) == [0.0, 3.0]
        assert real_roots_in(PolySpec(LAGUERRE, 3, -2.0), (-0.7, 1.3)) == [0.0]

    def test_root_at_series_origin_is_exact(self):
        # P_n^(alpha, beta)(1) = (alpha + 1)_n / n! = 0 at alpha = -1
        spec = PolySpec(JACOBI, 2, -1.0, 0.5)
        assert 1.0 in real_roots_in(spec, (0.3, 2.0))

    def test_root_at_interval_end_is_excluded(self):
        assert real_roots_in(PolySpec(JACOBI, 2, -1.0, 0.5), (1.0, np.inf)) == []
        assert real_roots_in(PolySpec(LAGUERRE, 3, -2.0), (0.0, 3.0)) == []

    def test_refinement_keeps_to_its_root(self):
        # near the root at -0.0133 the float values of its interval's
        # polynomial fall below their rounding bound; exact signs keep the
        # bisection there (float signs alone sent it to -2.76)
        roots = real_roots_in(PolySpec(LAGUERRE, 9, -1.127461551273706), (-np.inf, np.inf))
        assert len(roots) == 9
        assert roots[0] == pytest.approx(-0.013333719809747200, abs=1e-12)

    @given(
        jacobi=st.booleans(),
        n=st.integers(min_value=1, max_value=10),
        a=st.floats(min_value=-8, max_value=8, allow_nan=False),
        b=st.floats(min_value=-8, max_value=8, allow_nan=False),
        interval=st.sampled_from([(-np.inf, np.inf), (1.0, np.inf), (-1.0, 1.0), (-np.inf, 0.0)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_refinement_is_the_exact_sign_scan(self, jacobi, n, a, b, interval):
        # every scan real_roots_in runs gives, bit for bit, the reference
        # scan on its nodes and node signs with exact Fraction signs of the
        # square-free polynomial: its root at the series origin z0 divided
        # out, its leading sign that of the polynomial
        spec = PolySpec(JACOBI, n, a, b) if jacobi else PolySpec(LAGUERRE, n, a)
        scans = []

        def spy(f, lo, hi, n_sub, xs=None, vals=None):
            roots = scan_roots(f, lo, hi, n_sub, xs, vals)
            scans.append((xs, vals, roots))
            return roots

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polynomials, "scan_roots", spy)
            found = real_roots_in(spec, interval)
        if not scans:  # no root to refine, or the zero polynomial
            return
        exact = oracles.exact_coefficients(n, a, b if jacobi else None)
        p = oracles.squarefree_part(exact)
        z0 = 1 if jacobi else 0
        if sum(c * z0 ** k for k, c in enumerate(p)) == 0:
            q, acc = [], 0  # synthetic division by z - z0
            for c in reversed(p[1:]):
                acc = acc * z0 + c
                q.append(acc)
            p = q[::-1]
        if (p[-1] > 0) != (exact[-1] > 0):
            p = [-c for c in p]

        def exact_sign(x):
            vals = [sum(c * Fraction(float(z)) ** k for k, c in enumerate(p)) for z in x]
            return np.array([(v > 0) - (v < 0) for v in vals], dtype=float)

        for xs, vals, roots in scans:
            assert roots == reference_scan(exact_sign, xs[0], xs[-1], xs.size - 1, xs, vals)
            assert set(roots) <= set(found)

    def test_refinement_evaluates_no_float_polynomial(self):
        def refuse(*args):
            raise AssertionError("float polynomial evaluation")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polynomials, "_eval_rows", refuse)
            laguerre = real_roots_in(PolySpec(LAGUERRE, 9, -1.127461551273706), (-np.inf, np.inf))
            jacobi = real_roots_in(PolySpec(JACOBI, 8, 0.5, 1.5), (-1.0, 1.0))
        assert len(laguerre) == 9 and len(jacobi) == 8

    def test_imaginary_root_pair(self):
        # (z**2 + 4)(z - 3) has the roots +-2i; (z**2 - 4)(z - 3) and
        # z (z - 3) have none off the real axis (s = 0 does not count)
        assert intpoly.has_imaginary_root([-12, 4, -3, 1])
        assert not intpoly.has_imaginary_root([12, -4, -3, 1])
        assert not intpoly.has_imaginary_root([0, -3, 1])
        # P_2^(a, a) = -1/16 - z**2/32 at a = -7/4: roots +-i*sqrt(2)
        assert has_imaginary_root(PolySpec(JACOBI, 2, -1.75, -1.75))
        assert not has_imaginary_root(PolySpec(JACOBI, 2, -1.25, -1.25))

    @given(
        jacobi=st.booleans(),
        n=st.integers(min_value=1, max_value=10),
        a=st.floats(min_value=-8, max_value=8, allow_nan=False),
        b=st.floats(min_value=-8, max_value=8, allow_nan=False),
        interval=st.sampled_from([(-np.inf, np.inf), (1.0, np.inf), (-1.0, 1.0), (-np.inf, 0.0)]),
    )
    # a root near 2 beside one near -8.5e242: bisection from the wide window
    # must not stop short of it
    @example(jacobi=True, n=2, a=9.417008768093143e-243, b=-4.0, interval=(-np.inf, np.inf))
    # a root near -1.6e324, beyond the float range
    @example(jacobi=True, n=2, a=5e-324, b=-4.0, interval=(-np.inf, np.inf))
    @settings(max_examples=60, deadline=None)
    def test_matches_sturm_and_polyroots(self, jacobi, n, a, b, interval):
        spec = PolySpec(JACOBI, n, a, b) if jacobi else PolySpec(LAGUERRE, n, a)
        exact = oracles.exact_coefficients(n, a, b if jacobi else None)
        lo, hi = interval
        big = sys.float_info.max
        beyond = ((hi > big and oracles.sturm_count(exact, max(lo, big), hi))
                  + (lo < -big and oracles.sturm_count(exact, lo, min(hi, -big))))
        if beyond:
            with pytest.raises(UnsupportedError):
                real_roots_in(spec, interval)
            return
        roots = real_roots_in(spec, interval)
        assert len(roots) == oracles.sturm_count(exact, *interval)
        assert roots == sorted(roots)
        reference = oracles.polynomial_roots(exact)
        for r in roots:
            assert interval[0] < r < interval[1]
            assert min(abs(rho - r) / max(1.0, abs(rho)) for rho in reference) <= 1e-10


INF = math.inf
# open and closed ends, half-lines on either side of both series origins
INTERVALS = (
    Interval(-INF, INF), Interval(1.0, INF), Interval(1.0, INF, (True, False)),
    Interval(-INF, -1.0), Interval(-INF, -1.0, (False, True)), Interval(0.0, INF),
    Interval(-INF, 0.0, (False, True)), Interval(-1.0, 1.0), Interval(-1.0, 1.0, (True, True)),
    Interval(-2.5, 0.5, (True, False)),
)


def oracle_has_root(exact, intervals):
    """A root of the Fraction polynomial in the union, by Sturm on each open
    interval and exact values at the closed finite ends."""
    if len(exact) < 2:
        return False
    for iv in intervals:
        if oracles.sturm_count(exact, iv.lo, iv.hi):
            return True
        for end, closed in zip((iv.lo, iv.hi), iv.closed):
            if closed and math.isfinite(end) and sum(
                    c * Fraction(end) ** k for k, c in enumerate(exact)) == 0:
                return True
    return False


class TestHasRootIn:
    """The existence query against the Sturm oracle."""

    # integers and halves put roots exactly on the ends +-1 and 0
    param = st.one_of(st.floats(min_value=-16, max_value=8, allow_nan=False),
                      st.integers(min_value=-32, max_value=16).map(lambda k: k / 2))

    @given(
        jacobi=st.booleans(),
        n=st.integers(min_value=1, max_value=12),
        a=param,
        b=param,
        intervals=st.lists(st.sampled_from(INTERVALS), min_size=1, max_size=2),
    )
    # Descartes inconclusive on (-inf, 0]: isolation finds a root, or none
    @example(jacobi=False, n=3, a=1.0, b=0.0, intervals=[Interval(1.0, INF, (True, False))])
    @example(jacobi=False, n=4, a=-8.34, b=0.0, intervals=[Interval(-INF, 0.0, (False, True))])
    # L_2^(-2) = z**2 / 2: its only root is at the series origin
    @example(jacobi=False, n=2, a=-2.0, b=0.0, intervals=[Interval(-1.0, 1.0)])
    @settings(max_examples=150, deadline=None)
    def test_matches_sturm(self, jacobi, n, a, b, intervals):
        spec = PolySpec(JACOBI, n, a, b) if jacobi else PolySpec(LAGUERRE, n, a)
        exact = oracles.exact_coefficients(n, a, b if jacobi else None)
        assert has_root_in(spec, intervals) == oracle_has_root(exact, intervals)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_root_on_a_closed_end(self, n):
        # P_n^(alpha, beta)(1) = L_n^(alpha)(0) = (alpha + 1)_n / n!, zero at
        # alpha = -1, ..., -n: only the closed end holds that root
        for k in range(1, n + 1):
            for spec, at, open_side, closed_side in (
                    (PolySpec(JACOBI, n, -k, 0.3), 1.0, Interval(1.0, INF),
                     Interval(1.0, INF, (True, False))),
                    (PolySpec(LAGUERRE, n, -k), 0.0, Interval(-INF, 0.0),
                     Interval(-INF, 0.0, (False, True)))):
                exact = oracles.exact_coefficients(n, spec.alpha, spec.beta)
                assert sum(c * Fraction(at) ** j for j, c in enumerate(exact)) == 0
                assert has_root_in(spec, (closed_side,))
                assert has_root_in(spec, (open_side,)) == bool(
                    oracles.sturm_count(exact, open_side.lo, open_side.hi))

    def test_root_beyond_float_range_counts(self):
        # P_2^(5e-324, -4) has the roots 2 and about -1.6e324
        spec = PolySpec(JACOBI, 2, 5e-324, -4.0)
        assert has_root_in(spec, (Interval(1.0, INF),))
        assert has_root_in(spec, (Interval(-INF, -1.0, (False, True)),))
        assert not has_root_in(spec, (Interval(-1.0, 1.0, (True, True)),))
        # both roots on one half-line: Descartes is inconclusive, and the
        # isolation stage meets the root that real_roots_in refuses
        assert has_root_in(spec, (Interval(-INF, 3.0),))
        with pytest.raises(UnsupportedError):
            real_roots_in(spec, (-INF, 3.0))

    def test_constants_have_no_root(self):
        assert not has_root_in(PolySpec(JACOBI, 0, 1.0, 1.0), INTERVALS)
        # P_1^(-1, -1) is the zero polynomial
        assert not has_root_in(PolySpec(JACOBI, 1, -1.0, -1.0), INTERVALS)


class TestInterval:
    def test_membership(self):
        assert 1.0 not in Interval(1.0, INF) and 1.0 in Interval(1.0, INF, (True, False))
        assert 0.5 in Interval(0.0, 1.0) and -0.5 not in Interval(0.0, 1.0)
        assert INF not in Interval(1.0, INF) and INF not in Interval(1.0, INF, (True, True))


class TestMonomialBasis:
    def test_legendre_exact(self):
        # P_2 = (3 z**2 - 1)/2, P_3 = (5 z**3 - 3 z)/2
        assert monomial_coefficients(PolySpec(JACOBI, 2, 0.0, 0.0)).tolist() == [-0.5, 0.0, 1.5]
        assert monomial_coefficients(PolySpec(JACOBI, 3, 0.0, 0.0)).tolist() == [0.0, -1.5, 0.0, 2.5]

    def test_coefficients_expand_the_series(self):
        spec = PolySpec(JACOBI, 7, -2.3, 1.1)
        z = np.linspace(-3.0, 3.0, 13)
        polyval = np.polynomial.polynomial.polyval
        series, monomials = _series_coefficients(spec), monomial_coefficients(spec)
        u = (z - 1.0) / 2.0
        # each route's rounding is bounded by eps times its own term sizes
        term_size = np.maximum(polyval(np.abs(u), np.abs(series)),
                               polyval(np.abs(z), np.abs(monomials)))
        diff = polyval(z, monomials) - oracles.eval_series(series, u)
        assert np.all(np.abs(diff) <= 1e-13 * term_size)

    def test_cached_arrays_are_read_only(self):
        spec = PolySpec(JACOBI, 3, 0.5, -0.5)
        for coef in (_series_coefficients(spec), monomial_coefficients(spec)):
            with pytest.raises(ValueError):
                coef[0] = 1.0


def closed_form_series(spec):
    """_exact_series by the closed forms of its docstring, term by term
    (math.comb, den**s, products of factors): the reference for its running
    products."""
    n = spec.degree
    params = (spec.alpha,) if spec.kind == LAGUERRE else (spec.alpha, spec.beta)
    ratios = [float(v).as_integer_ratio() for v in params]
    den = max(q for _, q in ratios)
    ia, ib = ([p * (den // q) for p, q in ratios] + [0])[:2]
    if spec.kind == JACOBI:
        nums = [math.comb(n, s) * math.prod((n + 1 + j) * den + ia + ib for j in range(s))
                * math.prod((j + 1) * den + ia for j in range(s, n)) for s in range(n + 1)]
    else:
        nums = [(-1) ** s * math.comb(n, s) * den ** s
                * math.prod(ia + j * den for j in range(s + 1, n + 1)) for s in range(n + 1)]
    return tuple(nums), math.factorial(n) * den ** n


def assert_exact_series(spec):
    """The series integers are those of the closed forms, and the monomial
    integers over their scale are the oracle's Fraction coefficients."""
    assert polynomials._exact_series(spec) == closed_form_series(spec)
    d, scale = polynomials._monomial_integers(spec)
    exact = oracles.exact_coefficients(spec.degree, spec.alpha, spec.beta)
    assert intpoly.trimmed([Fraction(c, scale) for c in d]) == exact


def reference_affine_image(a, lo, hi, den):
    """den**n a((lo + (hi - lo) x) / den) by the binomial theorem, with **
    powers: the reference for intpoly.affine_image and its Taylor shift."""
    n, w = len(a) - 1, hi - lo
    return [sum(c * den ** (n - k) * math.comb(k, j) * lo ** (k - j)
                for k, c in enumerate(a) if k >= j) * w ** j for j in range(n + 1)]


class TestExactSeries:
    """The exact integer series, its cache, and the half-line images that
    Descartes' rule reads."""

    # every float is dyadic; quarters also make integer-valued parameters
    param = st.one_of(st.floats(min_value=-8, max_value=8, allow_nan=False),
                      st.integers(min_value=-32, max_value=32).map(lambda k: k / 4))

    @given(jacobi=st.booleans(), n=st.integers(min_value=0, max_value=16), a=param, b=param)
    @settings(max_examples=40, deadline=None)
    def test_matches_closed_forms_and_oracle(self, jacobi, n, a, b):
        assert_exact_series(PolySpec(JACOBI, n, a, b) if jacobi else PolySpec(LAGUERRE, n, a))

    @pytest.mark.parametrize("spec", [
        # a vanishing factor: (alpha + 1 + j) at alpha = -1, -2, and
        # (n + 1 + j + alpha + beta) at beta = -3 (P_3^(-1, -3) is zero)
        *(PolySpec(JACOBI, n, a, -3.0) for n in (1, 3, 5) for a in (-1.0, -2.0)),
        *(PolySpec(LAGUERRE, n, a) for n in (1, 3, 5) for a in (-1.0, -2.0)),
        PolySpec(JACOBI, DEGREE_CAP, 0.5, -1.25),
        PolySpec(LAGUERRE, DEGREE_CAP, -3.75),
    ], ids=str)
    def test_vanishing_factors_and_degree_cap(self, spec):
        assert_exact_series(spec)

    def test_one_build_per_spec_in_a_verify_op(self, tmp_path):
        # the root layer and the coefficient caches share one build of each
        # of the distinct P+-(m), P+-(m - 1), P+-(m - 2).  P-(m) is P+(m - 1)
        # unless rounding parts their parameters: 4 to 6 specs
        tag, seed = "Xl-Poschl-Teller", 8
        p = catalog.sample_valid_params(tag, 1, seed)[0]
        data = catalog.family_data(tag, p)
        specs = {P(p.m - k) for P in (data.p_plus, data.p_minus) for k in range(3)}
        for cached in (polynomials._exact_series, _series_coefficients, monomial_coefficients):
            cached.cache_clear()
        code = cli.main(["verify", "--family", tag, "--sample", "1", "--seed", str(seed),
                         "--no-timestamp", "--out", str(tmp_path / "report.json")])
        assert code == 0
        info = polynomials._exact_series.cache_info()
        assert info.misses == len(specs) and info.hits > 0

    @given(a=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=12),
           lo=st.integers(min_value=-50, max_value=50),
           w=st.sampled_from([1, -1, 3, -4]),
           den=st.sampled_from([1, 2, 8, 1024, 3, 12, 2**60 + 1]))
    @settings(max_examples=60, deadline=None)
    def test_affine_image_is_its_formula(self, a, lo, w, den):
        # shifts for a power-of-two den and sign flips for w = +-1 give
        # the same integers (the isolation stage's image feeds z_at)
        hi = lo + w
        assert intpoly.affine_image(a, lo, hi, den) == reference_affine_image(a, lo, hi, den)

    @given(a=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=12),
           kind=st.sampled_from([JACOBI, LAGUERRE]),
           end=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                         st.integers(min_value=-64, max_value=64).map(lambda k: k / 16),
                         st.floats(min_value=-1e3, max_value=1e3)),
           upper=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_half_line_images_keep_the_variations(self, a, kind, end, upper):
        # the origin half-lines skip the shift, and the others take their
        # end in lowest terms: the sign changes are those of the image of
        # the end as _dyadic_u gives it
        z0, h = polynomials._ORIGIN[kind]
        p, q = polynomials._dyadic_u(end, z0, h)
        old = reference_affine_image(a, p, p + 1 if upper else p - 1, q)
        interval = (end, math.inf) if upper else (-math.inf, end)
        images = polynomials._half_line_images(tuple(a), *interval, z0, h)
        assert [intpoly.variations(b) for b in images] == [intpoly.variations(old)]


class TestErrors:
    def test_nonfinite_argument(self):
        with pytest.raises(DomainError):
            poly_eval(PolySpec(JACOBI, 2, 0.0, 0.0), float("nan"))
        with pytest.raises(DomainError):
            poly_eval(PolySpec(LAGUERRE, 2, 0.0), float("inf"))

    def test_root_beyond_float_range(self):
        # P_2^(5e-324, -4) has the roots 2 and about -1.6e324
        spec = PolySpec(JACOBI, 2, 5e-324, -4.0)
        for interval in ((-np.inf, np.inf), (-np.inf, 0.0)):
            with pytest.raises(UnsupportedError):
                real_roots_in(spec, interval)
        for interval in ((0.0, np.inf), (-1.0, 3.0)):
            assert real_roots_in(spec, interval) == pytest.approx([2.0], abs=1e-11)

    @pytest.mark.parametrize("order", [-1, -2, 1.5, 1.0, "1", None])
    @pytest.mark.parametrize("more", [None, (PolySpec(JACOBI, 3, 0.5, 0.5),)])
    def test_bad_order(self, order, more):
        with pytest.raises(ValueError, match="order"):
            poly_eval(PolySpec(JACOBI, 3, 1.5, -0.5), np.array([0.5, 2.0]), order, more=more)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedError):
            PolySpec(JACOBI, DEGREE_CAP + 1, 0.0, 0.0)
        PolySpec(JACOBI, DEGREE_CAP, 0.0, 0.0)  # at the cap is fine

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            PolySpec("hermite", 2, 0.0)
        with pytest.raises(ValueError):
            PolySpec(JACOBI, -1, 0.0, 0.0)
        with pytest.raises(ValueError):
            PolySpec(JACOBI, 2, math.nan, 0.0)
        with pytest.raises(ValueError):
            PolySpec(LAGUERRE, 2, 0.0, beta=1.0)
