import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeinv import (
    REAL_TAGS,
    GridSpec,
    ParamPoint,
    PotentialGrid,
    UnsupportedError,
    UsageError,
    check_isospectrality,
    dirichlet_grid,
    get_family,
    make_grid,
    partner_potentials,
    remainder,
    sample_valid_params,
    solve_spectrum,
    with_perturbation,
)
from shapeinv.spectral import spectral_window

import oracles


class TestPartnerPotentials:
    def test_pure_oscillator_limit(self):
        # W = x: V-+ = x^2 -+ 1
        from conftest import plain_family

        fam = plain_family(
            k0=lambda x: np.asarray(x, dtype=float),
            k0_deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            k1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k1_deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            domain=(-np.inf, np.inf),
            m=0.0,
        )
        xs = np.linspace(-2.0, 2.0, 11)
        v_minus, v_plus = partner_potentials(fam, 0.0, xs)
        assert np.allclose(v_minus.values, xs**2 - 1.0, atol=1e-14)
        assert np.allclose(v_plus.values, xs**2 + 1.0, atol=1e-14)

    def test_free_radial_point(self, free_radial):
        # W = m/x at m = 1, x = 2: V- = 1/2, V+ = 0
        v_minus, v_plus = partner_potentials(free_radial, 1.0, np.asarray([2.0]))
        assert v_minus.values[0] == pytest.approx(0.5, abs=1e-15)
        assert v_plus.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_x1_radial_matches_oracle(self):
        p = sample_valid_params("X1-radial-oscillator", 1, seed=12)[0]
        fam = get_family("X1-radial-oscillator", p)
        xs = np.asarray([0.6, 1.3, 2.9])
        v_minus, _ = partner_potentials(fam, p.m, xs)
        for x, got in zip(xs, v_minus.values):
            ref = float(oracles.partner_minus("X1-radial-oscillator", p, p.m, float(x)).real)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_complex_family_rejected(self):
        fam = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=1))
        with pytest.raises(UnsupportedError):
            partner_potentials(fam, 0.5, np.asarray([0.7]))

    @pytest.mark.parametrize("imaginary", [0.0, 1e-300])
    def test_complex_w_on_a_real_family_rejected(self, imaginary):
        # a real family whose W arrives complex, even with an imaginary part
        # that is zero or far below any tolerance, is refused
        import dataclasses

        p = sample_valid_params("Xl-Poschl-Teller", 1, seed=3)[0]
        fam = get_family("Xl-Poschl-Teller", p)
        w1 = fam.w1
        leaky = dataclasses.replace(
            fam, w1=lambda x, ms: tuple(r + 1j * imaginary for r in w1(x, ms)))
        assert leaky.is_real
        with pytest.raises(UnsupportedError, match="complex W"):
            partner_potentials(leaky, p.m, np.asarray([0.7, 1.4]))


class TestRemainder:
    def test_free_radial_flat(self, free_radial):
        grid = np.linspace(0.4, 8.0, 400)
        r, flat = remainder(free_radial, 2.0, grid)
        # V+(m) = m(m-1)/x^2 equals V-(m-1) exactly: R = 0 with zero spread
        assert r == pytest.approx(0.0, abs=1e-14)
        assert flat < 1e-10

    def test_plain_oscillator_remainder(self, plain_oscillator):
        grid = np.linspace(0.3, 12.0, 600)
        r, flat = remainder(plain_oscillator, -2.0, grid)
        assert r == pytest.approx(2.0, abs=1e-12)  # R = 2*omega, omega = 1
        assert flat < 1e-10

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_catalog_flatness(self, tag):
        p = sample_valid_params(tag, 1, seed=9)[0]
        fam = get_family(tag, p)
        grid = make_grid(fam, GridSpec(), m_values=(p.m, p.m - 1.0))
        _, flat = remainder(fam, p.m, grid)
        assert flat < 1e-9

    def test_broken_compatibility_not_flat(self):
        p = sample_valid_params("X1-radial-oscillator", 1, seed=9)[0]
        fam = get_family("X1-radial-oscillator", p)
        pert = with_perturbation(fam, "wplus-slope", 0.01)
        grid = make_grid(fam, GridSpec(), m_values=(p.m, p.m - 1.0))
        _, flat = remainder(pert, p.m, grid)
        assert flat >= 1e-3


class TestSolveSpectrum:
    def test_harmonic_oscillator(self):
        xs = dirichlet_grid(-12.0, 12.0, 4000)
        pot = PotentialGrid(x=xs, values=xs**2)
        res = solve_spectrum(pot, 4)
        assert np.allclose(res.eigenvalues, [1.0, 3.0, 5.0, 7.0], atol=1e-4)
        assert np.all(res.error_estimates >= 0.0)

    def test_particle_in_a_box(self):
        xs = dirichlet_grid(0.0, np.pi, 4000)
        pot = PotentialGrid(x=xs, values=np.zeros_like(xs))
        res = solve_spectrum(pot, 3)
        assert np.allclose(res.eigenvalues, [1.0, 4.0, 9.0], atol=1e-4)

    def test_second_order_convergence(self):
        # eigenvalue error shrinks ~4x under grid doubling
        errs = []
        for n in (500, 1000):
            xs = dirichlet_grid(-12.0, 12.0, n)
            pot = PotentialGrid(x=xs, values=xs**2)
            res = solve_spectrum(pot, 3)
            errs.append(np.abs(res.eigenvalues - np.asarray([1.0, 3.0, 5.0])))
        ratio = errs[0] / errs[1]
        assert np.all(ratio > 3.2) and np.all(ratio < 4.8)

    def test_catalog_spectrum_stable_under_refinement(self):
        # grid-refinement self-oracle: the lowest V- levels of a sampled
        # radial-oscillator point move by < 1e-4 when the mesh doubles
        p = sample_valid_params("X1-radial-oscillator", 1, seed=33)[0]
        fam = get_family("X1-radial-oscillator", p)
        from shapeinv.spectral import spectral_window

        (a, b), _ = spectral_window(fam, (p.m,), 5)
        levels = []
        for n in (2000, 4000):
            xs = dirichlet_grid(a, b, n)
            v_minus, _ = partner_potentials(fam, p.m, xs)
            levels.append(solve_spectrum(v_minus, 5).eigenvalues)
        rel = np.abs(levels[1] - levels[0]) / np.maximum(np.abs(levels[1]), 1.0)
        assert np.max(rel) < 1e-4

    def test_constant_shift_invariance(self):
        xs = dirichlet_grid(-10.0, 10.0, 1500)
        pot = PotentialGrid(x=xs, values=xs**2)
        shifted = PotentialGrid(x=xs, values=xs**2 + 7.5)
        e0 = solve_spectrum(pot, 4).eigenvalues
        e1 = solve_spectrum(shifted, 4).eigenvalues
        assert np.max(np.abs((e1 - 7.5) - e0)) < 1e-10

    def test_usage_errors(self):
        xs = dirichlet_grid(0.0, 1.0, 200)
        pot = PotentialGrid(x=xs, values=np.zeros_like(xs))
        with pytest.raises(UsageError):
            solve_spectrum(pot, 0)
        with pytest.raises(UsageError):
            solve_spectrum(pot, 100)  # k not << grid size
        bumpy = PotentialGrid(x=np.sort(np.r_[xs[:-1], 0.9993]), values=np.zeros(200))
        with pytest.raises(UsageError):
            solve_spectrum(bumpy, 2)
        with pytest.raises(UsageError):
            solve_spectrum(pot, 3, shifts=[1.0, 2.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PotentialGrid(x=np.asarray([1.0, 0.5]), values=np.zeros(2))
        with pytest.raises(ValueError):
            PotentialGrid(x=np.asarray([0.0, 1.0]), values=np.asarray([np.nan, 0.0]))


def dense_levels(potential, k, h=None):
    """(k lowest eigenvalues, ||T||_1) of the dense finite-difference matrix,
    through LAPACK's dense symmetric solver rather than tridiagonal bisection.
    h defaults to the potential's first spacing."""
    if h is None:
        h = potential.x[1] - potential.x[0]
    n = potential.x.size
    t = (np.diag(2.0 / (h * h) + potential.values)
         + np.diag(np.full(n - 1, -1.0 / (h * h)), 1)
         + np.diag(np.full(n - 1, -1.0 / (h * h)), -1))
    return np.linalg.eigvalsh(t)[:k], float(np.max(np.sum(np.abs(t), axis=0)))


# The certified levels are within 12 eps*||T||_1 of T's eigenvalues, and
# bisection, the fallback, within a few; the dense solver adds its own
# rounding of the same order
ORACLE_ULPS = 32.0


def assert_matches_dense(potential, k):
    got = solve_spectrum(potential, k).eigenvalues
    want, norm = dense_levels(potential, k)
    assert np.max(np.abs(got - want)) <= ORACLE_ULPS * np.finfo(float).eps * norm


class TestSolveSpectrumOracle:
    """solve_spectrum against the dense matrix's eigenvalues."""

    @given(n=st.integers(64, 600), k=st.integers(1, 8), length=st.floats(1.0, 30.0),
           well=st.floats(0.0, 1000.0), ripple=st.floats(0.0, 50.0),
           frequency=st.floats(0.0, 3.0), offset=st.floats(-50.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_smooth_potentials(self, n, k, length, well, ripple, frequency, offset):
        # a well with ripples, in units of 1/length**2; deep ripples make
        # near-degenerate pairs, which reach the failure path
        xs = dirichlet_grid(0.0, length, n)
        u = xs / length - 0.5
        values = (well * u * u + ripple * np.cos(frequency * 2.0 * np.pi * u)) / length ** 2 + offset
        assert_matches_dense(PotentialGrid(x=xs, values=values), min(k, n // 8))

    @given(n=st.integers(64, 600), k=st.integers(1, 8), scale=st.floats(0.0, 1e4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rough_potentials(self, n, k, scale, seed):
        # node-to-node noise: the coarse grid's levels can be far from the
        # fine grid's, so these reach the certificate's failure path too
        xs = dirichlet_grid(0.0, 1.0, n)
        values = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        assert_matches_dense(PotentialGrid(x=xs, values=values), min(k, n // 8))

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_catalog_partners_on_their_window(self, tag):
        for p in sample_valid_params(tag, 2, seed=5):
            fam = get_family(tag, p)
            (a, b), _ = spectral_window(fam, (p.m, p.m - 1.0), 5)
            for potential in partner_potentials(fam, p.m, dirichlet_grid(a, b, 600)):
                assert_matches_dense(potential, 5)


class TestCertificate:
    """Shifts that lead inverse iteration to the wrong levels must not be
    accepted: _certified_levels then returns bisection's values."""

    XS = dirichlet_grid(-10.0, 10.0, 600)
    H = XS[1] - XS[0]
    VALUES = XS ** 2

    def levels(self, k):
        from shapeinv.spectral import _lowest_eigenvalues

        return _lowest_eigenvalues(self.VALUES, self.H, k)

    def certified(self, shifts, monkeypatch, starts=None):
        """(levels, number of bisection calls) for these shifts; the unit
        iterates come back exactly when no bisection ran."""
        from shapeinv.spectral import _certified_levels

        calls = bisected_sizes(monkeypatch)
        levels, vectors = _certified_levels(self.VALUES, self.H, shifts, starts)
        assert (vectors is None) == bool(calls)
        return levels, len(calls)

    def test_shifts_near_the_levels_are_accepted(self, monkeypatch):
        got, calls = self.certified(self.levels(5) + 0.01, monkeypatch)
        assert calls == 0
        assert np.max(np.abs(got - self.levels(5))) < 1e-9

    @pytest.mark.parametrize("picks", [
        (0, 1, 2, 3, 5),  # skips level 4: only the Sturm count sees it
        (0, 0, 1, 2, 4),  # two shifts on level 0 and level 3 skipped: the
                          # count is 5, only the disjointness test sees it
    ])
    def test_wrong_levels_fall_back_to_bisection(self, picks, monkeypatch):
        shifts = self.levels(6)[list(picks)] + np.asarray([0.01, -0.01, 0.01, 0.01, 0.01])
        got, calls = self.certified(shifts, monkeypatch)
        assert calls == 1
        assert np.array_equal(got, self.levels(5))

    @pytest.mark.parametrize("order", [(1, 0, 2, 3, 4), (4, 0, 1, 2, 3), (4, 3, 2, 1, 0)])
    def test_swapped_starts_never_give_wrong_levels(self, order, monkeypatch):
        # level j's own eigenvector as the start for shift i: the iteration
        # may stay on level j, and the certificate must then refuse the set
        from shapeinv.spectral import _certified_levels

        shifts = self.levels(5) + 0.01
        _, vectors = _certified_levels(self.VALUES, self.H, shifts)
        got, calls = self.certified(shifts, monkeypatch, starts=vectors[list(order)])
        if calls:
            assert np.array_equal(got, self.levels(5))
        else:
            assert np.max(np.abs(got - self.levels(5))) < 1e-9

    def test_shift_between_two_levels_falls_back(self, monkeypatch):
        # equidistant from levels 0 and 1: no convergence within the step cap
        lv = self.levels(2)
        got, calls = self.certified([lv[0], (lv[0] + lv[1]) / 2.0], monkeypatch)
        assert calls == 1
        assert np.array_equal(got, lv)


def allocating_inverse_iteration(diag, off, shift, start, tol):
    """The inverse-iteration loop with fresh arrays on every step: the
    reference that _inverse_iteration, which works in buffers, must equal
    bit for bit."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    from shapeinv.spectral import _MAX_STEPS

    dl, d, du, du2, ipiv, info = dgttrf(off, diag - shift, off)
    if info != 0:
        return None
    v = start
    for _ in range(_MAX_STEPS):
        v, info = dgttrs(dl, d, du, du2, ipiv, v)
        v /= np.linalg.norm(v)
        tv = diag * v
        tv[1:] += off * v[:-1]
        tv[:-1] += off * v[1:]
        rho = float(v @ tv)
        r = float(np.linalg.norm(tv - rho * v))
        if r <= tol:
            return rho, r, v
    return None


class TestInverseIterationBuffers:
    """_inverse_iteration against the allocating loop: rho, r and the bit
    pattern of v, or None from both."""

    @staticmethod
    def matrix(n, seed):
        """(diag, off, h, values) of a rough well on n nodes."""
        from shapeinv.spectral import _tridiagonal

        xs = dirichlet_grid(-6.0, 6.0, n)
        h = float(xs[1] - xs[0])
        values = xs ** 2 + np.random.default_rng(seed).uniform(-3.0, 3.0, n)
        return (*_tridiagonal(values, h), h, values)

    @staticmethod
    def tol(diag, h):
        from shapeinv.spectral import _EPS, _RESIDUAL_ULPS

        return _RESIDUAL_ULPS * _EPS * (float(np.max(np.abs(diag))) + 2.0 / (h * h))

    def assert_same(self, diag, off, shift, start, tol):
        from shapeinv.spectral import _inverse_iteration

        got = _inverse_iteration(diag, off, shift, start, tol)
        want = allocating_inverse_iteration(diag, off, shift, start, tol)
        if want is None:
            assert got is None
            return None
        assert got[:2] == want[:2]
        assert np.array_equal(got[2].view(np.uint64), want[2].view(np.uint64))
        return got

    @pytest.mark.parametrize("n", [64, 301, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_start(self, n, seed):
        from shapeinv.spectral import _bisect, _random_start

        diag, off, h, _ = self.matrix(n, seed)
        tol = self.tol(diag, h)
        levels = _bisect(diag, off, 0, 5)
        converged = 0
        for i, level in enumerate(levels):
            for shift in (level + 1e-2, level - 1e-4 * (i + 1), level):
                got = self.assert_same(diag, off, float(shift), _random_start(n), tol)
                converged += got is not None
        assert converged >= len(levels)

    @pytest.mark.parametrize("n", [301, 1000, 4000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_prolonged_start(self, n, seed):
        from scipy.linalg import eigh_tridiagonal

        from shapeinv.spectral import _prolong, _tridiagonal

        diag, off, h, values = self.matrix(n, seed)
        coarse, vectors = eigh_tridiagonal(*_tridiagonal(values[1::2], 2.0 * h),
                                           select="i", select_range=(0, 4))
        starts = _prolong(vectors.T, n)
        tol = self.tol(diag, h)
        converged = sum(
            self.assert_same(diag, off, float(shift), start, tol) is not None
            for shift, start in zip(coarse, starts))
        assert converged >= 1
        # the rows of the prolonged array are not written
        assert np.array_equal(starts, _prolong(vectors.T, n))

    def test_step_cap(self):
        from scipy.linalg.lapack import dgttrf

        from shapeinv.spectral import _bisect, _random_start

        # equidistant from levels 0 and 1: no convergence within the step cap
        diag, off, h, _ = self.matrix(600, 3)
        lv = _bisect(diag, off, 0, 1)
        shift = float((lv[0] + lv[1]) / 2.0)
        assert dgttrf(off, diag - shift, off)[-1] == 0
        assert self.assert_same(diag, off, shift, _random_start(600), self.tol(diag, h)) is None

    def test_zero_pivot(self):
        from scipy.linalg.lapack import dgttrf

        from shapeinv.spectral import _random_start

        # T - shift*I with an all-zero first column
        diag, off, h, _ = self.matrix(200, 4)
        off[0] = 0.0
        shift = float(diag[0])
        assert dgttrf(off, diag - shift, off)[-1] != 0
        assert self.assert_same(diag, off, shift, _random_start(200), self.tol(diag, h)) is None

    def test_cached_start_untouched(self):
        from shapeinv.spectral import _random_start

        # unseeded, the coarse grid is bisected and every fine-grid level
        # starts from _random_start(n)
        n = 1000
        before = _random_start(n).copy()
        xs = dirichlet_grid(-6.0, 6.0, n)
        solve_spectrum(PotentialGrid(x=xs, values=xs ** 2), 5)
        assert np.array_equal(_random_start(n), before)
        assert not _random_start(n).flags.writeable


class TestProlong:
    """_prolong carries spacing-doubled vectors (fine nodes 1, 3, ...) to
    the fine grid, with the Dirichlet walls at 0."""

    @pytest.mark.parametrize("n", [40, 41])
    def test_keeps_the_coarse_values(self, n):
        from shapeinv.spectral import _prolong

        coarse = np.random.default_rng(3).standard_normal((3, n // 2))
        fine = _prolong(coarse, n)
        assert fine.shape == (3, n)
        assert np.array_equal(fine[:, 1::2], coarse)

    @pytest.mark.parametrize("n", [40, 41])
    def test_exact_on_linear_functions(self, n):
        from shapeinv.spectral import _prolong

        # f[j] at fine node j - 1: the walls are f[0] and f[-1]; integer
        # values keep every mean exact
        nodes = np.arange(-1.0, n + 1.0)
        f = np.stack([3.0 + 2.0 * nodes,   # zero at neither wall
                      5.0 * (nodes + 1.0),  # zero at the left wall
                      7.0 * (n - nodes)])   # zero at the right wall
        fine = _prolong(f[:, 2:2 * (n // 2) + 1:2], n)
        want = f[:, 1:-1]
        # every node between two coarse nodes
        assert np.array_equal(fine[:, 1:n - 1], want[:, 1:n - 1])
        # the first node is exact where the left wall is 0
        assert np.array_equal(fine[1:, 0] == want[1:, 0], [True, False])
        # the last node is a coarse node for even n, and for odd n exact
        # where the right wall is 0
        if n % 2 == 0:
            assert np.array_equal(fine[:, -1], want[:, -1])
        else:
            assert fine[2, -1] == want[2, -1] and fine[1, -1] != want[1, -1]


class TestBisect:
    """_bisect makes eigh_tridiagonal's own dstebz call, so its levels are
    that function's bit for bit."""

    @staticmethod
    def matrix(case):
        from shapeinv.spectral import _PROBE_POINTS, _tridiagonal

        if case == "certificate":
            return _tridiagonal(TestCertificate.VALUES, TestCertificate.H)
        p = sample_valid_params(case, 1, seed=21)[0]
        fam = get_family(case, p)
        (a, b), _ = spectral_window(fam, (p.m, p.m - 1.0), 5)
        _, v_plus = partner_potentials(fam, p.m, dirichlet_grid(a, b, _PROBE_POINTS))
        return _tridiagonal(v_plus.values, v_plus.x[1] - v_plus.x[0])

    @pytest.mark.parametrize("case", ["certificate", *REAL_TAGS])
    def test_equals_eigh_tridiagonal(self, case):
        from scipy.linalg import eigh_tridiagonal

        from shapeinv.spectral import _bisect

        diag, off = self.matrix(case)
        for first, last in ((0, 4), (0, 0), (2, 7)):
            want = eigh_tridiagonal(diag, off, select="i", select_range=(first, last),
                                    eigvals_only=True)
            got = _bisect(diag, off, first, last)
            assert got.size == last - first + 1
            assert np.array_equal(got, want)


class TestIsospectrality:
    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_catalog_families(self, tag):
        p = sample_valid_params(tag, 1, seed=21)[0]
        fam = get_family(tag, p)
        iso = check_isospectrality(fam, p.m, k=5, n_points=4000)
        assert iso.mismatch < 1e-4

    def test_plain_oscillator(self, plain_oscillator):
        iso = check_isospectrality(plain_oscillator, -2.0, k=5, n_points=4000)
        assert iso.mismatch < 1e-4
        assert iso.remainder_value == pytest.approx(2.0, abs=1e-9)  # 2*omega, omega = 1

    def test_broken_family_mismatch(self):
        # A shape-invariance defect shows in the remainder's flatness, and
        # the reported mismatch, Weyl's bound on the level pairs, carries
        # it: the 0.01 kick clears the 1e-3 detection floor, the 0.05 one
        # reaches 1e-2.
        p = sample_valid_params("X1-radial-oscillator", 1, seed=21)[0]
        fam = get_family("X1-radial-oscillator", p)
        iso_small = check_isospectrality(
            with_perturbation(fam, "wplus-slope", 0.01), p.m, k=5, n_points=2000
        )
        assert iso_small.mismatch >= 1e-3
        iso_big = check_isospectrality(
            with_perturbation(fam, "wplus-slope", 0.05), p.m, k=5, n_points=2000
        )
        assert iso_big.mismatch >= 1e-2

    def test_complex_family_rejected(self):
        fam = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=1))
        with pytest.raises(UnsupportedError):
            check_isospectrality(fam, 0.5, k=3)


def reference_window(family, m_values, k, probe_points=400):
    """spectral_window's rule with the edge potential probed one abscissa
    at a time through partner_potentials, as it once was."""
    from shapeinv.spectral import _EDGE_MARGIN_ABOVE_TOP_LEVEL, _lowest_eigenvalues

    def edge(x):
        vals = []
        for m in m_values:
            vm, vp = partner_potentials(family, m, np.asarray([x]))
            vals.append(min(float(vm.values[0]), float(vp.values[0])))
        return min(vals)

    lo, hi = family.domain
    if math.isinf(lo) and math.isinf(hi):
        a, b = -8.0, 8.0
    elif math.isinf(hi):
        a, b = lo + 0.1, max(lo + 4.0, 1.0)
    elif math.isinf(lo):
        a, b = min(hi - 4.0, -1.0), hi - 0.1
    else:
        width = hi - lo
        a, b = lo + 1e-3 * width, hi - 1e-3 * width
    for _ in range(3):
        x = dirichlet_grid(a, b, probe_points)
        _, v_plus = partner_potentials(family, m_values[0], x)
        target = (float(_lowest_eigenvalues(v_plus.values, x[1] - x[0], k)[-1])
                  + _EDGE_MARGIN_ABOVE_TOP_LEVEL)
        if math.isinf(hi):
            grew, v_b = 0, edge(b)
            while v_b < target and grew < 60:
                nxt = b * 1.4
                v_nxt = edge(nxt)
                if v_nxt <= v_b + 1.0:
                    break
                b, v_b = nxt, v_nxt
                grew += 1
        if math.isinf(lo):
            grew, v_a = 0, edge(a)
            while v_a < target and grew < 60:
                nxt = a * 1.4 if a < 0 else a - 1.0
                v_nxt = edge(nxt)
                if v_nxt <= v_a + 1.0:
                    break
                a, v_a = nxt, v_nxt
                grew += 1
        if lo == 0.0:
            v_a = edge(a)
            while v_a < target and a > 1e-4:
                nxt = a / 2.0
                v_nxt = edge(nxt)
                if v_nxt <= v_a:
                    break
                a, v_a = nxt, v_nxt
        if not math.isinf(lo) and not math.isinf(hi) and lo != 0.0:
            break
    return float(a), float(b)


def line_family(k0, k0_deriv):
    """W = k0(x) on the whole line."""
    from conftest import plain_family

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return plain_family(k0=k0, k0_deriv=k0_deriv, k1=zero, k1_deriv=zero,
                        domain=(-np.inf, np.inf), m=0.0)


def window(family, m_values, k):
    """spectral_window's window without its probe levels."""
    return spectral_window(family, m_values, k)[0]


def probe_levels(family, m, window, k):
    """The k lowest levels of V+(., m) on the window's probe grid, bisected."""
    from shapeinv.spectral import _PROBE_POINTS, _lowest_eigenvalues

    x = dirichlet_grid(window[0], window[1], _PROBE_POINTS)
    _, v_plus = partner_potentials(family, m, x)
    return _lowest_eigenvalues(v_plus.values, x[1] - x[0], k)


# The families of the window and seeded-solve tests' perturbed controls
CONTROLS = ["X1-radial-oscillator", "Xl-Poschl-Teller"]


def perturbed_control(tag):
    p = sample_valid_params(tag, 1, seed=4)[0]
    return with_perturbation(get_family(tag, p), "wplus-slope", 0.05), p.m


class TestSpectralWindow:
    """Each pass evaluates W once, for its probe grid and every growth
    candidate of both sides at every m; the window must be the one the
    step-by-step rule reaches, bit for bit, and the levels those of its
    last probe."""

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_catalog_points(self, tag):
        for p in sample_valid_params(tag, 3, seed=9):
            fam = get_family(tag, p)
            for k in (3, 5):
                m_values = (p.m, p.m - 1.0)
                got, levels = spectral_window(fam, m_values, k)
                assert got == reference_window(fam, m_values, k)
                # these points settle within 3 passes: the probe saw this window
                assert np.array_equal(levels, probe_levels(fam, p.m, got, k))

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_probe_v_plus_equals_partner_potentials(self, tag, monkeypatch):
        # every pass's probe V+ is row 0 of the shared table, and equals
        # V+ evaluated alone on the probe grid, bit for bit
        from shapeinv import spectral

        passes = []
        make, lowest = spectral.dirichlet_grid, spectral._lowest_eigenvalues
        monkeypatch.setattr(spectral, "dirichlet_grid",
                            lambda *a: passes.append([make(*a)]) or passes[-1][0])
        monkeypatch.setattr(spectral, "_lowest_eigenvalues",
                            lambda v, *a: passes[-1].append(v) or lowest(v, *a))
        for p in sample_valid_params(tag, 3, seed=9):
            fam = get_family(tag, p)
            passes.clear()
            spectral_window(fam, (p.m, p.m - 1.0), 5)
            assert passes
            for x, v in passes:
                _, v_plus = partner_potentials(fam, p.m, x)
                assert v.tobytes() == v_plus.values.tobytes()

    @pytest.mark.parametrize("tag", CONTROLS)
    def test_perturbed_controls(self, tag):
        fam, m = perturbed_control(tag)
        m_values = (m, m - 1.0)
        assert window(fam, m_values, 5) == reference_window(fam, m_values, 5)

    @pytest.mark.parametrize("m_values, edge", [
        ((1.05,), 0.025), ((1.0 + 1e-9,), 0.1 / 2 ** 10), ((0.5,), 0.1),
    ])
    def test_halving_toward_zero(self, m_values, edge):
        # W = m/x: min(V-, V+) = (m**2 - m)/x**2, so the left edge halves
        # twice for m = 1.05, down to the 1e-4 floor for m just above 1,
        # and not at all for m = 0.5, where the end is attractive
        from conftest import plain_family

        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fam = plain_family(k0=zero, k0_deriv=zero, k1=lambda x: 1.0 / x,
                           k1_deriv=lambda x: -1.0 / (x * x), domain=(0.0, np.inf),
                           m=m_values[0])
        got = window(fam, m_values, 5)
        assert got == reference_window(fam, m_values, 5)
        assert got[0] == edge

    def test_overflowing_candidates_not_reached(self):
        # W = sinh(x): V overflows near x = 710, far beyond the edge reached
        fam = line_family(np.sinh, np.cosh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = window(fam, (0.0, -1.0), 5)
        assert got == reference_window(fam, (0.0, -1.0), 5)

    def test_growth_to_a_plateau(self):
        # W = 6 tanh(x/8): V saturates at 36, below the target, so both
        # sides grow until a step gains less than 1
        fam = line_family(lambda x: 6.0 * np.tanh(x / 8.0),
                          lambda x: 0.75 / np.cosh(x / 8.0) ** 2)
        got = window(fam, (0.0, -1.0), 3)
        assert got == reference_window(fam, (0.0, -1.0), 3)
        assert got == (-8.0 * 1.4 * 1.4, 8.0 * 1.4 * 1.4)

    def test_flat_potential_stays_put(self):
        # W = 3: V = 9 everywhere, so no step gains anything on either end
        from conftest import plain_family

        three = lambda x: np.full(np.shape(x), 3.0)
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fam = plain_family(k0=three, k0_deriv=zero, k1=zero, k1_deriv=zero,
                           domain=(0.0, np.inf), m=0.0)
        assert window(fam, (0.0, -1.0), 3) == reference_window(fam, (0.0, -1.0), 3) == (0.1, 4.0)

    @pytest.mark.parametrize("bad_x", [8.0, 8.0 * 1.4])
    def test_reached_nonfinite_value_raises(self, bad_x):
        # V is nan at one abscissa off the probe grid: the starting edge 8,
        # or 11.2, the first growth candidate
        fam = line_family(lambda x: np.where(x == bad_x, np.nan, 0.1 * x),
                          lambda x: np.full(np.shape(x), 0.1))
        with pytest.raises(ValueError, match="finite"):
            reference_window(fam, (0.0, -1.0), 3)
        with pytest.raises(ValueError, match="finite"):
            spectral_window(fam, (0.0, -1.0), 3)

    @staticmethod
    def assert_passes(w, w_deriv, k, passes):
        """Each pass makes one call for the probe grid and both sides'
        candidates at both m, and no single-point call; the search stops
        after the first pass that returns the window it started from."""
        sizes = []

        def k0(x):
            sizes.append(np.size(x))
            return w(x)

        got = window(line_family(k0, w_deriv), (0.0, -1.0), k)
        assert got == reference_window(line_family(w, w_deriv), (0.0, -1.0), k)
        assert len(sizes) == passes * 1
        assert min(sizes) > 1

    def test_one_array_call_per_side(self):
        # W = x: V at -8 and 8 already exceeds the target, so the first pass
        # leaves the window as it found it
        self.assert_passes(lambda x: np.asarray(x, dtype=float),
                           lambda x: np.ones_like(np.asarray(x, dtype=float)), 5, 1)

    def test_plateau_settles_in_the_second_pass(self):
        # W = 6 tanh(x/8): the first pass grows both sides to the plateau,
        # and the second finds them there
        self.assert_passes(lambda x: 6.0 * np.tanh(np.asarray(x, dtype=float) / 8.0),
                           lambda x: 0.75 / np.cosh(np.asarray(x, dtype=float) / 8.0) ** 2,
                           3, 2)


def seeded_case(tag, index):
    """(family, m) of the seeded-solve tests: 2 sampled points per real family
    and the window tests' perturbed controls."""
    if index == "control":
        return perturbed_control(tag)
    p = sample_valid_params(tag, 2, seed=5)[index]
    return get_family(tag, p), p.m


SEEDED_CASES = ([(tag, i) for tag in REAL_TAGS for i in (0, 1)]
                + [(tag, "control") for tag in CONTROLS])


def bisected_sizes(monkeypatch):
    """The matrix size of every later _bisect call."""
    from shapeinv import spectral

    sizes = []
    bisect = spectral._bisect
    monkeypatch.setattr(spectral, "_bisect",
                        lambda diag, *a: sizes.append(diag.size) or bisect(diag, *a))
    return sizes


class TestSeededSolve:
    """check_isospectrality seeds V+ with the window probe's levels; every
    level set is still certified on its own matrix, with bisection as the
    fallback."""

    @pytest.mark.parametrize("tag, index", SEEDED_CASES)
    def test_levels_match_dense(self, tag, index):
        # 1000 points keep the dense solves cheap; the path is the default's
        fam, m = seeded_case(tag, index)
        n = 1000
        iso = check_isospectrality(fam, m, k=5, n_points=n)
        x = dirichlet_grid(iso.window[0], iso.window[1], n)
        h = x[1] - x[0]
        _, v_plus = partner_potentials(fam, m, x)
        spectrum = iso.spectrum_plus
        ulp = ORACLE_ULPS * np.finfo(float).eps
        want, norm = dense_levels(v_plus, 5)
        assert np.max(np.abs(spectrum.eigenvalues - want)) <= ulp * norm
        # the error estimate |fine - coarse|/3 implies the coarse level up
        # to its side of the fine one
        coarse = PotentialGrid(x=v_plus.x[1::2], values=v_plus.values[1::2])
        want, norm = dense_levels(coarse, 5, h=2.0 * h)
        step = 3.0 * spectrum.error_estimates
        off = np.minimum(np.abs(spectrum.eigenvalues - step - want),
                         np.abs(spectrum.eigenvalues + step - want))
        assert np.max(off) <= ulp * norm

    @pytest.mark.parametrize("tag, index", SEEDED_CASES)
    def test_only_the_probe_is_bisected(self, tag, index, monkeypatch):
        from shapeinv.spectral import _PROBE_POINTS

        fam, m = seeded_case(tag, index)
        sizes = bisected_sizes(monkeypatch)
        check_isospectrality(fam, m, k=5, n_points=4000)
        assert sizes and set(sizes) == {_PROBE_POINTS}

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_warm_started_levels_match_bisection(self, tag, monkeypatch):
        # the fine grid starts from the coarse grid's prolonged vectors: its
        # levels are bisection's within the certificate's bound
        from shapeinv.spectral import (_EPS, _GUARD_ULPS, _RESIDUAL_ULPS,
                                       _lowest_eigenvalues)

        p = sample_valid_params(tag, 1, seed=21)[0]
        fam = get_family(tag, p)
        (a, b), probe = spectral_window(fam, (p.m, p.m - 1.0), 5)
        _, v_plus = partner_potentials(fam, p.m, dirichlet_grid(a, b, 4000))
        h = v_plus.x[1] - v_plus.x[0]
        sizes = bisected_sizes(monkeypatch)
        got = solve_spectrum(v_plus, 5, shifts=probe).eigenvalues
        assert sizes == []  # both grids certified
        want = _lowest_eigenvalues(v_plus.values, h, 5)
        norm = np.max(np.abs(2.0 / (h * h) + v_plus.values)) + 2.0 / (h * h)
        assert np.max(np.abs(got - want)) <= (_RESIDUAL_ULPS + _GUARD_ULPS) * _EPS * norm

    @pytest.mark.parametrize("bad", ["skipped level", "all equal", "one level up"])
    def test_bad_shifts_give_the_unseeded_result(self, bad, monkeypatch):
        from shapeinv.spectral import _lowest_eigenvalues

        p = sample_valid_params("X1-radial-oscillator", 1, seed=21)[0]
        fam = get_family("X1-radial-oscillator", p)
        (a, b), _ = spectral_window(fam, (p.m, p.m - 1.0), 5)
        _, v_plus = partner_potentials(fam, p.m, dirichlet_grid(a, b, 4000))
        h = v_plus.x[1] - v_plus.x[0]
        levels = _lowest_eigenvalues(v_plus.values[1::2], 2.0 * h, 6)
        shifts = {"skipped level": levels[[0, 1, 2, 3, 5]],
                  "all equal": np.full(5, levels[2]),
                  "one level up": levels[1:]}[bad]
        want = solve_spectrum(v_plus, 5)
        sizes = bisected_sizes(monkeypatch)
        got = solve_spectrum(v_plus, 5, shifts=shifts)
        assert 2000 in sizes  # the certificate refused them
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.error_estimates, want.error_estimates)

    def test_stale_probe_levels(self, monkeypatch):
        # W = sqrt(1 + 2.7 log(1 + x^2)): V grows by more than 1 per growth
        # step but by less than the margin over the probe's top level, so
        # each pass raises the target past the new edge and the third pass
        # still moves both edges.  The probe levels then belong to the
        # second window, 1.7 below the returned window's; inverse iteration
        # from them fails the certificate, and V+'s coarse grid is bisected.
        from shapeinv.spectral import _PROBE_POINTS

        def w(x):
            return np.sqrt(1.0 + 2.7 * np.log1p(np.asarray(x, dtype=float) ** 2))

        fam = line_family(w, lambda x: 2.7 * x / ((1.0 + x * x) * w(x)))
        (a, b), levels = spectral_window(fam, (0.0, -1.0), 5)
        assert np.max(np.abs(levels - probe_levels(fam, 0.0, (a, b), 5))) > 1.0

        sizes = bisected_sizes(monkeypatch)
        iso = check_isospectrality(fam, 0.0, k=5, n_points=4000)
        assert sizes[:4] == [_PROBE_POINTS] * 3 + [2000]
        monkeypatch.undo()
        x = dirichlet_grid(a, b, 4000)
        h = x[1] - x[0]
        _, v_plus = partner_potentials(fam, 0.0, x)
        want = solve_spectrum(v_plus, 5).eigenvalues
        # Gershgorin's bound on ||T||_1
        norm = float(np.max(np.abs(v_plus.values))) + 4.0 / (h * h)
        assert np.max(np.abs(iso.spectrum_plus.eigenvalues - want)) <= (
            ORACLE_ULPS * np.finfo(float).eps * norm)


# SEEDED_CASES and a control that breaks compatibility but not translation
WEYL_CASES = SEEDED_CASES + [("X1-radial-oscillator", "paired-mx-slope")]


class TestWeylBound:
    """check_isospectrality solves V+ alone and reports Weyl's bound on the
    level mismatch; V-(., m-1) is solved here, on the same grid, to show
    that the bound holds."""

    @pytest.mark.parametrize("tag, index", WEYL_CASES)
    def test_bound_holds(self, tag, index):
        # without its 4 eps/h^2 rounding term the bound fails on the valid
        # X1-hyperbolic, X1-radial, Xl-Poschl-Teller and Xl-radial points
        if index == "paired-mx-slope":
            p = sample_valid_params(tag, 2, seed=5)[0]
            fam, m = with_perturbation(get_family(tag, p), index, 1e-6), p.m
        else:
            fam, m = seeded_case(tag, index)
        iso = check_isospectrality(fam, m, k=5, n_points=4000)
        x = dirichlet_grid(iso.window[0], iso.window[1], 4000)
        v_minus_prev, _ = partner_potentials(fam, m - 1.0, x)
        minus = solve_spectrum(v_minus_prev, 5).eigenvalues
        gap = np.max(np.abs(iso.spectrum_plus.eigenvalues - (minus + iso.remainder_value)))
        assert gap <= iso.mismatch

    def test_one_solve_and_one_fine_grid_evaluation(self, monkeypatch):
        from shapeinv import spectral

        solves, sizes = [], []
        solve, values = spectral.solve_spectrum, spectral._real_potential_values
        monkeypatch.setattr(spectral, "solve_spectrum",
                            lambda *a, **kw: solves.append(1) or solve(*a, **kw))
        monkeypatch.setattr(spectral, "_real_potential_values",
                            lambda fam, x, ms, *table: sizes.append(np.size(x))
                            or values(fam, x, ms, *table))
        fam, m = seeded_case("X1-radial-oscillator", 0)
        check_isospectrality(fam, m, k=5, n_points=4000)
        assert len(solves) == 1
        assert sizes.count(4000) == 1
