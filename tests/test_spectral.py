import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeinv import (
    REAL_TAGS,
    InvalidParameterError,
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
        grid = make_grid(fam, m_values=(p.m, p.m - 1.0))
        _, flat = remainder(fam, p.m, grid)
        assert flat < 1e-9

    def test_broken_compatibility_not_flat(self):
        p = sample_valid_params("X1-radial-oscillator", 1, seed=9)[0]
        fam = get_family("X1-radial-oscillator", p)
        pert = with_perturbation(fam, "wplus-slope", 0.01)
        grid = make_grid(fam, m_values=(p.m, p.m - 1.0))
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
        got, calls = self.certified(shifts, monkeypatch, starts=[vectors[i] for i in order])
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


class TestSolveOutsideFloatRange:
    """The solve squares residuals of up to 2*||T||_1: where that square is
    not finite, _certified_levels refuses the matrix before any iteration."""

    @pytest.mark.parametrize("scale, refused", [(1e140, False), (1e160, True), (1e300, True)])
    def test_refused_where_the_square_overflows(self, scale, refused, monkeypatch):
        # scale times the 400-node matrix of 1 + x^2 on (-6, 6), whose
        # ||T||_1 bound is about 4.5e3: 4.5e143, 4.5e163 and 4.5e303
        from shapeinv.spectral import _certified_levels, _lowest_eigenvalues

        xs = dirichlet_grid(-6.0, 6.0, 400)
        values = scale * (1.0 + xs * xs)
        h = float(xs[1] - xs[0]) / math.sqrt(scale)
        runs, _ = certificate_log(monkeypatch)
        if refused:
            # no shift is needed: nothing runs before the refusal
            shifts = scale * np.array([1.0, 2.0, 3.0])
            with pytest.raises(UnsupportedError, match="squared residuals overflow float64"):
                _certified_levels(values, h, shifts)
            assert runs == []
        else:
            levels, vectors = _certified_levels(values, h, _lowest_eigenvalues(values, h, 3))
            assert vectors is not None and len(runs) == 3
            want = _lowest_eigenvalues(1.0 + xs * xs, float(xs[1] - xs[0]), 3)
            assert np.allclose(levels / scale, want)

    def test_overflowing_solve_falls_back_to_bisection(self):
        # 1e150 * (1 + x^2) on the same 400 nodes, below the refusal: at the
        # third level diag - shift is exactly 0 at two nodes, and one solve
        # from the start vector overflows v @ v.  The level fails like a
        # singular factorisation, without a warning, and the matrix is
        # bisected
        from shapeinv.spectral import _certified_levels, _lowest_eigenvalues

        xs = dirichlet_grid(-6.0, 6.0, 400)
        values = 1e150 * (1.0 + xs * xs)
        h = float(xs[1] - xs[0])
        shifts = _lowest_eigenvalues(values, h, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels, vectors = _certified_levels(values, h, shifts)
        assert vectors is None
        assert np.array_equal(levels, _lowest_eigenvalues(values, h, 5))


def certificate_log(monkeypatch):
    """The results of every later _inverse_iteration call, (rho, r, v) or
    None, and of every _certificate call, levels or None."""
    from shapeinv import spectral

    runs, certificates = [], []
    iterate, certify = spectral._inverse_iteration, spectral._certificate
    monkeypatch.setattr(spectral, "_inverse_iteration",
                        lambda *a, **kw: runs.append(iterate(*a, **kw)) or runs[-1])
    monkeypatch.setattr(spectral, "_certificate",
                        lambda *a: certificates.append(certify(*a)) or certificates[-1])
    return runs, certificates


def certified_bound(values, h):
    """(_RESIDUAL_ULPS + _GUARD_ULPS) * eps * ||T||_1 (Gershgorin's bound):
    the error that the certificate accepts."""
    from shapeinv.spectral import _EPS, _GUARD_ULPS, _RESIDUAL_ULPS

    norm = float(np.max(np.abs(2.0 / (h * h) + values))) + 2.0 / (h * h)
    return (_RESIDUAL_ULPS + _GUARD_ULPS) * _EPS * norm, _RESIDUAL_ULPS * _EPS * norm


def early_stop_starts(values, k):
    """k copies of one normal start vector (default_rng(0)) on which the top
    level of double_well(1.0) stops early: whether a level stops early
    depends on its start, and the default start need not do so there."""
    return [np.random.default_rng(0).standard_normal(values.size)] * k


def double_well(depth):
    """(values, h) of depth*(x^2 - 4)^2 on 600 nodes of (-4, 4): its levels
    come in tunnelling pairs; levels 2 and 3 are split by 0.12 at depth 1
    and by 2.2e-5 at depth 4, levels 0 and 1 by 3.2e-5 at depth 2."""
    xs = dirichlet_grid(-4.0, 4.0, 600)
    return depth * (xs * xs - 4.0) ** 2, float(xs[1] - xs[0])


class TestTempleCertificate:
    """A level may stop at r^2 <= tol*delta, delta a quarter of its shift's
    distance to the nearest other shift.  Its set is accepted only where a
    Sturm count isolates every such level well enough for Kato-Temple to
    bound its error by tol + guard; otherwise the matrix is bisected."""

    def test_early_stopped_set_is_accepted(self, monkeypatch):
        # every level of the oscillator stops early, with r up to 1e-6, and
        # the first certificate accepts the set as it stands
        from shapeinv.spectral import _certified_levels, _lowest_eigenvalues

        values, h = TestCertificate.VALUES, TestCertificate.H
        bound, tol = certified_bound(values, h)
        shifts = _lowest_eigenvalues(values, h, 5) + 0.01
        runs, certificates = certificate_log(monkeypatch)
        calls = bisected_sizes(monkeypatch)
        got, vectors = _certified_levels(values, h, shifts)
        assert vectors is not None and calls == []
        assert len(certificates) == 1
        assert all(run[1] > tol for run in runs)
        want, _ = dense_levels(PotentialGrid(x=TestCertificate.XS, values=values), 5)
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("depth", [1.0, 4.0])
    def test_close_neighbour_above_the_top_level(self, depth, monkeypatch):
        # levels 0..2 of a double well: level 3 sits 0.12 (depth 1) or
        # 2.2e-5 (depth 4) above the top level, far closer than delta, so
        # the Sturm count up to the top level's isolation refuses the early
        # stop, and the matrix is bisected
        from shapeinv.spectral import _certified_levels, _lowest_eigenvalues

        values, h = double_well(depth)
        bound, tol = certified_bound(values, h)
        want = _lowest_eigenvalues(values, h, 3)
        runs, certificates = certificate_log(monkeypatch)
        calls = bisected_sizes(monkeypatch)
        got, vectors = _certified_levels(values, h, want + 1e-7, early_stop_starts(values, 3))
        assert runs[2][1] > tol  # the top level stopped early
        assert certificates == [None]
        assert vectors is None and calls == [values.size]
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("depth", [1.0, 4.0])
    def test_refused_set_goes_straight_to_bisection(self, depth, monkeypatch):
        # a set refused after an early stop costs k inverse iterations and
        # one certificate: no level is iterated again before the bisection
        from shapeinv.spectral import _certified_levels, _lowest_eigenvalues

        values, h = double_well(depth)
        _, tol = certified_bound(values, h)
        want = _lowest_eigenvalues(values, h, 3)
        runs, certificates = certificate_log(monkeypatch)
        calls = bisected_sizes(monkeypatch)
        _certified_levels(values, h, want + 1e-7, early_stop_starts(values, 3))
        assert len(runs) == 3 and any(run[1] > tol for run in runs)
        assert len(certificates) == 1 and calls == [values.size]

    def test_pair_closer_than_its_shifts(self, monkeypatch):
        # a tunnelling pair split by 3.2e-5, reached from shifts 0.5 below
        # and above it, each level started from its eigenvector with 5% of
        # the other's: both stop early at r = 1.6e-6 with rho 7.9e-8 off,
        # an error that only the distance to the neighbour in the set, not
        # to the far end of the interval, shows.  The set is refused, and
        # the matrix is bisected
        from scipy.linalg import eigh_tridiagonal

        from shapeinv.spectral import _certified_levels, _tridiagonal

        values, h = double_well(2.0)
        bound, tol = certified_bound(values, h)
        want, vectors = eigh_tridiagonal(*_tridiagonal(values, h), select="i",
                                         select_range=(0, 1))
        starts = [vectors[:, 0] + 0.05 * vectors[:, 1], vectors[:, 1] - 0.05 * vectors[:, 0]]
        runs, certificates = certificate_log(monkeypatch)
        calls = bisected_sizes(monkeypatch)
        got, _ = _certified_levels(values, h, [want[0] - 0.5, want[1] + 0.5], starts)
        assert all(run[1] > tol for run in runs[:2])
        assert certificates == [None] and calls == [values.size]
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("seed", range(50))
    def test_multi_well_potentials(self, seed):
        # a*u^2 + 10 cos(2 pi f u) + c on [0, L]: up to six wells, with
        # near-degenerate pairs that reach every path of the certificate
        rng = np.random.default_rng(seed)
        a, f = rng.uniform(0.0, 200.0), rng.uniform(0.0, 6.0)
        length, c = rng.uniform(1.0, 30.0), rng.uniform(-50.0, 50.0)
        n = int(rng.integers(64, 601))
        xs = dirichlet_grid(0.0, length, n)
        u = xs / length - 0.5
        values = a * u * u + 10.0 * np.cos(2.0 * np.pi * f * u) + c
        assert_matches_dense(PotentialGrid(x=xs, values=values),
                             min(int(rng.integers(1, 9)), n // 8))


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


class TestRandomStart:
    """_random_start(n) is SplitMix64's stream from state 0, one output per
    node, as a fraction in [-0.5, 0.5)."""

    @staticmethod
    def splitmix64(i):
        """SplitMix64's i-th output from state 0, in Python integers."""
        mask = (1 << 64) - 1
        z = (i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def test_first_output(self):
        # SplitMix64's published first output from state 0
        assert self.splitmix64(1) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("n", [1, 7, 4000])
    def test_matches_the_integer_stream(self, n):
        from shapeinv.spectral import _random_start

        want = [(self.splitmix64(i) >> 11) * 2.0 ** -53 - 0.5 for i in range(1, n + 1)]
        assert _random_start(n).tolist() == want

    def test_range_and_asymmetry(self):
        from shapeinv.spectral import _random_start

        start = _random_start(4000)
        assert start.dtype == np.float64
        assert np.all((start >= -0.5) & (start < 0.5))
        # neither symmetric nor antisymmetric about the grid's centre
        assert np.max(np.abs(start - start[::-1])) > 0.5
        assert np.max(np.abs(start + start[::-1])) > 0.5


def padded_prolong(coarse, n):
    """Prolongation through a zero-filled (k, n) block and a padded copy of
    the coarse rows: the reference that _prolong, which writes the fine
    vector once, must equal bit for bit."""
    fine = np.zeros((coarse.shape[0], n))
    fine[:, 1::2] = coarse
    walled = np.pad(coarse, ((0, 0), (1, 1)))
    even = (n + 1) // 2
    fine[:, 0::2] = 0.5 * (walled[:, :even] + walled[:, 1:even + 1])
    return fine


class TestProlong:
    """_prolong carries spacing-doubled vectors (fine nodes 1, 3, ...) to
    the fine grid, with the Dirichlet walls at 0."""

    @pytest.mark.parametrize("n", [40, 41, 4000])
    def test_equals_the_padded_reference(self, n):
        from shapeinv.spectral import _prolong

        coarse = np.random.default_rng(n).standard_normal((5, n // 2))
        want = padded_prolong(coarse, n)
        # one vector at a time, as solve_spectrum prolongs, and as rows
        rows = np.stack([_prolong(row, n) for row in coarse])
        assert rows.tobytes() == want.tobytes()
        assert _prolong(coarse, n).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("tag, params, m, violated", [
        # D+ = 7 - 2x^2 has its root x = 1.871 inside the window the check
        # once ran on, and passed with mismatch 3.7e-10
        ("X1-radial-oscillator", dict(omega=2.0, d=1.0), 2.0, "m < -(1 + 2*d)/2"),
        # m = 0.3 is valid, its translate m - 1 is not
        ("X1-hyperbolic", dict(c=1.0, beta=0.5, d=1.0), 0.3,
         "m > (2*beta + c^2 - 2*c*d)/(2*c^2)"),
        ("Xl-radial-oscillator", dict(omega=1.0, ell=2), 0.2, "m < -1/2"),
        ("Xl-Poschl-Teller", dict(B=-2.0, ell=2), -0.9, "(1 + 2*B)/2 < m < -(1 + 2*B)/2"),
    ])
    def test_outside_the_region_at_m_or_m_minus_1_raises(self, tag, params, m, violated):
        fam = get_family(tag, ParamPoint(m=m, **params))
        with pytest.raises(InvalidParameterError) as err:
            check_isospectrality(fam, m, k=3, n_points=400)
        assert err.value.violated == violated

    def test_window_search_is_not_gated(self):
        # the region gate sits in check_isospectrality, not in the window helper
        fam = get_family("X1-radial-oscillator", ParamPoint(m=2.0, omega=2.0, d=1.0))
        (a, b), levels = spectral_window(fam, (2.0, 1.0), 3)
        assert a < 1.871 < b and levels.size == 3

    def test_overflowing_potential_raises(self):
        # omega = 1e160: W^2 overflows on the window, where PotentialGrid's
        # ValueError once escaped as the CLI's violation exit
        fam = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=1e160, d=1.0))
        with pytest.raises(UnsupportedError, match="V\\+ is not finite on the spectral window"):
            check_isospectrality(fam, -3.0, k=3, n_points=400)
        with pytest.raises(ValueError, match="potential grid must be finite"):
            PotentialGrid(x=np.array([0.0, 1.0]), values=np.array([0.0, np.inf]))


def ladder(family, m, k):
    """The k lowest V+ levels that shape invariance fixes where H-(m) has
    the zero mode exp(-int W): E_n = sum_{j=0..n} R(m - j), with
    R(m) = (2m - 1)a - 2b (Cooper, Khare and Sukhatme, Phys. Rep. 251
    (1995) 267)."""
    a, b = family.expected_ab
    return np.cumsum([(2.0 * (m - j) - 1.0) * a - 2.0 * b for j in range(k)])


# The points where the V+ levels climb the ladder: both radial families,
# and X1-trigonometric's points in its lower m-interval
LADDER_POINTS = [(tag, i) for tag in ("X1-radial-oscillator", "Xl-radial-oscillator")
                 for i in range(6)] + [("X1-trigonometric", i) for i in (1, 2, 5)]


class TestLadder:
    """The walls next to the 1/x^2 and 1/cos^2 barriers sit close enough to
    their ends that the levels meet the ladder to within their Richardson
    estimate.  At walls 0.1 from x = 0, or 1e-3 of the width from each end
    of X1-trigonometric's domain, they missed it by up to 0.25."""

    @pytest.mark.parametrize("tag, index", LADDER_POINTS)
    def test_levels_climb_the_ladder(self, tag, index):
        p = sample_valid_params(tag, 6, seed=21)[index]
        fam = get_family(tag, p)
        spectrum = check_isospectrality(fam, p.m).spectrum_plus
        miss = np.abs(spectrum.eigenvalues - ladder(fam, p.m, 5))
        assert np.max(np.abs(miss - spectrum.error_estimates)) <= 1e-6


class TestRichardsonWalls:
    """The fine grid holds an odd number of nodes, so the spacing-doubled
    grid shares its walls and the Richardson estimate |fine - coarse|/3
    tracks the fine level's error, on box states that reach the wall too."""

    @pytest.mark.parametrize("tag", ["X1-hyperbolic", "Xl-Poschl-Teller"])
    def test_estimate_tracks_the_error(self, tag):
        from shapeinv.spectral import _lowest_eigenvalues

        for p in sample_valid_params(tag, 3, seed=21):
            fam = get_family(tag, p)
            iso = check_isospectrality(fam, p.m, k=5, n_points=4000)
            # a reference 4x finer than the 4001-node grid, bisected
            x = dirichlet_grid(iso.window[0], iso.window[1], 16007)
            _, v_plus = partner_potentials(fam, p.m, x)
            error = np.abs(iso.spectrum_plus.eigenvalues
                           - _lowest_eigenvalues(v_plus.values, x[1] - x[0], 5))
            estimate = iso.spectrum_plus.error_estimates
            assert np.all(error <= 2.0 * estimate) and np.all(estimate <= 2.0 * error)


def x1_hyperbolic_draws(c_hi):
    """Endless (family, m, valid) of X1-hyperbolic draws from
    default_rng(1): c log-uniform on (0.01, c_hi), beta in (-3, 3), |d| in
    (0.3, 3) and m in (-15, 15); valid at m and m - 1."""
    rng = np.random.default_rng(1)
    while True:
        c = float(np.exp(rng.uniform(math.log(0.01), math.log(c_hi))))
        beta, d = rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        p = ParamPoint(m=float(rng.uniform(-15.0, 15.0)), c=c, beta=float(beta), d=float(d))
        fam = get_family("X1-hyperbolic", p)
        yield fam, p.m, fam.validity(p.m).valid and fam.validity(p.m - 1.0).valid


def small_c_points(n):
    """(family, m) of the first n valid X1-hyperbolic draws with c < 0.1."""
    valid = ((fam, m) for fam, m, ok in x1_hyperbolic_draws(0.1) if ok)
    return list(itertools.islice(valid, n))


class TestWallCap:
    """Below the sampler's c box, |W| ~ |m - beta/c^2 + d/c|/x next to x = 0
    is large: the wall stops where V reaches _WALL_V_CAP, so eps*V, the
    rounding in V+ - V- - R, stays under the spectrum gate."""

    def test_small_c_points_pass(self, monkeypatch):
        from shapeinv import spectral
        from shapeinv.conditions import SPECTRUM_TOL

        points = small_c_points(10)
        assert all(check_isospectrality(fam, m).mismatch < SPECTRUM_TOL for fam, m in points)
        # a wall at the 1e-4 floor without the cap fails 3 of them, worst 2.7e-2
        monkeypatch.setattr(spectral, "_WALL_V_CAP", math.inf)
        capless = [check_isospectrality(fam, m).mismatch for fam, m in points]
        assert sum(mismatch >= SPECTRUM_TOL for mismatch in capless) >= 2


def sampled_walls(family, m_values):
    """The wall next to each finite end by the sampled rule: 0.1*L from the
    end, L = min(1, domain width), halved down to the floor 1e-4*L while V
    at the next distance stays below the cap, V = min over m of min(V-, V+)
    with W from one evaluation at every candidate distance.  V that is not
    finite counts as above the cap."""
    from shapeinv.spectral import _WALL_V_CAP

    lo, hi = family.domain
    distances = 0.1 * min(1.0, hi - lo) / 2.0 ** np.arange(11)  # to the first below 1e-4*L
    walls = []
    for end, side in ((lo, 1.0), (hi, -1.0)):
        if math.isfinite(end):
            x = end + side * distances
            with np.errstate(all="ignore"):
                w, wd = family.w_rows(x, m_values)
                v = np.min(np.minimum(w * w - wd, w * w + wd), axis=0)
            n = 0
            while n + 1 < x.size and np.isfinite(v[n + 1]) and v[n + 1] < _WALL_V_CAP:
                n += 1
            walls.append(float(x[n]))
    return walls


class TestRecordWalls:
    """The walls placed from each finite end's record, W ~ sigma/(x - e),
    equal those of the sampled rule, which evaluated W at every candidate
    distance, wherever the end's own 1/delta^2 term is what passes the
    cap."""

    @staticmethod
    def walls(family, m_values):
        (a, b), _ = spectral_window(family, m_values, 1)
        return [a] + ([b] if math.isfinite(family.domain[1]) else [])

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_sampled_points(self, tag):
        for p in sample_valid_params(tag, 200, seed=21):
            fam, m_values = get_family(tag, p), (p.m, p.m - 1.0)
            assert self.walls(fam, m_values) == sampled_walls(fam, m_values)

    def test_wide_x1_hyperbolic_box(self):
        # the wall cap's box (TestWallCap) widened to c < 2: 1530 of 3000
        # draws are valid, and the cap, not the floor, places 1451 of their
        # left walls, at every distance from 0.1 to 1.95e-4
        points = [(fam, m) for fam, m, ok in itertools.islice(x1_hyperbolic_draws(2.0), 3000)
                  if ok]
        assert len(points) == 1530
        capped = 0
        for fam, m in points:
            got = self.walls(fam, (m, m - 1.0))
            assert got == sampled_walls(fam, (m, m - 1.0))
            capped += got[0] > FLOOR
        assert capped == 1451

    def test_far_field_passes_the_cap_first(self):
        # X1-radial-oscillator at m = -3, d = 1: sigma = m + d = -2 at x = 0,
        # so kappa = 2 and the record's wall reaches the floor.  Above omega
        # = 8.5e5 the far-field term (omega*x/2)^2 alone passes the cap at
        # x = 0.05, so the sampled wall stops at 0.1
        for omega, sampled in ((8e5, FLOOR), (1e6, 0.1)):
            fam = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=omega, d=1.0))
            assert self.walls(fam, (-3.0, -4.0)) == [FLOOR]
            assert sampled_walls(fam, (-3.0, -4.0)) == [sampled]


def reference_window(family, m_values, k):
    """spectral_window's window with the walls of the sampled rule
    (sampled_walls) and the edge potential probed one abscissa at a time
    through partner_potentials; the target is the first probe's level
    k - 1, bisected alone, and the right edge walks once.  V that is not
    finite at a growth candidate raises ValueError."""
    from shapeinv.spectral import _EDGE_MARGIN_ABOVE_TOP_LEVEL, _PROBE_POINTS, _bisect, _tridiagonal

    def edge(x):
        vals = []
        for m in m_values:
            vm, vp = partner_potentials(family, m, np.asarray([x]))
            vals.append(min(float(vm.values[0]), float(vp.values[0])))
        return min(vals)

    walls = sampled_walls(family, m_values)
    lo, hi = family.domain
    a = walls[0]
    if math.isfinite(hi):
        return a, walls[-1]
    b = lo + 4.0
    x = dirichlet_grid(a, b, max(_PROBE_POINTS, 8 * k))
    _, v_plus = partner_potentials(family, m_values[0], x)
    top = _bisect(*_tridiagonal(v_plus.values, x[1] - x[0]), k - 1, k - 1)
    target = float(top[0]) + _EDGE_MARGIN_ABOVE_TOP_LEVEL
    candidates, v_b = b * 1.4 ** np.arange(61), edge(b)
    for nxt in candidates[1:]:
        if v_b >= target:
            break
        v_nxt = edge(nxt)
        if v_nxt <= v_b + 1.0:
            break
        b, v_b = nxt, v_nxt
    return float(a), float(b)


def half_line_family(k0, k0_deriv, domain=(0.0, np.inf)):
    """W = k0(x) on (0, inf), or on another domain."""
    from conftest import plain_family

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return plain_family(k0=k0, k0_deriv=k0_deriv, k1=zero, k1_deriv=zero, domain=domain,
                        m=0.0)


def window(family, m_values, k):
    """spectral_window's window without its probe levels."""
    return spectral_window(family, m_values, k)[0]


def probe_levels(family, m, window, k):
    """The k lowest levels of V+(., m) on the window's probe grid, bisected
    in one call to the shift tolerance _SHIFT_ABSTOL * ||T||_1
    (Gershgorin's bound)."""
    from shapeinv.spectral import _PROBE_POINTS, _SHIFT_ABSTOL, _bisect, _tridiagonal

    x = dirichlet_grid(window[0], window[1], max(_PROBE_POINTS, 8 * k))
    _, v_plus = partner_potentials(family, m, x)
    h = x[1] - x[0]
    diag, off = _tridiagonal(v_plus.values, h)
    norm = float(np.max(np.abs(diag))) + 2.0 / (h * h)
    return _bisect(diag, off, 0, k - 1, _SHIFT_ABSTOL * norm)


# The families of the window and seeded-solve tests' perturbed controls
CONTROLS = ["X1-radial-oscillator", "Xl-Poschl-Teller"]


def perturbed_control(tag):
    p = sample_valid_params(tag, 1, seed=4)[0]
    return with_perturbation(get_family(tag, p), "wplus-slope", 0.05), p.m


# The wall's distances from a finite end, for L = 1: 0.1 halved down to the
# first distance at or below the 1e-4 floor
FLOOR = 0.1 / 2 ** 10


class TestSpectralWindow:
    """The walls are placed once, from the family's record of its ends; then
    the first probe evaluates W once, for its grid and every growth
    candidate of an infinite right side at every m, and the right edge
    walks once.  The window must be the one the step-by-step rule reaches,
    bit for bit, and the levels those of its own probe."""

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_catalog_points(self, tag):
        for p in sample_valid_params(tag, 3, seed=9):
            fam = get_family(tag, p)
            for k in (3, 5):
                m_values = (p.m, p.m - 1.0)
                got, levels = spectral_window(fam, m_values, k)
                assert got == reference_window(fam, m_values, k)
                # the levels are bisected on the returned window
                assert np.array_equal(levels, probe_levels(fam, p.m, got, k))

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_probe_v_plus_equals_partner_potentials(self, tag, monkeypatch):
        # every probe's V+, row 0 of the shared table or V+ at m alone on
        # the final window, equals V+ evaluated alone, bit for bit
        from shapeinv import spectral

        passes = []
        make, tridiagonal = spectral.dirichlet_grid, spectral._tridiagonal
        monkeypatch.setattr(spectral, "dirichlet_grid",
                            lambda *a: passes.append([make(*a)]) or passes[-1][0])
        monkeypatch.setattr(spectral, "_tridiagonal",
                            lambda v, *a: passes[-1].append(v) or tridiagonal(v, *a))
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

    @pytest.mark.parametrize("m_values, wall", [
        ((1.05,), FLOOR), ((10.0,), 0.1 / 2 ** 7), ((0.5,), FLOOR), ((10.0, 1.05), FLOOR),
    ])
    def test_wall_next_to_zero(self, m_values, wall):
        # W = m/x: min(V-, V+) = (m**2 - m)/x**2 stays below the cap down to
        # the floor for m = 1.05, and for m = 0.5, where the end is
        # attractive; for m = 10 it passes the cap between x = 7.8e-4 and
        # 3.9e-4.  The min is over every m, so m = 1.05 beside m = 10 lets
        # the wall reach the floor
        from conftest import plain_family

        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fam = plain_family(k0=zero, k0_deriv=zero, k1=lambda x: 1.0 / x,
                           k1_deriv=lambda x: -1.0 / (x * x), domain=(0.0, np.inf),
                           m=m_values[0], pole=(0.0, 1.0))
        got = window(fam, m_values, 5)
        assert got == reference_window(fam, m_values, 5)
        assert got[0] == wall

    def test_finite_domain(self):
        # W = 3 on (1, 1.5): V = 9 everywhere, so both walls reach the floor,
        # at distances scaled by L = 0.5, and one pass places nothing more
        three = lambda x: np.full(np.shape(x), 3.0)
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fam = half_line_family(three, zero, domain=(1.0, 1.5))
        got = window(fam, (0.0, -1.0), 3)
        assert got == reference_window(fam, (0.0, -1.0), 3)
        assert got == (1.0 + 0.5 * FLOOR, 1.5 - 0.5 * FLOOR)

    def test_whole_line_refused(self):
        # a real family needs a finite left end; the complex whole-line
        # family is refused as complex first
        from conftest import plain_family

        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fam = plain_family(k0=np.sinh, k0_deriv=np.cosh, k1=zero, k1_deriv=zero,
                           domain=(-np.inf, np.inf), m=0.0)
        with pytest.raises(UnsupportedError, match="a spectral window needs a finite left end"):
            spectral_window(fam, (0.0, -1.0), 3)
        scarf = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=1))
        with pytest.raises(UnsupportedError, match="complex family unsupported"):
            spectral_window(scarf, (0.5, -0.5), 3)

    def test_overflowing_candidates_not_reached(self):
        # W = sinh(x): V overflows near x = 710, far beyond the edge reached
        fam = half_line_family(np.sinh, np.cosh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = window(fam, (0.0, -1.0), 5)
        assert got == reference_window(fam, (0.0, -1.0), 5)

    def test_growth_to_a_plateau(self):
        # W = 6 tanh(x/8): V saturates at 36, below the target, so the
        # right side grows until a step gains less than 1
        fam = half_line_family(lambda x: 6.0 * np.tanh(x / 8.0),
                               lambda x: 0.75 / np.cosh(x / 8.0) ** 2)
        got = window(fam, (0.0, -1.0), 3)
        assert got == reference_window(fam, (0.0, -1.0), 3)
        assert got == (FLOOR, 4.0 * 1.4 ** 5)

    def test_flat_potential_stays_put(self):
        # W = 3: V = 9 everywhere, so the wall reaches the floor and no
        # step of the right side gains anything
        three = lambda x: np.full(np.shape(x), 3.0)
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fam = half_line_family(three, zero)
        assert window(fam, (0.0, -1.0), 3) == reference_window(fam, (0.0, -1.0), 3) == (FLOOR, 4.0)

    @pytest.mark.parametrize("bad_x", [4.0, 4.0 * 1.4])
    def test_reached_nonfinite_value_raises(self, bad_x):
        # V is nan at one abscissa off the probe grid: the starting edge 4,
        # or 5.6, the first growth candidate
        fam = half_line_family(lambda x: np.where(x == bad_x, np.nan, 0.1 * x),
                               lambda x: np.full(np.shape(x), 0.1))
        with pytest.raises(ValueError, match="finite"):
            reference_window(fam, (0.0, -1.0), 3)
        with pytest.raises(UnsupportedError, match="V is not finite at the window edge candidate"):
            spectral_window(fam, (0.0, -1.0), 3)

    @staticmethod
    def assert_passes(w, w_deriv, k, passes):
        """The wall takes no call; the first probe makes one call for its
        grid and the right side's candidates at both m, and a second probe
        one call for the final window's grid where the edge moved; no
        single-point call."""
        sizes = []

        def k0(x):
            sizes.append(np.size(x))
            return w(x)

        got = window(half_line_family(k0, w_deriv), (0.0, -1.0), k)
        assert got == reference_window(half_line_family(w, w_deriv), (0.0, -1.0), k)
        assert len(sizes) == passes
        assert min(sizes) > 1

    def test_one_array_call_per_pass(self):
        # W = 10x: V at 4 already exceeds the target, so the walk leaves the
        # window as it found it and no second probe runs
        self.assert_passes(lambda x: 10.0 * np.asarray(x, dtype=float),
                           lambda x: np.full(np.shape(x), 10.0), 5, 1)

    def test_plateau_probed_twice(self):
        # W = 6 tanh(x/8): the walk grows the right side to the plateau, and
        # a second probe bisects the levels on the final window
        self.assert_passes(lambda x: 6.0 * np.tanh(np.asarray(x, dtype=float) / 8.0),
                           lambda x: 0.75 / np.cosh(np.asarray(x, dtype=float) / 8.0) ** 2,
                           3, 2)

    def test_probe_holds_8k_nodes(self, monkeypatch):
        # k above _PROBE_POINTS/8 lays the probe on 8k nodes, the size
        # solve_spectrum needs for k levels
        from shapeinv import spectral

        grids = []
        make = spectral.dirichlet_grid
        monkeypatch.setattr(spectral, "dirichlet_grid",
                            lambda a, b, n: grids.append(n) or make(a, b, n))
        p = sample_valid_params("X1-radial-oscillator", 1, seed=21)[0]
        fam = get_family("X1-radial-oscillator", p)
        _, levels = spectral_window(fam, (p.m, p.m - 1.0), 60)
        assert levels.size == 60 and set(grids) == {480}


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
        iso = check_isospectrality(fam, m, k=5, n_points=1000)
        x = dirichlet_grid(iso.window[0], iso.window[1], 1001)  # the odd node count
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
    def test_one_probe_bisection_per_pass(self, tag, monkeypatch):
        # each window probe, one or two, is bisected once, all k levels
        # together; no 2000- or 4000-point matrix is bisected
        from shapeinv import spectral
        from shapeinv.spectral import _PROBE_POINTS

        grids = []
        make = spectral.dirichlet_grid
        monkeypatch.setattr(spectral, "dirichlet_grid",
                            lambda a, b, n: grids.append(n) or make(a, b, n))
        sizes = bisected_sizes(monkeypatch)
        for p in sample_valid_params(tag, 3, seed=9):
            grids.clear()
            sizes.clear()
            check_isospectrality(get_family(tag, p), p.m, k=5, n_points=4000)
            passes = grids.count(_PROBE_POINTS)
            assert passes in (1, 2)
            assert sizes == [_PROBE_POINTS] * passes

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
        # W = sqrt(1 + 2.7 log(1 + x^2)) on (0, inf): V grows by more than 1
        # per growth step but by less than the margin over the probe's top
        # level, so a walk from the levels of the walked window would move
        # the right edge again.  The edge walks once, and a second probe
        # bisects the levels on the returned window: once three passes left
        # them 1.8 below its own.  They are its own now, but 400 nodes over a
        # window 4685 long leave them too coarse to seed inverse iteration:
        # both of V+'s grids fail the certificate and are bisected.
        from shapeinv.spectral import (_EDGE_MARGIN_ABOVE_TOP_LEVEL, _PROBE_POINTS,
                                       _edge_values, _walk_edge)

        def w(x):
            return np.sqrt(1.0 + 2.7 * np.log1p(np.asarray(x, dtype=float) ** 2))

        fam = half_line_family(w, lambda x: 2.7 * x / ((1.0 + x * x) * w(x)))
        (a, b), levels = spectral_window(fam, (0.0, -1.0), 5)
        assert np.array_equal(levels, probe_levels(fam, 0.0, (a, b), 5))
        right = b * 1.4 ** np.arange(61)
        _, v = _edge_values(fam, right, (0.0, -1.0))
        assert _walk_edge(right, v, float(levels[-1]) + _EDGE_MARGIN_ABOVE_TOP_LEVEL) > b

        sizes = bisected_sizes(monkeypatch)
        iso = check_isospectrality(fam, 0.0, k=5, n_points=4000)
        assert sizes == [_PROBE_POINTS] * 2 + [2000, 4001]
        monkeypatch.undo()
        x = dirichlet_grid(a, b, 4001)
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
        x = dirichlet_grid(iso.window[0], iso.window[1], 4001)  # the odd node count
        v_minus_prev, _ = partner_potentials(fam, m - 1.0, x)
        minus = solve_spectrum(v_minus_prev, 5).eigenvalues
        gap = np.max(np.abs(iso.spectrum_plus.eigenvalues - (minus + iso.remainder_value)))
        assert gap <= iso.mismatch

    def test_one_solve_and_one_fine_grid_evaluation(self, monkeypatch):
        from shapeinv import spectral

        solves, sizes = [], []
        solve, values = spectral.solve_spectrum, spectral._partner_rows
        monkeypatch.setattr(spectral, "solve_spectrum",
                            lambda *a, **kw: solves.append(1) or solve(*a, **kw))
        monkeypatch.setattr(spectral, "_partner_rows",
                            lambda fam, x, ms, *table: sizes.append(np.size(x))
                            or values(fam, x, ms, *table))
        fam, m = seeded_case("X1-radial-oscillator", 0)
        check_isospectrality(fam, m, k=5, n_points=4000)
        assert len(solves) == 1
        assert sizes.count(4001) == 1


# A fresh interpreter with shapeinv on its path reports which scipy modules
# it holds after importing the package and after spectrum runs, and
# whether scipy.linalg.lapack, imported afterwards, kept the module that
# spectral._lapack() returned and re-exports its routines.  It also reports
# whether numpy.random is loaded after a spectrum and a verify run on given
# params, and after a spectrum run on a sampled point, in that order.
FRESH_INTERPRETER = """
import json, sys
import shapeinv, shapeinv.cli
from shapeinv import spectral

def scipy_modules():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))

def run(*argv):
    code = shapeinv.cli.main([*argv, "--family", "X1-radial-oscillator", "--no-timestamp",
                              "--out", sys.argv[1]])
    return [code, "numpy.random" in sys.modules]

after_import = scipy_modules()
params = ["--params", '{"m": -3.0, "omega": 2.0, "d": 1.0}']
given = {"spectrum": run("spectrum", *params),
         "verify": run("verify", "--checks", "remainder,spectrum", *params)}
code, sampled = run("spectrum", "--sample", "1", "--seed", "3")
after_spectrum = scipy_modules()
lapack = spectral._lapack()
import scipy.linalg.lapack
same = [sys.modules["scipy.linalg._flapack"] is lapack] + [
    getattr(scipy.linalg.lapack, r) is getattr(lapack, r) for r in ("dstebz", "dgttrf", "dgttrs")]
print(json.dumps({"after_import": after_import, "given": given, "code": code,
                  "sampled_numpy_random": sampled, "after_spectrum": after_spectrum,
                  "same": same}))
"""


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = tmp_path_factory.mktemp("fresh") / "report.json"
    proc = subprocess.run([sys.executable, "-c", FRESH_INTERPRETER, str(out)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def fresh_lapack():
    """spectral._lapack's cache, empty before and after the test."""
    from shapeinv import spectral

    spectral._lapack.cache_clear()
    yield
    spectral._lapack.cache_clear()


def spectral_outputs(tmp_path):
    """Per real family at one sampled point: the exit code and bytes of its
    spectrum report, and the V+ levels solve_spectrum finds on 1000 nodes
    of the window that check_isospectrality chose."""
    from shapeinv.cli import main

    outputs = {}
    for tag in REAL_TAGS:
        p = sample_valid_params(tag, 1, seed=3)[0]
        fam = get_family(tag, p)
        x = dirichlet_grid(*check_isospectrality(fam, p.m).window, 1000)
        levels = solve_spectrum(partner_potentials(fam, p.m, x)[1], 5).eigenvalues
        out = tmp_path / f"{tag}.json"
        code = main(["spectrum", "--family", tag, "--sample", "1", "--seed", "3",
                     "--no-timestamp", "--out", str(out)])
        outputs[tag] = (code, out.read_bytes(), levels.view(np.uint64).tolist())
    return outputs


class TestLapackLoader:
    """spectral._lapack loads scipy's LAPACK extension without importing
    scipy or scipy.linalg, and holds the one copy of it that a later
    import of scipy.linalg reuses."""

    def test_import_holds_no_scipy(self, fresh_interpreter):
        assert fresh_interpreter["after_import"] == []

    def test_spectrum_imports_neither_scipy_nor_scipy_linalg(self, fresh_interpreter):
        assert fresh_interpreter["code"] == 0
        assert "scipy.linalg._flapack" in fresh_interpreter["after_spectrum"]
        assert not {"scipy", "scipy.linalg"} & set(fresh_interpreter["after_spectrum"])

    def test_scipy_linalg_reuses_the_loaded_extension(self, fresh_interpreter):
        assert fresh_interpreter["same"] == [True] * 4

    def test_imported_scipy_linalg_is_reused(self, fresh_lapack):
        import sys

        import scipy.linalg.lapack

        from shapeinv import spectral

        assert spectral._lapack() is sys.modules["scipy.linalg._flapack"]
        assert spectral._lapack().dstebz is scipy.linalg.lapack.dstebz

    def test_fallback_import_gives_the_same_spectra(self, tmp_path, monkeypatch,
                                                    fresh_lapack):
        import importlib.machinery
        import sys

        import scipy.linalg

        from shapeinv import spectral

        want = spectral_outputs(tmp_path)
        lookups = []

        class NoFinder(importlib.machinery.FileFinder):
            def find_spec(self, fullname, target=None):
                lookups.append(fullname)
                return None

        monkeypatch.setattr(importlib.machinery, "FileFinder", NoFinder)
        # the fallback import registers a new module object and sets it on
        # scipy.linalg (which holds none when spectral loaded it first); both
        # are restored after the test
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy.linalg, "_flapack", getattr(scipy.linalg, "_flapack", None),
                            raising=False)
        spectral._lapack.cache_clear()
        got = spectral_outputs(tmp_path)
        assert lookups and set(lookups) == {"scipy.linalg._flapack"}
        assert spectral._lapack() is sys.modules["scipy.linalg._flapack"]
        assert all(code == 0 for code, *_ in got.values())
        assert got == want


class TestNumpyRandomStaysOut:
    """Spectra start inverse iteration from an integer-made vector
    (spectral._random_start), so only a sampled point's draws import
    numpy.random."""

    def test_runs_on_given_params_leave_it_out(self, fresh_interpreter):
        assert fresh_interpreter["given"] == {"spectrum": [0, False], "verify": [0, False]}

    def test_sampled_run_imports_it(self, fresh_interpreter):
        assert fresh_interpreter["code"] == 0
        assert fresh_interpreter["sampled_numpy_random"] is True


class TestLapackFailure:
    """A LAPACK routine that reports failure is outside the supported
    envelope: UnsupportedError naming the routine, and exit 2 from the CLI."""

    @pytest.fixture
    def failing_dstebz(self, monkeypatch):
        import types

        from shapeinv import spectral

        real = spectral._lapack()

        def dstebz(*args):
            *out, _ = real.dstebz(*args)
            return (*out, 3)

        stub = types.SimpleNamespace(dstebz=dstebz, dgttrf=real.dgttrf, dgttrs=real.dgttrs)
        monkeypatch.setattr(spectral, "_lapack", lambda: stub)

    def test_bisect_raises(self, failing_dstebz):
        from shapeinv.spectral import _bisect, _tridiagonal

        x = dirichlet_grid(-4.0, 4.0, 100)
        with pytest.raises(UnsupportedError, match=r"dstebz .*\(info = 3\)"):
            _bisect(*_tridiagonal(x * x, float(x[1] - x[0])), 0, 2)

    def test_illegal_argument_named(self):
        # level 100 of a 100-point matrix: dstebz refuses its argument 7, iu
        from shapeinv.spectral import _bisect, _tridiagonal

        x = dirichlet_grid(-4.0, 4.0, 100)
        with pytest.raises(UnsupportedError, match="LAPACK dstebz: illegal argument 7"):
            _bisect(*_tridiagonal(x * x, float(x[1] - x[0])), 0, 100)

    @pytest.mark.parametrize("args", [
        ["spectrum"],
        ["verify", "--checks", "compatibility,remainder,spectrum"],
    ])
    def test_cli_exits_2(self, args, failing_dstebz, capsys):
        from shapeinv.cli import main

        code = main(args + ["--family", "X1-radial-oscillator", "--sample", "1",
                            "--seed", "3"])
        assert code == 2
        assert "LAPACK dstebz failed to converge (info = 3)" in capsys.readouterr().err
