import dataclasses
import inspect
import math

import numpy as np
import pytest

from shapeinv import (
    FAMILY_TAGS,
    ParamPoint,
    InvalidParameterError,
    PERTURBATION_MODES,
    REAL_TAGS,
    get_family,
    make_grid,
    run_condition_checks,
    sample_valid_params,
    with_perturbation,
)
from shapeinv.catalog import family_data
from shapeinv.cli import main
from shapeinv.errors import UnsupportedError, UsageError
from shapeinv.polynomials import kernel_reach
from shapeinv.superpotential import require_region
from conftest import denominator, plain_family


def richardson(f, x, h):
    def central(hh):
        return (f(x + hh) - f(x - hh)) / (2.0 * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def sampled_family(tag, seed=11):
    p = sample_valid_params(tag, 1, seed=seed)[0]
    return get_family(tag, p), p


class TestParamPoint:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ParamPoint(m=float("nan"))
        with pytest.raises(ValueError):
            ParamPoint(m=0.0, c=float("inf"))

    def test_rejects_fractional_ell(self):
        with pytest.raises(ValueError):
            ParamPoint(m=0.0, ell=1.5)

    @pytest.mark.parametrize("ell", [float("inf"), float("nan")])
    def test_rejects_nonfinite_ell(self, ell):
        with pytest.raises(ValueError):
            ParamPoint(m=0.0, ell=ell)

    def test_integral_ell_stored_as_int(self):
        for ell in (2.0, np.int64(2)):
            p = ParamPoint(m=0.0, ell=ell)
            assert type(p.ell) is int and p == ParamPoint(m=0.0, ell=2)

    def test_round_trip(self):
        p = ParamPoint(m=-2.0, omega=1.5, d=0.3)
        assert p.to_dict() == {"m": -2.0, "omega": 1.5, "d": 0.3}


class TestGridSize:
    @pytest.mark.parametrize("n_points", [8, 15, 512.5, 512.0, "512", True, None])
    def test_invalid(self, n_points):
        fam, _ = sampled_family("X1-radial-oscillator")
        with pytest.raises(UsageError, match="grid_points must be an integer >= 16"):
            make_grid(fam, n_points)

    def test_numpy_integer_accepted(self):
        fam, _ = sampled_family("X1-radial-oscillator")
        assert np.array_equal(make_grid(fam, np.int64(64)), make_grid(fam, 64))

    def test_size_is_the_only_setting(self):
        # the pole exclusion radius is a module constant and the family
        # record places the grid's ends: neither is a setting
        assert list(inspect.signature(make_grid).parameters) == ["family", "n_points", "m_values"]
        fam, _ = sampled_family("X1-radial-oscillator")
        with pytest.raises(TypeError):
            make_grid(fam, pole_exclusion_radius=2e-3)
        with pytest.raises(TypeError):
            make_grid(fam, boundary_margin=0.05)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    @pytest.mark.parametrize("n_points", [16, 17, 129, 512])
    def test_exactly_n_points(self, tag, n_points):
        # reports read the grid's size back from len(grid); on Xl-PT-Scarf
        # an odd size puts the x = 0 puncture on a node, and the layout is
        # topped up past it
        for seed in (3, 11):
            fam, p = sampled_family(tag, seed)
            grid = make_grid(fam, n_points, m_values=(p.m, p.m - 1.0, p.m - 2.0))
            assert grid.shape == (n_points,)
            assert np.all(np.diff(grid) > 0)
            if tag == "Xl-PT-Scarf":
                assert np.min(np.abs(grid)) >= 1e-3


class TestWRows:
    def test_pure_affine(self, free_radial):
        # W = m/x with m = 2 at x = 0.5 -> 4
        w, _ = free_radial.w_rows(np.asarray([0.5]), (2.0,))
        assert w[0, 0] == 4.0

    def test_x1_radial_point(self):
        # omega = 1, d = 1, m = -2, x = 1: W0 = -0.5, W1+ = 1, W1- = 0.5
        fam = get_family("X1-radial-oscillator", ParamPoint(m=-2.0, omega=1.0, d=1.0))
        w, _ = fam.w_rows(np.asarray([1.0]), (-2.0,))
        assert w.dtype == np.float64
        assert w[0, 0] == pytest.approx(-0.5 + 1.0 - 0.5, abs=1e-15)

    def test_scarf_is_complex_at_real_x(self):
        fam = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=1))
        w, _ = fam.w_rows(np.asarray([0.7]), (0.5,))
        assert abs(w[0, 0].imag) > 0.1  # i*B/cosh(x) contributes directly

    def test_coth_derivative(self):
        fam = plain_family(
            k0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k0_deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k1=lambda x: np.cosh(x) / np.sinh(x),
            k1_deriv=lambda x: -1.0 / np.sinh(x) ** 2,
            domain=(0.0, np.inf),
            m=1.0,
            pole=(0.0, 1.0),
        )
        _, wd = fam.w_rows(np.asarray([1.0]), (1.0,))
        assert wd[0, 0] == pytest.approx(-1.0 / np.sinh(1.0) ** 2, rel=1e-15)

    def test_plain_family_derivative_exact(self, free_radial):
        # no extension: dW/dx is exactly k0' + m*k1'
        xs = np.linspace(0.2, 5.0, 50)
        _, wd = free_radial.w_rows(xs, (2.0,))
        assert np.array_equal(wd[0], 2.0 * (-1.0 / xs**2))


class TestDerivativeConsistency:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_fd_agreement_200_points(self, tag):
        fam, p = sampled_family(tag)
        grid = make_grid(fam, 256, m_values=(p.m, p.m - 1.0))
        rng = np.random.default_rng(17)
        xs = rng.choice(grid[4:-4], size=200, replace=True)

        def w_at(t):
            w, _ = fam.w_rows(np.asarray([t]), (p.m,))
            return complex(w[0, 0])

        for x in xs:
            x = float(x)
            h = 1e-4 * (1.0 + abs(x))
            fd = richardson(w_at, x, h)
            w_here, an = fam.w_rows(np.asarray([x]), (p.m,))
            an = complex(an[0, 0])
            w_here = complex(w_here[0, 0])
            scale = max(1.0, abs(an), abs(w_here))
            assert abs(fd - an) <= 1e-8 * scale


class TestAffinity:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_w0_collinear_in_m(self, tag):
        fam, p = sampled_family(tag, seed=23)
        grid = make_grid(fam, 64, m_values=(p.m,))
        m1, m2, m3 = p.m - 1.0, p.m - 0.25, p.m + 0.5
        # W0 = W - W1+ + W1-, as w_rows assembles W
        w, _ = fam.w_rows(grid, (m1, m2, m3))
        plus, _, minus, _ = fam.w1(grid, (m1, m2, m3))
        w1, w2, w3 = w - plus + minus
        slope_12 = (w2 - w1) / (m2 - m1)
        slope_13 = (w3 - w1) / (m3 - m1)
        scale = np.maximum(np.abs(slope_13), 1.0)
        assert np.max(np.abs(slope_12 - slope_13) / scale) < 1e-12


class TestLogDerivativeStructure:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_w1plus_is_gauge_log_derivative(self, tag):
        # W1+ must equal d/dx log D for the declared gauge denominator
        fam, p = sampled_family(tag, seed=31)
        data = family_data(tag, p)

        def D(t):
            return denominator(data, data.p_plus, np.asarray([t]), p.m)

        grid = make_grid(fam, 64, m_values=(p.m,))
        xs = grid[6:-6:7]
        for x in xs:
            x = float(x)
            h = 1e-5 * (1.0 + abs(x))
            if fam.is_real:
                fd = richardson(lambda t: float(np.log(np.abs(D(t)))[0]), x, h)
            else:
                d_here = complex(np.asarray(D(x))[0])
                fd = richardson(lambda t: complex(np.asarray(D(t))[0]), x, h) / d_here
            w1 = complex(fam.w1(np.asarray([x]), (p.m,))[0][0, 0])
            assert abs(fd - w1) < 1e-9 * max(1.0, abs(w1))


class TestMakeGrid:
    def test_half_infinite_domain_containment(self, plain_oscillator):
        grid = make_grid(plain_oscillator, 128, m_values=(-2.0,))
        assert grid.size == 128
        assert np.all(grid > 0.0)
        assert np.all(np.diff(grid) > 0)

    def test_invalid_params_error_names_inequality(self):
        fam = get_family("X1-radial-oscillator", ParamPoint(m=-1.0, omega=1.0, d=1.0))
        with pytest.raises(InvalidParameterError) as err:
            make_grid(fam)
        assert err.value.violated == "m < -(1 + 2*d)/2"

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_sampled_points_have_no_poles(self, tag):
        # the sampler draws inside the region at m, m-1 and m-2, where no
        # denominator vanishes in the domain
        for seed in range(100):
            for p in sample_valid_params(tag, 5, seed):
                poles = get_family(tag, p).poles((p.m, p.m - 1.0, p.m - 2.0))
                assert poles == (), (seed, p, poles)

    @staticmethod
    def wide_box_point(tag, rng):
        """A draw from a box well beyond the sampler's: m in (-15, 15), X1
        c and omega in (0.01, 3) and (0.01, 5), beta and d in (-5, 5), Xl
        B in (-12, -0.55) ((-12, 3) for Scarf) and ell in 1..12."""
        u, m = rng.uniform, rng.uniform(-15.0, 15.0)
        if tag in ("X1-hyperbolic", "X1-trigonometric"):
            return ParamPoint(m=m, c=u(0.01, 3.0), beta=u(-5.0, 5.0), d=u(-5.0, 5.0))
        if tag == "X1-radial-oscillator":
            return ParamPoint(m=m, omega=u(0.01, 5.0), d=u(-5.0, 5.0))
        ell = int(rng.integers(1, 13))
        if tag == "Xl-radial-oscillator":
            return ParamPoint(m=m, omega=u(0.01, 5.0), ell=ell)
        return ParamPoint(m=m, B=u(-12.0, 3.0 if tag == "Xl-PT-Scarf" else -0.55), ell=ell)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_region_leaves_only_declared_punctures(self, tag):
        # the premise of the one region gate: each record's forbidden set
        # covers g(domain), so inside the region at m, m-1 and m-2 the pole
        # search finds nothing but the declared punctures (Scarf's x = 0)
        rng = np.random.default_rng(7)
        valid = 0
        for _ in range(1000):
            p = self.wide_box_point(tag, rng)
            try:
                fam = get_family(tag, p)
            except InvalidParameterError:  # the degenerate prefactor ell - 2*B - 1 = 0
                continue
            m_values = (p.m, p.m - 1.0, p.m - 2.0)
            if all(fam.validity(m).valid for m in m_values):
                valid += 1
                assert fam.poles(m_values) == family_data(tag, p).punctures, p
        assert valid >= 150

    def test_scarf_puncture_excluded(self):
        fam = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=2))
        grid = make_grid(fam, 128, m_values=(0.5,))
        assert np.min(np.abs(grid)) >= 1e-3
        assert grid.size == 128

    def test_declared_pole_excluded_and_topped_up(self):
        fam = plain_family(
            k0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k0_deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k1=lambda x: 1.0 / x,
            k1_deriv=lambda x: -1.0 / (x * x),
            domain=(0.0, np.inf),
            m=1.0,
            pole=(0.0, 1.0),
        )
        first = make_grid(fam, 256, m_values=(1.0,))
        # two poles on nodes of the pole-free layout: excluding them leaves
        # 254 points, so the layout is topped up
        poles = (float(first[40]), float(first[200]))
        grid = make_grid(dataclasses.replace(fam, poles_fn=lambda m: poles), 256,
                         m_values=(1.0,))
        assert grid.size == 256
        assert not np.array_equal(grid, first)
        for p in poles:
            assert np.min(np.abs(grid - p)) >= 1e-3

    def test_poles_that_cover_the_grid_raise(self, plain_oscillator):
        # declared poles 1e-3 apart leave no abscissa 1e-3 from all of them
        # in (0, 9), after every top-up of the layout
        covering = tuple(np.arange(0.0, 9.0, 1e-3))
        fam = dataclasses.replace(plain_oscillator, poles_fn=lambda m: covering)
        with pytest.raises(UsageError, match="leaves 0 of 64 grid points"):
            make_grid(fam, 64, m_values=(-2.0,))

    @pytest.mark.parametrize("tag, params", [
        ("X1-trigonometric", ParamPoint(m=-6.0, c=1.0, beta=0.5, d=1.0)),  # finite domain
        ("X1-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, d=1.0)),  # half-line
    ])
    def test_empty_m_list_raises(self, tag, params):
        # on the half-line the far edge once raised a bare ValueError (max
        # of nothing), and the finite domain returned an unvalidated grid
        fam = get_family(tag, params)
        with pytest.raises(UsageError, match="no m to validate"):
            make_grid(fam, m_values=())
        with pytest.raises(UsageError, match="no m to validate"):
            require_region(fam, [])

    def test_require_region_names_the_first_violation(self):
        fam = get_family("X1-hyperbolic", ParamPoint(m=0.3, c=1.0, beta=0.5, d=1.0))
        assert require_region(fam, (0.3, 1)) == (0.3, 1.0)
        with pytest.raises(InvalidParameterError) as err:
            require_region(fam, (0.3, -0.7, -1.7))
        assert err.value.violated == "m > (2*beta + c^2 - 2*c*d)/(2*c^2)"
        assert "m = -0.7 violates" in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_m_refused(self, bad):
        # at m = nan or inf Xl-PT-Scarf's root test once raised PolySpec's
        # ValueError "alpha must be finite"; the gate refuses such an m
        # before any family reads it, for grids and spectral windows alike
        from shapeinv import check_isospectrality

        scarf = get_family("Xl-PT-Scarf", ParamPoint(m=0.3, B=-2.0, ell=2))
        with pytest.raises(UsageError, match=f"m = {bad} is not finite"):
            require_region(scarf, (0.3, bad))
        with pytest.raises(UsageError, match=f"m = {bad} is not finite"):
            make_grid(scarf, 64, m_values=(bad, 0.3))
        radial = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, d=1.0))
        with pytest.raises(UsageError, match=f"m = {bad} is not finite"):
            check_isospectrality(radial, bad, k=3, n_points=400)

    def test_linear_mapping_upgraded_on_infinite_domain(self, plain_oscillator):
        grid = make_grid(plain_oscillator, 64, m_values=(-2.0,))
        assert np.all(grid > 0.0)
        steps = np.diff(grid)
        assert steps[-1] > 2.0 * steps[0]  # tanh compression, not a linear layout

    def test_finite_domain_linear(self):
        fam = get_family("X1-trigonometric", ParamPoint(m=-6.0, c=1.0, beta=0.5, d=1.0))
        grid = make_grid(fam, 100, m_values=(-6.0,))
        half = np.pi / 2.0
        assert np.all(np.abs(grid) < half)
        steps = np.diff(grid)
        assert np.max(np.abs(steps - steps[0])) < 1e-12  # linear layout


class TestPerturbations:
    def test_unknown_mode_rejected(self, free_radial):
        from shapeinv.errors import UsageError

        with pytest.raises(UsageError):
            with_perturbation(free_radial, "bogus", 0.01)

    def test_wminus_slope_changes_only_w1minus(self):
        fam, p = sampled_family("X1-radial-oscillator")
        pert = with_perturbation(fam, "wminus-slope", 0.01)
        xs = np.linspace(0.5, 2.0, 9)
        pert_plus, _, pert_minus, _ = pert.w1(xs, (p.m,))
        fam_plus, _, fam_minus, _ = fam.w1(xs, (p.m,))
        assert np.allclose(pert_minus - fam_minus, 0.01 * xs)
        assert np.array_equal(pert_plus, fam_plus)

    @pytest.mark.parametrize("mode", PERTURBATION_MODES)
    @pytest.mark.parametrize("tag", ["X1-radial-oscillator", "Xl-Poschl-Teller", "Xl-PT-Scarf"])
    def test_batch_equals_one_m_methods(self, tag, mode):
        # every mode patches w1 (or affine) at each m of a batch, as a
        # call at that m alone sees it
        fam, p = sampled_family(tag)
        pert = with_perturbation(fam, mode, 0.01)
        xs = np.linspace(0.5, 2.0, 9)
        m_values = (p.m, p.m - 1.0, p.m - 2.0)
        rows = pert.w1(xs, m_values)
        w, wd = pert.w_rows(xs, m_values)
        for i, m in enumerate(m_values):
            one = pert.w1(xs, (m,))
            assert all(np.array_equal(r[i], o[0]) for r, o in zip(rows, one))
            one = pert.w_rows(xs, (m,))
            assert all(np.array_equal(a[i], b[0]) for a, b in zip((w, wd), one))
        if mode != "k1-slope":
            base = fam.w1(xs, m_values)
            assert any(not np.array_equal(r, b) for r, b in zip(rows, base))

    def test_paired_mode_keeps_translation(self):
        fam, p = sampled_family("X1-radial-oscillator")
        pert = with_perturbation(fam, "paired-mx-slope", 0.01)
        xs = np.linspace(0.5, 2.0, 9)
        _, _, lhs, _ = pert.w1(xs, (p.m,))
        rhs, _, _, _ = pert.w1(xs, (p.m - 1.0,))
        assert np.max(np.abs(lhs - rhs)) < 1e-14


PLATEAU_T = 2.0 ** 52
W_CAP = 100.0


def reach(data, m_values):
    """The smallest kernel reach of P+- at every m of m_values."""
    return min(kernel_reach(P(m), not data.is_real)
               for P in (data.p_plus, data.p_minus) for m in m_values)


def closed_form_edge(tag, p, m_values):
    """The far edge of the family's grid, family by family: on a plateau
    at t = 2**52 (inside the kernel's reach), on a growing end where
    |W| ~ omega*x/2 reaches 100."""
    data = family_data(tag, p)
    if tag == "X1-hyperbolic":
        return math.acosh(PLATEAU_T) / p.c
    if tag == "X1-radial-oscillator":
        return 2.0 * W_CAP / p.omega
    if tag == "Xl-Poschl-Teller":
        return math.acosh(min(PLATEAU_T, reach(data, m_values)))
    if tag == "Xl-PT-Scarf":
        return math.asinh(min(PLATEAU_T, reach(data, m_values)))
    # Xl-radial-oscillator: t = -omega*x**2/2, |t| at most 2*W_CAP**2/omega
    return math.sqrt(2.0 * min(2.0 * W_CAP ** 2 / p.omega, reach(data, m_values)) / p.omega)


INFINITE_TAGS = [t for t in FAMILY_TAGS if t != "X1-trigonometric"]

# points whose grid edge the kernel's reach sets: the largest degree, with
# large parameters
REACH_BOUND = [
    ("Xl-Poschl-Teller", ParamPoint(m=50.0, B=-200.0, ell=64)),
    ("Xl-PT-Scarf", ParamPoint(m=0.5, B=-3.0, ell=64)),
    ("Xl-radial-oscillator", ParamPoint(m=-40.0, omega=0.01, ell=64)),
]


def wide_box_point(tag, rng):
    """A draw from a box wider than the sampler's: c log-uniform on
    (0.001, 2), omega on (0.005, 50), B in (-300, -0.6), ell in 1..64 and m
    in (-60, 60); Xl-PT-Scarf keeps the sampler's m in (-2, 2), outside
    which its residuals exceed their gates at high degree."""
    u, m = rng.uniform, rng.uniform(-60.0, 60.0)
    if tag == "X1-hyperbolic":
        return ParamPoint(m=m, c=math.exp(u(math.log(1e-3), math.log(2.0))), beta=u(-3.0, 3.0),
                          d=u(0.3, 3.0) * (1.0 if rng.integers(0, 2) else -1.0))
    omega = math.exp(u(math.log(5e-3), math.log(50.0)))
    if tag == "X1-radial-oscillator":
        return ParamPoint(m=m, omega=omega, d=u(0.3, 3.0))
    ell = int(rng.integers(1, 65))
    if tag == "Xl-radial-oscillator":
        return ParamPoint(m=m, omega=omega, ell=ell)
    if tag == "Xl-PT-Scarf":
        m = u(-2.0, 2.0)
    return ParamPoint(m=m, B=u(-300.0, -0.6), ell=ell)


class TestFarEdge:
    @pytest.mark.parametrize("tag", INFINITE_TAGS)
    def test_sampled_edges_are_the_closed_form(self, tag):
        for p in sample_valid_params(tag, 4, seed=29):
            fam = get_family(tag, p)
            m_values = (p.m, p.m - 1.0, p.m - 2.0)
            edge = closed_form_edge(tag, p, m_values)
            assert fam.grid_ends_fn(m_values)[1] == pytest.approx(edge, rel=1e-14)
            grid = make_grid(fam, 64, m_values=m_values)
            assert grid[-1] == pytest.approx(edge, rel=1e-14)
            if fam.domain[0] == -np.inf:
                assert grid[0] == -grid[-1]

    @pytest.mark.parametrize("tag, p", REACH_BOUND)
    def test_kernel_reach_sets_the_edge(self, tag, p):
        fam = get_family(tag, p)
        m_values = (p.m, p.m - 1.0, p.m - 2.0)
        edge = closed_form_edge(tag, p, m_values)
        assert fam.grid_ends_fn(m_values)[1] == pytest.approx(edge, rel=1e-14)
        # the reach, not the plateau or the cap, decides here
        assert reach(family_data(tag, p), m_values) < (
            2.0 * W_CAP ** 2 / p.omega if p.omega else PLATEAU_T)
        grid = make_grid(fam, m_values=m_values)
        w, wd = fam.w_rows(grid, m_values)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(wd))

    def test_plateau_above_the_cap_exits_2(self, capsys):
        # W tends to m*c - beta/c = 500.001 for large x: the plateau, not the
        # region, rules the point out.  The edge probe once refused
        # c = 0.03 (plateau 16.7) here too, with "no evaluable window edge"
        params = '{{"m": 1.0, "c": {}, "beta": -0.5, "d": 1.0}}'
        assert main(["verify", "--family", "X1-hyperbolic", "--params", params.format(0.001),
                     "--no-timestamp"]) == 2
        assert "on the plateau" in capsys.readouterr().err
        assert main(["verify", "--family", "X1-hyperbolic", "--params", params.format(0.03),
                     "--no-timestamp"]) == 0

    @pytest.mark.parametrize("mode", PERTURBATION_MODES)
    def test_perturbed_grid_is_the_base_grid(self, mode):
        base, p = sampled_family("Xl-Poschl-Teller")
        m_values = (p.m, p.m - 1.0, p.m - 2.0)
        grid = make_grid(base, 64, m_values=m_values)
        for size in (1e-2, 1.0):
            fam = with_perturbation(base, mode, size)
            assert np.array_equal(make_grid(fam, 64, m_values=m_values), grid)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_no_w_evaluated(self, tag):
        fam, p = sampled_family(tag)
        m_values = (p.m, p.m - 1.0, p.m - 2.0)

        def refuse(*args):
            raise AssertionError("make_grid evaluated W")

        blind = dataclasses.replace(fam, affine=refuse, w1=refuse)
        assert np.array_equal(make_grid(blind, 64, m_values=m_values),
                              make_grid(fam, 64, m_values=m_values))

    @pytest.mark.parametrize("domain", [(-np.inf, 0.0), (-np.inf, -np.inf), (np.inf, np.inf),
                                        (1.0, 1.0), (2.0, 1.0)])
    def test_unsupported_domain_rejected(self, domain):
        with pytest.raises(UsageError, match="is not finite, \\(lo, inf\\) or \\(-inf, inf\\)"):
            plain_family(k0=np.zeros_like, k0_deriv=np.zeros_like, k1=np.zeros_like,
                         k1_deriv=np.zeros_like, domain=domain, m=0.0)

    def test_empty_window_exit_2(self, capsys):
        # at B = -1e303, |W| ~ 1e303/x stays above the cap up to x = 1e301,
        # and the coefficients of P+- near 1e303 leave the kernel a reach of
        # x = 0.146: no grid.  At B = -1e3 the near end sits at x = 10
        params = '{{"m": 0.0, "B": {}, "ell": 1}}'
        assert main(["verify", "--family", "Xl-Poschl-Teller", "--params", params.format(-1e303),
                     "--no-timestamp"]) == 2
        assert "the grid window [1e+301, 0.14626] is empty" in capsys.readouterr().err
        assert main(["verify", "--family", "Xl-Poschl-Teller", "--params", params.format(-1e3),
                     "--no-timestamp"]) == 0

    @pytest.mark.parametrize("tag", INFINITE_TAGS)
    def test_wide_box(self, tag):
        # every valid draw gets a grid on which W and W' are finite and the
        # five identity checks pass, or is refused because its plateau lies
        # above the cap (36 X1-hyperbolic points).  The edge probe refused
        # 280 of these 694 valid points, Xl-Poschl-Teller and Xl-PT-Scarf
        # ones among them
        rng = np.random.default_rng([404, FAMILY_TAGS.index(tag)])
        points = [wide_box_point(tag, rng) for _ in range(200)]
        points += [p for t, p in REACH_BOUND if t == tag]
        runs = 0
        for p in points:
            fam = get_family(tag, p)
            m_values = (p.m, p.m - 1.0, p.m - 2.0)
            if not all(fam.validity(m).valid for m in m_values):
                continue
            try:
                grid = make_grid(fam, m_values=m_values)
            except InvalidParameterError as exc:
                assert tag == "X1-hyperbolic" and "plateau" in exc.violated
                assert max(abs(m * p.c - p.beta / p.c) for m in m_values) > W_CAP
                continue
            w, wd = fam.w_rows(grid, m_values)
            assert np.all(np.isfinite(w)) and np.all(np.isfinite(wd)), p
            assert run_condition_checks(fam, grid, m_values).passed, p
            runs += 1
        assert runs >= 50


class TestNearEnd:
    """Next to a finite end e, t = g(e) is a simple root of R, W ~ sigma/|x - e|,
    and the grid stops where that reaches the cap, or 0.05 (times the width
    of a finite domain) from e, whichever is farther."""

    @staticmethod
    def valid_draws(tag, count=300):
        """(point, family, m_values) of the wide-box draws valid at m, m - 1
        and m - 2."""
        rng = np.random.default_rng([405, REAL_TAGS.index(tag)])
        for _ in range(count):
            p = TestMakeGrid.wide_box_point(tag, rng)
            fam = get_family(tag, p)
            m_values = (p.m, p.m - 1.0, p.m - 2.0)
            if all(fam.validity(m).valid for m in m_values):
                yield p, fam, m_values

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_finite_ends_are_simple_roots_of_r(self, tag):
        poly = np.polynomial.polynomial
        ends = 0
        for p, fam, _ in self.valid_draws(tag):
            data = family_data(tag, p)
            for e in data.domain:
                if math.isfinite(e):
                    t = float(data.g(e))
                    # R(t) = 0 up to the rounding of t = g(e) and of the sum
                    assert abs(poly.polyval(t, data.R)) <= 8.0 * np.finfo(float).eps * (
                        poly.polyval(abs(t), np.abs(data.R))), (p, e)
                    assert poly.polyval(t, poly.polyder(data.R)) != 0.0, (p, e)
                    ends += 1
        assert ends >= 50

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_capped_end_meets_the_cap(self, tag):
        # where |sigma|/100 exceeds the inset, max |W| over m at the end is
        # the cap to within the sigma/|x - e| approximation (0.96-1.06 x on
        # this box), and the moved grid keeps its points
        capped = 0
        for p, fam, m_values in self.valid_draws(tag):
            try:
                a, b = fam.grid_ends_fn(m_values)
            except InvalidParameterError:  # an X1-hyperbolic plateau above the cap
                continue
            if not b > a:  # X1-trigonometric at c = 0.021, beta = 3.3: both ends cross
                continue
            lo, hi = fam.domain
            inset = 0.05 * (hi - lo if math.isfinite(hi) else 1.0)
            moved = [x for x, rule in ((a, lo + inset), (b, hi - inset))
                     if math.isfinite(rule) and x != rule]
            for x in moved:
                w, _ = fam.w_rows(np.asarray([x]), m_values)
                assert 0.5 * W_CAP <= np.max(np.abs(w)) <= 1.5 * W_CAP, (p, x)
            if moved:
                capped += 1
                grid = make_grid(fam, 64, m_values=m_values)
                assert grid.size == 64 and grid[0] == a
                assert grid[-1] == pytest.approx(b, rel=1e-14)
        assert capped >= 30

    def test_empty_window_only_where_both_ends_cross(self):
        # X1-trigonometric at small c and large beta: |sigma|/100 exceeds
        # half the width, so the near ends cross and no grid is laid
        empty = []
        for p, fam, m_values in self.valid_draws("X1-trigonometric"):
            a, b = fam.grid_ends_fn(m_values)
            if not b > a:
                empty.append(p)
        assert len(empty) == 1 and empty[0].c < 0.03
        p = empty[0]
        with pytest.raises(UnsupportedError, match=r"the grid window \[3.40237, -1.0566\] is empty"):
            make_grid(get_family("X1-trigonometric", p),
                      m_values=(p.m, p.m - 1.0, p.m - 2.0))
