import dataclasses

import numpy as np
import pytest

from shapeinv import (
    FAMILY_TAGS,
    GridSpec,
    ParamPoint,
    PoleError,
    InvalidParameterError,
    PERTURBATION_MODES,
    REAL_TAGS,
    eval_w,
    eval_w_deriv,
    get_family,
    make_grid,
    sample_valid_params,
    with_perturbation,
)
from shapeinv.superpotential import _EDGE_W_CAP, _EDGE_X_CAP, _expand_edge
from shapeinv.catalog import family_data
from conftest import denominator, plain_family


def richardson(f, x, h):
    def central(hh):
        return (f(x + hh) - f(x - hh)) / (2.0 * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def sampled_entry(tag, seed=11):
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
        assert p.with_m(-3.0).m == -3.0


class TestGridSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_points": 8},
            {"n_points": 512.5},
            {"n_points": 512.0},
            {"boundary_margin": 0.0},
            {"boundary_margin": 0.5},
            {"pole_exclusion_radius": 0.0},
            {"pole_exclusion_radius": float("nan")},
            {"pole_exclusion_radius": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestEvalW:
    def test_pure_affine(self, free_radial):
        # W = m/x with m = 2 at x = 0.5 -> 4
        assert eval_w(free_radial, 0.5, m=2.0) == 4.0 + 0.0j

    def test_x1_radial_point(self):
        # omega = 1, d = 1, m = -2, x = 1: W0 = -0.5, W1+ = 1, W1- = 0.5
        entry = get_family("X1-radial-oscillator", ParamPoint(m=-2.0, omega=1.0, d=1.0))
        w = eval_w(entry.family, 1.0)
        assert w == pytest.approx(-0.5 + 1.0 - 0.5, abs=1e-15)
        assert w.imag == 0.0

    def test_scarf_is_complex_at_real_x(self):
        entry = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=1))
        w = eval_w(entry.family, 0.7)
        assert abs(w.imag) > 0.1  # i*B/cosh(x) contributes directly

    def test_coth_derivative(self):
        fam = plain_family(
            k0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k0_deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k1=lambda x: np.cosh(x) / np.sinh(x),
            k1_deriv=lambda x: -1.0 / np.sinh(x) ** 2,
            domain=(0.0, np.inf),
            m=1.0,
        )
        got = eval_w_deriv(fam, 1.0, m=1.0)
        assert got == pytest.approx(-1.0 / np.sinh(1.0) ** 2, rel=1e-15)

    def test_plain_family_derivative_exact(self, free_radial):
        # no extension: dW/dx is exactly k0' + m*k1'
        xs = np.linspace(0.2, 5.0, 50)
        got = np.asarray([eval_w_deriv(free_radial, x, m=2.0) for x in xs])
        expected = 2.0 * (-1.0 / xs**2)
        assert np.array_equal(got.real, expected)
        assert np.all(got.imag == 0.0)

    def test_outside_domain_rejected(self, free_radial):
        from shapeinv.errors import UsageError

        with pytest.raises(UsageError):
            eval_w(free_radial, -1.0)

    def test_pole_proximity_raises(self):
        fam = plain_family(
            k0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k0_deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            k1=lambda x: 1.0 / x,
            k1_deriv=lambda x: -1.0 / (x * x),
            domain=(0.0, np.inf),
            m=1.0,
        )
        fam = dataclasses.replace(fam, poles_fn=lambda m: (0.5,))
        with pytest.raises(PoleError) as err:
            eval_w(fam, 0.5004, m=1.0)
        assert err.value.root == 0.5
        assert eval_w(fam, 0.7, m=1.0) is not None


class TestDerivativeConsistency:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_fd_agreement_200_points(self, tag):
        entry, p = sampled_entry(tag)
        fam = entry.family
        grid = make_grid(fam, GridSpec(n_points=256), m_values=(p.m, p.m - 1.0))
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
        entry, p = sampled_entry(tag, seed=23)
        fam = entry.family
        grid = make_grid(fam, GridSpec(n_points=64), m_values=(p.m,))
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
        entry, p = sampled_entry(tag, seed=31)
        fam = entry.family
        data = family_data(tag, p)

        def D(t):
            return denominator(data, data.p_plus, np.asarray([t]), p.m)

        grid = make_grid(fam, GridSpec(n_points=64), m_values=(p.m,))
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
        grid = make_grid(plain_oscillator, GridSpec(n_points=128), m_values=(-2.0,))
        assert grid.size == 128
        assert np.all(grid > 0.0)
        assert np.all(np.diff(grid) > 0)

    def test_invalid_params_error_names_inequality(self):
        entry = get_family("X1-radial-oscillator", ParamPoint(m=-1.0, omega=1.0, d=1.0))
        with pytest.raises(InvalidParameterError) as err:
            make_grid(entry.family, GridSpec())
        assert err.value.violated == "m < -(1 + 2*d)/2"

    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_sampled_points_have_no_poles(self, tag):
        # the sampler draws inside the region at m, m-1 and m-2, where no
        # denominator vanishes in the domain
        for seed in range(100):
            for p in sample_valid_params(tag, 5, seed):
                poles = get_family(tag, p).family.poles((p.m, p.m - 1.0, p.m - 2.0))
                assert poles == (), (seed, p, poles)

    def test_scarf_puncture_excluded(self):
        entry = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=2))
        grid = make_grid(entry.family, GridSpec(n_points=128), m_values=(0.5,))
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
        )
        fam = dataclasses.replace(fam, poles_fn=lambda m: (0.2, 0.9))
        grid = make_grid(fam, GridSpec(n_points=256, pole_exclusion_radius=0.05), m_values=(1.0,))
        assert grid.size == 256
        assert np.min(np.abs(grid - 0.2)) >= 0.05
        assert np.min(np.abs(grid - 0.9)) >= 0.05

    def test_linear_mapping_upgraded_on_infinite_domain(self, plain_oscillator):
        grid = make_grid(plain_oscillator, GridSpec(n_points=64), m_values=(-2.0,))
        assert np.all(grid > 0.0)
        steps = np.diff(grid)
        assert steps[-1] > 2.0 * steps[0]  # tanh compression, not a linear layout

    def test_finite_domain_linear(self):
        entry = get_family("X1-trigonometric", ParamPoint(m=-6.0, c=1.0, beta=0.5, d=1.0))
        grid = make_grid(entry.family, GridSpec(n_points=100), m_values=(-6.0,))
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
        entry, p = sampled_entry("X1-radial-oscillator")
        fam = entry.family
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
        entry, p = sampled_entry(tag)
        pert = with_perturbation(entry.family, mode, 0.01)
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
            base = entry.family.w1(xs, m_values)
            assert any(not np.array_equal(r, b) for r, b in zip(rows, base))

    def test_paired_mode_keeps_translation(self):
        entry, p = sampled_entry("X1-radial-oscillator")
        pert = with_perturbation(entry.family, "paired-mx-slope", 0.01)
        xs = np.linspace(0.5, 2.0, 9)
        _, _, lhs, _ = pert.w1(xs, (p.m,))
        rhs, _, _, _ = pert.w1(xs, (p.m - 1.0,))
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def reference_edge(family, m_values, start, sign):
    """The edge rule one abscissa at a time: double from start while the
    candidate passes, and if start itself fails, halve until one passes.  A
    candidate passes when W and W' are finite at every m and |W| <= the cap;
    an evaluation that raises fails it."""

    def passes(x):
        xs = np.asarray([sign * x])
        try:
            with np.errstate(all="ignore"):
                for m in m_values:
                    w, wd = family.w_rows(xs, (m,))
                    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(wd))):
                        return False
                    if np.max(np.abs(w)) > _EDGE_W_CAP:
                        return False
        except (ArithmeticError, ValueError):
            return False
        return True

    edge, good = start, None
    for _ in range(40):
        if edge > _EDGE_X_CAP or not passes(edge):
            break
        good, edge = edge, edge * 2.0
    if good is not None:
        return good
    edge = start / 2.0
    while edge > 1e-3:
        if passes(edge):
            return edge
        edge /= 2.0
    return None


def zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


class TestEdgeProbe:
    def test_halving_branch(self):
        # W = 200 x + m/x fails |W| <= 100 at the first candidate, x = 1.05
        fam = plain_family(k0=lambda x: 200.0 * np.asarray(x, dtype=float),
                           k0_deriv=lambda x: 200.0 + zeros(x),
                           k1=lambda x: 1.0 / x, k1_deriv=lambda x: -1.0 / (x * x),
                           domain=(0.0, np.inf), m=1.0)
        m_values = (1.0, 0.0)
        edge = _expand_edge(fam, m_values, 1.05, (+1.0,))[0]
        assert edge == reference_edge(fam, m_values, 1.05, +1.0) == 1.05 / 4
        grid = make_grid(fam, GridSpec(n_points=64), m_values=m_values)
        assert grid[-1] == edge

    def test_cosh_overflow_candidate(self):
        # cosh(1024) overflows: the kernel would raise there, the evaluators
        # return nan instead, and the edge stops at 512
        fam = get_family("Xl-Poschl-Teller", ParamPoint(m=0.6, B=-2.5, ell=1)).family
        m_values = (0.6, -0.4, -1.4)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.cosh(1024.0))
        edge = _expand_edge(fam, m_values, 1.0, (+1.0,))[0]
        assert edge == reference_edge(fam, m_values, 1.0, +1.0) == 512.0
        w1 = fam.w1(np.array([1024.0]), (0.6,))[0]
        assert np.isnan(w1[0, 0])

    def test_one_nonfinite_candidate(self):
        # W = 1/(x - 8) is infinite at the candidate x = 8 and finite past
        # it: the edge is the last candidate before the first failure
        fam = plain_family(k0=lambda x: 1.0 / (x - 8.0), k0_deriv=lambda x: -1.0 / (x - 8.0) ** 2,
                           k1=zeros, k1_deriv=zeros, domain=(-np.inf, np.inf), m=0.0)
        right = _expand_edge(fam, (0.0,), 1.0, (+1.0,))[0]
        assert right == reference_edge(fam, (0.0,), 1.0, +1.0) == 4.0
        left = _expand_edge(fam, (0.0,), 1.0, (-1.0,))[0]
        assert left == reference_edge(fam, (0.0,), 1.0, -1.0) == 2.0 ** 19
        grid = make_grid(fam, GridSpec(n_points=64), m_values=(0.0,))
        assert (grid[0], grid[-1]) == (-left, 4.0)

    def test_perturbed_control(self):
        # W1- += size*x grows without bound; at size 1 the |W| cap sets the
        # edge before the overflow of cosh(x)**ell does
        entry, p = sampled_entry("Xl-Poschl-Teller")
        m_values = (p.m, p.m - 1.0, p.m - 2.0)
        edges = {}
        for size in (1e-2, 1.0):
            fam = with_perturbation(entry.family, "wminus-slope", size)
            edges[size] = _expand_edge(fam, m_values, 1.05, (+1.0,))[0]
            assert edges[size] == reference_edge(fam, m_values, 1.05, +1.0)
        assert edges[1.0] < edges[1e-2] == _expand_edge(entry.family, m_values, 1.05, (+1.0,))[0]

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_sampled_families(self, tag):
        for p in sample_valid_params(tag, 4, seed=29):
            fam = get_family(tag, p).family
            m_values = (p.m, p.m - 1.0, p.m - 2.0)
            for start, sign in ((1.0, 1.0), (1.0, -1.0), (1.05, 1.0)):
                if not fam.domain[0] < sign * start < fam.domain[1]:
                    continue
                assert _expand_edge(fam, m_values, start, (sign,))[0] == \
                    reference_edge(fam, m_values, start, sign)

    @pytest.mark.parametrize("case", ["Xl-PT-Scarf", "pole-at-8", "halving-on-the-right"])
    def test_both_sides_in_one_probe(self, case):
        # a two-sided domain probes both sides' doubling candidates in one
        # (W, W') call; each side's edge is the one its own probe reaches,
        # and only a side whose first candidate fails is probed again
        if case == "Xl-PT-Scarf":
            entry, p = sampled_entry(case)
            fam, m_values = entry.family, (p.m, p.m - 1.0, p.m - 2.0)
        elif case == "pole-at-8":
            fam = plain_family(k0=lambda x: 1.0 / (x - 8.0),
                               k0_deriv=lambda x: -1.0 / (x - 8.0) ** 2,
                               k1=zeros, k1_deriv=zeros, domain=(-np.inf, np.inf), m=0.0)
            m_values = (0.0,)
        else:
            # W = 200 x for x > 0: the right side fails at x = 1 and halves
            fam = plain_family(k0=lambda x: np.where(np.asarray(x) > 0, 200.0 * x, 0.0),
                               k0_deriv=lambda x: np.where(np.asarray(x) > 0, 200.0, 0.0),
                               k1=zeros, k1_deriv=zeros, domain=(-np.inf, np.inf), m=0.0)
            m_values = (0.0,)
        calls = []
        affine = fam.affine
        counted = dataclasses.replace(
            fam, affine=lambda x: calls.append(np.size(x)) or affine(x))
        right, left = _expand_edge(counted, m_values, 1.0, (+1.0, -1.0))
        assert (right, left) == (reference_edge(fam, m_values, 1.0, +1.0),
                                 reference_edge(fam, m_values, 1.0, -1.0))
        halved = int(case == "halving-on-the-right")
        assert len(calls) == 1 + halved
        grid = make_grid(fam, GridSpec(n_points=64), m_values=m_values)
        assert (grid[0], grid[-1]) == (-left, right)
