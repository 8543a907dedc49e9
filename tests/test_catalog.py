import numpy as np
import pytest

import oracles
from shapeinv import (
    FAMILY_TAGS,
    REAL_TAGS,
    GridSpec,
    InvalidParameterError,
    ParamPoint,
    ParamSchemaError,
    UnsupportedError,
    check_infeld_hull,
    check_translation,
    get_family,
    make_grid,
    sample_valid_params,
    validity_witness,
)
from shapeinv.catalog import family_data
from shapeinv.polynomials import monomial_coefficients
from conftest import denominator


class TestGetFamily:
    def test_unknown_tag(self):
        with pytest.raises(UnsupportedError):
            get_family("X2-exotic", ParamPoint(m=0.0))

    def test_missing_constants_listed(self):
        with pytest.raises(ParamSchemaError) as err:
            get_family("X1-hyperbolic", ParamPoint(m=0.0, c=1.0))
        assert "beta" in str(err.value) and "d" in str(err.value)

    def test_ell_zero_unsupported(self):
        with pytest.raises(UnsupportedError):
            get_family("Xl-radial-oscillator", ParamPoint(m=-2.0, omega=1.0, ell=0))

    def test_degenerate_prefactor_rejected(self):
        # ell - 2B - 1 = 0 at B = 0, ell = 1 (impossible under B < -1/2, but
        # the complex family has no B restriction)
        with pytest.raises(InvalidParameterError):
            get_family("Xl-PT-Scarf", ParamPoint(m=0.0, B=0.0, ell=1))
        with pytest.raises(InvalidParameterError):
            get_family("Xl-Poschl-Teller", ParamPoint(m=0.0, B=0.5, ell=2))

    def test_x1_radial_w1plus_value(self):
        entry = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=2.0, d=1.0))
        w1, _ = entry.family.w1plus(np.asarray([1.0]), -3.0)
        got = w1[0]
        assert got == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize(
        "tag,expected",
        [
            ("X1-hyperbolic", lambda p: (p.c**2, p.beta)),
            ("X1-radial-oscillator", lambda p: (0.0, -p.omega)),
            ("X1-trigonometric", lambda p: (-p.c**2, p.beta)),
            ("Xl-Poschl-Teller", lambda p: (1.0, 0.0)),
            ("Xl-PT-Scarf", lambda p: (1.0, 0.0)),
            ("Xl-radial-oscillator", lambda p: (0.0, -p.omega)),
        ],
    )
    def test_expected_constants(self, tag, expected):
        p = sample_valid_params(tag, 1, seed=2)[0]
        entry = get_family(tag, p)
        a, b = expected(p)
        assert entry.expected_a == pytest.approx(a)
        assert entry.expected_b == pytest.approx(b)


class TestTranslationIdentity:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_translation_exact_substitution(self, tag):
        for p in sample_valid_params(tag, 5, seed=41):
            fam = get_family(tag, p).family
            grid = make_grid(fam, GridSpec(n_points=512), m_values=(p.m, p.m - 1.0))
            assert check_translation(fam, p.m, grid) < 1e-12


class TestDegreeOneClosedForms:
    def test_xl_radial_ell1(self):
        # spec of the ratio at ell = 1: W1+ = x / (2.5 + x^2/2) for omega=1, m=-3
        entry = get_family("Xl-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, ell=1))
        xs = np.linspace(0.3, 4.0, 40)
        got, _ = entry.family.w1plus(xs, -3.0)
        got = np.asarray(got)
        assert np.max(np.abs(got - xs / (2.5 + xs**2 / 2.0))) < 1e-12
        # W1- closed form: omega*x / ((1/2 - m) + omega*x^2/2)
        got_m, _ = entry.family.w1minus(xs, -3.0)
        got_m = np.asarray(got_m)
        assert np.max(np.abs(got_m - xs / (3.5 + xs**2 / 2.0))) < 1e-12

    def test_xl_poschl_teller_ell1(self):
        # degree-0 over degree-1 Jacobi: P1^{(a,b)}(t) = (a+1) + (a+b+2)(t-1)/2
        B, m = -1.0, 0.0
        entry = get_family("Xl-Poschl-Teller", ParamPoint(m=m, B=B, ell=1))
        xs = np.linspace(0.3, 3.0, 30)
        t = np.cosh(xs)
        pref = 0.5 * (1.0 - 2.0 * B - 1.0)
        p1 = (-B + m - 0.5 + 1.0) + (-2.0 * B) * (t - 1.0) / 2.0
        expected = pref * np.sinh(xs) / p1
        got, _ = entry.family.w1plus(xs, m)
        got = np.asarray(got)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_xl_scarf_ell1(self):
        B, m = -1.5, 0.4
        entry = get_family("Xl-PT-Scarf", ParamPoint(m=m, B=B, ell=1))
        xs = np.linspace(-2.0, 2.0, 21)
        z = 1j * np.sinh(xs)
        pref = 0.5j * (1.0 - 2.0 * B - 1.0)
        p1 = (-B + m - 0.5 + 1.0) + (-2.0 * B) * (z - 1.0) / 2.0
        expected = pref * np.cosh(xs) / p1
        got, _ = entry.family.w1plus(xs, m)
        got = np.asarray(got)
        assert np.max(np.abs(got - expected)) < 1e-12


class TestInfeldHullConstants:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_constants_match_catalog(self, tag):
        p = sample_valid_params(tag, 1, seed=5)[0]
        entry = get_family(tag, p)
        grid = make_grid(entry.family, GridSpec(n_points=256), m_values=(p.m,))
        constants, residual = check_infeld_hull(entry.family, grid)
        assert residual < 1e-9
        assert constants.a == pytest.approx(entry.expected_a, abs=1e-9)
        assert constants.b == pytest.approx(entry.expected_b, abs=1e-9)


class TestValidityWitness:
    def test_x1_radial_examples(self):
        ok = validity_witness("X1-radial-oscillator", ParamPoint(m=-2.0, omega=1.0, d=1.0))
        assert ok.valid and ok.violated is None and ok.agrees
        bad = validity_witness("X1-radial-oscillator", ParamPoint(m=-1.0, omega=1.0, d=1.0))
        assert not bad.valid
        assert bad.violated == "m < -(1 + 2*d)/2"
        assert bad.agrees  # the scan finds the in-domain denominator root too

    def test_poschl_teller_example(self):
        rep = validity_witness("Xl-Poschl-Teller", ParamPoint(m=0.0, B=-1.0, ell=1))
        assert rep.valid and rep.agrees

    def test_scarf_always_valid(self):
        rep = validity_witness("Xl-PT-Scarf", ParamPoint(m=1.3, B=-2.5, ell=3))
        assert rep.valid and rep.scan_clear and rep.agrees

    @pytest.mark.parametrize(
        "tag,params_in,params_out",
        [
            (
                # d < 0 bound: m < (2*beta - c^2 - 2*c*d)/(2*c^2) = 1
                "X1-hyperbolic",
                ParamPoint(m=0.95, c=1.0, beta=0.5, d=-1.0),
                ParamPoint(m=1.05, c=1.0, beta=0.5, d=-1.0),
            ),
            (
                "Xl-radial-oscillator",
                ParamPoint(m=-0.55, omega=1.0, ell=2),
                ParamPoint(m=-0.45, omega=1.0, ell=2),
            ),
            (
                "Xl-Poschl-Teller",
                ParamPoint(m=1.45, B=-2.0, ell=2),
                ParamPoint(m=1.55, B=-2.0, ell=2),
            ),
            (
                # m < -(1 + 2*d)/2 = -1.5
                "X1-radial-oscillator",
                ParamPoint(m=-1.55, omega=1.0, d=1.0),
                ParamPoint(m=-1.45, omega=1.0, d=1.0),
            ),
            (
                # d > 0: m < -2 or m > 1
                "X1-trigonometric",
                ParamPoint(m=-2.05, c=1.0, beta=0.5, d=1.0),
                ParamPoint(m=-1.95, c=1.0, beta=0.5, d=1.0),
            ),
            (
                # d < 0: m < -2 or m > 1
                "X1-trigonometric",
                ParamPoint(m=1.05, c=1.0, beta=0.5, d=-1.0),
                ParamPoint(m=0.95, c=1.0, beta=0.5, d=-1.0),
            ),
            (
                # the lower Poschl-Teller edge, (1 + 2*B)/2 = -1.5
                "Xl-Poschl-Teller",
                ParamPoint(m=-1.45, B=-2.0, ell=2),
                ParamPoint(m=-1.55, B=-2.0, ell=2),
            ),
        ],
    )
    def test_boundary_crossings_agree_with_scan(self, tag, params_in, params_out):
        rep_in = validity_witness(tag, params_in)
        rep_out = validity_witness(tag, params_out)
        assert rep_in.valid and rep_in.agrees
        assert not rep_out.valid and rep_out.agrees


class TestFamilyData:
    """The derived poles against the denominators they come from."""

    POINTS = [
        ("X1-hyperbolic", ParamPoint(m=1.05, c=1.0, beta=0.5, d=-1.0)),
        ("X1-hyperbolic", ParamPoint(m=-3.0, c=1.5, beta=0.5, d=2.0)),
        ("X1-radial-oscillator", ParamPoint(m=2.0, omega=2.0, d=1.0)),
        ("X1-trigonometric", ParamPoint(m=-1.95, c=1.0, beta=0.5, d=1.0)),
        ("X1-trigonometric", ParamPoint(m=0.95, c=1.0, beta=0.5, d=-1.0)),
        ("Xl-Poschl-Teller", ParamPoint(m=-1.55, B=-2.0, ell=1)),
        ("Xl-Poschl-Teller", ParamPoint(m=-2.5, B=-2.0, ell=1)),
        ("Xl-Poschl-Teller", ParamPoint(m=-1.55, B=-2.0, ell=10)),
        ("Xl-radial-oscillator", ParamPoint(m=-0.45, omega=1.0, ell=3)),
        ("Xl-radial-oscillator", ParamPoint(m=4.0, omega=1.0, ell=1)),
        ("Xl-radial-oscillator", ParamPoint(m=2.0, omega=1.0, ell=10)),
    ]

    def test_points_cover_every_real_family(self):
        assert {tag for tag, _ in self.POINTS} == set(REAL_TAGS)

    @pytest.mark.parametrize("tag,p", POINTS)
    def test_poles_are_denominator_zeros(self, tag, p):
        family = get_family(tag, p).family
        data = family_data(tag, p)
        poles = family.poles(p.m)
        assert poles
        for x in poles:
            xs = np.asarray([x])
            gx = data.g(xs)[0]
            relative = []
            for spec_of_m in (data.p_plus, data.p_minus):
                spec = spec_of_m(p.m)
                if data.linear:
                    size = abs(spec[0]) + abs(spec[1] * gx)
                else:
                    size = np.polynomial.polynomial.polyval(
                        abs(gx), np.abs(monomial_coefficients(spec)))
                relative.append(abs(denominator(data, spec_of_m, xs, p.m)[0]) / size)
            assert min(relative) < 1e-9, (x, relative)

    @pytest.mark.parametrize(
        "tag,p",
        [
            ("X1-hyperbolic", ParamPoint(m=1.05, c=1.0, beta=0.5, d=-1.0)),  # m < 1
            ("X1-hyperbolic", ParamPoint(m=-0.05, c=1.0, beta=0.5, d=1.0)),  # m > 0
            ("X1-radial-oscillator", ParamPoint(m=-1.45, omega=1.0, d=1.0)),  # m < -1.5
            ("X1-trigonometric", ParamPoint(m=-1.95, c=1.0, beta=0.5, d=1.0)),  # m < -2
            ("X1-trigonometric", ParamPoint(m=0.95, c=1.0, beta=0.5, d=-1.0)),  # m > 1
        ],
    )
    def test_x1_point_just_outside_has_a_pole(self, tag, p):
        family = get_family(tag, p).family
        assert not family.validity(p.m).valid
        assert family.poles(p.m)


class TestSampler:
    def test_deterministic(self):
        a = sample_valid_params("X1-trigonometric", 4, seed=99)
        b = sample_valid_params("X1-trigonometric", 4, seed=99)
        assert a == b

    def test_x1_radial_margin(self):
        for p in sample_valid_params("X1-radial-oscillator", 3, seed=7):
            assert p.m < -(1.0 + 2.0 * p.d) / 2.0 - 0.1

    def test_poschl_teller_box(self):
        for p in sample_valid_params("Xl-Poschl-Teller", 4, seed=1):
            assert p.B < -0.6
            lo = (1.0 + 2.0 * p.B) / 2.0
            assert lo < p.m < -lo

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_translates_stay_valid(self, tag):
        for p in sample_valid_params(tag, 4, seed=13):
            fam = get_family(tag, p).family
            for k in (0, 1, 2):
                assert fam.validity(p.m - k).valid

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_valid_params("X1-hyperbolic", 0, seed=1)


class TestScarfStructure:
    def test_k0_purely_imaginary_at_real_x(self):
        entry = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=2))
        xs = np.linspace(-3.0, 3.0, 31)
        k0 = np.asarray(entry.family.k0(xs))
        assert np.max(np.abs(k0.real)) == 0.0
        assert np.max(np.abs(k0.imag)) > 0.0

    def test_puncture_is_the_only_declared_pole(self):
        entry = get_family("Xl-PT-Scarf", ParamPoint(m=-0.8, B=-3.0, ell=3))
        assert entry.family.poles(-0.8) == (0.0,)


class TestScarfAccuracy:
    """The Scarf denominators are Jacobi polynomials at i*sinh(x), where the
    series about z = 1 cancels; values near x = 0 once lost up to 7e-10."""

    B, M = -2.0, 0.3

    @pytest.mark.parametrize("ell", [6, 10, 12])
    def test_denominators_match_oracle(self, ell):
        point = ParamPoint(m=self.M, B=self.B, ell=ell)
        fam = get_family("Xl-PT-Scarf", point).family
        data = family_data("Xl-PT-Scarf", point)
        ms = (self.M, self.M - 1.0, self.M - 2.0)
        grid = make_grid(fam, GridSpec(n_points=512), m_values=ms)
        for x in (-0.02, 0.01, 0.4, float(grid[0]), float(grid[-1])):
            z = 1j * oracles.mp.sinh(oracles.mp.mpf(x))
            for m in ms:
                for spec_of_m, (da, db) in ((data.p_plus, (-0.5, -1.5)),
                                            (data.p_minus, (-1.5, -0.5))):
                    ref = oracles.to_complex(
                        oracles.jacobi(ell, -self.B + m + da, -self.B - m + db, z))
                    got = complex(np.asarray(denominator(data, spec_of_m, np.asarray([x]), m))[0])
                    assert abs(got - ref) <= 1e-13 * abs(ref), (x, m)

    def test_witness_agrees_at_degree_8(self):
        # |q(1.28)| = 1627 once counted as a root against 1e-8 * max|q|
        rep = validity_witness(
            "Xl-PT-Scarf", ParamPoint(m=1.9774829677065657, B=-1.3953730974523149, ell=8))
        assert rep.valid and rep.scan_clear and rep.agrees
