import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from shapeinv import polynomials
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
        fam = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=2.0, d=1.0))
        got = fam.w1(np.asarray([1.0]), (-3.0,))[0][0, 0]
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
        fam = get_family(tag, p)
        a, b = expected(p)
        assert fam.expected_ab == pytest.approx((a, b))


class TestTranslationIdentity:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_translation_exact_substitution(self, tag):
        for p in sample_valid_params(tag, 5, seed=41):
            fam = get_family(tag, p)
            grid = make_grid(fam, GridSpec(n_points=512), m_values=(p.m, p.m - 1.0))
            assert check_translation(fam, p.m, grid) < 1e-12


class TestW1Dtype:
    """W1 keeps the family's dtype: the kernel computes the real families
    in float64 end to end, and only the complex family in complex128."""

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_w1_rows(self, tag):
        p = sample_valid_params(tag, 1, seed=3)[0]
        fam = get_family(tag, p)
        rows = fam.w1(make_grid(fam, GridSpec(n_points=64)), (p.m, p.m - 1.0))
        want = np.float64 if tag in REAL_TAGS else np.complex128
        assert [r.dtype for r in rows] == [want] * 4
        assert all(r.shape == (2, 64) for r in rows)


class TestDegreeOneClosedForms:
    def test_xl_radial_ell1(self):
        # spec of the ratio at ell = 1: W1+ = x / (2.5 + x^2/2) for omega=1, m=-3
        fam = get_family("Xl-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, ell=1))
        xs = np.linspace(0.3, 4.0, 40)
        (got,), _, (got_m,), _ = fam.w1(xs, (-3.0,))
        assert np.max(np.abs(got - xs / (2.5 + xs**2 / 2.0))) < 1e-12
        # W1- closed form: omega*x / ((1/2 - m) + omega*x^2/2)
        assert np.max(np.abs(got_m - xs / (3.5 + xs**2 / 2.0))) < 1e-12

    def test_xl_poschl_teller_ell1(self):
        # degree-0 over degree-1 Jacobi: P1^{(a,b)}(t) = (a+1) + (a+b+2)(t-1)/2
        B, m = -1.0, 0.0
        fam = get_family("Xl-Poschl-Teller", ParamPoint(m=m, B=B, ell=1))
        xs = np.linspace(0.3, 3.0, 30)
        t = np.cosh(xs)
        pref = 0.5 * (1.0 - 2.0 * B - 1.0)
        p1 = (-B + m - 0.5 + 1.0) + (-2.0 * B) * (t - 1.0) / 2.0
        expected = pref * np.sinh(xs) / p1
        got = fam.w1(xs, (m,))[0][0]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_xl_scarf_ell1(self):
        B, m = -1.5, 0.4
        fam = get_family("Xl-PT-Scarf", ParamPoint(m=m, B=B, ell=1))
        xs = np.linspace(-2.0, 2.0, 21)
        z = 1j * np.sinh(xs)
        pref = 0.5j * (1.0 - 2.0 * B - 1.0)
        p1 = (-B + m - 0.5 + 1.0) + (-2.0 * B) * (z - 1.0) / 2.0
        expected = pref * np.cosh(xs) / p1
        got = fam.w1(xs, (m,))[0][0]
        assert np.max(np.abs(got - expected)) < 1e-12


class TestInfeldHullConstants:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_constants_match_catalog(self, tag):
        p = sample_valid_params(tag, 1, seed=5)[0]
        fam = get_family(tag, p)
        grid = make_grid(fam, GridSpec(n_points=256), m_values=(p.m,))
        constants, residual = check_infeld_hull(fam, grid)
        assert residual < 1e-9
        assert (constants.a, constants.b) == pytest.approx(fam.expected_ab, abs=1e-9)


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

    def test_scarf_verdict_matches_sturm_oracle(self):
        # the Scarf predicate is the root test itself, so `agrees` cannot
        # check it; the oracle counts roots i*s of P+- by Sturm on exact
        # Fraction coefficients.  At m = +-1/2 one of P+- is a symmetric
        # Jacobi polynomial, singular for these B > 0 at several ell.
        verdicts = set()
        for m, B, ell in itertools.product((-0.5, 0.5, 0.3), (0.75, 2.2), (2, 3, 4)):
            point = ParamPoint(m=m, B=B, ell=ell)
            data = family_data("Xl-PT-Scarf", point)
            roots = sum(oracles.imaginary_root_count(
                oracles.exact_coefficients(s.degree, s.alpha, s.beta))
                for s in (data.p_plus(m), data.p_minus(m)))
            rep = validity_witness("Xl-PT-Scarf", point)
            assert rep.valid == (roots == 0), (m, B, ell)
            verdicts.add(rep.valid)
        assert verdicts == {True, False}

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

    @pytest.mark.parametrize("tag", ["X1-hyperbolic", "X1-trigonometric"])
    def test_zero_c_names_its_condition(self, tag):
        # every m edge divides by 2*c^2; c = 0 once raised ZeroDivisionError
        rep = validity_witness(tag, ParamPoint(m=1.0, c=0.0, beta=0.5, d=1.0))
        assert not rep.valid and rep.violated == "c > 0"

    @pytest.mark.parametrize("c", [1e-154, 1e-160, 1e-170, 1e-200])
    @pytest.mark.parametrize("tag", ["X1-hyperbolic", "X1-trigonometric"])
    def test_subnormal_c_squared_is_unsupported(self, tag, c):
        # c = 1e-154 is the largest power of ten whose c^2 is subnormal, and
        # below 1e-162 2*c^2 underflows to 0, which every m edge divides by:
        # a limit of float64, not of the region.  On X1-trigonometric D+- =
        # 1 -+ 2*c*sin(c x) has no root, so a region condition on c^2 made
        # the predicate and the root test disagree there
        with pytest.raises(UnsupportedError,
                           match=rf"c = {c!r} is outside the float support: c\^2 is not"):
            validity_witness(tag, ParamPoint(m=1.0, c=c, beta=0.5, d=1.0))

    def test_trigonometric_band_point(self):
        # D+- = 4 -+ 2 sin(2x): neither vanishes
        rep = validity_witness("X1-trigonometric", ParamPoint(m=0.0, c=2.0, beta=0.0, d=0.5))
        assert rep.valid and rep.scan_clear and rep.agrees

    @pytest.mark.parametrize("c,beta,d", [(2.0, 0.0, 0.5), (2.0, 0.7, -0.5), (1.5, -0.4, 0.3)])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_trigonometric_band_edges_agree_with_scan(self, c, beta, d, side):
        # the band |2*beta + 2*c^2*m| < c^2 - 2*c*|d| between the two outer
        # intervals, 0.05 inside and outside each of its edges
        region = family_data("X1-trigonometric", ParamPoint(m=0.0, c=c, beta=beta, d=d)).region
        (band,) = region.intervals[2:]
        edge = band.hi if side > 0.0 else band.lo
        for step, inside in ((-0.05 * side, True), (0.05 * side, False)):
            rep = validity_witness("X1-trigonometric",
                                   ParamPoint(m=edge + step, c=c, beta=beta, d=d))
            assert rep.valid == rep.scan_clear == inside, (edge + step, rep)


def _wide(lo, hi):
    # integers and halves put roots of P+- exactly on the forbidden set's ends
    return st.one_of(st.floats(min_value=lo, max_value=hi, exclude_min=True, exclude_max=True),
                     st.integers(2 * lo + 1, 2 * hi - 1).map(lambda k: k / 2))


# where each real Xl region forbids a root t of P+-: half-lines, each with
# its finite end closed
FORBIDDEN = {"Xl-Poschl-Teller": ((-math.inf, -1), (1, math.inf)),
             "Xl-radial-oscillator": ((-math.inf, 0),)}


class TestWitnessRootTest:
    """scan_clear against the certified count of the roots it forbids."""

    @given(data=st.data(), tag=st.sampled_from(sorted(FORBIDDEN)),
           ell=st.integers(min_value=1, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_scan_clear_iff_no_forbidden_root(self, data, tag, ell):
        if tag == "Xl-Poschl-Teller":
            B = data.draw(_wide(-6, 1))
            assume(abs(ell - 2.0 * B - 1.0) >= 1e-9)  # the rejected degenerate prefactor
            p = ParamPoint(m=data.draw(_wide(-6, 6)), B=B, ell=ell)
        else:
            omega = data.draw(st.floats(min_value=0.3, max_value=3.0))
            p = ParamPoint(m=data.draw(_wide(-8, 4)), omega=omega, ell=ell)
        fd = family_data(tag, p)
        offending = 0
        for spec in (fd.p_plus(p.m), fd.p_minus(p.m)):
            exact = oracles.exact_coefficients(spec.degree, spec.alpha, spec.beta)
            if len(exact) < 2:
                continue  # constants and the zero polynomial have no root
            for lo, hi in FORBIDDEN[tag]:
                end = Fraction(hi if math.isinf(lo) else lo)
                offending += oracles.sturm_count(exact, lo, hi)
                offending += sum(c * end ** k for k, c in enumerate(exact)) == 0
        assert validity_witness(tag, p).scan_clear == (offending == 0), p

    # each Xl family on both sides of its region, and points where Descartes'
    # rule is inconclusive, so that the isolation stage runs
    POINTS = [
        ("Xl-Poschl-Teller", ParamPoint(m=1.45, B=-2.0, ell=2)),
        ("Xl-Poschl-Teller", ParamPoint(m=1.55, B=-2.0, ell=2)),
        ("Xl-Poschl-Teller", ParamPoint(m=2.63, B=-1.25, ell=5)),
        ("Xl-Poschl-Teller", ParamPoint(m=-3.7, B=-1.93, ell=2)),
        ("Xl-Poschl-Teller", ParamPoint(m=1.5, B=-2.5, ell=4)),
        ("Xl-radial-oscillator", ParamPoint(m=-0.55, omega=1.0, ell=2)),
        ("Xl-radial-oscillator", ParamPoint(m=3.15, omega=1.0, ell=6)),
        ("Xl-radial-oscillator", ParamPoint(m=3.86, omega=1.0, ell=4)),
        ("Xl-radial-oscillator", ParamPoint(m=1.0, omega=1.0, ell=3)),
        ("Xl-PT-Scarf", ParamPoint(m=-0.5, B=0.75, ell=2)),
        ("Xl-PT-Scarf", ParamPoint(m=1.3, B=-2.5, ell=3)),
    ]

    def test_witness_locates_no_root(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness refined a root")

        monkeypatch.setattr(polynomials, "_refine", refuse)
        monkeypatch.setattr(polynomials, "scan_roots", refuse)
        verdicts = {(tag, validity_witness(tag, p).scan_clear) for tag, p in self.POINTS}
        assert verdicts == {(tag, clear) for tag in ("Xl-Poschl-Teller", "Xl-radial-oscillator",
                                                      "Xl-PT-Scarf") for clear in (True, False)}


class TestAffineRecord:
    """The record's R, K0 and K1 against its g and its constants."""

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_g_deriv_squared_is_R_of_g(self, tag):
        polyval = np.polynomial.polynomial.polyval
        for p in sample_valid_params(tag, 3, seed=17):
            data = family_data(tag, p)
            grid = make_grid(get_family(tag, p), GridSpec(n_points=128))
            # where g'**2 stays finite (X1-hyperbolic grids reach cosh(c x)
            # past 1e154)
            grid = grid[np.abs(data.g_deriv(grid)) < 1e150]
            t, gd = data.g(grid), data.g_deriv(grid)
            # rounding of either side is bounded by eps times its term sizes
            size = np.abs(gd) ** 2 + polyval(np.abs(t), np.abs(data.R))
            assert np.all(np.abs(gd ** 2 - polyval(t, data.R)) <= 1e-13 * size)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_infeld_hull_polynomial_identities(self, tag):
        # k1' + k1**2 = a and -k0' - k1*k0 = b, with k = K(g)/g' and
        # g'**2 = R(g), are these identities of polynomials in t
        P = np.polynomial.polynomial
        for p in sample_valid_params(tag, 3, seed=17):
            data = family_data(tag, p)
            a, b = data.expected_ab
            R, K0, K1 = data.R, data.K0, data.K1
            for terms in (
                (P.polymul((2.0,), P.polymul(R, P.polyder(K1))), -P.polymul(K1, P.polyder(R)),
                 P.polymul((2.0,), P.polymul(K1, K1)), P.polymul((-2.0 * a,), R)),
                (P.polymul((-2.0,), P.polymul(R, P.polyder(K0))), P.polymul(K0, P.polyder(R)),
                 P.polymul((-2.0,), P.polymul(K0, K1)), P.polymul((-2.0 * b,), R)),
            ):
                total, size = np.zeros(4), np.zeros(4)
                for term in terms:
                    total[:term.size] += term
                    size[:term.size] += np.abs(term)
                assert np.all(np.abs(total) <= 1e-13 * max(size.max(), 1.0)), (p, total)


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
        family = get_family(tag, p)
        data = family_data(tag, p)
        poles = family.poles((p.m,))
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

    def test_poles_solve_each_distinct_denominator_once(self, monkeypatch):
        # P-(m) equals P+(m - 1) at dyadic m and B, so m, m-1, m-2 need four
        # root searches, not six, and find the poles that each m finds
        import shapeinv.catalog

        specs = []
        real_roots_in = shapeinv.catalog.real_roots_in
        monkeypatch.setattr(shapeinv.catalog, "real_roots_in",
                            lambda spec, iv: specs.append(spec) or real_roots_in(spec, iv))
        family = get_family("Xl-Poschl-Teller", ParamPoint(m=-2.5, B=-2.0, ell=1))
        m_values = (-2.5, -3.5, -4.5)
        poles = family.poles(m_values)
        assert len(specs) == len(set(specs)) == 4
        each = [x for m in m_values for x in family.poles((m,))]
        assert poles and set(poles) == set(each)

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
        family = get_family(tag, p)
        assert not family.validity(p.m).valid
        assert family.poles((p.m,))


class TestSampler:
    def test_deterministic(self):
        a = sample_valid_params("X1-trigonometric", 4, seed=99)
        b = sample_valid_params("X1-trigonometric", 4, seed=99)
        assert a == b

    # the five real families are the ones whose regions have closed forms
    @pytest.mark.parametrize("tag", REAL_TAGS)
    def test_margin_from_region_edges(self, tag):
        # m, m-1 and m-2 keep the sampler's margin 0.1 from every edge of the
        # region, up to the rounding of m - k
        for seed in range(200):
            for p in sample_valid_params(tag, 5, seed):
                intervals = family_data(tag, p).region.intervals
                gap = min(abs(p.m - k - edge) for k in (0, 1, 2) for iv in intervals
                          for edge in (iv.lo, iv.hi) if math.isfinite(edge))
                assert gap >= 0.1 - 1e-12, (seed, p, gap)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_translates_stay_valid(self, tag):
        for p in sample_valid_params(tag, 4, seed=13):
            fam = get_family(tag, p)
            for k in (0, 1, 2):
                assert fam.validity(p.m - k).valid

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_valid_params("X1-hyperbolic", 0, seed=1)


class TestScarfStructure:
    def test_k0_purely_imaginary_at_real_x(self):
        fam = get_family("Xl-PT-Scarf", ParamPoint(m=0.5, B=-1.5, ell=2))
        xs = np.linspace(-3.0, 3.0, 31)
        k0 = np.asarray(fam.affine(xs)[0])
        assert np.max(np.abs(k0.real)) == 0.0
        assert np.max(np.abs(k0.imag)) > 0.0

    def test_puncture_is_the_only_declared_pole(self):
        fam = get_family("Xl-PT-Scarf", ParamPoint(m=-0.8, B=-3.0, ell=3))
        assert fam.poles((-0.8,)) == (0.0,)


class TestScarfAccuracy:
    """The Scarf denominators are Jacobi polynomials at i*sinh(x), where the
    series about z = 1 cancels; values near x = 0 once lost up to 7e-10."""

    B, M = -2.0, 0.3

    @pytest.mark.parametrize("ell", [6, 10, 12])
    def test_denominators_match_oracle(self, ell):
        point = ParamPoint(m=self.M, B=self.B, ell=ell)
        fam = get_family("Xl-PT-Scarf", point)
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
