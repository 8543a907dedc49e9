import dataclasses
import re
import warnings

import numpy as np
import pytest

from shapeinv import (
    FAMILY_TAGS,
    PERTURBATION_MODES,
    ParamPoint,
    UsageError,
    check_algebra_condition,
    check_compatibility,
    check_equivalence_chain,
    check_infeld_hull,
    check_translation,
    compatibility_lhs,
    get_family,
    make_grid,
    run_condition_checks,
    sample_valid_params,
    with_perturbation,
)

import oracles
from shapeinv.conditions import (
    ALL_CHECKS,
    TRANSLATION_TOL,
    GridValues,
    _closure_expression,
    _reduction_steps,
    check_tolerances,
    grid_values,
)


def family_on_grid(tag, seed=3, n=256):
    p = sample_valid_params(tag, 1, seed=seed)[0]
    fam = get_family(tag, p)
    grid = make_grid(fam, n, m_values=(p.m, p.m - 1.0, p.m - 2.0))
    return fam, p, grid


class TestCatalogIdentities:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_all_conditions_hold(self, tag):
        fam, p, grid = family_on_grid(tag)
        assert check_translation(fam, p.m, grid) < 1e-12
        assert check_compatibility(fam, (p.m, p.m - 1.0, p.m - 2.0), grid) < 1e-9
        assert check_algebra_condition(fam, p.m, grid) < 1e-9
        assert max(check_equivalence_chain(fam, p.m, grid)) < 1e-9

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_epsilon_m_invariant_five_values(self, tag):
        fam, p, grid = family_on_grid(tag, seed=19)
        base = np.asarray(compatibility_lhs(fam, p.m, grid))
        for k in (0.5, 1.0, 1.5, 2.0):
            other = np.asarray(compatibility_lhs(fam, p.m - k, grid))
            assert np.max(np.abs(base - other)) < 1e-9

    def test_scarf_residuals_in_both_components(self):
        fam, p, grid = family_on_grid("Xl-PT-Scarf", seed=8)
        lhs_a = np.asarray(compatibility_lhs(fam, p.m, grid))
        lhs_b = np.asarray(compatibility_lhs(fam, p.m - 1.0, grid))
        diff = lhs_a - lhs_b
        assert np.max(np.abs(diff.real)) < 1e-9
        assert np.max(np.abs(diff.imag)) < 1e-9


class TestTrivialFamily:
    def test_everything_exactly_zero(self, free_radial):
        grid = np.linspace(0.3, 6.0, 200)
        m = 2.0
        assert check_translation(free_radial, m, grid) == 0.0
        assert check_compatibility(free_radial, (m, m - 1.0), grid) == 0.0
        assert np.all(compatibility_lhs(free_radial, m, grid) == 0.0)
        assert check_algebra_condition(free_radial, m, grid) == 0.0
        assert check_equivalence_chain(free_radial, m, grid) == (0.0, 0.0)

    def test_no_expected_constants_no_match(self, free_radial):
        # a hand-built family has expected_ab None: nothing to match against
        report = run_condition_checks(free_radial, np.linspace(0.3, 6.0, 200), (2.0, 1.0))
        assert free_radial.expected_ab is None
        assert "infeld_hull_match" not in report.verdicts and report.passed


class TestReductionAlgebra:
    """The reduction's first step is an identity of the code's own
    expressions, whatever the values: checked exactly, on integer-valued
    float64 inputs with |v| <= 2**10, where every product and sum stays an
    integer below 2**53.  A nonzero polynomial vanishes on random integer
    points only with negligible probability (Schwartz-Zippel)."""

    @pytest.mark.parametrize("m", [-3.0, 0.0, 2.0, 5.0])
    def test_identities_hold_exactly(self, m):
        rng = np.random.default_rng(int(m) + 100)
        affine = rng.integers(-1024, 1025, (4, 1000)).astype(float)
        w1 = rng.integers(-1024, 1025, (4, 2, 1000)).astype(float)
        values = GridValues((m, m - 1.0), tuple(affine), tuple(w1))
        step2, step3 = _reduction_steps(values, m)
        assert np.array_equal(_closure_expression(values, m), step2)
        lhs = {mm: compatibility_lhs(None, mm, None, values=values) for mm in (m, m - 1.0)}
        assert np.array_equal(step2 - step3, lhs[m - 1.0] - lhs[m])
        # the stacked residual is the one pair's maximum, exactly
        assert check_compatibility(None, (m, m - 1.0), None, values=values) == float(
            np.max(np.abs(lhs[m] - lhs[m - 1.0])))


class TestStackedCompatibility:
    """check_compatibility forms the seven-term combination for every m in
    one stacked table and reduces every pair of rows at once: it equals, as
    a float, the maximum over pairs i < j of max|lhs_i - lhs_j| with each
    lhs from its own compatibility_lhs call."""

    @pytest.mark.parametrize("case", [*FAMILY_TAGS, "Xl-Poschl-Teller+paired-mx-slope"])
    def test_equals_maximum_over_pairs(self, case):
        tag, _, mode = case.partition("+")
        p = sample_valid_params(tag, 1, seed=19)[0]
        fam = get_family(tag, p)
        m_list = (p.m, p.m - 0.5, p.m - 1.0, p.m - 2.0)
        grid = make_grid(fam, 128, m_values=m_list)
        if mode:
            fam = with_perturbation(fam, mode, 1e-4)
        lhs = [compatibility_lhs(fam, m, grid) for m in m_list]
        pairs = [float(np.max(np.abs(lhs[i] - lhs[j])))
                 for i in range(len(lhs)) for j in range(i + 1, len(lhs))]
        assert check_compatibility(fam, m_list, grid) == max(pairs)
        assert (max(pairs) >= 1e-6) == bool(mode)


class TestNonFiniteValues:
    """A point where the family does not evaluate makes the residual nan,
    and a nan residual fails its verdict: none drops out of a maximum."""

    # families whose g(x), cosh(c x) or sinh(x), overflows at x = 1000, and
    # the radial ones at x = 1e200, where the checks' own products of k0,
    # k1 and W1 overflow
    OVERFLOW_POINTS = {
        "X1-hyperbolic": (ParamPoint(m=2.5, c=1.0, beta=0.5, d=1.0), 1000.0),
        "Xl-Poschl-Teller": (ParamPoint(m=0.3, B=-2.5, ell=3), 1000.0),
        "Xl-PT-Scarf": (ParamPoint(m=0.3, B=-2.5, ell=3), 1000.0),
        "X1-radial-oscillator": (ParamPoint(m=-3.0, omega=1.0, d=1.0), 1e200),
        "Xl-radial-oscillator": (ParamPoint(m=-2.5, omega=1.0, ell=2), 1e200),
    }
    # the residuals that read k0 or k1
    AFFINE_RESIDUALS = ("compatibility", "infeld_hull", "infeld_hull_match", "algebra",
                        "equivalence_step2_vs_step3")

    @pytest.mark.parametrize("mode", [None, *PERTURBATION_MODES])
    @pytest.mark.parametrize("tag", list(OVERFLOW_POINTS))
    def test_overflow_fails_every_check(self, tag, mode):
        # the evaluators and the checks' arithmetic return inf or nan there
        # without a warning (the radial families once raised RuntimeWarning
        # from the checks), and every residual that reads k0 or k1, the
        # match of (a, b) included, is nan
        p, x = self.OVERFLOW_POINTS[tag]
        fam = get_family(tag, p)
        if mode is not None:
            fam = with_perturbation(fam, mode, 0.01)
        grid = np.array([0.5, 1.0, x])
        m_list = (p.m, p.m - 1.0, p.m - 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(check_compatibility(fam, m_list, grid))
            report = run_condition_checks(fam, grid, m_list)
        assert all(np.isnan(report.residuals[r]) for r in self.AFFINE_RESIDUALS)
        assert report.passed is False
        assert report.verdicts["compatibility"] is False
        if tag == "X1-radial-oscillator":
            if mode is None:
                # W1+- stay finite at 1e200, so the two residuals that read
                # W1 alone hold
                assert report.residuals["translation"] == 0.0
                assert report.residuals["equivalence_step3_vs_zero"] == 0.0
        else:
            assert all(np.isnan(r) for r in report.residuals.values())
            assert not any(report.verdicts.values())

    @pytest.mark.parametrize("mode", ["wminus-slope", "wplus-slope", "paired-mx-slope"])
    def test_infinite_rows_fail_compatibility_quietly(self, mode):
        # a slope control makes every row of the seven-term combination inf
        # at x = 1e200; check_compatibility's inf - inf once raised
        # RuntimeWarning
        p = ParamPoint(m=0.5, c=0.8, beta=-2.5, d=0.75)
        fam = with_perturbation(get_family("X1-trigonometric", p), mode, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_condition_checks(fam, np.array([0.5, 1.0, 1e200]),
                                          (p.m, p.m - 1.0, p.m - 2.0))
        assert np.isnan(report.residuals["compatibility"])
        assert report.passed is False

    def test_nan_b_fails_infeld_hull_and_its_match(self):
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        m_list = (p.m, p.m - 1.0)
        values = grid_values(fam, grid, m_list)
        k0, k0d, k1, k1d = values.affine
        k0d = k0d.copy()
        k0d[3] = np.nan  # only -k0' - k1*k0 is nan there
        values = values._replace(affine=(k0, k0d, k1, k1d))
        constants, resid = check_infeld_hull(fam, grid, values=values)
        assert np.isfinite(constants.a) and np.isnan(constants.b)
        assert np.isnan(resid)
        report = run_condition_checks(fam, grid, m_list, checks=("infeld_hull",), values=values)
        assert np.isnan(report.residuals["infeld_hull_match"])
        assert report.verdicts == {"infeld_hull": False, "infeld_hull_match": False}


class TestOracleAgreement:
    def test_frozen_x1_radial_point(self):
        # omega = 1, d = 1, m = -3, x = 1: the 50-digit oracle gives 0 for the
        # seven-term combination (the catalog extensions satisfy it with
        # epsilon identically zero)
        from shapeinv import ParamPoint

        fam = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, d=1.0))
        got = complex(np.asarray(compatibility_lhs(fam, -3.0, np.asarray([1.0])))[0])
        assert abs(got) < 1e-13

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_w_and_lhs_match_oracle(self, tag):
        fam, p, grid = family_on_grid(tag, seed=29, n=64)
        xs = grid[5:-5:11][:4]
        for x in xs:
            x = float(x)
            w_ref = oracles.to_complex(oracles.w_value(tag, p, p.m, x))
            w_got, _ = fam.w_rows(np.asarray([x]), (p.m,))
            w_got = complex(w_got[0, 0])
            assert abs(w_got - w_ref) <= 1e-11 * max(1.0, abs(w_ref))
            c_ref = oracles.to_complex(oracles.compatibility_value(tag, p, p.m, x))
            c_got = complex(np.asarray(compatibility_lhs(fam, p.m, np.asarray([x])))[0])
            assert abs(c_got - c_ref) <= 1e-11 * max(1.0, abs(c_ref), abs(c_got))
            fns, xm = oracles.family_oracle(tag, p), oracles.mp.mpf(x)
            a_ref = [oracles.to_complex(v) for k in ("k0", "k1")
                     for v in (fns[k](xm), oracles.mp.diff(fns[k], xm))]
            a_got = [complex(np.asarray(v)[0]) for v in fam.affine(np.asarray([x]))]
            for got, ref in zip(a_got, a_ref):
                assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref)), (x, a_got, a_ref)


class TestNegativeControls:
    def test_translation_detects_slope(self):
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(fam, "wminus-slope", 0.01)
        assert check_translation(pert, p.m, grid) >= 1e-3

    def test_compatibility_detects_paired_mode(self):
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(fam, "paired-mx-slope", 0.01)
        # translation stays intact by construction
        assert check_translation(pert, p.m, grid) < 1e-12
        assert check_compatibility(pert, (p.m, p.m - 1.0), grid) >= 1e-3

    def test_algebra_detects_both_modes(self):
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        for mode in ("wminus-slope", "paired-mx-slope"):
            pert = with_perturbation(fam, mode, 0.01)
            assert check_algebra_condition(pert, p.m, grid) >= 1e-3

    def test_infeld_hull_detects_k1_slope(self):
        fam, p, grid = family_on_grid("X1-hyperbolic", seed=6)
        pert = with_perturbation(fam, "k1-slope", 0.01)
        _, resid = check_infeld_hull(pert, grid)
        assert resid >= 1e-3

    def test_chain_isolates_translation_violation(self):
        # an x-slope on W1- breaks the translation relation; the final step
        # flags it
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(fam, "wminus-slope", 0.01)
        r23, r30 = check_equivalence_chain(pert, p.m, grid)
        assert r30 >= 1e-3

    def test_chain_middle_step_isolates_compatibility(self):
        # the paired mode keeps the translation relation, so the final step
        # stays at zero while the middle step carries the violation
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(fam, "paired-mx-slope", 0.01)
        r23, r30 = check_equivalence_chain(pert, p.m, grid)
        assert r23 >= 1e-3
        assert r30 < 1e-12

    def test_offset_mode_caught_by_values_not_derivatives(self):
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(fam, "wminus-offset", 0.01)
        assert check_translation(pert, p.m, grid) >= 1e-3
        r23, r30 = check_equivalence_chain(pert, p.m, grid)
        assert r30 == 0.0  # a constant shift is invisible to the derivative step
        assert r23 >= 1e-3

    def test_residuals_scale_linearly(self):
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        sizes = (1e-2, 1e-4, 1e-6)
        by_check = {"translation": [], "compatibility": [], "algebra": []}
        for s in sizes:
            pert = with_perturbation(fam, "wminus-slope", s)
            by_check["translation"].append(check_translation(pert, p.m, grid))
            by_check["compatibility"].append(check_compatibility(pert, (p.m, p.m - 1.0), grid))
            by_check["algebra"].append(check_algebra_condition(pert, p.m, grid))
        for name, vals in by_check.items():
            for big, small in zip(vals, vals[1:]):
                ratio = big / small
                assert 10.0 < ratio < 1000.0, (name, vals)


class TestInfeldHullLiteralValues:
    def test_hyperbolic_constants(self):
        from shapeinv import ParamPoint

        p = ParamPoint(m=-4.0, c=1.5, beta=0.7, d=-1.0)
        fam = get_family("X1-hyperbolic", p)
        grid = make_grid(fam, 128, m_values=(p.m,))
        constants, resid = check_infeld_hull(fam, grid)
        assert constants.a == pytest.approx(2.25, abs=1e-9)
        assert constants.b == pytest.approx(0.7, abs=1e-9)
        assert resid < 1e-9

    def test_radial_constants(self):
        from shapeinv import ParamPoint

        p = ParamPoint(m=-3.0, omega=2.0, d=1.0)
        fam = get_family("X1-radial-oscillator", p)
        grid = make_grid(fam, 128, m_values=(p.m,))
        constants, resid = check_infeld_hull(fam, grid)
        assert constants.a == pytest.approx(0.0, abs=1e-9)
        assert constants.b == pytest.approx(-2.0, abs=1e-9)
        assert resid < 1e-9

    def test_poschl_teller_constants(self):
        from shapeinv import ParamPoint

        p = ParamPoint(m=0.5, B=-2.0, ell=2)
        fam = get_family("Xl-Poschl-Teller", p)
        grid = make_grid(fam, 128, m_values=(p.m,))
        constants, resid = check_infeld_hull(fam, grid)
        assert constants.a == pytest.approx(1.0, abs=1e-9)
        assert constants.b == pytest.approx(0.0, abs=1e-9)
        assert resid < 1e-9


class TestEquivalenceTheoremSampled:
    def test_verdicts_agree_on_mixed_draws(self):
        modes = (None, "wminus-slope", "wplus-slope", "paired-mx-slope", "wminus-offset")
        sizes = (1e-2, 1e-4, 1e-6)
        tol = 1e-9
        i = 0
        for tag in FAMILY_TAGS:
            for p in sample_valid_params(tag, 3, seed=61):
                fam = get_family(tag, p)
                grid = make_grid(fam, 96, m_values=(p.m, p.m - 1.0))
                mode = modes[i % len(modes)]
                if mode:
                    fam = with_perturbation(fam, mode, sizes[i % len(sizes)])
                i += 1
                tr = check_translation(fam, p.m, grid)
                comp = check_compatibility(fam, (p.m, p.m - 1.0), grid)
                alg = check_algebra_condition(fam, p.m, grid)
                assert ((tr < tol) and (comp < tol)) == (alg < tol), (tag, mode, tr, comp, alg)


class TestRunConditionChecks:
    def test_report_round_trip(self):
        fam, p, grid = family_on_grid("Xl-radial-oscillator", seed=15)
        report = run_condition_checks(fam, grid, (p.m, p.m - 1.0, p.m - 2.0))
        assert report.passed
        # a catalog family carries its (a, b), so the match is checked too
        assert set(report.verdicts) == {"translation", "compatibility", "infeld_hull",
                                        "infeld_hull_match", "algebra", "equivalence"}
        for name, resid in report.residuals.items():
            assert resid >= 0.0
        doc = report.to_dict()
        assert doc["passed"] is True
        assert doc["inferred_b"] == pytest.approx(-p.omega, abs=1e-9)

    def test_compatibility_needs_two_m(self):
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        with pytest.raises(UsageError):
            check_compatibility(fam, (p.m,), grid)

    @pytest.mark.parametrize("tag", ["X1-radial-oscillator", "Xl-radial-oscillator"])
    def test_compatibility_needs_two_distinct_m(self, tag):
        # one m twice compares a row with itself: the residual read 0.0, and
        # a defective W passed
        fam, p, grid = family_on_grid(tag)
        broken = with_perturbation(fam, "paired-mx-slope", 0.01)
        for m_list in ((p.m, p.m), (p.m, p.m, p.m), (p.m, p.m + 0.0)):
            with pytest.raises(UsageError, match="needs two distinct m values"):
                check_compatibility(broken, m_list, grid)
            with pytest.raises(UsageError, match="needs two distinct m values"):
                run_condition_checks(broken, grid, m_list, checks=("compatibility",))
        assert check_compatibility(broken, (p.m, p.m, p.m - 1.0), grid) > 1e-3

    @pytest.mark.parametrize("n", [16, 17, 100])
    def test_report_grid_size_is_the_grid_length(self, n):
        fam, p, grid = family_on_grid("Xl-PT-Scarf", n=n)
        report = run_condition_checks(fam, grid, (p.m, p.m - 1.0))
        assert report.grid_points == n
        assert report.to_dict()["grid"] == {"n_points": n}
        # a grid of fewer points than make_grid lays out is reported as it is
        assert run_condition_checks(fam, grid[:5], (p.m, p.m - 1.0)).grid_points == 5

    @pytest.mark.parametrize("checks, unknown", [
        (("remainder",), "['remainder']"),
        (("spectrum",), "['spectrum']"),
        (("compatability", "translation", "spectrum"), "['compatability', 'spectrum']"),
    ])
    def test_check_outside_check_names_raises(self, checks, unknown):
        # each once returned a report with no verdict that passed: the CLI
        # runs remainder and spectrum itself, and a misspelt check ran none
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        with pytest.raises(UsageError, match=re.escape(f"unknown checks {unknown}")):
            run_condition_checks(fam, grid, (p.m, p.m - 1.0), checks=checks)

    def test_empty_m_list_raises(self):
        # once an IndexError from m_list[0]
        fam, _, grid = family_on_grid("X1-radial-oscillator")
        with pytest.raises(UsageError, match="needs at least one m"):
            run_condition_checks(fam, grid, ())

    def test_no_checks_is_a_report_without_verdicts(self):
        # verify --checks remainder passes no identity check
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        report = run_condition_checks(fam, grid, (p.m,), checks=())
        assert report.verdicts == {} and report.residuals == {}

    @pytest.mark.parametrize("overrides, unknown", [
        ({"compatability": 1e-3}, "['compatability']"),
        ({"translation": 1e-10, "infeld_hull_match": 1.0, "Spectrum": 1.0},
         "['Spectrum', 'infeld_hull_match']"),
    ])
    def test_unknown_tolerance_raises(self, overrides, unknown):
        # a misspelt override was once dropped, and the 1e-9 gate applied
        with pytest.raises(UsageError, match=re.escape(f"unknown tolerances {unknown}")):
            check_tolerances(overrides=overrides)
        fam, p, grid = family_on_grid("X1-radial-oscillator")
        with pytest.raises(UsageError, match=re.escape(f"unknown tolerances {unknown}")):
            run_condition_checks(fam, grid, (p.m, p.m - 1.0), tolerances=overrides)

    def test_known_tolerance_overrides(self):
        tols = check_tolerances(1e-8, {"spectrum": 1e-3, "remainder": 1e-7})
        assert tols == {**dict.fromkeys(ALL_CHECKS, 1e-8), "translation": TRANSLATION_TOL,
                        "spectrum": 1e-3, "remainder": 1e-7}


class TestSharedW1Table:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    @pytest.mark.parametrize("perturb", [None, "paired-mx-slope"])
    def test_residuals_equal_separate_checks(self, tag, perturb):
        fam, p, grid = family_on_grid(tag, seed=19, n=128)
        if perturb is not None:
            fam = with_perturbation(fam, perturb, 1e-4)
        m_list = (p.m, p.m - 1.0, p.m - 2.0)
        report = run_condition_checks(fam, grid, m_list)
        r23, r30 = check_equivalence_chain(fam, p.m, grid)
        constants, infeld_hull = check_infeld_hull(fam, grid)
        a, b = fam.expected_ab
        separate = {
            "translation": check_translation(fam, p.m, grid),
            "compatibility": check_compatibility(fam, m_list, grid),
            "infeld_hull": infeld_hull,
            "infeld_hull_match": max(abs(constants.a - a), abs(constants.b - b)),
            "algebra": check_algebra_condition(fam, p.m, grid),
            "equivalence_step2_vs_step3": r23,
            "equivalence_step3_vs_zero": r30,
        }
        assert report.residuals == separate  # float ==: bit for bit

    @pytest.mark.parametrize("m_list", ["default", "custom"])
    def test_each_w1_evaluated_once_per_m(self, m_list):
        fam, p, grid = family_on_grid("Xl-Poschl-Teller", seed=19, n=128)
        m_list = (p.m, p.m - 1.0, p.m - 2.0) if m_list == "default" else (p.m, p.m - 2.0)
        calls = []
        w1 = fam.w1

        def counted(x, m_values):
            calls.append(tuple(m_values))
            return w1(x, m_values)

        fam = dataclasses.replace(fam, w1=counted)
        assert run_condition_checks(fam, grid, m_list).passed
        # one call for every m; the checks also read m0 - 1, which a custom
        # m_list may leave out
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(set(m_list) | {p.m - 1.0})
        run_condition_checks(fam, grid, m_list)  # no table outlives a call
        assert len(calls) == 2

    # poly_eval calls of make_grid + run_condition_checks at the default m
    # list (m, m-1, m-2) and 128 points: none for the grid, whose edge is a
    # closed form, and one for all the checks, an order-2 pass over every
    # P+- of the m list
    KERNEL_CALLS = {"Xl-Poschl-Teller": 1, "Xl-PT-Scarf": 1}

    @pytest.mark.parametrize("tag", sorted(KERNEL_CALLS))
    @pytest.mark.parametrize("seed", [19, 3])
    def test_one_kernel_call_per_grid_side_and_run(self, tag, seed, monkeypatch):
        import shapeinv.catalog
        import shapeinv.polynomials

        calls = []
        kernel = shapeinv.polynomials.poly_eval

        def counted(spec, z, order=0, *, more=None):
            calls.append((order, 1 + len(more or ())))
            return kernel(spec, z, order, more=more)

        monkeypatch.setattr(shapeinv.polynomials, "poly_eval", counted)
        monkeypatch.setattr(shapeinv.catalog, "poly_eval", counted)
        p = sample_valid_params(tag, 1, seed=seed)[0]
        fam = get_family(tag, p)
        m_list = (p.m, p.m - 1.0, p.m - 2.0)
        grid = make_grid(fam, 128, m_values=m_list)
        assert run_condition_checks(fam, grid, m_list).passed
        assert len(calls) == self.KERNEL_CALLS[tag]
        # P+- at three m, each distinct spec once
        assert all(order == 2 and 3 <= specs <= 6 for order, specs in calls)
