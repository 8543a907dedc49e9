import dataclasses
from collections import Counter

import numpy as np
import pytest

from shapeinv import (
    FAMILY_TAGS,
    GridSpec,
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


def family_on_grid(tag, seed=3, n=256):
    p = sample_valid_params(tag, 1, seed=seed)[0]
    entry = get_family(tag, p)
    grid = make_grid(entry.family, GridSpec(n_points=n), m_values=(p.m, p.m - 1.0, p.m - 2.0))
    return entry, p, grid


class TestCatalogIdentities:
    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_all_conditions_hold(self, tag):
        entry, p, grid = family_on_grid(tag)
        fam = entry.family
        assert check_translation(fam, p.m, grid) < 1e-12
        resid, _ = check_compatibility(fam, (p.m, p.m - 1.0, p.m - 2.0), grid)
        assert resid < 1e-9
        assert check_algebra_condition(fam, p.m, grid) < 1e-9
        assert max(check_equivalence_chain(fam, p.m, grid)) < 1e-9

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_epsilon_m_invariant_five_values(self, tag):
        entry, p, grid = family_on_grid(tag, seed=19)
        fam = entry.family
        base = np.asarray(compatibility_lhs(fam, p.m, grid))
        for k in (0.5, 1.0, 1.5, 2.0):
            other = np.asarray(compatibility_lhs(fam, p.m - k, grid))
            assert np.max(np.abs(base - other)) < 1e-9

    def test_scarf_residuals_in_both_components(self):
        entry, p, grid = family_on_grid("Xl-PT-Scarf", seed=8)
        fam = entry.family
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
        resid, samples = check_compatibility(free_radial, (m, m - 1.0), grid)
        assert resid == 0.0
        assert all(e == 0.0 for _, e in samples)
        assert check_algebra_condition(free_radial, m, grid) == 0.0
        assert check_equivalence_chain(free_radial, m, grid) == (0.0, 0.0, 0.0)


class TestOracleAgreement:
    def test_frozen_x1_radial_point(self):
        # omega = 1, d = 1, m = -3, x = 1: the 50-digit oracle gives 0 for the
        # seven-term combination (the catalog extensions satisfy it with
        # epsilon identically zero)
        from shapeinv import ParamPoint

        entry = get_family("X1-radial-oscillator", ParamPoint(m=-3.0, omega=1.0, d=1.0))
        got = complex(np.asarray(compatibility_lhs(entry.family, -3.0, np.asarray([1.0])))[0])
        assert abs(got) < 1e-13

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_w_and_lhs_match_oracle(self, tag):
        entry, p, grid = family_on_grid(tag, seed=29, n=64)
        fam = entry.family
        xs = grid[5:-5:11][:4]
        for x in xs:
            x = float(x)
            w_ref = oracles.to_complex(oracles.w_value(tag, p, p.m, x))
            w_got, _ = fam.W(np.asarray([x]), p.m)
            w_got = complex(np.asarray(w_got)[0])
            assert abs(w_got - w_ref) <= 1e-11 * max(1.0, abs(w_ref))
            c_ref = oracles.to_complex(oracles.compatibility_value(tag, p, p.m, x))
            c_got = complex(np.asarray(compatibility_lhs(fam, p.m, np.asarray([x])))[0])
            assert abs(c_got - c_ref) <= 1e-11 * max(1.0, abs(c_ref), abs(c_got))


class TestNegativeControls:
    def test_translation_detects_slope(self):
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(entry.family, "wminus-slope", 0.01)
        assert check_translation(pert, p.m, grid) >= 1e-3

    def test_compatibility_detects_paired_mode(self):
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(entry.family, "paired-mx-slope", 0.01)
        # translation stays intact by construction
        assert check_translation(pert, p.m, grid) < 1e-12
        resid, _ = check_compatibility(pert, (p.m, p.m - 1.0), grid)
        assert resid >= 1e-3

    def test_algebra_detects_both_modes(self):
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        for mode in ("wminus-slope", "paired-mx-slope"):
            pert = with_perturbation(entry.family, mode, 0.01)
            assert check_algebra_condition(pert, p.m, grid) >= 1e-3

    def test_infeld_hull_detects_k1_slope(self):
        entry, p, grid = family_on_grid("X1-hyperbolic", seed=6)
        pert = with_perturbation(entry.family, "k1-slope", 0.01)
        _, resid = check_infeld_hull(pert, grid)
        assert resid >= 1e-3

    def test_chain_isolates_translation_violation(self):
        # an x-slope on W1- breaks the translation relation; the algebraic
        # first step must stay clean while the final step flags it
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(entry.family, "wminus-slope", 0.01)
        r12, r23, r30 = check_equivalence_chain(pert, p.m, grid)
        assert r12 < 1e-9
        assert r30 >= 1e-3

    def test_chain_middle_step_isolates_compatibility(self):
        # the paired mode keeps the translation relation, so the final step
        # stays at zero while the middle step carries the violation
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(entry.family, "paired-mx-slope", 0.01)
        r12, r23, r30 = check_equivalence_chain(pert, p.m, grid)
        assert r12 < 1e-9
        assert r23 >= 1e-3
        assert r30 < 1e-12

    def test_offset_mode_caught_by_values_not_derivatives(self):
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        pert = with_perturbation(entry.family, "wminus-offset", 0.01)
        assert check_translation(pert, p.m, grid) >= 1e-3
        r12, r23, r30 = check_equivalence_chain(pert, p.m, grid)
        assert r30 == 0.0  # a constant shift is invisible to the derivative step
        assert r23 >= 1e-3

    def test_residuals_scale_linearly(self):
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        sizes = (1e-2, 1e-4, 1e-6)
        by_check = {"translation": [], "compatibility": [], "algebra": []}
        for s in sizes:
            pert = with_perturbation(entry.family, "wminus-slope", s)
            by_check["translation"].append(check_translation(pert, p.m, grid))
            by_check["compatibility"].append(
                check_compatibility(pert, (p.m, p.m - 1.0), grid)[0]
            )
            by_check["algebra"].append(check_algebra_condition(pert, p.m, grid))
        for name, vals in by_check.items():
            for big, small in zip(vals, vals[1:]):
                ratio = big / small
                assert 10.0 < ratio < 1000.0, (name, vals)


class TestInfeldHullLiteralValues:
    def test_hyperbolic_constants(self):
        from shapeinv import ParamPoint

        p = ParamPoint(m=-4.0, c=1.5, beta=0.7, d=-1.0)
        entry = get_family("X1-hyperbolic", p)
        grid = make_grid(entry.family, GridSpec(n_points=128), m_values=(p.m,))
        constants, resid = check_infeld_hull(entry.family, grid)
        assert constants.a == pytest.approx(2.25, abs=1e-9)
        assert constants.b == pytest.approx(0.7, abs=1e-9)
        assert resid < 1e-9

    def test_radial_constants(self):
        from shapeinv import ParamPoint

        p = ParamPoint(m=-3.0, omega=2.0, d=1.0)
        entry = get_family("X1-radial-oscillator", p)
        grid = make_grid(entry.family, GridSpec(n_points=128), m_values=(p.m,))
        constants, resid = check_infeld_hull(entry.family, grid)
        assert constants.a == pytest.approx(0.0, abs=1e-9)
        assert constants.b == pytest.approx(-2.0, abs=1e-9)
        assert resid < 1e-9

    def test_poschl_teller_constants(self):
        from shapeinv import ParamPoint

        p = ParamPoint(m=0.5, B=-2.0, ell=2)
        entry = get_family("Xl-Poschl-Teller", p)
        grid = make_grid(entry.family, GridSpec(n_points=128), m_values=(p.m,))
        constants, resid = check_infeld_hull(entry.family, grid)
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
                entry = get_family(tag, p)
                grid = make_grid(entry.family, GridSpec(n_points=96),
                                 m_values=(p.m, p.m - 1.0), exclude_poles=False)
                mode = modes[i % len(modes)]
                fam = entry.family
                if mode:
                    fam = with_perturbation(fam, mode, sizes[i % len(sizes)])
                i += 1
                tr = check_translation(fam, p.m, grid)
                comp, _ = check_compatibility(fam, (p.m, p.m - 1.0), grid)
                alg = check_algebra_condition(fam, p.m, grid)
                assert ((tr < tol) and (comp < tol)) == (alg < tol), (tag, mode, tr, comp, alg)


class TestRunConditionChecks:
    def test_report_round_trip(self):
        entry, p, grid = family_on_grid("Xl-radial-oscillator", seed=15)
        report = run_condition_checks(
            entry.family,
            grid,
            (p.m, p.m - 1.0, p.m - 2.0),
            expected_ab=(entry.expected_a, entry.expected_b),
        )
        assert report.passed
        assert set(report.verdicts) >= {"translation", "compatibility", "infeld_hull", "algebra", "equivalence"}
        for name, resid in report.residuals.items():
            assert resid >= 0.0
        doc = report.to_dict()
        assert doc["passed"] is True
        assert doc["inferred_b"] == pytest.approx(-p.omega, abs=1e-9)
        assert len(doc["epsilon_samples"]) == len(grid)

    def test_compatibility_needs_two_m(self):
        entry, p, grid = family_on_grid("X1-radial-oscillator")
        with pytest.raises(UsageError):
            check_compatibility(entry.family, (p.m,), grid)


class TestSharedW1Table:
    W1_NAMES = ("w1plus", "w1minus")

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    @pytest.mark.parametrize("perturb", [None, "paired-mx-slope"])
    def test_residuals_equal_separate_checks(self, tag, perturb):
        entry, p, grid = family_on_grid(tag, seed=19, n=128)
        fam = entry.family if perturb is None else with_perturbation(entry.family, perturb, 1e-4)
        m_list = (p.m, p.m - 1.0, p.m - 2.0)
        report = run_condition_checks(fam, grid, m_list)
        r12, r23, r30 = check_equivalence_chain(fam, p.m, grid)
        compat, samples = check_compatibility(fam, m_list, grid)
        separate = {
            "translation": check_translation(fam, p.m, grid),
            "compatibility": compat,
            "infeld_hull": check_infeld_hull(fam, grid)[1],
            "algebra": check_algebra_condition(fam, p.m, grid),
            "equivalence_step1_vs_step2": r12,
            "equivalence_step2_vs_step3": r23,
            "equivalence_step3_vs_zero": r30,
        }
        assert report.residuals == separate  # float ==: bit for bit
        assert report.epsilon_samples == samples

    @pytest.mark.parametrize("m_list", ["default", "custom"])
    def test_each_w1_evaluated_once_per_m(self, m_list):
        entry, p, grid = family_on_grid("Xl-Poschl-Teller", seed=19, n=128)
        m_list = (p.m, p.m - 1.0, p.m - 2.0) if m_list == "default" else (p.m, p.m - 2.0)
        calls = Counter()

        def counted(name):
            fn = getattr(entry.family, name)

            def wrapped(x, m):
                calls[name, m] += 1
                return fn(x, m)

            return wrapped

        fam = dataclasses.replace(entry.family, **{n: counted(n) for n in self.W1_NAMES})
        assert run_condition_checks(fam, grid, m_list).passed
        # the checks also read m0 - 1, which a custom m_list may leave out
        wanted = set(m_list) | {p.m - 1.0}
        assert calls == Counter({(n, m): 1 for n in self.W1_NAMES for m in wanted})
        run_condition_checks(fam, grid, m_list)  # no table outlives a call
        assert set(calls.values()) == {2}

    # poly_eval calls of make_grid + run_condition_checks at the default m
    # list (m, m-1, m-2) and 128 points, when each W1 and each W1' was a
    # kernel call of its own: the Poschl-Teller grid probes one infinite
    # side, the Scarf grid two
    SEPARATE_W1_DERIV_CALLS = {"Xl-Poschl-Teller": 24, "Xl-PT-Scarf": 36}

    @pytest.mark.parametrize("tag", sorted(SEPARATE_W1_DERIV_CALLS))
    @pytest.mark.parametrize("seed", [19, 3])
    def test_one_kernel_call_per_pair(self, tag, seed, monkeypatch):
        import shapeinv.catalog
        import shapeinv.polynomials

        orders = Counter()
        kernel = shapeinv.polynomials.poly_eval

        def counted(spec, z, order=0):
            orders[order] += 1
            return kernel(spec, z, order)

        monkeypatch.setattr(shapeinv.polynomials, "poly_eval", counted)
        monkeypatch.setattr(shapeinv.catalog, "poly_eval", counted)
        p = sample_valid_params(tag, 1, seed=seed)[0]
        fam = get_family(tag, p).family
        m_list = (p.m, p.m - 1.0, p.m - 2.0)
        grid = make_grid(fam, GridSpec(n_points=128), m_values=m_list)
        assert run_condition_checks(fam, grid, m_list).passed
        assert sum(orders.values()) == self.SEPARATE_W1_DERIV_CALLS[tag] // 2
        assert set(orders) == {2}
