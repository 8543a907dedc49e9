"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from shapeinv import (
    FAMILY_TAGS,
    REAL_TAGS,
    GridSpec,
    ParamPoint,
    PotentialGrid,
    check_algebra_condition,
    check_compatibility,
    check_equivalence_chain,
    check_infeld_hull,
    check_isospectrality,
    check_translation,
    compatibility_lhs,
    dirichlet_grid,
    get_family,
    make_grid,
    remainder,
    sample_valid_params,
    solve_spectrum,
    validity_witness,
    with_perturbation,
)
from shapeinv.catalog import family_data

import oracles


def report(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_identity_suite():
    """Translation, compatibility, algebra and chain residuals on the whole
    catalog: 5 valid points per family, 512-point grids, m, m-1, m-2."""
    t0 = time.perf_counter()
    worst = {"translation": 0.0, "compatibility": 0.0, "algebra": 0.0, "equivalence": 0.0}
    for tag in FAMILY_TAGS:
        for p in sample_valid_params(tag, 5, seed=101):
            fam = get_family(tag, p).family
            m_list = (p.m, p.m - 1.0, p.m - 2.0)
            grid = make_grid(fam, GridSpec(n_points=512), m_values=m_list)
            worst["translation"] = max(worst["translation"], check_translation(fam, p.m, grid))
            comp = check_compatibility(fam, m_list, grid)
            worst["compatibility"] = max(worst["compatibility"], comp)
            worst["algebra"] = max(worst["algebra"], check_algebra_condition(fam, p.m, grid))
            worst["equivalence"] = max(
                worst["equivalence"], max(check_equivalence_chain(fam, p.m, grid))
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst["translation"] < 1e-12
        and worst["compatibility"] < 1e-9
        and worst["algebra"] < 1e-9
        and worst["equivalence"] < 1e-9
        and elapsed < 5.0
    )
    report(
        1,
        ok,
        "identity suite: worst translation {translation:.2e} (<1e-12), "
        "compatibility {compatibility:.2e}, algebra {algebra:.2e}, "
        "chain {equivalence:.2e} (<1e-9), {s:.2f} s (<5 s)".format(**worst, s=elapsed),
    )


def test_criterion_2_constants_suite():
    """Inferred factorization constants match the catalog's expected (a, b)."""
    worst_match = 0.0
    worst_const = 0.0
    for tag in FAMILY_TAGS:
        for p in sample_valid_params(tag, 5, seed=202):
            entry = get_family(tag, p)
            grid = make_grid(entry.family, GridSpec(n_points=512), m_values=(p.m,))
            constants, resid = check_infeld_hull(entry.family, grid)
            worst_const = max(worst_const, resid)
            worst_match = max(
                worst_match,
                abs(constants.a - entry.expected_a),
                abs(constants.b - entry.expected_b),
            )
    ok = worst_match < 1e-9 and worst_const < 1e-9
    report(
        2,
        ok,
        f"constants suite: worst |inferred - expected| {worst_match:.2e}, "
        f"worst constancy residual {worst_const:.2e} (<1e-9)",
    )


def test_criterion_3_equivalence_randomized():
    """1000 draws mixing valid catalog points with perturbed variants: the
    verdict of (translation AND compatibility) must agree with the verdict of
    the algebra closure condition on every draw at tolerance 1e-9."""
    t0 = time.perf_counter()
    modes = (None, "wminus-slope", "wplus-slope", "paired-mx-slope", "wminus-offset", "k1-slope")
    sizes = (1e-2, 1e-4, 1e-6)
    tol = 1e-9
    agreements = 0
    draws = 0
    for i in range(1000):
        tag = FAMILY_TAGS[i % len(FAMILY_TAGS)]
        p = sample_valid_params(tag, 1, seed=3000 + i)[0]
        fam = get_family(tag, p).family
        grid = make_grid(fam, GridSpec(n_points=96), m_values=(p.m, p.m - 1.0))
        mode = modes[i % len(modes)]
        if mode:
            fam = with_perturbation(fam, mode, sizes[i % len(sizes)])
        tr = check_translation(fam, p.m, grid)
        comp = check_compatibility(fam, (p.m, p.m - 1.0), grid)
        alg = check_algebra_condition(fam, p.m, grid)
        draws += 1
        agreements += ((tr < tol) and (comp < tol)) == (alg < tol)
    elapsed = time.perf_counter() - t0
    ok = agreements == draws and elapsed < 60.0
    report(
        3,
        ok,
        f"equivalence theorem: {agreements}/{draws} verdict agreements "
        f"(need 100%), {elapsed:.1f} s (<60 s)",
    )


def _boundary_cases(tag, rng):
    """(inside, outside) ParamPoint pairs at margin 0.05 from one finite m
    edge of the family's region, as its record states it; edges are drawn
    across draws, and Xl-Poschl-Teller also crosses its condition B < -1/2."""
    eps = 0.05
    u = rng.uniform
    if tag == "Xl-PT-Scarf":
        # Xl-PT-Scarf is non-singular for every parameter point: there is no
        # inequality boundary to cross, so both slots get valid draws and the
        # scan must agree on validity for all of them.
        ell = int(rng.integers(1, 4))
        B = u(-4.0, -0.6)
        return ParamPoint(m=u(-2.0, 2.0), B=B, ell=ell), None
    if tag in ("X1-hyperbolic", "X1-trigonometric"):
        c, beta = u(0.5, 2.0), u(-2.0, 2.0)
        constants = dict(c=c, beta=beta, d=(1.0 if rng.integers(0, 2) == 0 else -1.0) * u(0.3, 3.0))
    elif tag == "X1-radial-oscillator":
        constants = dict(omega=u(0.5, 3.0), d=u(0.3, 3.0))
    elif tag == "Xl-Poschl-Teller":
        ell = int(rng.integers(1, 4))
        if rng.integers(0, 3) == 2:
            # cross the B < -1/2 boundary at m = 0
            return (
                ParamPoint(m=0.0, B=-0.5 - eps, ell=ell),
                ParamPoint(m=0.0, B=-0.5 + eps, ell=ell),
            )
        constants = dict(B=u(-4.0, -1.0), ell=ell)
    else:
        constants = dict(omega=u(0.5, 3.0), ell=int(rng.integers(1, 4)))
    region = family_data(tag, ParamPoint(m=0.0, **constants)).region
    # each finite edge, with the direction into its interval, of every
    # interval wide enough to hold a point eps inside it
    edges = [(edge, inward) for iv in region.intervals if iv.hi - iv.lo > 2.0 * eps
             for edge, inward in ((iv.lo, 1.0), (iv.hi, -1.0)) if np.isfinite(edge)]
    edge, inward = edges[rng.integers(len(edges))]
    return (
        ParamPoint(m=edge + inward * eps, **constants),
        ParamPoint(m=edge - inward * eps, **constants),
    )


def test_criterion_4_validity_regions():
    """Analytic predicate vs numeric denominator-root scan, 20 points just
    inside and 20 just outside each family's inequality boundaries."""
    disagreements = []
    for tag in FAMILY_TAGS:
        rng = np.random.default_rng(404)
        for _ in range(20):
            inside, outside = _boundary_cases(tag, rng)
            rep_in = validity_witness(tag, inside)
            if not (rep_in.valid and rep_in.agrees):
                disagreements.append((tag, "inside", inside, rep_in))
            if outside is None:
                continue
            rep_out = validity_witness(tag, outside)
            if not ((not rep_out.valid) and rep_out.agrees):
                disagreements.append((tag, "outside", outside, rep_out))
    ok = not disagreements
    detail = "validity regions: predicate and root scan agree on all boundary points"
    if disagreements:
        detail = f"validity regions: {len(disagreements)} disagreements, first: {disagreements[0]}"
    report(4, ok, detail)


def test_criterion_5_spectral_suite():
    """Remainder flatness, eigensolver sanity, and isospectrality via the
    constant-shift route for the real families."""
    t0 = time.perf_counter()
    worst_flat = 0.0
    worst_mismatch = 0.0
    for tag in REAL_TAGS:
        p = sample_valid_params(tag, 1, seed=505)[0]
        fam = get_family(tag, p).family
        grid = make_grid(fam, GridSpec(n_points=512), m_values=(p.m, p.m - 1.0))
        _, flat = remainder(fam, p.m, grid)
        worst_flat = max(worst_flat, flat)
        iso = check_isospectrality(fam, p.m, k=5, n_points=4000)
        worst_mismatch = max(worst_mismatch, iso.mismatch)

    xs = dirichlet_grid(-12.0, 12.0, 4000)
    ho = solve_spectrum(PotentialGrid(x=xs, values=xs**2), 4)
    ho_err = float(np.max(np.abs(ho.eigenvalues - np.asarray([1.0, 3.0, 5.0, 7.0]))))
    xs = dirichlet_grid(0.0, np.pi, 4000)
    box = solve_spectrum(PotentialGrid(x=xs, values=np.zeros_like(xs)), 3)
    box_err = float(np.max(np.abs(box.eigenvalues - np.asarray([1.0, 4.0, 9.0]))))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_flat < 1e-9
        and ho_err < 1e-4
        and box_err < 1e-4
        and worst_mismatch < 1e-4
        and elapsed < 30.0
    )
    report(
        5,
        ok,
        f"spectral suite: worst flatness {worst_flat:.2e} (<1e-9), oscillator "
        f"{ho_err:.2e} / box {box_err:.2e} (<1e-4), worst isospectrality "
        f"mismatch {worst_mismatch:.2e} (<1e-4), {elapsed:.1f} s (<30 s)",
    )


def test_criterion_6_negative_controls():
    """Every check flags its targeted 1e-2 perturbation with residual >=
    1e-3, and a pure translation violation is flagged by the final chain
    step."""
    p = sample_valid_params("X1-radial-oscillator", 1, seed=606)[0]
    fam = get_family("X1-radial-oscillator", p).family
    grid = make_grid(fam, GridSpec(n_points=512), m_values=(p.m, p.m - 1.0))
    hyp = sample_valid_params("X1-hyperbolic", 1, seed=606)[0]
    hyp_fam = get_family("X1-hyperbolic", hyp).family
    hyp_grid = make_grid(hyp_fam, GridSpec(n_points=512), m_values=(hyp.m,))
    # the box-walled trigonometric family has the most level-sensitive
    # spectrum; radial perturbation profiles are nearly constant and get
    # absorbed into the remainder shift
    trig = sample_valid_params("X1-trigonometric", 1, seed=606)[0]
    trig_fam = get_family("X1-trigonometric", trig).family

    flagged = {}
    flagged["translation"] = check_translation(
        with_perturbation(fam, "wminus-slope", 1e-2), p.m, grid
    )
    flagged["compatibility"] = check_compatibility(
        with_perturbation(fam, "paired-mx-slope", 1e-2), (p.m, p.m - 1.0), grid
    )
    flagged["infeld_hull"] = check_infeld_hull(
        with_perturbation(hyp_fam, "k1-slope", 1e-2), hyp_grid
    )[1]
    flagged["algebra"] = check_algebra_condition(
        with_perturbation(fam, "wminus-slope", 1e-2), p.m, grid
    )
    trig_grid = make_grid(trig_fam, GridSpec(n_points=512), m_values=(trig.m, trig.m - 1.0))
    flagged["remainder"] = remainder(
        with_perturbation(trig_fam, "wplus-slope", 1e-2), trig.m, trig_grid
    )[1]
    flagged["spectrum"] = check_isospectrality(
        with_perturbation(trig_fam, "wplus-slope", 1e-2), trig.m, k=5, n_points=2000
    ).mismatch

    flagged["equivalence (final step)"] = check_equivalence_chain(
        with_perturbation(fam, "wminus-slope", 1e-2), p.m, grid
    )[1]

    ok = all(v >= 1e-3 for v in flagged.values())
    worst = min(flagged, key=flagged.get)
    report(
        6,
        ok,
        f"negative controls: weakest detector {worst} at {flagged[worst]:.2e} (>=1e-3)",
    )


def test_criterion_7_oracle_agreement():
    """100 random catalog evaluations of W and the compatibility combination
    against the 50-digit oracle, within 1e-11 relative."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(100):
        tag = FAMILY_TAGS[i % len(FAMILY_TAGS)]
        p = sample_valid_params(tag, 1, seed=7000 + i)[0]
        fam = get_family(tag, p).family
        grid = make_grid(fam, GridSpec(n_points=64), m_values=(p.m,))
        x = float(rng.choice(grid[4:-4]))

        w_got, _ = fam.w_rows(np.asarray([x]), (p.m,))
        w_got = complex(w_got[0, 0])
        w_ref = oracles.to_complex(oracles.w_value(tag, p, p.m, x))
        worst = max(worst, abs(w_got - w_ref) / max(1.0, abs(w_ref), abs(w_got)))

        c_got = complex(np.asarray(compatibility_lhs(fam, p.m, np.asarray([x])))[0])
        c_ref = oracles.to_complex(oracles.compatibility_value(tag, p, p.m, x))
        worst = max(worst, abs(c_got - c_ref) / max(1.0, abs(c_ref), abs(c_got)))
    ok = worst <= 1e-11
    report(7, ok, f"oracle agreement: worst relative deviation {worst:.2e} (<=1e-11)")
