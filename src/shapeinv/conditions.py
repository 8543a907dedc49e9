"""Grid-based verification of the superpotential identities.

Five checks, each a pointwise identity measured by its maximum absolute
residual over a grid (a single bad point must fail the verdict, so no RMS):

  translation     W1-(x, m) = W1+(x, m-1)
  compatibility   the seven-term combination of W0, W1+- is a function of x
                  only, i.e. independent of m
  infeld_hull     k1' + k1^2 and -k0' - k1*k0 are the constants (a, b)
  algebra         the closure condition of the potential algebra, in its
                  integer-shifted form with F = k1, G = -k0, U = W1+ - W1-
  equivalence     the reduction tying the closure condition to the
                  compatibility condition and the translation relation, one
                  residual per step that can fail

check_tolerances holds every check's default tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .superpotential import GridSpec, ParamPoint, SuperpotentialFamily

TRANSLATION_TOL = 1e-12
SPECTRUM_TOL = 1e-4
DEFAULT_TOL = 1e-9

CHECK_NAMES = ("translation", "compatibility", "infeld_hull", "algebra", "equivalence")
# with the checks that verify runs from the spectral module
ALL_CHECKS = CHECK_NAMES + ("remainder", "spectrum")


def check_tolerances(tol: float = DEFAULT_TOL, overrides: dict | None = None) -> dict:
    """Every check's tolerance, by check name: TRANSLATION_TOL for
    translation, SPECTRUM_TOL for spectrum, tol for the others (the
    remainder included), then overrides."""
    tols = dict.fromkeys(ALL_CHECKS, tol)
    tols.update(translation=TRANSLATION_TOL, spectrum=SPECTRUM_TOL)
    tols.update(overrides or {})
    return tols


@dataclass(frozen=True)
class AlgebraConstants:
    a: float
    b: float


@dataclass
class ResidualReport:
    """Per-condition residuals, verdicts and inferred quantities for one run."""

    family_tag: str
    params: ParamPoint
    grid_spec: GridSpec
    m_list: tuple[float, ...]
    residuals: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    inferred_a: float | None = None
    inferred_b: float | None = None

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def record(self, check: str, tolerance: float, **residuals: float) -> None:
        """Record a check's residuals and tolerance, and its verdict: every
        residual below the tolerance."""
        self.residuals.update(residuals)
        self.tolerances[check] = tolerance
        self.verdicts[check] = all(r < tolerance for r in residuals.values())

    def to_dict(self) -> dict:
        return {
            "family": self.family_tag,
            "params": self.params.to_dict(),
            "grid": {
                "n_points": self.grid_spec.n_points,
                "boundary_margin": self.grid_spec.boundary_margin,
                "pole_exclusion_radius": self.grid_spec.pole_exclusion_radius,
            },
            "m_list": list(self.m_list),
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "verdicts": dict(self.verdicts),
            "inferred_a": self.inferred_a,
            "inferred_b": self.inferred_b,
            "passed": self.passed,
        }


def _maxabs(values) -> float:
    arr = np.asarray(values)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


class GridValues(NamedTuple):
    """What the checks read on one grid: the affine tuple (k0, k0', k1, k1')
    and, for each m, the tuple (W1+, W1+', W1-, W1-')."""

    affine: tuple
    w1: dict


def grid_values(family: SuperpotentialFamily, grid, m_values) -> GridValues:
    """The family's evaluators on the grid: affine once, and w1 once for all
    the distinct m of m_values."""
    m_values = tuple(dict.fromkeys(float(m) for m in m_values))
    rows = family.w1(grid, m_values)
    return GridValues(family.affine(grid),
                      {m: tuple(r[i] for r in rows) for i, m in enumerate(m_values)})


# Each check takes the grid's values as a keyword; without it, the check
# evaluates the family at the m it needs.

def check_translation(family: SuperpotentialFamily, m: float, grid, *, values=None) -> float:
    """max |W1-(x, m) - W1+(x, m-1)| over the grid."""
    w1 = (values or grid_values(family, grid, (m, m - 1.0))).w1
    return _maxabs(w1[m][2] - w1[m - 1.0][0])


def compatibility_lhs(family: SuperpotentialFamily, m: float, x, *, values=None):
    """The seven-term combination; equals epsilon(x) when the condition holds."""
    values = values or grid_values(family, x, (m,))
    p, pd, q, qd = values.w1[m]
    k0, _, k1, _ = values.affine
    w0 = k0 + m * k1
    return p * p + pd + q * q + qd - 2.0 * w0 * q + 2.0 * w0 * p - 2.0 * q * p


def check_compatibility(family: SuperpotentialFamily, m_list, grid, *, values=None) -> float:
    """m-independence residual of the seven-term combination: the max over
    grid points and m pairs."""
    m_list = tuple(float(m) for m in m_list)
    if len(m_list) < 2:
        raise UsageError("check_compatibility needs at least two m values")
    values = values or grid_values(family, grid, m_list)
    lhs = [compatibility_lhs(family, m, grid, values=values) for m in m_list]
    residual = 0.0
    for i in range(len(lhs)):
        for j in range(i + 1, len(lhs)):
            residual = max(residual, _maxabs(lhs[i] - lhs[j]))
    return residual


def check_infeld_hull(family: SuperpotentialFamily, grid, *, values=None):
    """Infer (a, b) as grid means of k1' + k1^2 and -k0' - k1*k0.

    The constancy residual is the max deviation from the means plus any
    imaginary leakage of the means themselves (the complex family keeps both
    expressions real up to rounding).
    """
    k0, k0d, f, fd = values.affine if values else family.affine(grid)
    va = fd + f * f
    vb = -k0d - f * k0
    a_mean = complex(np.mean(va))
    b_mean = complex(np.mean(vb))
    residual = max(
        _maxabs(va - a_mean),
        _maxabs(vb - b_mean),
        abs(a_mean.imag),
        abs(b_mean.imag),
    )
    return AlgebraConstants(a=a_mean.real, b=b_mean.real), float(residual)


def _closure_expression(values: GridValues, m):
    k0, _, F, _ = values.affine
    G = -k0
    p, pd, q, qd = values.w1[m - 1.0]
    u_prev, ud_prev = p - q, pd - qd
    p, pd, q, qd = values.w1[m]
    u_here, ud_here = p - q, pd - qd
    return (
        u_prev * u_prev
        - 2.0 * G * (u_prev - u_here)
        - u_here * u_here
        + 2.0 * F * ((m - 1.0) * u_prev - m * u_here)
        - ud_prev
        - ud_here
    )


def check_algebra_condition(family: SuperpotentialFamily, m: float, grid, *,
                            values=None) -> float:
    """max |closure condition| over the grid, in the integer-shifted form,
    with F = k1, G = -k0 and U = W1+ - W1-."""
    return _maxabs(_closure_expression(values or grid_values(family, grid, (m, m - 1.0)), m))


def _reduction_steps(values: GridValues, m):
    """Steps 2 and 3 of the reduction proof.

    step2: the closure condition (_closure_expression) rewritten directly in
           k0, k1, W1+-; the two agree for any values, which tests check
           exactly.
    step3: what survives of step2 once the compatibility condition is used
           at m and m-1; it vanishes by the translation relation alone.
    """
    p_prev, pd_prev, q_prev, qd_prev = values.w1[m - 1.0]
    p_here, pd_here, q_here, qd_here = values.w1[m]
    v_prev = q_prev - p_prev
    v_here = q_here - p_here
    k0, _, k1, _ = values.affine
    w0_prev = k0 + (m - 1.0) * k1
    w0_here = k0 + m * k1
    step2 = (
        -2.0 * w0_prev * v_prev
        + v_prev * v_prev
        + 2.0 * w0_here * v_here
        - v_here * v_here
        + qd_prev
        + qd_here
        - pd_prev
        - pd_here
    )
    step3 = -2.0 * pd_prev + 2.0 * qd_here
    return step2, step3


def check_equivalence_chain(family: SuperpotentialFamily, m: float, grid, *, values=None):
    """Numerical replay of the reduction proof (_reduction_steps).

    Returns (max|step2 - step3|, max|step3|): the first isolates the
    compatibility condition, the second the translation relation.
    """
    step2, step3 = _reduction_steps(values or grid_values(family, grid, (m, m - 1.0)), m)
    return _maxabs(step2 - step3), _maxabs(step3)


def run_condition_checks(
    family: SuperpotentialFamily,
    grid,
    m_list,
    checks=CHECK_NAMES,
    tolerances: dict | None = None,
    grid_spec: GridSpec | None = None,
    expected_ab: tuple[float, float] | None = None,
    *,
    values: GridValues | None = None,
) -> ResidualReport:
    """Run the selected identity checks on a prebuilt grid and assemble a report.

    checks names the checks to run (others in it are skipped), and
    tolerances, by check name, override check_tolerances().  The grid must
    avoid the poles of every m in m_list (make_grid with m_values=m_list
    does that).  When expected_ab is given, the inferred constants are also
    matched against it under the infeld_hull tolerance.
    The family is evaluated once (grid_values): affine on the grid, and w1
    for all of m_list and m_list[0] - 1, the translate that translation,
    algebra and equivalence read; values, that grid_values result, spares
    the evaluation.  The checks share those values, so each residual
    equals that of the separate check_* call bit for bit.
    """
    m_list = tuple(float(m) for m in m_list)
    tol = check_tolerances(overrides=tolerances)
    report = ResidualReport(
        family_tag=family.tag,
        params=family.params,
        grid_spec=grid_spec or GridSpec(n_points=max(16, len(grid))),
        m_list=m_list,
    )
    m0 = m_list[0]
    values = values or grid_values(family, grid, m_list + (m0 - 1.0,))

    if "translation" in checks:
        report.record("translation", tol["translation"],
                      translation=check_translation(family, m0, grid, values=values))
    if "compatibility" in checks:
        report.record("compatibility", tol["compatibility"],
                      compatibility=check_compatibility(family, m_list, grid, values=values))
    if "infeld_hull" in checks:
        constants, r = check_infeld_hull(family, grid, values=values)
        report.inferred_a = constants.a
        report.inferred_b = constants.b
        report.record("infeld_hull", tol["infeld_hull"], infeld_hull=r)
        if expected_ab is not None:
            match = max(abs(constants.a - expected_ab[0]), abs(constants.b - expected_ab[1]))
            report.record("infeld_hull_match", tol["infeld_hull"], infeld_hull_match=match)
    if "algebra" in checks:
        report.record("algebra", tol["algebra"],
                      algebra=check_algebra_condition(family, m0, grid, values=values))
    if "equivalence" in checks:
        r23, r30 = check_equivalence_chain(family, m0, grid, values=values)
        report.record("equivalence", tol["equivalence"],
                      equivalence_step2_vs_step3=r23, equivalence_step3_vs_zero=r30)

    return report
