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

All five read rows of one table, GridValues: (k0, k0', k1, k1') and the
four W1 arrays with one row per m, as one call of each evaluator returns
them.  Every residual is one nan-propagating maximum, so a point where W is
not finite fails the verdict instead of dropping out of it; the checks' own
arithmetic, like the evaluators, turns inf and nan into nan without a
warning (_QUIET).

check_tolerances holds every check's default tolerance.
"""

from __future__ import annotations

import functools
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

# the checks' arithmetic on inf or nan W values gives nan, silently
_QUIET = np.errstate(invalid="ignore", over="ignore")


def check_tolerances(tol: float = DEFAULT_TOL, overrides: dict | None = None) -> dict:
    """Every check's tolerance, by check name: TRANSLATION_TOL for
    translation, SPECTRUM_TOL for spectrum, tol for the others (the
    remainder included), then overrides, whose keys must be names of
    ALL_CHECKS (any other raises UsageError)."""
    unknown = set(overrides or {}).difference(ALL_CHECKS)
    if unknown:
        raise UsageError(f"unknown tolerances {sorted(unknown)}; known: {', '.join(ALL_CHECKS)}")
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
            "grid": {"n_points": self.grid_spec.n_points},
            "m_list": list(self.m_list),
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "verdicts": dict(self.verdicts),
            "inferred_a": self.inferred_a,
            "inferred_b": self.inferred_b,
            "passed": self.passed,
        }


def _worst(*terms) -> float:
    """The largest |entry| of all the terms, nan if any entry is nan (a
    point where the family does not evaluate must fail the verdict)."""
    return float(functools.reduce(np.maximum, [np.abs(t).max(initial=0.0) for t in terms]))


class GridValues(NamedTuple):
    """One evaluation of the family on a grid, read by row: m_values (the
    distinct m, in call order), the affine tuple (k0, k0', k1, k1') and the
    w1 tuple (W1+, W1+', W1-, W1-'), each with one row per m of m_values."""

    m_values: tuple
    affine: tuple
    w1: tuple

    def rows(self, *m) -> list:
        """The row index of each of the given m."""
        return [self.m_values.index(float(v)) for v in m]


def grid_values(family: SuperpotentialFamily, grid, m_values) -> GridValues:
    """The family's evaluators on the grid: affine once, and w1 once for all
    the distinct m of m_values."""
    m_values = tuple(dict.fromkeys(float(m) for m in m_values))
    return GridValues(m_values, family.affine(grid), family.w1(grid, m_values))


# Each check takes the grid's values as a keyword; without it, the check
# evaluates the family at the m it needs.

def check_translation(family: SuperpotentialFamily, m: float, grid, *, values=None) -> float:
    """max |W1-(x, m) - W1+(x, m-1)| over the grid."""
    values = values or grid_values(family, grid, (m, m - 1.0))
    here, prev = values.rows(m, m - 1.0)
    p, _, q, _ = values.w1
    return _worst(q[here] - p[prev])


@_QUIET
def _seven_terms(values: GridValues, m_list):
    """The seven-term combination, one row per m of m_list."""
    p, pd, q, qd = (r[values.rows(*m_list)] for r in values.w1)
    k0, _, k1, _ = values.affine
    w0 = k0 + np.multiply.outer(m_list, k1)
    return p * p + pd + q * q + qd - 2.0 * w0 * q + 2.0 * w0 * p - 2.0 * q * p


def compatibility_lhs(family: SuperpotentialFamily, m: float, x, *, values=None):
    """The seven-term combination; equals epsilon(x) when the condition holds."""
    return _seven_terms(values or grid_values(family, x, (m,)), (float(m),))[0]


@_QUIET
def check_compatibility(family: SuperpotentialFamily, m_list, grid, *, values=None) -> float:
    """m-independence residual of the seven-term combination: the max of
    |lhs(m_i) - lhs(m_j)| over grid points and every pair of rows (pairs,
    not the spread max - min of each point, which complex rows do not
    have)."""
    m_list = tuple(float(m) for m in m_list)
    if len(m_list) < 2:
        raise UsageError("check_compatibility needs at least two m values")
    lhs = _seven_terms(values or grid_values(family, grid, m_list), m_list)
    return _worst(lhs[:, None] - lhs)


@_QUIET
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
    residual = _worst(va - a_mean, vb - b_mean, a_mean.imag, b_mean.imag)
    return AlgebraConstants(a=a_mean.real, b=b_mean.real), residual


@_QUIET
def _closure_expression(values: GridValues, m):
    k0, _, F, _ = values.affine
    G = -k0
    prev, here = values.rows(m - 1.0, m)
    p, pd, q, qd = values.w1
    u_prev, ud_prev = p[prev] - q[prev], pd[prev] - qd[prev]
    u_here, ud_here = p[here] - q[here], pd[here] - qd[here]
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
    return _worst(_closure_expression(values or grid_values(family, grid, (m, m - 1.0)), m))


@_QUIET
def _reduction_steps(values: GridValues, m):
    """Steps 2 and 3 of the reduction proof.

    step2: the closure condition (_closure_expression) rewritten directly in
           k0, k1, W1+-; the two agree for any values, which tests check
           exactly.
    step3: what survives of step2 once the compatibility condition is used
           at m and m-1; it vanishes by the translation relation alone.
    """
    prev, here = values.rows(m - 1.0, m)
    p, pd, q, qd = values.w1
    v_prev, v_here = q[prev] - p[prev], q[here] - p[here]
    pd_prev, pd_here, qd_prev, qd_here = pd[prev], pd[here], qd[prev], qd[here]
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
    return _worst(step2 - step3), _worst(step3)


def run_condition_checks(
    family: SuperpotentialFamily,
    grid,
    m_list,
    checks=CHECK_NAMES,
    tolerances: dict | None = None,
    grid_spec: GridSpec | None = None,
    *,
    values: GridValues | None = None,
) -> ResidualReport:
    """Run the selected identity checks on a prebuilt grid and assemble a report.

    checks names the checks to run, each one of CHECK_NAMES (any other
    name raises UsageError; none is a report without verdicts), and
    tolerances, by check name, override check_tolerances().  An empty
    m_list raises UsageError.  The checks read W at every m of m_list and
    at m_list[0] - 1, the translate that translation, algebra and
    equivalence read, so the family must be non-singular at all of them
    (make_grid with those m_values refuses the grid otherwise).  When
    the family has expected_ab (every catalog family does), the inferred
    constants are also matched against it under the infeld_hull tolerance.
    The family is evaluated once (grid_values): affine on the grid, and w1
    at all those m; values, that grid_values result, spares the
    evaluation.  The checks share those values, so each residual equals
    that of the separate check_* call bit for bit.
    """
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; known: {', '.join(CHECK_NAMES)}")
    m_list = tuple(float(m) for m in m_list)
    if not m_list:
        raise UsageError("run_condition_checks needs at least one m")
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
        if family.expected_ab is not None:
            a, b = family.expected_ab
            match = _worst(constants.a - a, constants.b - b)
            report.record("infeld_hull_match", tol["infeld_hull"], infeld_hull_match=match)
    if "algebra" in checks:
        report.record("algebra", tol["algebra"],
                      algebra=check_algebra_condition(family, m0, grid, values=values))
    if "equivalence" in checks:
        r23, r30 = check_equivalence_chain(family, m0, grid, values=values)
        report.record("equivalence", tol["equivalence"],
                      equivalence_step2_vs_step3=r23, equivalence_step3_vs_zero=r30)

    return report
