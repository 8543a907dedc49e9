"""Grid-based verification of the superpotential identities.

Five checks, each a pointwise identity measured by its maximum absolute
residual over a grid (a single bad point must fail the verdict, so no RMS):

  translation     W1-(x, m) = W1+(x, m-1)
  compatibility   the seven-term combination of W0, W1+- is a function of x
                  only, i.e. independent of m
  infeld_hull     k1' + k1^2 and -k0' - k1*k0 are the constants (a, b)
  algebra         the closure condition of the potential algebra, in its
                  integer-shifted form with F = k1, G = -k0, U = W1+ - W1-
  equivalence     the three-step reduction tying the closure condition to
                  the compatibility condition and the translation relation
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .superpotential import GridSpec, ParamPoint, SuperpotentialFamily

TRANSLATION_TOL = 1e-12
DEFAULT_TOL = 1e-9

CHECK_NAMES = ("translation", "compatibility", "infeld_hull", "algebra", "equivalence")


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
    epsilon_samples: list = field(default_factory=list)
    inferred_a: float | None = None
    inferred_b: float | None = None

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

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
            "epsilon_samples": [[x, e.real, e.imag] for x, e in self.epsilon_samples],
            "passed": self.passed,
        }


def _maxabs(values) -> float:
    arr = np.asarray(values)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def check_translation(family: SuperpotentialFamily, m: float, grid) -> float:
    """max |W1-(x, m) - W1+(x, m-1)| over the grid."""
    return _maxabs(family.w1minus(grid, m)[0] - family.w1plus(grid, m - 1.0)[0])


def compatibility_lhs(family: SuperpotentialFamily, m: float, x):
    """The seven-term combination; equals epsilon(x) when the condition holds."""
    p, pd = family.w1plus(x, m)
    q, qd = family.w1minus(x, m)
    w0 = family.w0(x, m)
    return p * p + pd + q * q + qd - 2.0 * w0 * q + 2.0 * w0 * p - 2.0 * q * p


def check_compatibility(family: SuperpotentialFamily, m_list, grid):
    """m-independence residual of the seven-term combination.

    Returns (residual, epsilon_samples) where the samples are taken at the
    first m; the residual is the max over grid points and m pairs.
    """
    m_list = tuple(float(m) for m in m_list)
    if len(m_list) < 2:
        raise UsageError("check_compatibility needs at least two m values")
    lhs = [compatibility_lhs(family, m, grid) for m in m_list]
    residual = 0.0
    for i in range(len(lhs)):
        for j in range(i + 1, len(lhs)):
            residual = max(residual, _maxabs(lhs[i] - lhs[j]))
    samples = list(zip(np.asarray(grid, dtype=float).tolist(),
                       np.asarray(lhs[0], dtype=complex).tolist()))
    return residual, samples


def check_infeld_hull(family: SuperpotentialFamily, grid):
    """Infer (a, b) as grid means of k1' + k1^2 and -k0' - k1*k0.

    The constancy residual is the max deviation from the means plus any
    imaginary leakage of the means themselves (the complex family keeps both
    expressions real up to rounding).
    """
    f = family.k1(grid)
    fd = family.k1_deriv(grid)
    g = -family.k0(grid)
    gd = -family.k0_deriv(grid)
    va = fd + f * f
    vb = gd + f * g
    a_mean = complex(np.mean(va))
    b_mean = complex(np.mean(vb))
    residual = max(
        _maxabs(va - a_mean),
        _maxabs(vb - b_mean),
        abs(a_mean.imag),
        abs(b_mean.imag),
    )
    return AlgebraConstants(a=a_mean.real, b=b_mean.real), float(residual)


def _u(family, x, m):
    """(U, U') with U = W1+ - W1-."""
    (p, pd), (q, qd) = family.w1plus(x, m), family.w1minus(x, m)
    return p - q, pd - qd


def _closure_expression(family, m, grid):
    F = family.k1(grid)
    G = -family.k0(grid)
    u_prev, ud_prev = _u(family, grid, m - 1.0)
    u_here, ud_here = _u(family, grid, m)
    return (
        u_prev * u_prev
        - 2.0 * G * (u_prev - u_here)
        - u_here * u_here
        + 2.0 * F * ((m - 1.0) * u_prev - m * u_here)
        - ud_prev
        - ud_here
    )


def check_algebra_condition(family: SuperpotentialFamily, m: float, grid) -> float:
    """max |closure condition| over the grid, in the integer-shifted form."""
    return _maxabs(_closure_expression(family, m, grid))


def check_equivalence_chain(family: SuperpotentialFamily, m: float, grid):
    """Numerical replay of the reduction proof, one residual per step.

    step1: the closure condition in (F, G, U) variables.
    step2: the same expression rewritten directly in k0, k1, W1+-.
    step3: what survives of step2 once the compatibility condition is used
           at m and m-1; it vanishes by the translation relation alone.

    Returns (max|step1 - step2|, max|step2 - step3|, max|step3|): the first
    difference is a pure algebraic identity, the second isolates the
    compatibility condition, the last isolates the translation relation.
    """
    step1 = _closure_expression(family, m, grid)

    p_prev, pd_prev = family.w1plus(grid, m - 1.0)
    q_prev, qd_prev = family.w1minus(grid, m - 1.0)
    p_here, pd_here = family.w1plus(grid, m)
    q_here, qd_here = family.w1minus(grid, m)
    v_prev = q_prev - p_prev
    v_here = q_here - p_here
    w0_prev = family.w0(grid, m - 1.0)
    w0_here = family.w0(grid, m)
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

    return (_maxabs(step1 - step2), _maxabs(step2 - step3), _maxabs(step3))


def _tabulated(family: SuperpotentialFamily, grid) -> SuperpotentialFamily:
    """A copy of the family whose (W1+-, W1+-') pairs evaluate once per m on
    this grid: the first call at an m stores its pair, later calls read it.
    The table lives as long as the copy; calls on any other x evaluate."""

    def remember(fn):
        table = {}

        def lookup(x, m):
            if x is not grid:
                return fn(x, m)
            if m not in table:
                table[m] = fn(x, m)
            return table[m]

        return lookup

    names = ("w1plus", "w1minus")
    return dataclasses.replace(family, **{n: remember(getattr(family, n)) for n in names})


def run_condition_checks(
    family: SuperpotentialFamily,
    grid,
    m_list,
    checks=CHECK_NAMES,
    tolerances: dict | None = None,
    grid_spec: GridSpec | None = None,
    expected_ab: tuple[float, float] | None = None,
) -> ResidualReport:
    """Run the selected identity checks on a prebuilt grid and assemble a report.

    The grid must avoid the poles of every m in m_list (make_grid with
    m_values=m_list does that).  When expected_ab is given, the inferred
    constants are also matched against it under the infeld_hull tolerance.
    Within the call each pair (W1+-, W1+-') is evaluated once per m on the
    grid and the checks share those values, so each residual equals that of
    the separate check_* call bit for bit.
    """
    m_list = tuple(float(m) for m in m_list)
    tol = dict(tolerances or {})
    tol.setdefault("translation", TRANSLATION_TOL)
    for name in ("compatibility", "infeld_hull", "algebra", "equivalence"):
        tol.setdefault(name, DEFAULT_TOL)

    report = ResidualReport(
        family_tag=family.tag,
        params=family.params,
        grid_spec=grid_spec or GridSpec(n_points=max(16, len(grid))),
        m_list=m_list,
    )
    m0 = m_list[0]
    family = _tabulated(family, grid)

    if "translation" in checks:
        r = check_translation(family, m0, grid)
        report.residuals["translation"] = r
        report.tolerances["translation"] = tol["translation"]
        report.verdicts["translation"] = r < tol["translation"]
    if "compatibility" in checks:
        r, samples = check_compatibility(family, m_list, grid)
        report.residuals["compatibility"] = r
        report.tolerances["compatibility"] = tol["compatibility"]
        report.verdicts["compatibility"] = r < tol["compatibility"]
        report.epsilon_samples = samples
    if "infeld_hull" in checks:
        constants, r = check_infeld_hull(family, grid)
        report.inferred_a = constants.a
        report.inferred_b = constants.b
        report.residuals["infeld_hull"] = r
        report.tolerances["infeld_hull"] = tol["infeld_hull"]
        report.verdicts["infeld_hull"] = r < tol["infeld_hull"]
        if expected_ab is not None:
            match = max(abs(constants.a - expected_ab[0]), abs(constants.b - expected_ab[1]))
            report.residuals["infeld_hull_match"] = match
            report.tolerances["infeld_hull_match"] = tol["infeld_hull"]
            report.verdicts["infeld_hull_match"] = match < tol["infeld_hull"]
    if "algebra" in checks:
        r = check_algebra_condition(family, m0, grid)
        report.residuals["algebra"] = r
        report.tolerances["algebra"] = tol["algebra"]
        report.verdicts["algebra"] = r < tol["algebra"]
    if "equivalence" in checks:
        r12, r23, r30 = check_equivalence_chain(family, m0, grid)
        report.residuals["equivalence_step1_vs_step2"] = r12
        report.residuals["equivalence_step2_vs_step3"] = r23
        report.residuals["equivalence_step3_vs_zero"] = r30
        report.tolerances["equivalence"] = tol["equivalence"]
        report.verdicts["equivalence"] = max(r12, r23, r30) < tol["equivalence"]

    return report
