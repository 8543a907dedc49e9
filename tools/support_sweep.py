"""The five identity checks over the documented support, one line per cell.

Run from anywhere, with no arguments:

    python3 tools/support_sweep.py

It imports shapeinv from the src/ of the checkout it lives in and runs what
`verify` runs for the identity checks (make_grid, then
run_condition_checks with the default tolerances, on the m list
(m, m - 1, m - 2)) at every point of every cell.  A cell is a family, a
set of points and a grid setting:

- each family's sample_valid_params(tag, 6, 99) points, the Xl families at
  every ell of ELLS in place of the drawn one;
- X1-hyperbolic points with c in each box of SMALL_C_BOXES, below the
  sampler's box c in (0.5, 2), drawn from SMALL_C_SEED;
- every n_points of N_POINTS with every boundary_margin of MARGINS.

Each line holds the family, the points' label, n_points, boundary_margin,
the number of runs, of failed runs (a residual at or above its gate), of
runs that raised a ShapeInvError (verify's exit 2) and the largest
residual of the runs that completed, with its name.  The sweep takes a few
seconds; tests/test_support_sweep.py pins each cell's counts.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shapeinv import (  # noqa: E402
    GridSpec,
    ParamPoint,
    ShapeInvError,
    catalog,
    make_grid,
    run_condition_checks,
)

POINTS, SEED = 6, 99
ELLS = (1, 2, 4, 8, 10, 12, 16, 24, 32, 48, 64)
N_POINTS = (16, 512, 4096)
MARGINS = (0.001, GridSpec().boundary_margin, 0.45)
# X1-hyperbolic below the sampler's c box, with its other constants and m
# drawn as in the README's measurement of the c support
SMALL_C_BOXES = ((0.03, 0.1), (0.1, 0.5))
SMALL_C_SEED = 7


class Cell(NamedTuple):
    family: str
    label: str
    n_points: int
    margin: float
    runs: int
    failed: int
    raised: int
    worst: float
    worst_name: str

    def line(self) -> str:
        worst = f"{self.worst:.2e} {self.worst_name}" if self.worst_name else "-"
        return (f"{self.family} {self.label} n_points={self.n_points} "
                f"margin={self.margin:g} runs={self.runs} fail={self.failed} "
                f"raise={self.raised} worst={worst}")


def _small_c_points(lo: float, hi: float) -> list:
    """POINTS valid X1-hyperbolic points with c in [lo, hi): beta in
    (-3, 3), |d| in (0.3, 3) with either sign, m in (-15, 15), kept where
    m, m - 1 and m - 2 are all in the region."""
    rng = np.random.default_rng([SMALL_C_SEED, round(lo * 1000)])
    out = []
    while len(out) < POINTS:
        d = rng.uniform(0.3, 3.0) * (1.0 if rng.integers(0, 2) else -1.0)
        p = ParamPoint(m=rng.uniform(-15.0, 15.0), c=rng.uniform(lo, hi),
                       beta=rng.uniform(-3.0, 3.0), d=d)
        family = catalog.get_family("X1-hyperbolic", p)
        if all(family.validity(p.m - k).valid for k in (0, 1, 2)):
            out.append(p)
    return out


def point_sets():
    """(family, label, points) of every cell's points, in a fixed order."""
    for tag in catalog.FAMILY_TAGS:
        points = catalog.sample_valid_params(tag, POINTS, SEED)
        if tag.startswith("Xl-"):
            for ell in ELLS:
                yield tag, f"ell={ell}", [dataclasses.replace(p, ell=ell) for p in points]
        else:
            yield tag, f"seed={SEED}", points
    for lo, hi in SMALL_C_BOXES:
        yield "X1-hyperbolic", f"c=[{lo:g},{hi:g})", _small_c_points(lo, hi)


def run_point(tag: str, point, spec: GridSpec):
    """The report of the identity checks at point on spec's grid, or None
    where the run raises a ShapeInvError."""
    m_list = (point.m, point.m - 1.0, point.m - 2.0)
    try:
        family = catalog.get_family(tag, point)
        grid = make_grid(family, spec, m_values=m_list)
        return run_condition_checks(family, grid, m_list, grid_spec=spec)
    except ShapeInvError:
        return None


def sweep():
    """Every Cell, in a fixed order."""
    for tag, label, points in point_sets():
        for n_points in N_POINTS:
            for margin in MARGINS:
                spec = GridSpec(n_points=n_points, boundary_margin=margin)
                reports = [run_point(tag, p, spec) for p in points]
                done = [r for r in reports if r is not None]
                worst, worst_name = 0.0, ""
                for report in done:
                    for name, residual in report.residuals.items():
                        if not residual <= worst:  # a nan residual is the worst
                            worst, worst_name = residual, name
                yield Cell(tag, label, n_points, margin, len(reports),
                           sum(not r.passed for r in done), len(reports) - len(done),
                           worst, worst_name)


def main() -> int:
    for cell in sweep():
        print(cell.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
