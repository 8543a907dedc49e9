"""The five identity checks over the documented support, one line per cell.

Run from anywhere, with no arguments:

    python3 tools/support_sweep.py

It imports shapeinv from the src/ of the checkout it lives in and runs what
`verify` runs for the identity checks (make_grid, then
run_condition_checks with the default tolerances, on the m list
(m, m - 1, m - 2)) at every point of every cell.  A cell is a family, a
set of points and a grid size:

- each family's sample_valid_params(tag, 6, 99) points, the Xl families at
  every ell of ELLS in place of the drawn one;
- X1-hyperbolic points with c in each box of SMALL_C_BOXES, below the
  sampler's box c in (0.5, 2), drawn from SMALL_C_SEED;
- Xl-PT-Scarf points with |m| in SCARF_M_BOX, beyond the sampler's
  m in (-2, 2), drawn from SCARF_SEED;
- every n_points of N_POINTS.

Each line holds the family, the points' label, n_points, the number of
runs, of failed runs (a residual at or above its gate), of
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
    ParamPoint,
    ShapeInvError,
    catalog,
    make_grid,
    run_condition_checks,
)

POINTS, SEED = 6, 99
ELLS = (1, 2, 4, 8, 10, 12, 16, 24, 32, 48, 64)
N_POINTS = (16, 512, 4096)
# X1-hyperbolic below the sampler's c box, with its other constants and m
# drawn as in the README's measurement of the c support
SMALL_C_BOXES = ((0.03, 0.1), (0.1, 0.5))
SMALL_C_SEED = 7
# Xl-PT-Scarf at large |m| and high degree: |m| in SCARF_M_BOX with either
# sign, ell in 22..64 and B in (-300, -0.6)
SCARF_M_BOX = (30.0, 60.0)
SCARF_SEED = 1


class Cell(NamedTuple):
    family: str
    label: str
    n_points: int
    runs: int
    failed: int
    raised: int
    worst: float
    worst_name: str

    def line(self) -> str:
        worst = f"{self.worst:.2e} {self.worst_name}" if self.worst_name else "-"
        return (f"{self.family} {self.label} n_points={self.n_points} "
                f"runs={self.runs} fail={self.failed} raise={self.raised} worst={worst}")


def _drawn_points(tag: str, seed, draw) -> list:
    """POINTS points draw(rng) of the family tag, kept where m, m - 1 and
    m - 2 are all in the region."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < POINTS:
        p = draw(rng)
        family = catalog.get_family(tag, p)
        if all(family.validity(p.m - k).valid for k in (0, 1, 2)):
            out.append(p)
    return out


def _small_c_draw(lo: float, hi: float):
    """An X1-hyperbolic draw with c in [lo, hi): beta in (-3, 3), |d| in
    (0.3, 3) with either sign, m in (-15, 15)."""
    def draw(rng):
        d = rng.uniform(0.3, 3.0) * (1.0 if rng.integers(0, 2) else -1.0)
        return ParamPoint(m=rng.uniform(-15.0, 15.0), c=rng.uniform(lo, hi),
                          beta=rng.uniform(-3.0, 3.0), d=d)
    return draw


def _scarf_draw(rng):
    """An Xl-PT-Scarf draw from SCARF_M_BOX's |m|, ell in 22..64 and B in
    (-300, -0.6)."""
    m = rng.uniform(*SCARF_M_BOX) * (1.0 if rng.integers(0, 2) else -1.0)
    return ParamPoint(m=m, B=rng.uniform(-300.0, -0.6), ell=int(rng.integers(22, 65)))


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
        yield "X1-hyperbolic", f"c=[{lo:g},{hi:g})", _drawn_points(
            "X1-hyperbolic", [SMALL_C_SEED, round(lo * 1000)], _small_c_draw(lo, hi))
    lo, hi = SCARF_M_BOX
    yield "Xl-PT-Scarf", f"|m|=[{lo:g},{hi:g})", _drawn_points("Xl-PT-Scarf", SCARF_SEED,
                                                               _scarf_draw)


def run_point(tag: str, point, n_points: int):
    """The report of the identity checks at point on a grid of n_points, or
    None where the run raises a ShapeInvError."""
    m_list = (point.m, point.m - 1.0, point.m - 2.0)
    try:
        family = catalog.get_family(tag, point)
        grid = make_grid(family, n_points, m_values=m_list)
        return run_condition_checks(family, grid, m_list)
    except ShapeInvError:
        return None


def sweep():
    """Every Cell, in a fixed order."""
    for tag, label, points in point_sets():
        for n_points in N_POINTS:
            reports = [run_point(tag, p, n_points) for p in points]
            done = [r for r in reports if r is not None]
            worst, worst_name = 0.0, ""
            for report in done:
                for name, residual in report.residuals.items():
                    if not residual <= worst:  # a nan residual is the worst
                        worst, worst_name = residual, name
            yield Cell(tag, label, n_points, len(reports),
                       sum(not r.passed for r in done), len(reports) - len(done),
                       worst, worst_name)


def main() -> int:
    for cell in sweep():
        print(cell.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
