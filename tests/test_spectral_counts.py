"""The LAPACK calls, bisection fallbacks and W evaluations that
tools/spectral_counts.py counts, pinned on one sample_valid_params point
per real family: a change that moves them must say so here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapeinv import (
    REAL_TAGS,
    PotentialGrid,
    check_isospectrality,
    dirichlet_grid,
    get_family,
    sample_valid_params,
    solve_spectrum,
    spectral,
)

COUNTS = Path(__file__).resolve().parents[1] / "tools" / "spectral_counts.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("spectral_counts", COUNTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def certified(probe, coarse_solves):
    """The calls of a certified check_isospectrality (k = 5, 4000 points,
    laid on 4001 nodes so that the spacing-doubled grid's 2000 nodes share
    their walls): probe bisections, one per window pass; on each grid 5
    factorisations and one Sturm count; coarse_solves on the spacing-doubled
    grid and one solve per level on the fine grid."""
    return {("dstebz", 400): probe, ("dstebz", 2000): 1, ("dstebz", 4001): 1,
            ("dgttrf", 2000): 5, ("dgttrf", 4001): 5,
            ("dgttrs", 2000): coarse_solves, ("dgttrs", 4001): 5}


# The W evaluations, (rows, points) -> calls: the first probe's 400 nodes
# at m and m - 1, with the 61 growth candidates of an infinite right side;
# a second probe at m alone where the edge moved; the fine grid at both m.
# The walls evaluate none: the 11 (22 on a finite domain) wall candidates
# at both m were one more call per op.
HALF_LINE = {(2, 461): 1, (2, 4001): 1}
MOVED_EDGE = {(1, 400): 1, **HALF_LINE}

# family at sample_valid_params(tag, 1, seed=21) -> (its LAPACK calls, its
# W evaluations)
PINNED = {
    "X1-hyperbolic": (certified(1, 10), HALF_LINE),
    "X1-radial-oscillator": (certified(2, 14), MOVED_EDGE),
    "X1-trigonometric": (certified(1, 10), {(2, 400): 1, (2, 4001): 1}),
    "Xl-Poschl-Teller": (certified(1, 10), HALF_LINE),
    "Xl-radial-oscillator": (certified(2, 10), MOVED_EDGE),
}


@pytest.mark.parametrize("tag", REAL_TAGS)
def test_pinned_counts(tool, tag):
    p = sample_valid_params(tag, 1, seed=21)[0]
    with tool.counting(spectral) as counts:
        check_isospectrality(get_family(tag, p), p.m)
    assert (dict(counts.calls), dict(counts.w_rows)) == PINNED[tag]
    assert not counts.fallbacks


def test_fallback_counted_and_module_restored(tool):
    # shifts that skip level 3 of the oscillator: the 500-point grid's
    # certificate refuses them and it is bisected, with one more dstebz
    xs = dirichlet_grid(-10.0, 10.0, 1000)
    h = float(xs[1] - xs[0])
    lapack, certified_levels = spectral._lapack, spectral._certified_levels
    w_rows = spectral.SuperpotentialFamily.w_rows
    shifts = spectral._lowest_eigenvalues(xs[1::2] ** 2, 2.0 * h, 6)[[0, 1, 2, 4, 5]]
    with tool.counting(spectral) as counts:
        solve_spectrum(PotentialGrid(x=xs, values=xs ** 2), 5, shifts=shifts)
    assert dict(counts.fallbacks) == {500: 1}
    assert counts.calls["dstebz", 500] == 2
    assert (spectral._lapack, spectral._certified_levels) == (lapack, certified_levels)
    assert spectral.SuperpotentialFamily.w_rows is w_rows
    assert counts.bound > 0.0 and np.isfinite(counts.bound)


def test_replay_prints_a_table():
    out = subprocess.run([sys.executable, str(COUNTS), "11", "--rounds", "1"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "spectrum-real, seeds 11, rounds 0-0: 50 ops"
    split = out.index("rows  points       W/op")
    rows = {int(line.split()[0]): line.split()[1:] for line in out[2:split]}
    assert set(rows) == {400, 2000, 4001}
    # no 2000- or 4001-point level set falls back to bisection
    assert rows[2000][-1] == rows[4001][-1] == "0"
    # every op evaluates W on its fine grid at both m, and no wall evaluates it
    evaluations = {tuple(map(int, line.split()[:2])): float(line.split()[2])
                   for line in out[split + 1:-1]}
    assert evaluations[2, 4001] == 1.0
    assert not {points for _, points in evaluations} & {11, 22}
    assert out[-1].split()[0] == "all"
