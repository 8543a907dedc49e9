"""The LAPACK calls and bisection fallbacks that tools/spectral_counts.py
counts, pinned on one sample_valid_params point per real family: a change
that moves them must say so here."""

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
    """The calls of a certified check_isospectrality (k = 5, 4000 points):
    probe bisections, one per window pass; on each grid 5 factorisations
    and one Sturm count; coarse_solves on the spacing-doubled grid and one
    solve per level on the fine grid."""
    return {("dstebz", 400): probe, ("dstebz", 2000): 1, ("dstebz", 4000): 1,
            ("dgttrf", 2000): 5, ("dgttrf", 4000): 5,
            ("dgttrs", 2000): coarse_solves, ("dgttrs", 4000): 5}


# family at sample_valid_params(tag, 1, seed=21) -> its calls
PINNED = {
    "X1-hyperbolic": certified(1, 10),
    "X1-radial-oscillator": certified(2, 14),
    "X1-trigonometric": certified(1, 10),
    "Xl-Poschl-Teller": certified(1, 10),
    "Xl-radial-oscillator": certified(2, 10),
}


@pytest.mark.parametrize("tag", REAL_TAGS)
def test_pinned_counts(tool, tag):
    p = sample_valid_params(tag, 1, seed=21)[0]
    with tool.counting(spectral) as counts:
        check_isospectrality(get_family(tag, p), p.m)
    assert dict(counts.calls) == PINNED[tag]
    assert not counts.fallbacks


def test_fallback_counted_and_module_restored(tool):
    # shifts that skip level 3 of the oscillator: the 500-point grid's
    # certificate refuses them and it is bisected, with one more dstebz
    xs = dirichlet_grid(-10.0, 10.0, 1000)
    h = float(xs[1] - xs[0])
    lapack, certified_levels = spectral._lapack, spectral._certified_levels
    shifts = spectral._lowest_eigenvalues(xs[1::2] ** 2, 2.0 * h, 6)[[0, 1, 2, 4, 5]]
    with tool.counting(spectral) as counts:
        solve_spectrum(PotentialGrid(x=xs, values=xs ** 2), 5, shifts=shifts)
    assert dict(counts.fallbacks) == {500: 1}
    assert counts.calls["dstebz", 500] == 2
    assert (spectral._lapack, spectral._certified_levels) == (lapack, certified_levels)
    assert counts.bound > 0.0 and np.isfinite(counts.bound)


def test_replay_prints_a_table():
    out = subprocess.run([sys.executable, str(COUNTS), "11", "--rounds", "1"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "spectrum-real, seeds 11, rounds 0-0: 50 ops"
    rows = {int(line.split()[0]): line.split()[1:] for line in out[2:]}
    assert set(rows) == {400, 2000, 4000}
    # no 2000- or 4000-point level set falls back to bisection
    assert rows[2000][-1] == rows[4000][-1] == "0"
