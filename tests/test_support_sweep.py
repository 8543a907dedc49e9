"""The fail and raise counts of every cell of tools/support_sweep.py, as a
literal table: a change that moves the documented support, either way,
must say so here."""

import importlib.util
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "support_sweep.py"

# (family, label, n_points) -> (failed, raised), for every cell with a failed
# or raised run; every other cell has neither.  The grid's near end once was
# a setting, boundary_margin: at 0.001, Xl-Poschl-Teller at ell = 64 failed
# compatibility on 3 of 6 points (2.7e-9) and X1-hyperbolic below the
# sampler's c box failed infeld_hull on 6 and 2 of 6 (up to 4.6e-8), all at
# the grid's inner edge.  The record now keeps |W| under its cap there.
NONZERO = {
    # Xl-PT-Scarf beyond the sampler's m in (-2, 2): compatibility up to
    # 1.8e-9 on 2 of the 6 points with |m| in [30, 60) and ell >= 22
    ("Xl-PT-Scarf", "|m|=[30,60)", 512): (2, 0),
    ("Xl-PT-Scarf", "|m|=[30,60)", 4096): (2, 0),
}


@pytest.fixture(scope="module")
def cells():
    spec = importlib.util.spec_from_file_location("support_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(c.family, c.label, c.n_points): c for c in module.sweep()}


def test_cells(cells):
    # 3 X1 families with one point set, 3 Xl families at 11 ells, 2
    # small-c boxes and Scarf's |m| box, each at 3 n_points, 6 points per cell
    assert len(cells) == (3 + 3 * 11 + 2 + 1) * 3
    assert all(c.runs == 6 for c in cells.values())
    assert set(NONZERO) <= set(cells)


def test_counts(cells):
    got = {key: (c.failed, c.raised) for key, c in cells.items()
           if (c.failed, c.raised) != (0, 0)}
    assert got == NONZERO


def test_scarf_within_its_gates_up_to_the_degree_cap(cells):
    # the monomial basis on the imaginary axis: from ell = 16 on the series
    # about z = 1 failed 140 of the 396 runs of these cells at three grid
    # margins, with residuals up to 1.4e6
    scarf = [c for key, c in cells.items()
             if key[0] == "Xl-PT-Scarf" and key[1].startswith("ell=")]
    assert len(scarf) == 33
    assert max(c.worst for c in scarf) < 1e-9


def test_scarf_m_limit(cells):
    # the documented Scarf support keeps m in (-2, 2); at |m| >= 30 and high
    # degree the residuals reach the 1e-9 gate, and no run raises
    box = [c for key, c in cells.items() if key[1] == "|m|=[30,60)"]
    assert [c.n_points for c in box] == [16, 512, 4096]
    assert 1e-9 < max(c.worst for c in box) < 1e-8
