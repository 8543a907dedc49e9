"""The fail and raise counts of every cell of tools/support_sweep.py, as a
literal table: a change that moves the documented support, either way,
must say so here."""

import importlib.util
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "support_sweep.py"

# (family, label, n_points, boundary_margin) -> (failed, raised), for every
# cell with a failed or raised run; every other cell has neither
NONZERO = {
    # compatibility up to 2.7e-9 at the grid's inner edge: the kernel's
    # u = (cosh(x) - 1)/2 carries the rounding of cosh(x) near x = 0
    ("Xl-Poschl-Teller", "ell=64", 16, 0.001): (3, 0),
    ("Xl-Poschl-Teller", "ell=64", 512, 0.001): (3, 0),
    ("Xl-Poschl-Teller", "ell=64", 4096, 0.001): (3, 0),
    # below the sampler's c box, at margin 0.001: infeld_hull up to 4.6e-8
    # next to x = 0, where k0 ~ (-beta/c^2 + d/c)/x cancels in -k0' - k1*k0.
    # The edge probe once raised "no evaluable window edge found" (exit 2)
    # on 4 of the 6 points with c < 0.1 at every margin, so only 2 of them
    # ran and failed
    ("X1-hyperbolic", "c=[0.03,0.1)", 16, 0.001): (6, 0),
    ("X1-hyperbolic", "c=[0.03,0.1)", 512, 0.001): (6, 0),
    ("X1-hyperbolic", "c=[0.03,0.1)", 4096, 0.001): (6, 0),
    ("X1-hyperbolic", "c=[0.1,0.5)", 16, 0.001): (2, 0),
    ("X1-hyperbolic", "c=[0.1,0.5)", 512, 0.001): (2, 0),
    ("X1-hyperbolic", "c=[0.1,0.5)", 4096, 0.001): (2, 0),
}


@pytest.fixture(scope="module")
def cells():
    spec = importlib.util.spec_from_file_location("support_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(c.family, c.label, c.n_points, c.margin): c for c in module.sweep()}


def test_cells(cells):
    # 3 X1 families with one point set, 3 Xl families at 11 ells, and 2
    # small-c boxes, each at 3 n_points and 3 margins, 6 points per cell
    assert len(cells) == (3 + 3 * 11 + 2) * 9
    assert all(c.runs == 6 for c in cells.values())
    assert set(NONZERO) <= set(cells)


def test_counts(cells):
    got = {key: (c.failed, c.raised) for key, c in cells.items()
           if (c.failed, c.raised) != (0, 0)}
    assert got == NONZERO


def test_scarf_within_its_gates_up_to_the_degree_cap(cells):
    # the monomial basis on the imaginary axis: from ell = 16 on the series
    # about z = 1 failed 140 of these 396 runs, with residuals up to 1.4e6
    scarf = [c for key, c in cells.items() if key[0] == "Xl-PT-Scarf"]
    assert len(scarf) == 99
    assert max(c.worst for c in scarf) < 1e-9
