"""The exit code of every report in tools/report_digests.py, as a literal
list: a change that moves report digests by rounding must not also flip a
verdict unnoticed."""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import pytest


DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"

EXPECTED = [
    ("verify X1-hyperbolic seed=3", 0),
    ("scan X1-hyperbolic seed=3", 0),
    ("spectrum X1-hyperbolic seed=3", 0),
    ("verify X1-hyperbolic seed=7", 0),
    ("scan X1-hyperbolic seed=7", 0),
    ("spectrum X1-hyperbolic seed=7", 0),
    ("verify X1-hyperbolic seed=11", 0),
    ("scan X1-hyperbolic seed=11", 0),
    ("spectrum X1-hyperbolic seed=11", 0),
    ("verify X1-radial-oscillator seed=3", 0),
    ("scan X1-radial-oscillator seed=3", 0),
    ("spectrum X1-radial-oscillator seed=3", 0),
    ("verify X1-radial-oscillator seed=7", 0),
    ("scan X1-radial-oscillator seed=7", 0),
    ("spectrum X1-radial-oscillator seed=7", 0),
    ("verify X1-radial-oscillator seed=11", 0),
    ("scan X1-radial-oscillator seed=11", 0),
    ("spectrum X1-radial-oscillator seed=11", 0),
    ("verify X1-trigonometric seed=3", 0),
    ("scan X1-trigonometric seed=3", 0),
    ("spectrum X1-trigonometric seed=3", 0),
    ("verify X1-trigonometric seed=7", 0),
    ("scan X1-trigonometric seed=7", 0),
    ("spectrum X1-trigonometric seed=7", 0),
    ("verify X1-trigonometric seed=11", 0),
    ("scan X1-trigonometric seed=11", 0),
    ("spectrum X1-trigonometric seed=11", 0),
    ("verify Xl-Poschl-Teller seed=3", 0),
    ("scan Xl-Poschl-Teller seed=3", 0),
    ("spectrum Xl-Poschl-Teller seed=3", 0),
    ("verify Xl-Poschl-Teller seed=7", 0),
    ("scan Xl-Poschl-Teller seed=7", 0),
    ("spectrum Xl-Poschl-Teller seed=7", 0),
    ("verify Xl-Poschl-Teller seed=11", 0),
    ("scan Xl-Poschl-Teller seed=11", 0),
    ("spectrum Xl-Poschl-Teller seed=11", 0),
    ("verify Xl-PT-Scarf seed=3", 0),
    ("scan Xl-PT-Scarf seed=3", 0),
    ("verify Xl-PT-Scarf seed=7", 0),
    ("scan Xl-PT-Scarf seed=7", 0),
    ("verify Xl-PT-Scarf seed=11", 0),
    ("scan Xl-PT-Scarf seed=11", 0),
    ("verify Xl-radial-oscillator seed=3", 0),
    ("scan Xl-radial-oscillator seed=3", 0),
    ("spectrum Xl-radial-oscillator seed=3", 0),
    ("verify Xl-radial-oscillator seed=7", 0),
    ("scan Xl-radial-oscillator seed=7", 0),
    ("spectrum Xl-radial-oscillator seed=7", 0),
    ("verify Xl-radial-oscillator seed=11", 0),
    ("scan Xl-radial-oscillator seed=11", 0),
    ("spectrum Xl-radial-oscillator seed=11", 0),
    ("verify Xl-Poschl-Teller seed=5 perturb=0.01", 1),
    ("verify Xl-PT-Scarf seed=5 perturb=0.01", 1),
    ("verify Xl-radial-oscillator seed=5 perturb=0.01", 1),
    ("verify X1-hyperbolic seed=3 checks=compatibility,remainder,spectrum", 0),
    ("verify X1-radial-oscillator seed=3 checks=compatibility,remainder,spectrum", 0),
    ("verify X1-trigonometric seed=3 checks=compatibility,remainder,spectrum", 0),
    ("verify Xl-Poschl-Teller seed=3 checks=compatibility,remainder,spectrum", 0),
    ("verify Xl-radial-oscillator seed=3 checks=compatibility,remainder,spectrum", 0),
    ("verify X1-hyperbolic seed=3 format=csv", 0),
    ("verify X1-radial-oscillator seed=3 format=csv", 0),
    ("verify X1-trigonometric seed=3 format=csv", 0),
    ("verify Xl-Poschl-Teller seed=3 format=csv", 0),
    ("verify Xl-PT-Scarf seed=3 format=csv", 0),
    ("verify Xl-radial-oscillator seed=3 format=csv", 0),
    ("verify Xl-radial-oscillator config=every-field", 1),
    ("verify X1-hyperbolic m-list=0.3,1.3", 2),
    ("verify X1-hyperbolic c=1e-200", 2),
    ("verify X1-trigonometric c=1e-200", 2),
    ("verify X1-hyperbolic c=1e-160", 2),
    ("verify X1-trigonometric c=1e-160", 2),
    ("verify Xl-PT-Scarf ell=16", 0),
    ("verify Xl-radial-oscillator sample-with-m-list", 2),
    ("scan X1-radial-oscillator seed=3 k=3", 2),
    ("spectrum X1-radial-oscillator seed=3 config=grid_points", 2),
    # the edge probe exited 2 on the first and the last: no window edge
    ("verify X1-hyperbolic c=0.03 beta=-0.5", 0),
    ("verify X1-hyperbolic c=0.001 beta=-0.5", 2),
    ("verify Xl-Poschl-Teller ell=64", 0),
    # spectrum once ran this point, with a pole in its window, and exited 0
    ("spectrum X1-radial-oscillator m=2", 2),
    ("verify Xl-PT-Scarf seed=3 grid-points=129", 0),
    # the far edge's OverflowError once exited 1 with a traceback
    ("verify X1-radial-oscillator omega=1e160", 2),
    # the solve once exited 0 after RuntimeWarnings, with levels near 2.5e157
    ("spectrum X1-radial-oscillator omega=1e80", 2),
    # the wall cap, not the 1e-4 floor, places the left wall
    ("spectrum X1-hyperbolic c=0.05 beta=-0.5", 0),
    # dstebz once refused level 401 of the window's 400-node probe: exit 2
    ("spectrum X1-radial-oscillator k=401 spectrum-points=3208", 0),
    # the remainder's flatness once read 2.7e-7 here, eps*W^2 at a near end
    # 0.05 from x = 0: exit 1
    ("verify X1-hyperbolic c=0.0245 checks=compatibility,remainder", 0),
    # the grid's near end once was this config key: exit 0
    ("verify X1-hyperbolic config=grid.boundary_margin", 2),
    # the wall from the family's record reaches the floor, where a sampled
    # one stopped at 0.1; eps*V puts the mismatch at 2.0e-3 either way
    ("spectrum X1-radial-oscillator omega=1e6", 1),
    # PolySpec's ValueError at m = nan once escaped main: exit 1
    ("verify Xl-PT-Scarf m-list=nan,0.3", 2),
]


def load_digests():
    spec = importlib.util.spec_from_file_location("report_digests", DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digests():
    return load_digests()


@pytest.fixture(scope="module")
def configs(digests, tmp_path_factory):
    return dict(digests.configs(tmp_path_factory.mktemp("configs")))


def test_every_config_has_an_expected_code(configs):
    assert list(configs) == [label for label, _ in EXPECTED]


@pytest.mark.parametrize("label, code", EXPECTED)
def test_exit_code(digests, configs, label, code):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert digests.exit_code(configs[label]) == code


def test_file_descriptor_1_stays_out_of_the_listing(digests, monkeypatch, capfd):
    # LAPACK's error text goes to file descriptor 1 past sys.stdout; it once
    # put a line of its own between two of the listing's
    def quiet(argv):
        print('{"report": 1}')
        return 0

    def noisy(argv):
        os.write(1, b" ** On entry to DSTEBZ parameter number  7 had an illegal value\n")
        return quiet(argv)

    monkeypatch.setattr(digests, "configs", lambda tmp: [("stand-in", [])])
    monkeypatch.setattr(digests, "SAMPLER_SEEDS", range(1))
    listings = []
    for main in (quiet, noisy):
        monkeypatch.setattr(digests, "main", main)
        digests.run()
        listings.append(capfd.readouterr())
    assert listings[1].out == listings[0].out
    assert "DSTEBZ" in listings[1].err and "DSTEBZ" not in listings[1].out
