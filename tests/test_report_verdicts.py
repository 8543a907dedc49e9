"""The exit code of every report in tools/report_digests.py, as a literal
list: a change that moves report digests by rounding must not also flip a
verdict unnoticed."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from shapeinv.cli import main

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
]


def load_digests():
    spec = importlib.util.spec_from_file_location("report_digests", DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    return dict(load_digests().configs(tmp_path_factory.mktemp("configs")))


def test_every_config_has_an_expected_code(configs):
    assert list(configs) == [label for label, _ in EXPECTED]


@pytest.mark.parametrize("label, code", EXPECTED)
def test_exit_code(configs, label, code):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(configs[label]) == code
