"""sha256 digests of the `--no-timestamp` reports on a fixed set of configs.

Run from anywhere, with no arguments:

    python3 tools/report_digests.py

It imports shapeinv from the src/ of the checkout it lives in, runs
`verify`, `scan --m-list m,m-1,m-2` and `spectrum` on each family at the
sample points of SEEDS, `verify --perturb` on one point per Xl family, and
`verify --checks` with the remainder and spectrum checks on one point per
real family, `verify --format csv` on one point per family (every check
that the family supports), `verify --config` on a file that sets every
config field (EVERY_FIELD, written to a temporary directory), and
`verify --m-list` on a list whose first translate m - 1 leaves the region
(OUTSIDE_TRANSLATE: exit 2 and an empty report), and `verify` on each X1
family with a c whose 2*c^2 underflows to 0 (UNDERFLOW_C: exit 2), and prints
one line per report: the sha256 of its bytes, the command, the family, the
seed and the exit code.  Then it prints one line per family for the
sampler: the sha256 of the repr of sample_valid_params(tag, 5, s) for every
s in SAMPLER_SEEDS.  Running it on two checkouts and diffing the output
lists every report, and every family's draws, that a change alters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shapeinv import catalog  # noqa: E402
from shapeinv.cli import main  # noqa: E402

# each family at sample_valid_params(tag, 1, seed) for these seeds
SEEDS = (3, 7, 11)
# the perturbed controls: one point per Xl family, W1- += PERTURB * x
CONTROL_SEED = 5
PERTURB = "0.01"
# verify's checks that read the remainder's shared W table and solve a
# spectrum, on each real family at its sample_valid_params(tag, 1, SEEDS[0])
CHECKS = "compatibility,remainder,spectrum"
# the CSV report's checks: the five identity checks on every family, and
# the remainder and spectrum on the real ones (complex families have no spectra)
IDENTITY_CHECKS = "translation,compatibility,infeld_hull,algebra,equivalence"
# a config file that sets every field; all but format and out (standard output)
# differ from their defaults
EVERY_FIELD = {
    "family": "Xl-radial-oscillator",
    "params": {"m": -2.5, "omega": 1.5, "ell": 2},
    "sample": 2,
    "seed": 9,
    "m_list": [-2.5, -3.5],
    "checks": [*IDENTITY_CHECKS.split(","), "remainder", "spectrum"],
    "grid": {"n_points": 256, "boundary_margin": 0.04, "pole_exclusion_radius": 2e-3},
    "tol": 1e-8,
    "tolerances": {"compatibility": 1e-10},
    "format": "json",
    "out": "-",
    "no_timestamp": True,
    "perturb": 1e-3,
    "k": 3,
    "spectrum_points": 1000,
}

# m and m + 1 lie in X1-hyperbolic's region m > 0 at these constants, the
# translate m - 1 that verify also reads does not
OUTSIDE_TRANSLATE = ("X1-hyperbolic", '{"m": 0.3, "c": 1.0, "beta": 0.5, "d": 1.0}', "0.3,1.3")

# c > 0 holds at these constants, but 2*c^2, by which every m edge of the X1
# families with a c divides, underflows to 0
UNDERFLOW_C = '{"m": 1.0, "c": 1e-200, "beta": 0.5, "d": 1.0}'


# the sampler's seeds: each family's draws, 5 points per seed, digested together
SAMPLER_SEEDS = range(200)


def configs(tmp: Path):
    """(label, argv) of every report, in a fixed order; tmp is a directory
    for the config file."""
    for tag in catalog.FAMILY_TAGS:
        for seed in SEEDS:
            point = ["--family", tag, "--sample", "1", "--seed", str(seed), "--no-timestamp"]
            m = catalog.sample_valid_params(tag, 1, seed)[0].m
            yield f"verify {tag} seed={seed}", ["verify", *point]
            yield f"scan {tag} seed={seed}", ["scan", *point, f"--m-list={m!r},{m - 1.0!r},{m - 2.0!r}"]
            if tag in catalog.REAL_TAGS:
                yield f"spectrum {tag} seed={seed}", ["spectrum", *point]
    for tag in catalog.FAMILY_TAGS:
        if tag.startswith("Xl-"):
            yield (f"verify {tag} seed={CONTROL_SEED} perturb={PERTURB}",
                   ["verify", "--family", tag, "--sample", "1", "--seed", str(CONTROL_SEED),
                    "--perturb", PERTURB, "--no-timestamp"])
    for tag in catalog.REAL_TAGS:
        yield (f"verify {tag} seed={SEEDS[0]} checks={CHECKS}",
               ["verify", "--family", tag, "--sample", "1", "--seed", str(SEEDS[0]),
                "--checks", CHECKS, "--no-timestamp"])
    for tag in catalog.FAMILY_TAGS:
        checks = IDENTITY_CHECKS + (",remainder,spectrum" if tag in catalog.REAL_TAGS else "")
        yield (f"verify {tag} seed={SEEDS[0]} format=csv",
               ["verify", "--family", tag, "--sample", "1", "--seed", str(SEEDS[0]),
                "--checks", checks, "--format", "csv", "--no-timestamp"])
    path = tmp / "every-field.json"
    path.write_text(json.dumps(EVERY_FIELD), encoding="utf-8")
    yield f"verify {EVERY_FIELD['family']} config=every-field", ["verify", "--config", str(path)]
    tag, params, m_list = OUTSIDE_TRANSLATE
    yield (f"verify {tag} m-list={m_list}",
           ["verify", "--family", tag, "--params", params, "--m-list", m_list, "--no-timestamp"])
    for tag in ("X1-hyperbolic", "X1-trigonometric"):
        yield (f"verify {tag} c=1e-200",
               ["verify", "--family", tag, "--params", UNDERFLOW_C, "--no-timestamp"])


def digest(argv) -> tuple[str, int]:
    """The sha256 of the report that argv writes to standard output, and
    the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in configs(Path(tmp)):
            sha, code = digest(argv)
            print(f"{sha}  {label} exit={code}")
    for tag in catalog.FAMILY_TAGS:
        draws = [catalog.sample_valid_params(tag, 5, s) for s in SAMPLER_SEEDS]
        sha = hashlib.sha256(repr(draws).encode("utf-8")).hexdigest()
        print(f"{sha}  sample {tag} seeds={SAMPLER_SEEDS.start}..{SAMPLER_SEEDS.stop - 1} count=5")


if __name__ == "__main__":
    run()
