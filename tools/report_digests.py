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
(OUTSIDE_TRANSLATE: exit 2 and an empty report), `verify` on each X1
family with a c whose 2*c^2 underflows to 0 and with a c whose c^2 is
subnormal (SMALL_C: exit 2), `verify` on Xl-PT-Scarf at ell = 16, above
the sampler's ell (SCARF_ELL_16), `verify --sample` with an m list
(SAMPLE_WITH_M_LIST: exit 2), one setting per command that it does not
read (UNREAD: exit 2), `verify` on X1-hyperbolic below the sampler's c
box (PLATEAU_C) and on Xl-Poschl-Teller at ell = 64 with large
parameters (PT_ELL_64), `spectrum` on an X1-radial-oscillator point
outside the region (SPECTRUM_OUTSIDE: exit 2), `verify` on Xl-PT-Scarf at
an odd grid size, whose layout has x = 0 as a node (SCARF_ODD), and
`verify` on X1-radial-oscillator with an omega whose square overflows
(OVERFLOW_OMEGA: exit 2), and `spectrum` on X1-radial-oscillator with an
omega whose solve's squared residuals overflow (HUGE_OMEGA: exit 2), and
prints one line per report: the sha256 of its bytes, the command, the
family, the seed and the exit code.  A report that holds V+ levels (a
`spectrum` report, or a JSON `verify` report with the spectrum check) gets
a second digest on its line, of the report without the levels and their
error estimates (`plus` and `plus_error_estimates` of each spectrum
block), so a change to the eigensolver alone moves first digests only.
Then it prints one line per family for the sampler: the sha256 of the
repr of sample_valid_params(tag, 5, s) for every s in SAMPLER_SEEDS.  Running it on two checkouts and diffing the output
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
# a config file that sets every field but params and m_list, which exclude
# sample; all but format and out (standard output) differ from their defaults
EVERY_FIELD = {
    "family": "Xl-radial-oscillator",
    "sample": 2,
    "seed": 9,
    "checks": [*IDENTITY_CHECKS.split(","), "remainder", "spectrum"],
    "grid": {"n_points": 256, "boundary_margin": 0.04},
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

# c > 0 holds at these constants, but c^2, which every m edge of the X1
# families with a c divides by, is not a normal double: at c = 1e-200 2*c^2
# underflows to 0, and at c = 1e-160 c^2 is subnormal and k0, k1 lose their
# digits
SMALL_C = ("1e-200", "1e-160")
SMALL_C_PARAMS = '{{"m": 1.0, "c": {}, "beta": 0.5, "d": 1.0}}'

# above the sampler's ell <= 10: on z = i*sinh(x) the Jacobi series about
# z = 1 once put compatibility above its 1e-9 gate here
SCARF_ELL_16 = ("Xl-PT-Scarf", '{"m": 0.3, "B": -2.0, "ell": 16}')

# a sampled point's m would be drawn, validated and then dropped for the list
SAMPLE_WITH_M_LIST = ("Xl-radial-oscillator", ["--sample", "2", "--seed", "9",
                                               "--m-list=-2.5,-3.5"])

# settings that scan and spectrum do not read, as a flag and as a config
# file's key, on X1-radial-oscillator at SEEDS[0]
UNREAD = ("X1-radial-oscillator", ["--k", "3"], {"grid": {"n_points": 64}})

# X1-hyperbolic below the sampler's c box: W's plateau m*c - beta/c is 16.7
# at c = 0.03 (exit 0; the edge probe once found no window edge there) and
# 500 at c = 0.001, above the grid's cap (exit 2)
PLATEAU_C = ("0.03", "0.001")
PLATEAU_C_PARAMS = '{{"m": 1.0, "c": {}, "beta": -0.5, "d": 1.0}}'

# the kernel's reach, not the plateau, sets this grid's edge (the edge probe
# once found none)
PT_ELL_64 = ("Xl-Poschl-Teller", '{"m": 50.0, "B": -200.0, "ell": 64}')

# D+ = 7 - 2x^2 vanishes at x = 1.871, inside the spectral window: m = 2
# violates m < -(1 + 2*d)/2, which spectrum checks as verify does
SPECTRUM_OUTSIDE = ("X1-radial-oscillator", '{"m": 2.0, "omega": 2.0, "d": 1.0}')

# an odd grid size puts x = 0, Scarf's declared puncture, on a node of the
# symmetric layout: the one pole exclusion that acts, with its top-up
SCARF_ODD = ("Xl-PT-Scarf", "129")

# the far edge's slope omega squared overflows: outside the float support
OVERFLOW_OMEGA = ("X1-radial-oscillator", '{"m": -3.0, "omega": 1e160, "d": 1.0}')

# Gershgorin's bound on the spectral matrix reaches 4e160, whose square the
# solve's residuals would overflow: outside the float support
HUGE_OMEGA = ("X1-radial-oscillator", '{"m": -3.0, "omega": 1e80, "d": 1.0}')


# the sampler's seeds: each family's draws, 5 points per seed, digested together
SAMPLER_SEEDS = range(200)


def configs(tmp: Path):
    """(label, argv) of every report, in a fixed order; tmp is a directory
    for the config file."""
    for tag in catalog.FAMILY_TAGS:
        for seed in SEEDS:
            point = ["--family", tag, "--sample", "1", "--seed", str(seed)]
            p = catalog.sample_valid_params(tag, 1, seed)[0]
            yield f"verify {tag} seed={seed}", ["verify", *point, "--no-timestamp"]
            # an m list excludes sample: the sampled point goes in as params
            yield f"scan {tag} seed={seed}", ["scan", "--family", tag, "--params",
                                              json.dumps(p.to_dict()),
                                              f"--m-list={p.m!r},{p.m - 1.0!r},{p.m - 2.0!r}"]
            if tag in catalog.REAL_TAGS:
                yield f"spectrum {tag} seed={seed}", ["spectrum", *point, "--no-timestamp"]
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
    for c in SMALL_C:
        for tag in ("X1-hyperbolic", "X1-trigonometric"):
            yield (f"verify {tag} c={c}",
                   ["verify", "--family", tag, "--params", SMALL_C_PARAMS.format(c),
                    "--no-timestamp"])
    tag, params = SCARF_ELL_16
    yield f"verify {tag} ell=16", ["verify", "--family", tag, "--params", params,
                                   "--no-timestamp"]
    tag, flags = SAMPLE_WITH_M_LIST
    yield (f"verify {tag} sample-with-m-list",
           ["verify", "--family", tag, *flags, "--no-timestamp"])
    tag, flag, key = UNREAD
    point = ["--family", tag, "--sample", "1", "--seed", str(SEEDS[0])]
    yield f"scan {tag} seed={SEEDS[0]} {flag[0].lstrip('-')}={flag[1]}", ["scan", *point, *flag]
    path = tmp / "unread.json"
    path.write_text(json.dumps(key), encoding="utf-8")
    yield (f"spectrum {tag} seed={SEEDS[0]} config={','.join(key)}",
           ["spectrum", *point, "--config", str(path), "--no-timestamp"])
    for c in PLATEAU_C:
        yield (f"verify X1-hyperbolic c={c} beta=-0.5",
               ["verify", "--family", "X1-hyperbolic", "--params", PLATEAU_C_PARAMS.format(c),
                "--no-timestamp"])
    tag, params = PT_ELL_64
    yield f"verify {tag} ell=64", ["verify", "--family", tag, "--params", params,
                                   "--no-timestamp"]
    tag, params = SPECTRUM_OUTSIDE
    yield f"spectrum {tag} m=2", ["spectrum", "--family", tag, "--params", params,
                                  "--no-timestamp"]
    tag, n = SCARF_ODD
    yield (f"verify {tag} seed={SEEDS[0]} grid-points={n}",
           ["verify", "--family", tag, "--sample", "1", "--seed", str(SEEDS[0]),
            "--grid-points", n, "--no-timestamp"])
    tag, params = OVERFLOW_OMEGA
    yield f"verify {tag} omega=1e160", ["verify", "--family", tag, "--params", params,
                                        "--no-timestamp"]
    tag, params = HUGE_OMEGA
    yield f"spectrum {tag} omega=1e80", ["spectrum", "--family", tag, "--params", params,
                                         "--no-timestamp"]


def exit_code(argv) -> int:
    """main's exit code, that of the parser's SystemExit (2) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def without_levels(report: str) -> str | None:
    """The JSON report without the V+ levels and their error estimates, as
    the CLI writes it, or None for a report that holds no levels."""
    try:
        doc = json.loads(report)
    except ValueError:  # CSV, or no report
        return None
    blocks = [doc.get("spectrum")] + [r.get("spectrum") for r in doc.get("results", ())]
    blocks = [b for b in blocks if isinstance(b, dict) and "plus" in b]
    for block in blocks:
        for key in ("plus", "plus_error_estimates"):
            block.pop(key, None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n" if blocks else None


def digest(argv) -> tuple[str, int]:
    """The sha256 of the report that argv writes to standard output, and
    that of the report without its levels where it holds any, two spaces
    apart; and the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = exit_code(argv)
    report = out.getvalue()
    level_free = without_levels(report)
    digests = [_sha(report)] + ([] if level_free is None else [_sha(level_free)])
    return "  ".join(digests), code


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in configs(Path(tmp)):
            sha, code = digest(argv)
            print(f"{sha}  {label} exit={code}")
    for tag in catalog.FAMILY_TAGS:
        draws = [catalog.sample_valid_params(tag, 5, s) for s in SAMPLER_SEEDS]
        sha = _sha(repr(draws))
        print(f"{sha}  sample {tag} seeds={SAMPLER_SEEDS.start}..{SAMPLER_SEEDS.stop - 1} count=5")


if __name__ == "__main__":
    run()
