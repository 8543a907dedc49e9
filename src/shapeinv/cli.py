"""Command-line entry point.

Subcommands, each with its runner, default m list and the RunConfig fields
it reads (its flags, config keys and report echo) in COMMANDS:

  verify    run selected identity checks over one or more parameter points
            and write a JSON (or CSV) report of verdicts, residuals and
            tolerances; exit 0 iff every verdict passes, 1 on any violation,
            2 on input/config errors.
  scan      emit plot-ready CSV columns: x, epsilon(x) per requested m, and
            the partner potentials for real families, at one parameter
            point.  With --m-list m,m-1,m-2 its grid is the one verify uses
            for the same point.
  spectrum  run the isospectrality cross-check at one parameter point and
            one m, and report the V+ spectrum with its error estimates, the
            remainder R, its flatness and the Weyl bound on the level
            mismatch as JSON.

params or an m list with sample > 0 exits 2; scan and spectrum exit 2 on
--sample N > 1, and spectrum on an m list of more than one value, rather
than drop the rest.

A run's RunConfig is RunConfig's defaults, updated by a config file
(--config: one JSON object whose keys are fields the command reads, and
grid's GridSpec's; any other key exits 2), then by the flags that were given.
JSON reports are exactly json.dumps(doc, indent=2, sort_keys=True) plus a
newline, so floats take Python's shortest round-trip repr; CSV output
writes 17 significant digits.  Both round-trip every double, and
--no-timestamp makes reports byte-identical for identical configs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import catalog
from .conditions import (
    ALL_CHECKS,
    CHECK_NAMES,
    DEFAULT_TOL,
    SPECTRUM_TOL,
    TRANSLATION_TOL,
    check_tolerances,
    compatibility_lhs,
    grid_values,
    run_condition_checks,
)
from .errors import ShapeInvError, UsageError
from .spectral import (
    DEFAULT_LEVELS,
    DEFAULT_SPECTRUM_POINTS,
    check_isospectrality,
    partner_potentials,
    remainder,
)
from .superpotential import GridSpec, ParamPoint, make_grid, with_perturbation


@dataclasses.dataclass
class RunConfig:
    """One run's settings; __post_init__ checks each and turns m_list and
    checks into tuples."""

    family: str
    params: dict | None = None
    sample: int = 0
    seed: int = 0
    m_list: tuple | None = None  # None: the command's default
    checks: tuple = CHECK_NAMES
    grid: GridSpec = dataclasses.field(default_factory=GridSpec)
    tol: float = DEFAULT_TOL
    tolerances: dict | None = None
    format: str = "json"
    out: str | None = None
    no_timestamp: bool = False
    perturb: float = 0.0
    k: int = DEFAULT_LEVELS
    spectrum_points: int = DEFAULT_SPECTRUM_POINTS

    def __post_init__(self):
        for name in ("sample", "seed", "k", "spectrum_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:  # numpy's seeding takes no negative entropy
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.family not in catalog.FAMILY_TAGS:
            raise UsageError(
                f"unknown family {self.family!r}; known: {', '.join(catalog.FAMILY_TAGS)}"
            )
        if not isinstance(self.params, (dict, type(None))):
            raise UsageError(f"params must be a JSON object, got {self.params!r}")
        if not isinstance(self.m_list, (list, tuple, type(None))):
            raise UsageError(f"m_list must be a list of numbers, got {self.m_list!r}")
        try:
            self.m_list = tuple(float(v) for v in self.m_list or ()) or None
        except (TypeError, ValueError) as exc:
            raise UsageError(f"m_list: {exc}") from exc
        if not isinstance(self.checks, (list, tuple)):
            raise UsageError(f"checks must be a list of check names, got {self.checks!r}")
        self.checks = tuple(self.checks)
        if not self.checks:
            raise UsageError("at least one check must be selected")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise UsageError(f"unknown check {c!r}; known: {', '.join(ALL_CHECKS)}")
        if not isinstance(self.tolerances, (dict, type(None))):
            raise UsageError(f"tolerances must be an object, got {self.tolerances!r}")
        check_tolerances(overrides=self.tolerances)  # refuses an unknown check name
        named = [("tol", self.tol)]
        named += [(f"tolerances.{k}", v) for k, v in (self.tolerances or {}).items()]
        for name, v in named:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise UsageError(f"tolerances must be numbers, got {v!r}")
            if not (math.isfinite(v) and v > 0):  # nan fails every gate, inf opens it
                raise UsageError(f"{name} must be a finite number > 0, got {v!r}")
        if isinstance(self.perturb, bool) or not isinstance(self.perturb, (int, float)):
            raise UsageError(f"perturb must be a number, got {self.perturb!r}")
        if self.format not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.format!r}")
        if not isinstance(self.out, (str, type(None))):
            raise UsageError(f"out must be a path, got {self.out!r}")
        if self.params is None and self.sample < 1:
            raise UsageError("give --params or --sample N")
        if self.params is not None and self.sample > 0:
            raise UsageError(f"give params or sample, not both: params with sample {self.sample}")
        if self.m_list is not None and self.sample > 0:
            # the sampled points' m would be drawn, validated and then dropped
            raise UsageError(f"give m_list or sample, not both: m_list with sample {self.sample}")

    def tolerance_map(self) -> dict:
        return check_tolerances(self.tol, self.tolerances)


_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))
_GRID_FIELDS = tuple(f.name for f in dataclasses.fields(GridSpec))


def _param_point(data: dict) -> ParamPoint:
    unknown = set(data) - {f.name for f in dataclasses.fields(ParamPoint)}
    if unknown:
        raise UsageError(f"unknown parameter fields {sorted(unknown)}")
    if "m" not in data:
        raise UsageError("parameter record needs m")
    for k, v in data.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise UsageError(f"parameter {k} must be a number, got {v!r}")
    try:
        # ell goes in as given: ParamPoint rejects a non-integral one
        return ParamPoint(**{k: (v if k == "ell" else float(v)) for k, v in data.items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_params_arg(text: str):
    # an inline JSON object (text starting with '{') or the path of a file
    if not text.lstrip().startswith("{"):
        text = Path(text).read_text(encoding="utf-8")
    return json.loads(text)


def _split(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


# flags whose text is parsed here, inside main's error handling: bad text exits 2
_TEXT_FORMS = {"params": _load_params_arg, "m_list": _split, "checks": _split}


def _resolve_points(cfg: RunConfig) -> list[ParamPoint]:
    if cfg.params is not None:
        return [_param_point(cfg.params)]
    return catalog.sample_valid_params(cfg.family, cfg.sample, cfg.seed)


def _one_point(cfg: RunConfig, command: str) -> ParamPoint:
    """The one parameter point that scan and spectrum run."""
    if cfg.sample > 1:
        raise UsageError(f"{command} runs one parameter point: sample must be at most 1, "
                         f"got {cfg.sample}")
    return _resolve_points(cfg)[0]


def _family_for(cfg: RunConfig, point: ParamPoint):
    family = catalog.get_family(cfg.family, point)
    if cfg.perturb:
        family = with_perturbation(family, "wminus-slope", cfg.perturb)
    return family


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    Path(out).write_text(text, encoding="utf-8")


def _report_skeleton(cfg: RunConfig, command: str, **settings) -> dict:
    """The report's head: config echoes the point's and the given settings."""
    doc = {
        "schema": "shapeinv-report-v1",
        "command": command,
        "config": {"family": cfg.family, "seed": cfg.seed, "sample": cfg.sample,
                   "perturb": cfg.perturb, **settings},
    }
    if not cfg.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


def _m_values(cfg: RunConfig, point: ParamPoint, command: str) -> tuple:
    """--m-list, else the command's default translates of the point's m."""
    return cfg.m_list or tuple(point.m - t for t in COMMANDS[command].m_translates)


def _verify_one(cfg: RunConfig, index: int, point: ParamPoint) -> dict:
    family = _family_for(cfg, point)
    m_list = _m_values(cfg, point, "verify")
    tols = cfg.tolerance_map()

    # every m that the identity checks and the remainder read, gated by the
    # region and evaluated once: m_list and its translate m_list[0] - 1
    m_read = tuple(dict.fromkeys(m_list + (m_list[0] - 1.0,)))
    grid = make_grid(family, cfg.grid, m_values=m_read)
    values = grid_values(family, grid, m_read)
    report = run_condition_checks(
        family,
        grid,
        m_list,
        checks=tuple(c for c in cfg.checks if c in CHECK_NAMES),  # the CLI runs the rest
        tolerances=tols,
        grid_spec=cfg.grid,
        values=values,
    )
    extra = {"param_index": index}
    if "remainder" in cfg.checks:
        r, flat = remainder(family, m_list[0], grid, values=values)
        extra["remainder"] = r
        report.record("remainder", tols["remainder"], remainder_flatness=flat)
        if family.expected_ab is not None:
            # compatibility cancels W1, and Infeld-Hull leaves R(m) = (2m - 1)a - 2b
            a, b = family.expected_ab
            report.record("remainder_match", tols["remainder"],
                          remainder_match=abs(r - ((2.0 * m_list[0] - 1.0) * a - 2.0 * b)))
    if "spectrum" in cfg.checks:
        iso = check_isospectrality(family, m_list[0], k=cfg.k, n_points=cfg.spectrum_points)
        report.record("spectrum", tols["spectrum"], spectrum_mismatch=iso.mismatch)
        extra["spectrum"] = {
            "plus": iso.spectrum_plus.eigenvalues.tolist(),
            "remainder": iso.remainder_value,
            "window": list(iso.window),
        }
    return {**report.to_dict(), **extra}


def cmd_verify(cfg: RunConfig) -> int:
    points = _resolve_points(cfg)
    results = [_verify_one(cfg, i, p) for i, p in enumerate(points)]

    settings = {"checks": list(cfg.checks), "grid_points": cfg.grid.n_points,
                "tolerances": cfg.tolerance_map()}
    if "spectrum" in cfg.checks:
        settings.update(k=cfg.k, spectrum_points=cfg.spectrum_points)
    doc = _report_skeleton(cfg, "verify", **settings)
    doc["results"] = results
    doc["overall_pass"] = all(r["passed"] for r in results)

    if cfg.format == "json":
        _write_text(cfg.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["param_index,check,residual,tolerance,pass"]
        for r in results:
            tols = r["tolerances"]
            for name, residual in sorted(r["residuals"].items()):
                # a residual's own tolerance, else that of its check
                tol = tols[name] if name in tols else tols[name.partition("_")[0]]
                lines.append(
                    f"{r['param_index']},{name},{_fmt17(residual)},{_fmt17(tol)},{residual < tol}"
                )
        _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0 if doc["overall_pass"] else 1


def cmd_scan(cfg: RunConfig) -> int:
    point = _one_point(cfg, "scan")
    family = _family_for(cfg, point)
    m_list = _m_values(cfg, point, "scan")
    grid = make_grid(family, cfg.grid, m_values=m_list)

    columns: list[tuple[str, np.ndarray]] = [("x", grid)]
    values = grid_values(family, grid, m_list)
    for m in m_list:
        eps = np.asarray(compatibility_lhs(family, m, grid, values=values), dtype=complex)
        columns.append((f"eps[m={m:g}]_re", eps.real))
        columns.append((f"eps[m={m:g}]_im", eps.imag))
    if family.is_real:
        v_minus, v_plus = partner_potentials(family, m_list[0], grid, values=values)
        columns.append(("V_minus", v_minus.values))
        columns.append(("V_plus", v_plus.values))

    lines = [",".join(name for name, _ in columns)]
    for i in range(grid.size):
        lines.append(",".join(_fmt17(float(col[i])) for _, col in columns))
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    point = _one_point(cfg, "spectrum")
    m_list = _m_values(cfg, point, "spectrum")
    if len(m_list) > 1:
        raise UsageError(f"spectrum runs one m: m_list must hold one value, got {len(m_list)}")
    m = m_list[0]
    family = _family_for(cfg, point)
    iso = check_isospectrality(family, m, k=cfg.k, n_points=cfg.spectrum_points)

    doc = _report_skeleton(cfg, "spectrum")
    doc["spectrum"] = {
        "k": cfg.k,
        "m": m,
        "window": list(iso.window),
        "grid_points": cfg.spectrum_points,
        "remainder": iso.remainder_value,
        "flatness_residual": iso.flatness_residual,
        "plus": iso.spectrum_plus.eigenvalues.tolist(),
        "plus_error_estimates": iso.spectrum_plus.error_estimates.tolist(),
        "mismatch": iso.mismatch,
        "tolerance": cfg.tolerance_map()["spectrum"],
    }
    doc["overall_pass"] = iso.mismatch < doc["spectrum"]["tolerance"]
    _write_text(cfg.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if doc["overall_pass"] else 1


class Command(NamedTuple):
    run: Callable[[RunConfig], int]
    help: str
    m_translates: tuple  # the default m list: m - t for each t
    reads: tuple  # the RunConfig fields it reads: its flags, config keys and echo


_POINT = ("family", "params", "sample", "seed", "m_list", "out", "perturb")
COMMANDS = {
    "verify": Command(cmd_verify, "run identity checks and write a report",
                      (0.0, 1.0, 2.0), _FIELDS),
    "scan": Command(cmd_scan, "emit CSV samples of epsilon(x) and the partner potentials",
                    (0.0, 1.0), _POINT + ("grid",)),
    "spectrum": Command(cmd_spectrum, "isospectrality cross-check via the constant-shift route",
                        (0.0,), _POINT + ("tolerances", "no_timestamp", "k", "spectrum_points")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args keeps no state.
    A subcommand has the flags of the fields it reads, each with its field as
    dest (but --config, and --grid-points: grid), default None: not given."""
    p = argparse.ArgumentParser(
        prog="shapeinv",
        description="Verify shape-invariance identities of rationally extended "
                    "superpotential families and cross-validate their spectra.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        m_default = ", ".join(f"m-{t:g}" if t else "m" for t in spec.m_translates)
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        flags = {
            "--family": {"help": "family tag, e.g. X1-radial-oscillator"},
            "--params": {"help": "inline JSON object (text starting with '{') or path to one"},
            "--sample": {"type": int, "metavar": "N",
                         "help": "draw N valid parameter points instead of --params"},
            "--seed": {"type": int},
            "--m-list": {"help": f"comma-separated m values (default: {m_default})"},
            "--checks": {"help": f"comma-separated subset of {','.join(ALL_CHECKS)}"},
            "--grid-points": {"type": int},
            "--tol": {"type": float, "help": (
                f"tolerance of every check but translation ({TRANSLATION_TOL:g}) and spectrum "
                f"({SPECTRUM_TOL:g}), default {DEFAULT_TOL:g}; config key tolerances sets one")},
            "--format": {"choices": ("json", "csv"), "help": "report format (default: json)"},
            "--out": {"help": "output path (default: stdout)"},
            "--no-timestamp": {"action": "store_true", "default": None},
            "--perturb": {"type": float, "help": argparse.SUPPRESS},
            "--k": {"type": int, "help": f"levels for spectral checks (default {DEFAULT_LEVELS})"},
            "--spectrum-points": {"type": int},
        }
        for flag, options in flags.items():
            if ("grid" if flag == "--grid-points" else flag[2:].replace("-", "_")) in spec.reads:
                sp.add_argument(flag, **options)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """{**config file, **given flags} as a RunConfig."""
    reads = COMMANDS[args.command].reads
    file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise UsageError("config file must hold a JSON object")
    grid = file_cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise UsageError(f"grid must be an object, got {grid!r}")
    unknown = "; ".join(f"unknown {what} fields {sorted(bad)}" for what, bad in (
        ("config", set(file_cfg).difference(reads)),
        ("grid", set(grid).difference(_GRID_FIELDS))) if bad)
    if unknown:
        raise UsageError(unknown)
    if getattr(args, "grid_points", None) is not None:
        grid = {**grid, "n_points": args.grid_points}
    try:
        grid = GridSpec(**grid)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"grid: {exc}") from exc

    merged = {**file_cfg, "grid": grid}
    for name in reads:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = _TEXT_FORMS[name](value) if name in _TEXT_FORMS else value
    if not merged.get("family"):
        raise UsageError("--family is required (flag or config file)")
    return RunConfig(**merged)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(_config_from_args(args))
    except (ShapeInvError, OSError, json.JSONDecodeError) as exc:
        print(f"shapeinv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
