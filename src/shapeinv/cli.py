"""Command-line entry point.

Subcommands:

  verify    run selected identity checks over one or more parameter points
            and write a JSON (or CSV) report; exit 0 iff every verdict passes,
            1 on any violation, 2 on input/config errors.
  scan      emit plot-ready CSV columns: x, epsilon(x) per requested m, and
            the partner potentials for real families.
  spectrum  run the isospectrality cross-check and report both spectra, the
            remainder R and the level mismatch as JSON.

A config file (--config, single JSON object) provides the same fields as the
flags; explicit flags win.  JSON reports are exactly
json.dumps(doc, indent=2, sort_keys=True) plus a newline, so floats take
Python's shortest round-trip repr; CSV output writes 17 significant digits.
Both round-trip every double, and --no-timestamp makes reports
byte-identical for identical configs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import catalog
from .conditions import (
    CHECK_NAMES,
    DEFAULT_TOL,
    TRANSLATION_TOL,
    compatibility_lhs,
    run_condition_checks,
)
from .errors import ShapeInvError, UsageError
from .spectral import check_isospectrality, partner_potentials, remainder
from .superpotential import GridSpec, ParamPoint, make_grid, with_perturbation

ALL_CHECKS = CHECK_NAMES + ("remainder", "spectrum")
_SPECTRUM_TOL = 1e-4


@dataclasses.dataclass
class RunConfig:
    family: str
    params: dict | None = None
    sample: int = 0
    seed: int = 0
    m_list: list | None = None
    checks: tuple = CHECK_NAMES
    grid: GridSpec = dataclasses.field(default_factory=GridSpec)
    tol: float = DEFAULT_TOL
    tolerances: dict | None = None
    fmt: str = "json"
    out: str | None = None
    no_timestamp: bool = False
    perturb: float = 0.0
    k: int = 5
    spectrum_points: int = 4000

    def __post_init__(self):
        for name in ("sample", "seed", "k", "spectrum_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.family not in catalog.FAMILY_TAGS:
            raise UsageError(
                f"unknown family {self.family!r}; known: {', '.join(catalog.FAMILY_TAGS)}"
            )
        if not self.checks:
            raise UsageError("at least one check must be selected")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise UsageError(f"unknown check {c!r}; known: {', '.join(ALL_CHECKS)}")
        if self.tol <= 0:
            raise UsageError("tolerances must be > 0")
        for v in (self.tolerances or {}).values():
            if v <= 0:
                raise UsageError("tolerances must be > 0")
        if self.fmt not in ("json", "csv"):
            raise UsageError("format must be json or csv")
        if self.params is None and self.sample < 1:
            raise UsageError("give --params or --sample N")

    def tolerance_map(self) -> dict:
        tols = {name: self.tol for name in ("compatibility", "infeld_hull",
                                            "algebra", "equivalence")}
        tols["translation"] = TRANSLATION_TOL
        tols["remainder"] = self.tol
        tols["spectrum"] = _SPECTRUM_TOL
        tols.update(self.tolerances or {})
        return tols


def _param_point(data: dict) -> ParamPoint:
    known = {"m", "c", "beta", "d", "omega", "B", "ell"}
    unknown = set(data) - known
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


def _load_params_arg(text: str) -> dict:
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
    else:
        payload = json.loads(Path(text).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise UsageError("--params must be a JSON object (inline or file)")
    return payload


def _resolve_points(cfg: RunConfig) -> list[ParamPoint]:
    if cfg.params is not None:
        return [_param_point(cfg.params)]
    return catalog.sample_valid_params(cfg.family, cfg.sample, cfg.seed)


def _entry_for(cfg: RunConfig, point: ParamPoint):
    entry = catalog.get_family(cfg.family, point)
    family = entry.family
    if cfg.perturb:
        family = with_perturbation(family, "wminus-slope", cfg.perturb)
    return entry, family


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def _dump_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The indent encoder is pure Python, and each result's epsilon_samples
    holds about 1500 floats.  Those rows of numbers go through the C
    encoder in one call per result, which spells numbers as the indent
    encoder does, and its separators are widened to the indentation of the
    placeholder they replace.
    """
    samples = {}
    if doc.get("results"):
        doc = dict(doc)
        results = doc["results"] = list(doc["results"])
        for i, r in enumerate(results):
            rows = r.get("epsilon_samples")
            if rows and all(rows):  # an empty row would print as []
                token = f"\0epsilon_samples {i}"
                samples[json.dumps(token)] = rows
                results[i] = {**r, "epsilon_samples": token}
    text = json.dumps(doc, indent=2, sort_keys=True)
    pieces, pos = [], 0
    for token, rows in samples.items():
        at = text.index(token, pos)
        pad = " " * (at - text.rindex("\n", 0, at) - 1 - len('"epsilon_samples": '))
        row, item = pad + "  ", pad + "    "
        body = (json.dumps(rows)[2:-2]
                .replace("], [", f"\n{row}],\n{row}[\n{item}")
                .replace(", ", f",\n{item}"))
        pieces += [text[pos:at], f"[\n{row}[\n{item}", body, f"\n{row}]\n{pad}]"]
        pos = at + len(token)
    pieces += [text[pos:], "\n"]
    return "".join(pieces)


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    Path(out).write_text(text, encoding="utf-8")


def _report_skeleton(cfg: RunConfig, command: str) -> dict:
    doc = {
        "schema": "shapeinv-report-v1",
        "command": command,
        "config": {
            "family": cfg.family,
            "checks": list(cfg.checks),
            "grid_points": cfg.grid.n_points,
            "tolerances": cfg.tolerance_map(),
            "seed": cfg.seed,
            "sample": cfg.sample,
            "perturb": cfg.perturb,
        },
    }
    if not cfg.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


def _verify_one(cfg: RunConfig, index: int, point: ParamPoint) -> dict:
    entry, family = _entry_for(cfg, point)
    m_list = tuple(cfg.m_list) if cfg.m_list else (point.m, point.m - 1.0, point.m - 2.0)
    condition_checks = tuple(c for c in cfg.checks if c in CHECK_NAMES)
    tols = cfg.tolerance_map()

    grid = make_grid(family, cfg.grid, m_values=m_list)
    report = run_condition_checks(
        family,
        grid,
        m_list,
        checks=condition_checks,
        tolerances=tols,
        grid_spec=cfg.grid,
        expected_ab=(entry.expected_a, entry.expected_b),
    )
    result = report.to_dict()
    result["param_index"] = index

    if "remainder" in cfg.checks:
        r, flat = remainder(family, m_list[0], grid)
        result["residuals"]["remainder_flatness"] = flat
        result["tolerances"]["remainder"] = tols["remainder"]
        result["verdicts"]["remainder"] = flat < tols["remainder"]
        result["remainder"] = r
    if "spectrum" in cfg.checks:
        iso = check_isospectrality(family, m_list[0], k=cfg.k, n_points=cfg.spectrum_points)
        result["residuals"]["spectrum_mismatch"] = iso.mismatch
        result["tolerances"]["spectrum"] = tols["spectrum"]
        result["verdicts"]["spectrum"] = iso.mismatch < tols["spectrum"]
        result["spectrum"] = {
            "plus": iso.spectrum_plus.eigenvalues.tolist(),
            "minus": iso.spectrum_minus.eigenvalues.tolist(),
            "remainder": iso.remainder_value,
            "window": list(iso.window),
        }
    result["passed"] = all(result["verdicts"].values())
    return result


def cmd_verify(cfg: RunConfig) -> int:
    points = _resolve_points(cfg)
    results = [_verify_one(cfg, i, p) for i, p in enumerate(points)]

    doc = _report_skeleton(cfg, "verify")
    doc["results"] = results
    doc["overall_pass"] = all(r["passed"] for r in results)

    if cfg.fmt == "json":
        _write_text(cfg.out, _dump_json(doc))
    else:
        lines = ["param_index,check,residual,tolerance,pass"]
        for r in results:
            for name in sorted(r["residuals"]):
                base = name
                if name.startswith("equivalence"):
                    base = "equivalence"
                elif name == "remainder_flatness":
                    base = "remainder"
                elif name == "spectrum_mismatch":
                    base = "spectrum"
                tol = r["tolerances"].get(name, r["tolerances"].get(base, cfg.tol))
                ok = r["residuals"][name] < tol
                lines.append(
                    f"{r['param_index']},{name},{_fmt17(r['residuals'][name])},{_fmt17(tol)},{ok}"
                )
        _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0 if doc["overall_pass"] else 1


def cmd_scan(cfg: RunConfig) -> int:
    point = _resolve_points(cfg)[0]
    entry, family = _entry_for(cfg, point)
    m_list = tuple(cfg.m_list) if cfg.m_list else (point.m, point.m - 1.0)
    grid = make_grid(family, cfg.grid, m_values=m_list)

    columns: list[tuple[str, np.ndarray]] = [("x", grid)]
    for m in m_list:
        eps = np.asarray(compatibility_lhs(family, m, grid), dtype=complex)
        columns.append((f"eps[m={m:g}]_re", eps.real))
        columns.append((f"eps[m={m:g}]_im", eps.imag))
    if family.is_real:
        v_minus, v_plus = partner_potentials(family, m_list[0], grid)
        columns.append(("V_minus", v_minus.values))
        columns.append(("V_plus", v_plus.values))

    lines = [",".join(name for name, _ in columns)]
    for i in range(grid.size):
        lines.append(",".join(_fmt17(float(col[i])) for _, col in columns))
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    point = _resolve_points(cfg)[0]
    entry, family = _entry_for(cfg, point)
    m = cfg.m_list[0] if cfg.m_list else point.m
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
        "minus": iso.spectrum_minus.eigenvalues.tolist(),
        "minus_error_estimates": iso.spectrum_minus.error_estimates.tolist(),
        "minus_shifted": (iso.spectrum_minus.eigenvalues + iso.remainder_value).tolist(),
        "mismatch": iso.mismatch,
        "tolerance": cfg.tolerance_map()["spectrum"],
    }
    doc["overall_pass"] = iso.mismatch < cfg.tolerance_map()["spectrum"]
    _write_text(cfg.out, _dump_json(doc))
    return 0 if doc["overall_pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args keeps no state."""
    p = argparse.ArgumentParser(
        prog="shapeinv",
        description="Verify shape-invariance identities of rationally extended "
                    "superpotential families and cross-validate their spectra.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument("--family", help="family tag, e.g. X1-radial-oscillator")
        sp.add_argument("--params",
                        help="inline JSON object (text starting with '{') or path to one")
        sp.add_argument("--sample", type=int, metavar="N",
                        help="draw N valid parameter points instead of --params")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--m-list", dest="m_list",
                        help="comma-separated m values (default: m, m-1, m-2)")
        sp.add_argument("--checks", help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
        sp.add_argument("--grid-points", dest="grid_points", type=int)
        sp.add_argument("--tol", type=float,
                        help="base residual tolerance (translation stays 1e-12)")
        sp.add_argument("--format", dest="fmt", choices=("json", "csv"))
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--no-timestamp", dest="no_timestamp", action="store_true", default=None)
        sp.add_argument("--perturb", type=float, help=argparse.SUPPRESS)
        sp.add_argument("--k", type=int, help="levels for spectral checks")
        sp.add_argument("--spectrum-points", dest="spectrum_points", type=int)

    for name, descr in (
        ("verify", "run identity checks and write a report"),
        ("scan", "emit CSV samples of epsilon(x) and the partner potentials"),
        ("spectrum", "isospectrality cross-check via the constant-shift route"),
    ):
        add_common(sub.add_parser(name, help=descr))
    return p


def _config_from_args(args: argparse.Namespace, default_checks) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {args.config}")
        file_cfg = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")

    def pick(flag_value, key, source=file_cfg):
        # a flag that was given wins; None leaves the RunConfig default
        return flag_value if flag_value is not None else source.get(key)

    family = args.family or file_cfg.get("family")
    if not family:
        raise UsageError("--family is required (flag or config file)")

    params = _load_params_arg(args.params) if args.params else file_cfg.get("params")
    m_list = None
    if args.m_list:
        m_list = [float(v) for v in args.m_list.split(",") if v.strip()]
    elif "m_list" in file_cfg:
        m_list = [float(v) for v in file_cfg["m_list"]]

    checks = default_checks
    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    elif "checks" in file_cfg:
        checks = tuple(file_cfg["checks"])

    grid_cfg = file_cfg.get("grid", {})
    grid = {
        "n_points": pick(args.grid_points, "n_points", grid_cfg),
        "boundary_margin": grid_cfg.get("boundary_margin"),
        "pole_exclusion_radius": grid_cfg.get("pole_exclusion_radius"),
    }
    given = {
        "sample": pick(args.sample, "sample"),
        "seed": pick(args.seed, "seed"),
        "tol": pick(args.tol, "tol"),
        "tolerances": file_cfg.get("tolerances"),
        "fmt": pick(args.fmt, "format"),
        "out": pick(args.out, "out"),
        "no_timestamp": pick(args.no_timestamp, "no_timestamp"),
        "perturb": pick(args.perturb, "perturb"),
        "k": pick(args.k, "k"),
        "spectrum_points": pick(args.spectrum_points, "spectrum_points"),
    }
    try:
        grid_spec = GridSpec(**{k: v for k, v in grid.items() if v is not None})
    except ValueError as exc:
        raise UsageError(f"grid: {exc}") from exc
    return RunConfig(
        family=family,
        params=params,
        m_list=m_list,
        checks=checks,
        grid=grid_spec,
        **{k: v for k, v in given.items() if v is not None},
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _config_from_args(args, CHECK_NAMES)
            return cmd_verify(cfg)
        if args.command == "scan":
            cfg = _config_from_args(args, ("compatibility",))
            return cmd_scan(cfg)
        cfg = _config_from_args(args, ("spectrum",))
        return cmd_spectrum(cfg)
    except ShapeInvError as exc:
        print(f"shapeinv: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"shapeinv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
