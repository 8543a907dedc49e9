"""Spans around the package's public functions, recorded from the benchmark.

The package has no tracing of its own.  ``traced`` wraps each function in
``FUNCTIONS`` (and the ``SuperpotentialFamily.poles`` method) at every name
it is bound to: the module attribute, the copies other shapeinv modules
imported by name, and the package's re-exports.  Every patched name is put
back when the block exits.

A span is ``[name, start, end, parent, op, counts]``: perf_counter seconds,
the index of the enclosing span (-1 for none), the op id, and a dict of
work counts taken from the call's arguments and result.  Spans stay in
memory; the runner writes them once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("catalog", "cli", "conditions", "polynomials", "spectral", "superpotential")


def _eval_counts(args, result):
    n = int(np.size(args[1]))
    return {"points": n, "terms": n * (args[0].degree + 1)}


def _scan_counts(args, result):
    _, lo, hi, n_sub = args[:4]
    return {"nodes": n_sub + 1 if hi > lo else 0, "found": len(result)}


def _found(args, result):
    return {"found": len(result)}


def _grid_points(args, result):
    return {"points": int(np.size(args[-1]))}


def _solve_points(args, result):
    return {"points": int(args[0].x.size)}


# conditions.check_<function> -> metric conditions.<name>_ms
CHECKS = {"translation": "translation", "compatibility": "compatibility",
          "infeld_hull": "infeld_hull", "algebra_condition": "algebra",
          "equivalence_chain": "equivalence"}

# (module, function, counts from (args, result) or None)
FUNCTIONS = (
    ("polynomials", "poly_eval", _eval_counts),
    ("polynomials", "poly_deriv", None),
    ("polynomials", "poly_deriv2", None),
    ("polynomials", "real_roots_in", _found),
    ("polynomials", "scan_roots", _scan_counts),
    ("polynomials", "root_window", None),
    ("superpotential", "make_grid", None),
    *(("conditions", f"check_{c}", _grid_points) for c in CHECKS),
    ("conditions", "run_condition_checks", None),
    ("spectral", "spectral_window", None),
    ("spectral", "partner_potentials", _grid_points),
    ("spectral", "solve_spectrum", _solve_points),
    ("spectral", "check_isospectrality", None),
    ("spectral", "remainder", None),
    ("catalog", "get_family", None),
    ("catalog", "validity_witness", None),
    ("cli", "main", None),
)
POLES = "superpotential.SuperpotentialFamily.poles"

EVAL = {"polynomials.poly_eval", "polynomials.poly_deriv", "polynomials.poly_deriv2"}
ROOTS = {"polynomials.real_roots_in", "polynomials.scan_roots", "polynomials.root_window"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        return traced_call

    @contextmanager
    def root(self, op: int):
        """The op's own span; yields its counts dict for the caller to fill."""
        self.op = op
        span = ["op", time.perf_counter(), 0.0, -1, op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span[5]
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()


def bindings():
    """Every (namespace, name, original, span name, counts) that ``traced`` patches."""
    namespaces = [importlib.import_module("shapeinv")]
    namespaces += [importlib.import_module(f"shapeinv.{m}") for m in MODULES]
    found = []
    for module, attr, counts in FUNCTIONS:
        original = getattr(importlib.import_module(f"shapeinv.{module}"), attr)
        for ns in namespaces:
            found += [(ns, name, original, f"{module}.{attr}", counts)
                      for name, value in vars(ns).items() if value is original]
    family_cls = importlib.import_module("shapeinv.superpotential").SuperpotentialFamily
    found.append((family_cls, "poles", family_cls.__dict__["poles"], POLES, None))
    return found


@contextmanager
def traced(tracer: Tracer):
    patched = []
    try:
        for ns, name, original, span_name, counts in bindings():
            setattr(ns, name, tracer.wrap(span_name, original, counts))
            patched.append((ns, name, original))
        yield tracer
    finally:
        for ns, name, original in reversed(patched):
            setattr(ns, name, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_of(name: str) -> str:
    if name in EVAL:
        return "polynomials.eval"
    if name in ROOTS:
        return "polynomials.roots"
    if name == POLES:
        return "superpotential.poles"
    if name.startswith("conditions."):
        return "conditions"
    return {
        "superpotential.make_grid": "superpotential.grid",
        "spectral.spectral_window": "spectral.window",
        "spectral.partner_potentials": "spectral.potentials",
        "spectral.solve_spectrum": "spectral.solve",
        "catalog.get_family": "catalog.get_family",
        "catalog.validity_witness": "catalog.witness",
        "cli.main": "cli",
        "op": "bench",
    }.get(name, "spectral")


def layer_self_ms(spans, n_ops: int, speed: float = 1.0) -> dict:
    """Self time per layer, ms per op at the given relative speed, largest first."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = layer_of(s[0])
        totals[layer] = totals.get(layer, 0.0) + t
    ms = 1e3 * speed / n_ops
    return {k: ms * v for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def per_layer(spans, n_ops: int, speed: float = 1.0) -> dict:
    """The per-layer metrics, each per op; times in ms at the given relative speed."""
    ms = 1e3 * speed
    selfs = [ms * t for t in self_times(spans)]
    names = [s[0] for s in spans]

    def parent_name(s):
        return names[s[3]] if s[3] >= 0 else None

    def total(pred, value):
        return sum(value(s, i) for i, s in enumerate(spans) if pred(s))

    def dur(s, i):
        return ms * (s[2] - s[1])

    def count(key):  # a call that raised recorded no counts
        return lambda s, i: (s[5] or {}).get(key, 0)

    def one(s, i):
        return 1

    def own(s, i):
        return selfs[i]

    def probe(s):  # a call on a single point
        return (s[5] or {}).get("points") == 1

    def named(*wanted):
        return lambda s: s[0] in wanted

    def outermost(group):
        return lambda s: s[0] in group and parent_name(s) not in group

    def root_call(s):
        return (s[0] == "polynomials.real_roots_in"
                or (s[0] == "polynomials.scan_roots"
                    and parent_name(s) != "polynomials.real_roots_in"))

    evals = named("polynomials.poly_eval")
    scans = named("polynomials.scan_roots")
    grids = named("superpotential.make_grid")
    roots_calls = total(root_call, one)
    raw = {
        "polynomials.eval_calls": total(evals, one),
        "polynomials.eval_points": total(evals, count("points")),
        "polynomials.eval_terms": total(evals, count("terms")),
        "polynomials.eval_probe_calls": total(lambda s: evals(s) and probe(s), one),
        "polynomials.eval_ms": total(outermost(EVAL), dur),
        "polynomials.roots_calls": roots_calls,
        "polynomials.roots_scan_passes": total(scans, one),
        "polynomials.roots_scan_nodes": total(scans, count("nodes")),
        "polynomials.roots_found": total(root_call, count("found")),
        "polynomials.roots_ms": total(outermost(ROOTS), dur),
        "polynomials.roots_self_ms": total(lambda s: s[0] in ROOTS, own),
        "superpotential.grid_calls": total(grids, one),
        "superpotential.grid_ms": total(grids, dur),
        "superpotential.grid_self_ms": total(grids, own),
        "superpotential.grid_poles_ms": total(
            lambda s: s[0] == POLES and parent_name(s) == "superpotential.make_grid", dur),
        **{f"conditions.{metric}_ms": total(named(f"conditions.check_{fn}"), dur)
           for fn, metric in CHECKS.items()},
        "conditions.points": total(named(*(f"conditions.check_{c}" for c in CHECKS)),
                                   count("points")),
        "spectral.window_ms": total(named("spectral.spectral_window"), dur),
        "spectral.window_probes": total(
            lambda s: s[0] == "spectral.partner_potentials" and probe(s), one),
        "spectral.solve_ms": total(named("spectral.solve_spectrum"), dur),
        "spectral.solve_points": total(named("spectral.solve_spectrum"), count("points")),
        "catalog.get_family_ms": total(named("catalog.get_family"), dur),
        "catalog.witness_self_ms": total(named("catalog.validity_witness"), own),
        "cli.self_ms": total(named("cli.main"), own),
        "cli.report_bytes": total(named("op"), count("bytes")),
    }
    out = {k: v / n_ops for k, v in raw.items()}
    passes = raw["polynomials.roots_scan_passes"]
    out["polynomials.roots_passes_per_call"] = passes / roots_calls if roots_calls else 0.0
    return out
