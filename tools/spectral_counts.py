"""LAPACK calls, bisection fallbacks and W evaluations of the spectrum-real ops.

Run from anywhere:

    python3 tools/spectral_counts.py SEED [SEED ...] [--rounds N]
                                     [--levels FILE] [--compare FILE]

For each seed it replays every op of rounds 0..N-1 (default 4) of the
spectrum-real inputs (bench/inputs.py), built and called as bench/run.py
builds and calls them, with shapeinv imported from the src/ of the checkout
it lives in.  While an op runs, spectral._lapack() returns a view of
scipy's LAPACK extension that counts each dstebz, dgttrf and dgttrs call by
the size of its matrix, and spectral._certified_levels is wrapped to count
the level sets that fell back to bisection (a failed iteration or a
refused certificate), and SuperpotentialFamily.w_rows to count the
evaluations of W by their number of m rows and of abscissae.  It prints
one line per matrix size: the calls of each routine per op and the
fallbacks over all ops; then one line per (rows, points) pair: the W
evaluations per op, and their total per op.  The counts are deterministic.

--levels FILE writes each op's V+ levels, with the error that its
certificate accepts, (_RESIDUAL_ULPS + _GUARD_ULPS) eps ||T||_1 of the
fine grid's matrix (Gershgorin's bound), as JSON.  --compare FILE reads a
file that --levels wrote, on another checkout and the same seeds and
rounds, and prints the largest level move against it, absolute and in
units of that error.  Nothing under bench/ is written.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUTINES = ("dstebz", "dgttrf", "dgttrs")


class Counts:
    """calls[(routine, size)], fallbacks[size] and w_rows[(rows, points)],
    summed over the ops run under one counting() block; bound, the
    certified error of the last fine-grid level set."""

    def __init__(self):
        self.calls = collections.Counter()
        self.fallbacks = collections.Counter()
        self.w_rows = collections.Counter()
        self.bound = None


class _CountingLapack:
    """scipy's LAPACK extension, with the three routines that spectral
    calls counted by the size of their matrix's diagonal."""

    def __init__(self, lapack, calls):
        self._lapack, self._calls = lapack, calls

    def dstebz(self, d, *args, **kwargs):
        self._calls["dstebz", d.size] += 1
        return self._lapack.dstebz(d, *args, **kwargs)

    def dgttrf(self, dl, d, *args, **kwargs):
        self._calls["dgttrf", d.size] += 1
        return self._lapack.dgttrf(dl, d, *args, **kwargs)

    def dgttrs(self, dl, d, *args, **kwargs):
        self._calls["dgttrs", d.size] += 1
        return self._lapack.dgttrs(dl, d, *args, **kwargs)


@contextlib.contextmanager
def counting(spectral):
    """Counts of the spectral module's LAPACK calls and bisection fallbacks,
    and of W evaluations, inside the block; the module and the family class
    are restored on exit."""
    counts = Counts()
    family = spectral.SuperpotentialFamily
    w_rows = family.w_rows

    def counted_w_rows(self, x, m_values):
        counts.w_rows[len(m_values), len(x)] += 1
        return w_rows(self, x, m_values)

    lapack = _CountingLapack(spectral._lapack(), counts.calls)
    certified_levels = spectral._certified_levels
    per_error = (spectral._RESIDUAL_ULPS + spectral._GUARD_ULPS) * spectral._EPS

    def certified(values, h, shifts, starts=None):
        levels, vectors = certified_levels(values, h, shifts, starts)
        if vectors is None:
            counts.fallbacks[values.size] += 1
        diag = abs(2.0 / (h * h) + values)
        counts.bound = per_error * (float(diag.max()) + 2.0 / (h * h))
        return levels, vectors

    saved = spectral._lapack, spectral._certified_levels
    spectral._lapack, spectral._certified_levels = (lambda: lapack), certified
    family.w_rows = counted_w_rows
    try:
        yield counts
    finally:
        spectral._lapack, spectral._certified_levels = saved
        family.w_rows = w_rows


def replay(seeds, rounds):
    """(Counts over all ops, number of ops, one record per op: seed, op
    index, family, exit code, levels and their certified error)."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs
    import run

    pkg = run.import_package()
    from shapeinv import spectral

    total, records = Counts(), []
    for seed in seeds:
        for i, op in enumerate(inputs.generate("spectrum-real", seed, rounds=rounds)):
            call = run.make_call(op, pkg)
            with counting(spectral) as counts:
                code, out = call()
            total.calls.update(counts.calls)
            total.fallbacks.update(counts.fallbacks)
            total.w_rows.update(counts.w_rows)
            levels = json.loads(out)["spectrum"]["plus"] if code in (0, 1) else None
            records.append({"seed": seed, "op": i, "family": op.family, "exit": code,
                            "levels": levels, "bound": counts.bound})
    return total, len(records), records


def table(counts: Counts, ops: int) -> list[str]:
    """One line per matrix size: calls per op of each routine, fallbacks;
    then one line per (rows, points) pair of W evaluations, per op, and
    their total per op."""
    sizes = sorted({size for _, size in counts.calls} | set(counts.fallbacks))
    lines = ["size  " + "  ".join(f"{r + '/op':>9}" for r in ROUTINES) + "  fallbacks"]
    for size in sizes:
        per_op = "  ".join(f"{counts.calls[r, size] / ops:9.3f}" for r in ROUTINES)
        lines.append(f"{size:4d}  {per_op}  {counts.fallbacks[size]:9d}")
    lines.append("rows  points       W/op")
    for rows, points in sorted(counts.w_rows):
        lines.append(f"{rows:4d}  {points:6d}  {counts.w_rows[rows, points] / ops:9.3f}")
    lines.append(f"all           {sum(counts.w_rows.values()) / ops:9.3f}")
    return lines


def largest_move(records, other) -> str:
    """The largest |level - other level| over the ops both hold, absolute
    and in units of this op's certified error."""
    if [(r["seed"], r["op"]) for r in records] != [(r["seed"], r["op"]) for r in other]:
        raise SystemExit("spectral_counts: --compare file holds other ops")
    moves = [(abs(a - b), abs(a - b) / r["bound"])
             for r, o in zip(records, other) if r["levels"] and o["levels"]
             for a, b in zip(r["levels"], o["levels"])]
    absolute, scaled = max(moves, key=lambda m: m[1])
    return (f"largest level move: {max(m[0] for m in moves):.3g} absolute; "
            f"{scaled:.3g} of the certified error (at an absolute {absolute:.3g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--levels", type=Path, metavar="FILE")
    parser.add_argument("--compare", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    counts, ops, records = replay(args.seeds, args.rounds)
    print(f"spectrum-real, seeds {' '.join(map(str, args.seeds))}, "
          f"rounds 0-{args.rounds - 1}: {ops} ops")
    print("\n".join(table(counts, ops)))
    if args.levels:
        args.levels.write_text(json.dumps(records))
    if args.compare:
        print(largest_move(records, json.loads(args.compare.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
