"""Seeded input generator owned by the benchmark.

The generator keeps its own parameter boxes and region inequalities, so a
change to the package's sampler (``catalog.sample_valid_params``) cannot
change what the benchmark runs.  The boxes are the ones the package
documents for its sampler; the inequalities are the non-singularity regions
of the six catalog families.

Inputs come in rounds.  A round holds every (family, ell) cell of the
workload once, ell over 1..10, in seeded random order; the X1 families have
no ell and get ten points each.  The runner stops only at a round boundary,
so every run has the same mix of families and degrees, and seeds differ only
in the parameter values drawn for each cell.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

ELLS = tuple(range(1, 11))  # the catalog's documented degree range
WITNESS_OFFSET = 0.05       # distance of a witness point from its region edge
PERTURB = 1e-2              # size of the --perturb negative controls
ROUNDS = 40                 # rounds generated per workload; the runner cycles

XL_VERIFY = ("Xl-Poschl-Teller", "Xl-PT-Scarf", "Xl-radial-oscillator")
X1_VERIFY = ("X1-hyperbolic", "X1-radial-oscillator", "X1-trigonometric")
REAL = X1_VERIFY + ("Xl-Poschl-Teller", "Xl-radial-oscillator")
WITNESS_KINDS = (
    ("Xl-Poschl-Teller", "lo", True), ("Xl-Poschl-Teller", "lo", False),
    ("Xl-Poschl-Teller", "hi", True), ("Xl-Poschl-Teller", "hi", False),
    ("Xl-radial-oscillator", "hi", True), ("Xl-radial-oscillator", "hi", False),
    ("Xl-PT-Scarf", None, True),
)

WORKLOADS = ("verify-xl", "verify-x1", "spectrum-real", "witness-xl")


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the outcome it must have."""

    kind: str        # "verify" | "control" | "spectrum" | "witness"
    family: str
    params: dict     # ParamPoint fields
    round: int
    inside: bool = True  # witness only: the point lies inside its region

    @property
    def ell(self):
        return self.params.get("ell")


def valid(family: str, p: dict) -> bool:
    """Non-singularity region of each catalog family, as strict inequalities."""
    m = p["m"]
    if family == "X1-hyperbolic":
        c, beta, d = p["c"], p["beta"], p["d"]
        if not (c > 0 and d != 0):
            return False
        if d < 0:
            return m < (2 * beta - c * c - 2 * c * d) / (2 * c * c)
        return m > (2 * beta + c * c - 2 * c * d) / (2 * c * c)
    if family == "X1-radial-oscillator":
        return p["omega"] > 0 and p["d"] > 0 and m < -(1 + 2 * p["d"]) / 2
    if family == "X1-trigonometric":
        c, beta, d = p["c"], p["beta"], p["d"]
        if not (c > 0 and d != 0):
            return False
        s = 1.0 if d > 0 else -1.0
        return (m < (-2 * beta - c * c - 2 * s * c * d) / (2 * c * c)
                or m > (-2 * beta + c * c + 2 * s * c * d) / (2 * c * c))
    if family == "Xl-Poschl-Teller":
        B = p["B"]
        return B < -0.5 and (1 + 2 * B) / 2 < m < -(1 + 2 * B) / 2
    if family == "Xl-PT-Scarf":
        return True
    if family == "Xl-radial-oscillator":
        return p["omega"] > 0 and m < -0.5
    raise ValueError(f"unknown family {family!r}")


def _draw(family: str, ell: int, rng: random.Random) -> dict:
    """One draw from the family's box; m keeps 0.1 clearance from the edge
    and room for the translates m-1, m-2."""
    u = rng.uniform
    if family == "X1-hyperbolic":
        c, beta = u(0.5, 2.0), u(-3.0, 3.0)
        if rng.random() < 0.5:
            d = u(-3.0, -0.3)
            m = (2 * beta - c * c - 2 * c * d) / (2 * c * c) - 0.1 - u(0.0, 3.0)
        else:
            d = u(0.3, 3.0)
            m = (2 * beta + c * c - 2 * c * d) / (2 * c * c) + 2.1 + u(0.0, 3.0)
        return {"m": m, "c": c, "beta": beta, "d": d}
    if family == "X1-radial-oscillator":
        omega, d = u(0.5, 3.0), u(0.3, 3.0)
        return {"m": -(1 + 2 * d) / 2 - 0.1 - u(0.0, 3.0), "omega": omega, "d": d}
    if family == "X1-trigonometric":
        c, beta = u(0.5, 2.0), u(-3.0, 3.0)
        s = 1.0 if rng.random() < 0.5 else -1.0
        d = s * u(0.3, 3.0)
        if rng.random() < 0.5:
            m = (-2 * beta - c * c - 2 * s * c * d) / (2 * c * c) - 0.1 - u(0.0, 3.0)
        else:
            m = (-2 * beta + c * c + 2 * s * c * d) / (2 * c * c) + 2.1 + u(0.0, 3.0)
        return {"m": m, "c": c, "beta": beta, "d": d}
    if family == "Xl-Poschl-Teller":
        B = u(-4.0, -1.7)
        lo = (1 + 2 * B) / 2
        return {"m": u(lo + 2.1, -lo - 0.1), "B": B, "ell": ell}
    if family == "Xl-PT-Scarf":
        return {"m": u(-2.0, 2.0), "B": u(-4.0, -0.6), "ell": ell}
    if family == "Xl-radial-oscillator":
        return {"m": u(-4.0, -0.6), "omega": u(0.5, 3.0), "ell": ell}
    raise ValueError(f"unknown family {family!r}")


def draw_valid(family: str, ell: int, rng: random.Random) -> dict:
    """A point valid at m, m-1 and m-2, the translates a verify run uses."""
    for _ in range(1000):
        p = _draw(family, ell, rng)
        if all(valid(family, {**p, "m": p["m"] - k}) for k in (0, 1, 2)):
            return p
    raise RuntimeError(f"{family}: no valid point in 1000 draws")


def _witness_point(family: str, edge, inside: bool, ell: int, rng: random.Random) -> dict:
    """A point WITNESS_OFFSET inside or outside one edge of the region in m."""
    step = -WITNESS_OFFSET if inside else WITNESS_OFFSET
    if family == "Xl-Poschl-Teller":
        B = rng.uniform(-4.0, -1.7)
        hi = -(1 + 2 * B) / 2
        m = hi + step if edge == "hi" else -hi - step
        p = {"m": m, "B": B, "ell": ell}
    elif family == "Xl-radial-oscillator":
        p = {"m": -0.5 + step, "omega": rng.uniform(0.5, 3.0), "ell": ell}
    else:
        p = draw_valid(family, ell, rng)
    if valid(family, p) != inside:
        raise RuntimeError(f"{family}: witness point on the wrong side: {p}")
    return p


def generate(workload: str, seed: int, rounds: int = ROUNDS) -> list[Op]:
    """The workload's op list for this seed; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"shapeinv-bench:{workload}:{seed}")
    ops: list[Op] = []
    for r in range(rounds):
        if workload == "verify-x1":
            cells = [("verify", f, 0) for f in X1_VERIFY for _ in ELLS]
        elif workload == "verify-xl":
            cells = [("verify", f, ell) for f in XL_VERIFY for ell in ELLS]
            cells += [("control", f, rng.choice(ELLS)) for f in XL_VERIFY]
        elif workload == "spectrum-real":
            cells = [("spectrum", f, ell) for f in REAL for ell in ELLS]
        else:
            cells = [("witness", kind, ell) for kind in WITNESS_KINDS for ell in ELLS]
        rng.shuffle(cells)
        for kind, what, ell in cells:
            if kind == "witness":
                family, edge, inside = what
                p = _witness_point(family, edge, inside, ell, rng)
                ops.append(Op(kind, family, p, r, inside))
            else:
                ops.append(Op(kind, what, draw_valid(what, ell, rng), r))
    return ops


def input_hash(ops: list[Op]) -> str:
    """sha256 of the op list in canonical JSON (floats at full precision)."""
    text = json.dumps([asdict(op) for op in ops], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
