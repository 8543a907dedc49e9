"""shapeinv benchmark: closed-loop verdict-checked calls, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload verify-xl --seed 1 --seconds 20 --trace 0

One client in one thread calls ``shapeinv.cli.main(argv)`` or
``catalog.validity_witness`` in-process; each call starts when the previous
one returns.  Inputs come from ``bench/inputs.py`` and every call's verdict is
checked against the one it must have.  The loop stops at the first round
boundary after ``--seconds``.  Times are reported at a reference CPU speed,
measured by a calibration loop run between the calls (see REF_CALIBRATION_S).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``bench/tracing.py``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 5
# The tail is the highest percentile with TAIL_BEYOND samples beyond it, but
# at most TAIL_CAP: above p98 host noise sets the value on a shared 2-core
# sandbox (verify-x1, ~1600 ops a run: the p99 spread over seeds is 22%,
# the p98 spread 8%).
TAIL_BEYOND = 10
TAIL_CAP = 0.98

# On a shared host the CPU speed drifts by tens of percent over seconds,
# which would swamp the differences the benchmark exists to show.  Op
# latencies are therefore scaled to a reference speed, at which the
# calibration loop below takes REF_CALIBRATION_S (on a 2-core x86-64 sandbox
# with Python 3.11 it takes 1.0-1.4 ms).  A pure-interpreter loop tracks the
# drift of the package's calls better than a numpy one did.
CALIBRATION_STEPS = 20_000
REF_CALIBRATION_S = 1.0e-3



def check_source() -> None:
    if not (SRC / "shapeinv" / "__init__.py").is_file():
        raise SystemExit(f"bench: package source not found under {SRC}")


def import_package():
    """Import shapeinv from this checkout's src/, never from anywhere else."""
    check_source()
    sys.path.insert(0, str(SRC))
    import shapeinv
    import shapeinv.cli

    if Path(shapeinv.__file__).resolve().parent != SRC / "shapeinv":
        raise SystemExit(f"bench: shapeinv imported from {shapeinv.__file__}, not {SRC}")
    return shapeinv


def make_call(op: inputs.Op, pkg):
    """A zero-argument callable running the op; built before timing starts."""
    if op.kind == "witness":
        params = pkg.ParamPoint(**op.params)
        return lambda: pkg.catalog.validity_witness(op.family, params)
    argv = ["--family", op.family, "--params", json.dumps(op.params), "--no-timestamp"]
    if op.kind == "spectrum":
        argv = ["spectrum", *argv, "--k", "5", "--spectrum-points", "4000"]
    else:
        argv = ["verify", *argv]
    if op.kind == "control":
        argv += ["--perturb", repr(inputs.PERTURB)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main(argv)
        return code, out.getvalue()

    return call


def gate_margin(doc: dict):
    """log10(gate / residual) of the closest gated residual, or None."""
    if doc["command"] == "spectrum":
        pairs = [(doc["spectrum"]["mismatch"], doc["spectrum"]["tolerance"])]
    else:
        r = doc["results"][0]
        tols = r["tolerances"]
        pairs = [(v, tols.get(k, tols.get(k.split("_step")[0]))) for k, v in r["residuals"].items()]
    margins = [math.log10(tol / res) for res, tol in pairs if res > 0]
    return min(margins) if margins else None


def judge(op: inputs.Op, result):
    """(ok, margin, report bytes) of one op's result against its expected verdict."""
    if op.kind == "witness":
        return result.agrees and result.valid == op.inside, None, 0
    code, text = result
    if code not in (0, 1):
        return False, None, len(text)
    doc = json.loads(text)
    if op.kind == "control":
        ok = code == 1 and doc["results"][0]["verdicts"]["translation"] is False
        return ok, None, len(text)
    return code == 0, gate_margin(doc), len(text)


@functools.cache
def known_defects() -> list:
    """Wrong verdicts the package gives today.  They count as failed ops; a run
    is still correct when every failed op is one of these."""
    return json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))[
        "expected_failures"]


def known_defect(op: inputs.Op, result) -> bool:
    """A failed op whose wrong verdict is one of known_defects()."""
    if isinstance(result, Exception):
        return False
    if op.kind == "witness" and result.agrees:
        return False
    if op.kind == "verify" and result[0] != 1:
        return False
    return any(op.kind == d["kind"] and op.family == d["family"]
               and (op.ell or 0) >= d["from_ell"] for d in known_defects())


def rounds_of(ops):
    by_round: dict[int, list] = {}
    for op in ops:
        by_round.setdefault(op.round, []).append(op)
    return list(by_round.values())


def warm_up(ops, pkg) -> None:
    """One call per op kind and family, at the smallest degree in the list."""
    first = {}
    for op in ops:
        key = (op.kind, op.family, op.inside)
        if key not in first or (op.ell or 0) < (first[key].ell or 0):
            first[key] = op
    for op in first.values():
        make_call(op, pkg)()


@dataclass
class Record:
    op: inputs.Op
    wall: float          # latency in s
    ok: bool             # the verdict is the expected one
    known: bool          # a failed op that is one of known_defects()
    margin: float | None
    error: str | None
    speed: float = 1.0   # machine speed around the op, relative to REF_CALIBRATION_S

    @property
    def latency(self) -> float:
        """Latency in s at the reference machine speed."""
        return self.wall * self.speed


def calibrate() -> float:
    """Seconds for a fixed interpreter loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_STEPS):
        acc += i * 0.5
    return time.perf_counter() - t0


def run_loop(rounds, pkg, seconds=None, n_rounds=None, tracer=None):
    """Run whole rounds until `seconds` have passed or `n_rounds` are done;
    returns the records and the number of rounds.

    A calibration runs before each op and after the last; an op's speed is
    REF_CALIBRATION_S over the median of the five calibrations nearest it.
    """
    records: list[Record] = []
    cals = []
    start = time.perf_counter()
    done = 0
    while True:
        for op in rounds[done % len(rounds)]:
            call = make_call(op, pkg)
            cals.append(calibrate())
            root = tracer.root(len(records)) if tracer else contextlib.nullcontext({})
            with root as counts:
                t0 = time.perf_counter()
                try:
                    result = call()
                except Exception as exc:  # a crash is a failed op, not a failed run
                    result = exc
                wall = time.perf_counter() - t0
            if isinstance(result, Exception):
                ok, margin, size, error = False, None, 0, f"{type(result).__name__}: {result}"
            else:
                ok, margin, size = judge(op, result)
                error = None
            counts["bytes"] = size
            records.append(Record(op, wall, ok, not ok and known_defect(op, result),
                                  margin, error))
        done += 1
        elapsed = time.perf_counter() - start
        if (done >= n_rounds) if n_rounds is not None else elapsed >= seconds:
            break
    cals.append(calibrate())
    for i, rec in enumerate(records):
        near = cals[max(i - 2, 0):i + 4]
        rec.speed = REF_CALIBRATION_S / statistics.median(near)
    return records, done


def summary(records: list[Record]) -> dict:
    lat = sorted(r.latency for r in records)
    n = len(lat)
    tail_rank = max(min(n - TAIL_BEYOND, math.ceil(TAIL_CAP * n)), 1)
    margins = [r.margin for r in records if r.margin is not None]
    failed = [r for r in records if not r.ok]
    return {
        "ops": n,
        "ops_per_s": n / sum(lat),
        "wall_ops_per_s": n / sum(r.wall for r in records),
        "speed": statistics.median(r.speed for r in records),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_geomean": 1e3 * math.exp(statistics.fmean(math.log(t) for t in lat)),
        "op_ms_tail": 1e3 * lat[tail_rank - 1],
        "tail_percentile": 100.0 * tail_rank / n,
        "tail_beyond": n - tail_rank,
        "failed": len(failed),
        "failed_known": sum(1 for r in failed if r.known),
        "gate_margin_dec": statistics.median(margins) if margins else None,
        "gated_ops": len(margins),
        "errors": sorted({r.error for r in failed if r.error}),
    }


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh interpreter does before the first timed call."""
    pkg = import_package()
    ops = inputs.generate(workload, seed)
    warm_up(ops, pkg)
    print(json.dumps({"input_hash": inputs.input_hash(ops)}))


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(shapeinv import s, scipy share s) from `python -X importtime` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    total = scipy = 0.0
    stack: list[tuple[int, bool]] = []  # rows come children first; walk them reversed
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        under_scipy = any(s for _, s in stack)
        if depth == 0 and name.startswith("shapeinv"):
            total += cum
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not under_scipy:
            scipy += cum
        stack.append((depth, is_scipy or under_scipy))
    return total, scipy


def measure_setup(workload: str, seed: int, input_hash: str, importtime: bool):
    """Median over SETUP_RUNS fresh interpreters, at the reference speed:
    wall s, import s, scipy import s (the last two only with importtime).
    Each interpreter must generate the inputs this one did."""
    walls, imports, scipys = [], [], []
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    # A probe's speed is the median of the nine calibrations on each side of
    # it; one or two calibrations are too noisy for a probe of about 1 s.
    before = [calibrate() for _ in range(9)]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"bench: setup probe failed:\n{proc.stderr[-2000:]}")
        if json.loads(proc.stdout)["input_hash"] != input_hash:
            raise SystemExit("bench: a fresh interpreter generated other inputs")
        after = [calibrate() for _ in range(9)]
        speed = REF_CALIBRATION_S / statistics.median(before + after)
        before = after
        walls.append(wall * speed)
        if importtime:
            total, scipy = parse_importtime(proc.stderr)
            imports.append(total * speed)
            scipys.append(scipy * speed)
    med = statistics.median
    return med(walls), (med(imports) if imports else None), (med(scipys) if scipys else None)


def print_summary(title: str, s: dict) -> None:
    print(f"{title}: {s['ops']} ops, {s['failed']} failed "
          f"({s['failed_known']} known defects), failed_frac {s['failed'] / s['ops']:.4f}")
    print(f"  ops_per_s        {s['ops_per_s']:.4f} 1/s "
          f"(wall {s['wall_ops_per_s']:.4f} 1/s at median speed {s['speed']:.3f})")
    print(f"  op_ms_geomean    {s['op_ms_geomean']:.3f} ms")
    print(f"  op_ms_p50        {s['op_ms_p50']:.3f} ms")
    print(f"  op_ms_tail       {s['op_ms_tail']:.3f} ms "
          f"(p{s['tail_percentile']:.1f}, {s['tail_beyond']} of {s['ops']} samples beyond)")
    if s["gate_margin_dec"] is not None:
        print(f"  gate_margin_dec  {s['gate_margin_dec']:.3f} dec (median of {s['gated_ops']} ops)")
    else:
        print("  gate_margin_dec  n/a (no call on this workload compares a residual with a gate)")
    for err in s["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    check_source()
    ops = inputs.generate(args.workload, args.seed)
    input_hash = inputs.input_hash(ops)
    setup_s, import_s, scipy_s = measure_setup(args.workload, args.seed, input_hash,
                                               bool(args.trace))
    pkg = import_package()
    import numpy
    import scipy

    rounds = rounds_of(ops)
    warm_up(ops, pkg)
    # The op list and the imported modules live for the whole run; keep them
    # out of the collector's generations, so a collection costs about what
    # it would in a one-call CLI process.
    gc.freeze()
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {input_hash}")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")

    if not args.trace:
        records, n_rounds = run_loop(rounds, pkg, seconds=args.seconds)
        s = summary(records)
        print_summary(f"untraced, {n_rounds} rounds", s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"  setup_s          {setup_s:.4f} s (median of {SETUP_RUNS} fresh interpreters)")
        print(f"  peak_rss_mb      {peak_rss_mb:.2f} MB")
        metrics = {
            "ops_per_s": (s["ops_per_s"], "1/s"),
            "op_ms_geomean": (s["op_ms_geomean"], "ms"),
            "op_ms_tail": (s["op_ms_tail"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import tracing  # imports numpy; kept out of the setup probes' import timing

        # Same rounds twice: untraced for half the time, then traced.
        plain, n_rounds = run_loop(rounds, pkg, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            records, _ = run_loop(rounds, pkg, n_rounds=n_rounds, tracer=tracer)
        s = summary(records)
        overhead = summary(plain)["ops_per_s"] / s["ops_per_s"]
        records = plain + records
        print_summary(f"traced, {n_rounds} rounds", s)
        print(f"  tracing overhead {overhead:.4f} (untraced / traced ops_per_s, same ops)")
        layers = tracing.per_layer(tracer.spans, s["ops"], s["speed"])
        layers["import.s"] = import_s
        layers["import.scipy_s"] = scipy_s
        layers["trace.overhead_ratio"] = overhead
        print("self time per layer (ms per op):")
        for layer, ms in tracing.layer_self_ms(tracer.spans, s["ops"], s["speed"]).items():
            print(f"  {layer:24s} {ms:10.3f}")
        OUT.mkdir(exist_ok=True)
        out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "fields": ["name", "start", "end", "parent", "op", "counts"],
                                   "spans": tracer.spans}))
        print(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}

    failed = [r for r in records if not r.ok]
    result = {
        "correct": all(r.known for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name == "import.s":
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("per_call"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
