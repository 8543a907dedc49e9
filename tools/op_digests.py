"""sha256 digests of every benchmark op's outcome, one line per op.

Run from anywhere:

    python3 tools/op_digests.py WORKLOAD SEED [SEED ...]

For each seed it replays every op of rounds 0-1 of the workload's inputs
(bench/inputs.py), built and called as bench/run.py builds and calls them,
with shapeinv imported from the src/ of the checkout it lives in.  A
verify, control or spectrum op runs through cli.main, and its digest covers
the exit code and standard output; a witness op runs through
catalog.validity_witness, and its digest covers the ValidityReport.  Each
line holds the digest, the seed, the op's index, kind and family.  Running
it on two checkouts and diffing the output lists every op whose outcome a
change alters.  Nothing under bench/ is written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import inputs  # noqa: E402
import run  # noqa: E402

ROUNDS = 2


def digest(op: inputs.Op, pkg) -> str:
    """The sha256 of the op's outcome."""
    result = run.make_call(op, pkg)()
    if op.kind == "witness":
        text = repr(result)
    else:
        code, out = result
        text = f"exit={code}\n{out}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=inputs.WORKLOADS)
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    pkg = run.import_package()
    for seed in args.seeds:
        for i, op in enumerate(inputs.generate(args.workload, seed, rounds=ROUNDS)):
            print(f"{digest(op, pkg)}  seed={seed} op={i} {op.kind} {op.family}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
