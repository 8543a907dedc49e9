"""sha256 digests of every benchmark op's outcome, one line per op.

Run from anywhere:

    python3 tools/op_digests.py WORKLOAD SEED [SEED ...]

For each seed it replays every op of rounds 0-1 of the workload's inputs
(bench/inputs.py), built and called as bench/run.py builds and calls them,
with shapeinv imported from the src/ of the checkout it lives in.  A
verify, control or spectrum op runs through cli.main, and its digest covers
the exit code and standard output; a witness op runs through
catalog.validity_witness, and its digest covers the ValidityReport.  A
spectrum op has a second digest, of the exit code and its report without
the V+ levels and their error estimates (spectrum.plus and
spectrum.plus_error_estimates), so a change to the eigensolver alone moves
its first digest only.  Each line holds the digests, the seed, the op's
index, kind and family.  Running it on two checkouts and diffing the output
lists every op whose outcome a change alters.  Nothing under bench/ is
written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import inputs  # noqa: E402
import run  # noqa: E402

ROUNDS = 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(op: inputs.Op, pkg) -> str:
    """The sha256 of the op's outcome and, for a spectrum op that wrote a
    report, that of the outcome without the levels, two spaces apart."""
    result = run.make_call(op, pkg)()
    if op.kind == "witness":
        return _sha(repr(result))
    code, out = result
    digests = [_sha(f"exit={code}\n{out}")]
    if op.kind == "spectrum" and code in (0, 1):
        doc = json.loads(out)
        for key in ("plus", "plus_error_estimates"):
            del doc["spectrum"][key]
        digests.append(_sha(f"exit={code}\n{json.dumps(doc, indent=2, sort_keys=True)}\n"))
    return "  ".join(digests)


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
