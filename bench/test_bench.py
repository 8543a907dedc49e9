"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

PKG = run.import_package()


def first_op(workload, **match):
    for op in inputs.generate(workload, 3, rounds=1):
        if all(getattr(op, k) == v for k, v in match.items()):
            return op
    raise LookupError(match)


def traced_layers(op):
    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.root(0):
        run.make_call(op, PKG)()
    return tracing.per_layer(tracer.spans, 1)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_input_hash(workload):
    a = inputs.input_hash(inputs.generate(workload, 11, rounds=2))
    b = inputs.input_hash(inputs.generate(workload, 11, rounds=2))
    c = inputs.input_hash(inputs.generate(workload, 12, rounds=2))
    assert a == b != c


@pytest.mark.parametrize("workload", ["verify-xl", "spectrum-real"])
def test_generated_points_are_valid_at_the_translates(workload):
    for op in inputs.generate(workload, 5, rounds=2):
        for k in (0, 1, 2):
            assert inputs.valid(op.family, {**op.params, "m": op.params["m"] - k})


def test_traced_x1_op_makes_no_polynomial_calls():
    layers = traced_layers(first_op("verify-x1"))
    poly = {k: v for k, v in layers.items() if k.startswith("polynomials.")}
    assert set(poly.values()) == {0}
    assert layers["superpotential.grid_calls"] == 1


def test_traced_xl_op_makes_polynomial_calls():
    layers = traced_layers(first_op("verify-xl", kind="verify", family="Xl-Poschl-Teller"))
    assert layers["polynomials.eval_calls"] > 0
    assert layers["polynomials.roots_calls"] > 0
    assert layers["polynomials.roots_ms"] <= layers["superpotential.grid_ms"]


def test_every_wrapped_name_is_restored():
    before = tracing.bindings()
    assert len(before) > len(tracing.FUNCTIONS)  # copies imported by name count too
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert all(getattr(ns, name) is not orig for ns, name, orig, *_ in before)
            raise RuntimeError("end the traced block early")
    assert all(getattr(ns, name) is orig for ns, name, orig, *_ in before)
    assert [b[:3] for b in tracing.bindings()] == [b[:3] for b in before]


def test_control_that_passes_is_a_failed_op():
    op = first_op("verify-xl", kind="control")
    unperturbed = inputs.Op("verify", op.family, op.params, op.round)
    result = run.make_call(unperturbed, PKG)()
    assert result[0] == 0  # the same point without the defect passes
    ok, _, _ = run.judge(op, result)
    assert not ok
    assert not run.known_defect(op, result)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = set(tracing.per_layer([], 1)) | {"import.s", "import.scipy_s", "trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])


def test_importtime_parse():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |   scipy.linalg",
        "import time:        50 |        750 | shapeinv.spectral",
        "import time:        10 |         10 | json",
    ])
    total, scipy = run.parse_importtime(stderr)
    assert total == pytest.approx(750e-6)
    assert scipy == pytest.approx(700e-6)
