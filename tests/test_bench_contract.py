"""The benchmark's tracer (bench/tracing.py) wraps package functions by name;
every name it looks up must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_tracing()
    missing = [(module, name) for module, name, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"shapeinv.{module}"), name, None))]
    assert missing == []
    module, cls, method = tracing.POLES.split(".")
    assert callable(getattr(getattr(importlib.import_module(f"shapeinv.{module}"), cls), method))
