"""Guards for the tooling that reaches into the package by attribute name."""

import importlib.util
from pathlib import Path

TRACED_CLUSTER = Path(__file__).resolve().parents[1] / "bench" / "traced_cluster.py"


def test_traced_benchmark_attributes_resolve():
    # the traced benchmark wraps each (module, attribute) with getattr, so a
    # renamed or removed layer function would break `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("traced_cluster", TRACED_CLUSTER)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.TRACED
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in traced.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing
