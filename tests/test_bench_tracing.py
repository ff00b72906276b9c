"""The benchmark's per-layer tracing must find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "verdictbench" / "tracing.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("verdictbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for key in tracing.LAYERS:
        mod, name = key.split(".")
        fn = getattr(importlib.import_module(f"sepgeom.{mod}"), name, None)
        assert callable(fn), key
