"""The benchmark's per-layer tracing must find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

from helpers import fresh_python

TRACING = Path(__file__).resolve().parents[1] / "verdictbench" / "tracing.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("verdictbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for key in tracing.LAYERS:
        mod, name = key.split(".")
        fn = getattr(importlib.import_module(f"sepgeom.{mod}"), name, None)
        assert callable(fn), key


FIRST_TOUCH = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
import sepgeom, sepgeom.separability

bodies = [sepgeom.ConvexBody.disk((2.0 * i, 0.0), 1.0) for i in range(3)]
tracer = tracing.Tracer()
with tracer.installed():
    assert sepgeom.is_ts_packing(bodies).is_ts
assert tracer.stats["separability.is_ts_packing"]["calls"] == 1, tracer.stats
assert sepgeom.is_ts_packing is sepgeom.separability.is_ts_packing
"""


def test_a_package_name_first_read_while_traced_is_traced_and_restored():
    """The package looks a name up in its submodule on each read, so a call
    through it inside a traced block is counted, and no wrapper stays behind."""
    run = fresh_python(FIRST_TOUCH, str(TRACING.parent))
    assert run.returncode == 0, run.stderr
