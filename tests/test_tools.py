import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    """Every function the benchmark's tracer wraps still exists, so a
    deletion cannot break a traced run unseen."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [(layer, name) for layer, names in tracer.TARGETS.items() for name in names]
    assert pairs
    for layer, name in pairs:
        assert callable(getattr(importlib.import_module(f"mcflab.{layer}"), name)), (layer, name)
