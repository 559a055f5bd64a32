import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


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


def test_digests_count_moved_files_by_kind():
    spec = importlib.util.spec_from_file_location("mcflab_digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    keys = ["fold/run/snapshots/0000.json", "fold/run/snapshots/0001.json",
            "fold/run/manifest.json", "fold/run/timeseries.csv", "fold/verdict.json",
            "stay/L1/run/manifest.json"]
    assert tool.moved_by_kind(keys) == {"snapshots/*": 2, "manifest.json": 2, "other": 2}
    assert tool.moved_by_kind([]) == {"snapshots/*": 0, "manifest.json": 0, "other": 0}
