import importlib
import importlib.util
import json
import re
from pathlib import Path

from mcflab.scenarios import validate_scenario_spec

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DIGESTS = ROOT / "tools" / "digests.py"


def _digest_tool():
    spec = importlib.util.spec_from_file_location("mcflab_digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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


def test_package_exports_resolve():
    """Every name in mcflab.__all__ is bound, once, so a deleted export fails
    here and not only at `from mcflab import *`."""
    package = importlib.import_module("mcflab")
    assert len(package.__all__) == len(set(package.__all__))
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing


def test_readme_spec_example_validates():
    """The scenario spec the README shows under "Command line" is one that
    `mcflab run` accepts, so the example cannot drift from the schema."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    doc = json.loads(blocks[0])
    spec = validate_scenario_spec(doc)
    assert spec["scenario"] == doc["scenario"] != "sweep"


def test_digests_count_moved_files_by_kind():
    tool = _digest_tool()
    keys = ["fold/run/snapshots/0000.json", "fold/run/snapshots/0001.json",
            "fold/run/manifest.json", "fold/run/timeseries.csv", "fold/verdict.json",
            "stay/L1/run/manifest.json"]
    assert tool.moved_by_kind(keys) == {"snapshots/*": 2, "manifest.json": 2, "other": 2}
    assert tool.moved_by_kind([]) == {"snapshots/*": 0, "manifest.json": 0, "other": 0}


def test_digests_cover_the_sweep_path(tmp_path):
    """The protocol's sweep entry runs `mcflab sweep`: its sweep.csv and every
    run's files are digested, and the manifest inventory it digests lists
    exactly those files, so the outputs a run reports are compared too."""
    tool = _digest_tool()
    command, doc = tool.protocol()["sweep"]
    assert command == "sweep"
    got = tool.digest_run("sweep", command, doc, tmp_path, tool.source_env(ROOT / "src"))
    assert got["sweep/exit"] == 0
    files = {k[len("sweep/"):] for k in got} - {"exit", "run_manifest.json:files"}
    assert {"sweep.csv", "runs/run_0000/verdict.json", "runs/run_0001/run/timeseries.csv"} <= files
    inventory = json.loads((tmp_path / "sweep" / "run_manifest.json").read_text())["files"]
    assert set(inventory) == files
