"""MiB held by the recorded states of one scenario run, per trace.

    python3 tools/held_bytes.py SPEC [--src SRC_DIR]

Runs the scenario spec SPEC in this process, with the sources under SRC_DIR
(default: this checkout's `src`), writing its run directory to a temporary
directory as `mcflab run` would.  Then, for each trace the scenario keeps in
`ScenarioResult.traces`, it prints the MiB held by the snapshot arrays
(`vertices` or `values`) and by each array of the one cache entry of the
recorded surfaces, their context (`context.curve[0]`, `context.jac`, ...),
and how many of its recorded states still hold a cache.  `run_flow` keeps
only the states a monitor window reads and hands every recorded state to its
sink (the main flow's streams to run/), so a returned trace holds its first
and its last state, each with its cache.

An array counts with the buffer that owns its memory, and each buffer counts
once, under the first place it is met: the snapshot arrays first, then the
context's arrays in name order.  So an array shared by two names counts
once, with the first: a curve sample's points are its vertices, its
normals the context's `curve[1]` and its weights the context's `jac`.  A
patch grid is no cache entry (`patch_grid` shares one set of arrays among
the patches on a grid); a grid array that a context holds, such as its
boundary rows, counts once, with it.
The last lines are the process's peak resident set size and the peak of
the memory that Python allocated while the scenario ran (`tracemalloc`):
the resident size also counts heap the allocator keeps but no object holds,
so the two can move apart.  Both see this process only; pin it to one CPU
(`taskset -c 0`) to run the scenario's pool tasks in it too.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MIB = 2.0**20


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _arrays(obj, path: str):
    """(path, array) for every array reachable from a cache entry."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        for name in obj._fields:
            yield from _arrays(getattr(obj, name), f"{path}.{name}")
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _arrays(item, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, f"{path}.memo")
    elif hasattr(obj, "__dict__"):
        for name, value in sorted(vars(obj).items()):
            yield from _arrays(value, f"{path}.{name}")


def held_bytes(trace) -> dict:
    """{"snapshots": bytes, "<cache entry path>": bytes, ...} of one trace,
    each owning buffer counted once."""
    seen: dict[int, np.ndarray] = {}
    out = {"snapshots": 0}

    def add(name, arr):
        root = _owner(arr)
        if id(root) not in seen:
            seen[id(root)] = root  # keeps the id taken while we count
            out[name] = out.get(name, 0) + root.nbytes

    surfaces = [state.surface for state in trace.snapshots]
    for surf in surfaces:
        add("snapshots", surf.vertices if hasattr(surf, "vertices") else surf.values)
    for surf in surfaces:
        for name, value in surf._cache.items():
            for path, arr in _arrays(value, name):
                add(path, arr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spec")
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from mcflab.scenarios import run_scenario

    doc = json.loads(Path(args.spec).read_text())
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_scenario(doc, out_dir=tmp)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = 0
    for tag, trace in result.traces.items():
        counts = held_bytes(trace)
        caches = sum(v for k, v in counts.items() if k != "snapshots")
        total += counts["snapshots"] + caches
        sizes = sorted({s.surface.vertices.shape[0] if hasattr(s.surface, "vertices")
                        else s.surface.values.size for s in trace.snapshots})
        cached = sum(bool(s.surface._cache) for s in trace.snapshots)
        print(f"{tag}: {len(trace.snapshots)} states, "
              f"{sizes[0]}-{sizes[-1]} vertices or nodes, {cached} with a cache")
        print(f"  {'snapshots':<32}{counts['snapshots'] / MIB:10.2f} MiB")
        for name in sorted(k for k in counts if k != "snapshots"):
            print(f"  {name:<32}{counts[name] / MIB:10.2f} MiB")
        print(f"  {'caches':<32}{caches / MIB:10.2f} MiB")
    print(f"all traces: {total / MIB:.1f} MiB")
    print(f"ru_maxrss: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
    print(f"tracemalloc peak: {traced_peak / MIB:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
