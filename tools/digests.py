"""SHA-256 of every run-directory file of the six scenarios.

    python3 tools/digests.py OUT_JSON [--src SRC_DIR] [--work WORK_DIR]
    python3 tools/digests.py --fixtures tests/data/run_digests.json [--src ...]

Runs each scenario through `mcflab run` in a fresh interpreter, with the
sources under SRC_DIR (default: this checkout's `src`), and writes one
canonical JSON object `{"<scenario>/<relative path>": sha256}` to OUT_JSON.
`run_manifest.json` is left out: it holds wall-clock times.  Run it on two
commits and `diff` the two files to check that a change kept every byte.

The protocol: every scenario at its defaults, except `stay_graphical` at
seed 0 (family 20, the default) and `become_graphical` at gamma 0.04.  The
exit code of each run is recorded under `"<scenario>/exit"`; the fold exits 1
with its two known `brakke_identity[transport]` failures.

`--fixtures` re-records the Tier-1 byte gate instead: it runs the run
directories that `tests/test_acceptance.py`'s fixtures write (square, stay at
three L, the fold at gamma 0.02 and the small scenarios), through pytest with
`--basetemp`, and writes `{"numpy", "platform", "files"}` to OUT_JSON.
`test_fixture_run_digests` compares those fixtures with that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parents[1]

SPECS = {
    "flat_plane": {},
    "flat_stay_graphical": {},
    "bounded_curvature": {},
    "stay_graphical": {"seed": 0},
    "shrinking_square": {},
    "become_graphical": {"params": {"gamma": 0.04}},
}


def _digests(out: Path) -> dict:
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            files[p.relative_to(out).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return files


def environment() -> dict:
    """What the recorded bytes depend on besides the sources."""
    import numpy

    return {"numpy": numpy.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def fixture_document(out_root: Path) -> dict:
    """The digest document of the acceptance fixtures' output root."""
    return {**environment(), "files": _digests(out_root)}


def moved_by_kind(keys) -> dict:
    """How many of the digest keys name a snapshot, a run manifest or any
    other file, so that a format change shows which artifacts moved."""
    kinds = {"snapshots/*": 0, "manifest.json": 0, "other": 0}
    for key in keys:
        path = PurePosixPath(key)
        if path.parent.name == "snapshots":
            kinds["snapshots/*"] += 1
        elif path.name == "manifest.json":
            kinds["manifest.json"] += 1
        else:
            kinds["other"] += 1
    return kinds


def _record_fixtures(out_json: Path, env: dict, work: Path) -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py::test_fixture_run_digests", "--basetemp", str(work)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    # the gate itself fails whenever a byte moved; only the fixtures matter
    roots = sorted(work.glob("acceptance[0-9]*"))
    if len(roots) != 1:
        print(proc.stdout[-4000:], proc.stderr[-4000:], file=sys.stderr)
        print(f"expected one fixture root under {work}, found {len(roots)}", file=sys.stderr)
        return 1
    doc = fixture_document(roots[0])
    out_json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(doc['files'])} fixture files -> {out_json}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_json")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--work", default=None, help="keep the run directories here")
    parser.add_argument("--fixtures", action="store_true",
                        help="re-record the acceptance fixtures' digest file")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(args.src).resolve()), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        if args.fixtures:
            return _record_fixtures(Path(args.out_json), env, work / "basetemp")
        digests = {}
        for name, extra in SPECS.items():
            spec = work / f"{name}.json"
            spec.write_text(json.dumps({"schema_version": 1, "scenario": name, **extra}))
            out = work / name
            proc = subprocess.run(
                [sys.executable, "-m", "mcflab.cli", "run", "--spec", str(spec),
                 "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            digests[f"{name}/exit"] = proc.returncode
            digests.update({f"{name}/{rel}": h for rel, h in _digests(out).items()})
    Path(args.out_json).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests) - len(SPECS)} files -> {args.out_json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
