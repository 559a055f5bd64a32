"""SHA-256 of every run-directory file of the six scenarios and one sweep.

    python3 tools/digests.py OUT_JSON [--src SRC_DIR] [--work WORK_DIR]
    python3 tools/digests.py --fixtures tests/data/run_digests.json [--src ...]

Runs each scenario through `mcflab run` in a fresh interpreter, with the
sources under SRC_DIR (default: this checkout's `src`), and writes one
canonical JSON object `{"<name>/<relative path>": sha256}` to OUT_JSON.
`run_manifest.json` is hashed only through its file inventory: it holds
wall-clock times.  Run it on two commits and `diff` the two files to check
that a change kept every byte.

The protocol: every scenario at its defaults, except `stay_graphical` at
seed 0 (family 20, the default) and `become_graphical` at gamma 0.04, then
one small sweep through `mcflab sweep` (`SWEEP`: `flat_plane` at two `t_end`),
whose `sweep.csv` and `runs/*` land under `"sweep/..."`.  The exit code of
each run is recorded under `"<name>/exit"`; the fold exits 1 with its two
known `brakke_identity[transport]` failures.  The file inventory of each
`run_manifest.json` (the outputs a run reports, without its wall-clock
times) is recorded under `"<name>/run_manifest.json:files"`.

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

SWEEP = {"base": {"schema_version": 1, "scenario": "flat_plane"},
         "vary": {"t_end": [0.005, 0.01]}}


def _digests(out: Path) -> dict:
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            files[p.relative_to(out).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return files


def _inventory_digest(out: Path):
    """SHA-256 of the canonical `files` inventory of out/run_manifest.json,
    or None when the run wrote no manifest."""
    path = out / "run_manifest.json"
    if not path.is_file():
        return None
    files = json.loads(path.read_text())["files"]
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def protocol() -> dict:
    """{name: (CLI command, spec document)} of every run the digests cover."""
    runs = {name: ("run", {"schema_version": 1, "scenario": name, **extra})
            for name, extra in SPECS.items()}
    runs["sweep"] = ("sweep", {"schema_version": 1, "scenario": "sweep", **SWEEP})
    return runs


def source_env(src) -> dict:
    """This process's environment with the sources under `src` first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(src).resolve()), env.get("PYTHONPATH")) if p
    )
    return env


def digest_run(name: str, command: str, doc: dict, work: Path, env: dict) -> dict:
    """Run one protocol entry through the CLI in a fresh interpreter, into
    work/<name>: its exit code, manifest inventory and file digests."""
    spec = work / f"{name}.json"
    spec.write_text(json.dumps(doc))
    out = work / name
    proc = subprocess.run(
        [sys.executable, "-m", "mcflab.cli", command, "--spec", str(spec), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    return {f"{name}/exit": proc.returncode,
            f"{name}/run_manifest.json:files": _inventory_digest(out),
            **{f"{name}/{rel}": h for rel, h in _digests(out).items()}}


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

    env = source_env(args.src)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        if args.fixtures:
            return _record_fixtures(Path(args.out_json), env, work / "basetemp")
        digests = {}
        runs = protocol()
        for name, (command, doc) in runs.items():
            digests.update(digest_run(name, command, doc, work, env))
    Path(args.out_json).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests) - 2 * len(runs)} files -> {args.out_json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
