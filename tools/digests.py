"""SHA-256 of every run-directory file of the six scenarios.

    python3 tools/digests.py OUT_JSON [--src SRC_DIR] [--work WORK_DIR]

Runs each scenario through `mcflab run` in a fresh interpreter, with the
sources under SRC_DIR (default: this checkout's `src`), and writes one
canonical JSON object `{"<scenario>/<relative path>": sha256}` to OUT_JSON.
`run_manifest.json` is left out: it holds wall-clock times.  Run it on two
commits and `diff` the two files to check that a change kept every byte.

The protocol: every scenario at its defaults, except `stay_graphical` at
seed 0 (family 20, the default) and `become_graphical` at gamma 0.04.  The
exit code of each run is recorded under `"<scenario>/exit"`; the fold exits 1
with its two known `brakke_identity[transport]` failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_json")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--work", default=None, help="keep the run directories here")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(args.src).resolve()), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
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
