#!/usr/bin/env python3
"""Record the reference verdicts and artifact digests the benchmark checks.

    python3 perfbench/make_reference.py WORKLOAD

Runs `mcflab run` on the workload's spec (with seed 0 for a seed-independent
scenario, with each of the seeds 0-31 otherwise) and writes
`perfbench/reference/WORKLOAD.json`: the expected exit code and, per seed, the verdict's pass flag,
failing monitor ids and measured values, plus the SHA-256 of the artifacts
compared byte for byte.  A reference is the output of the program at the
commit it was recorded on; re-record only when a change of the numerics is
intended, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run

SEED_DEPENDENT = {"square": False, "stay": True, "fold": False}


# Seeds with a stored reference for a seed-dependent scenario.
REFERENCE_SEEDS = range(32)


def record(workload: run.Workload, dependent: bool) -> dict:
    """Reference document for a workload, from runs of the current program."""
    name = workload.name
    exit_codes = set()
    runs = {}
    for seed in REFERENCE_SEEDS if dependent else [0]:
        out = run.OUT / "reference" / f"{name}-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "mcflab.cli", *run.cli_argv(workload, seed, out)]
        res = run.launch(argv, time.perf_counter() + 3600)
        exit_codes.add(res["rc"])
        verdict = json.loads((out / "verdict.json").read_text())
        runs[str(seed) if dependent else "any"] = {
            "pass": verdict["pass"],
            "failing_monitors": run.failing_monitors(verdict),
            "measured": verdict["measured"],
            "digests": {rel: run.sha256_file(out / rel) for rel in run.ARTIFACTS},
        }
        print(f"{name} seed {seed}: rc {res['rc']} in {res['wall_s']:.1f} s",
              flush=True)
        shutil.rmtree(out)
    if len(exit_codes) != 1:
        raise SystemExit(f"{name}: exit code differs between seeds: {exit_codes}")
    return {
        "workload": name,
        "spec": workload.spec.relative_to(run.BENCH_DIR).as_posix(),
        "exit_code": exit_codes.pop(),
        "seed_dependent": dependent,
        "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(SEED_DEPENDENT))
    args = parser.parse_args()
    spec = run.BENCH_DIR / "specs" / f"{args.workload}.json"
    doc = record(run.Workload(args.workload, spec, {}), SEED_DEPENDENT[args.workload])
    path = run.BENCH_DIR / "reference" / f"{args.workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
