#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny flat_plane spec (a few seconds).

    python3 perfbench/selftest.py

Checks that an untraced and a traced invocation emit every metric named in
BENCHMARK.json with its unit and count no failed run, and that a run checked
against a deliberately wrong reference verdict (pass flag, failing monitor
ids, a measured value, exit code) is counted as a failed run.  Exits 1 and
names each failed check otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

import make_reference
import run


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = run.BENCH_DIR / "specs" / "selftest_flat.json"
    base = run.Workload("selftest_flat", spec, {})
    reference = make_reference.record(base, False)
    good = run.Workload(base.name, spec, reference)
    errors = []

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        doc = run.measure(good, seed=0, seconds=0.0, trace=trace)
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: m["unit"] for k, m in doc["metrics"].items()}
        if got != want:
            errors.append(f"trace {int(trace)}: metrics {got} != {want}")
        if doc["failed"]:
            errors.append(f"trace {int(trace)}: {doc['failed']} failed run(s) "
                          f"against a correct reference")
        if doc["artifacts_identical"] != doc["attempted"]:
            errors.append(f"trace {int(trace)}: artifacts differ from reference")

    def wrong(mutate):
        ref = copy.deepcopy(reference)
        mutate(ref, ref["runs"]["any"])
        return run.Workload(base.name, spec, ref)

    bad_refs = {
        "pass flag": lambda r, e: e.update({"pass": not e["pass"]}),
        "failing monitors": lambda r, e: e.update({"failing_monitors": ["phi"]}),
        "measured value": lambda r, e: e["measured"].update(
            {"max_gradient": e["measured"]["max_gradient"] + 1.0}),
        "exit code": lambda r, e: r.update({"exit_code": 1}),
    }
    for label, mutate in bad_refs.items():
        doc = run.measure(wrong(mutate), seed=0, seconds=0.0, trace=False)
        if doc["failed"] != doc["attempted"]:
            errors.append(f"wrong reference ({label}) not counted as a failed run")

    for e in errors:
        print(f"FAIL: {e}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
