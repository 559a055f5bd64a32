#!/usr/bin/env python3
"""mcflab benchmark: time to a checked verdict, memory, disk and set-up.

    python3 perfbench/run.py --workload {square,stay,fold} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree (the program is imported from `src/`).

Load model: a closed loop with one client.  `mcflab run --spec <workload>
--out <dir> --seed-override N` is launched in a fresh process; the next run
starts only after the last one exits, until S seconds have passed (at least
one run).  No threads or pools.  Every run is checked against the workload's
reference in `perfbench/reference/` and then deleted.

--trace 0 reports the end-to-end metrics: run_s, setup_s, peak_rss_mb and
run_dir_mb (medians over the runs), with failed runs counted in `failed`.
--trace 1 makes the same untraced runs, then one traced run through
`perfbench/tracer.py`, and reports the per-layer metrics from its spans.
A traced run that fails its checks or writes no spans counts as failed and
gives only trace.overhead_s and artifacts.identical.

A summary goes to stdout, a result file with the machine context to
`.perfbench_out/results/`, and the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3
# Whole-invocation budget; a child still running at the deadline is killed
# and its run counts as failed.
DEADLINE_S = 170.0
# Relative tolerance on each numeric `measured` value of verdict.json.
MEASURED_RTOL = 1e-6
# Files whose bytes are compared with the reference digests.
ARTIFACTS = ("run/timeseries.csv", "run/events.ndjson", "verdict.json")
ARTIFACT_STATE = {True: "identical", False: "differ", None: "have no reference"}
FAILING_MONITOR = re.compile(r"monitor (\S+) failed at")

SETUP_CODE = (
    "import json, sys, mcflab.cli; "
    "mcflab.cli.validate_scenario_spec(json.load(open(sys.argv[1])))"
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Path
    reference: dict


def load_workload(name: str) -> Workload:
    ref = json.loads((BENCH_DIR / "reference" / f"{name}.json").read_text())
    return Workload(name, BENCH_DIR / "specs" / f"{name}.json", ref)


WORKLOADS = ("square", "stay", "fold")


# ---------------------------------------------------------------------------
# Launching and checking runs
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def launch(argv: list[str], deadline: float, log: Path | None = None) -> dict:
    """Run one child to exit; wall time, exit code and its own ru_maxrss.

    The child is reaped with wait4, which gives the rusage of that child
    alone; a timer kills it if it is still running at the deadline.
    """
    sink = open(log, "wb") if log else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                                stdout=sink, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if log:
            sink.close()
    return {"wall_s": wall, "rc": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def failing_monitors(verdict: dict) -> list[str]:
    return sorted(m.group(1) for f in verdict.get("failures", [])
                  for m in [FAILING_MONITOR.search(f)] if m)


def reference_entry(workload: Workload, seed: int) -> dict | None:
    runs = workload.reference["runs"]
    if workload.reference["seed_dependent"]:
        return runs.get(str(seed))
    return runs["any"]


def _measured_problems(got: dict, want: dict) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (a, b))
        if numeric:
            if abs(a - b) > MEASURED_RTOL * max(abs(a), abs(b)):
                problems.append(f"measured.{key} = {a!r}, reference {b!r}")
        elif a != b:
            problems.append(f"measured.{key} = {a!r}, reference {b!r}")
    return problems


def check_run(out: Path, rc: int, workload: Workload, seed: int):
    """(problems, artifacts identical) for one finished run directory;
    identical is None for a seed with no stored reference."""
    problems = []
    want_rc = workload.reference["exit_code"]
    if rc != want_rc:
        problems.append(f"exit code {rc}, reference {want_rc}")
    manifest = out / "run_manifest.json"
    verdict_path = out / "verdict.json"
    if not manifest.is_file() or not verdict_path.is_file():
        return problems + ["run_manifest.json or verdict.json missing"], False
    for rel, digest in sorted(json.loads(manifest.read_text())["files"].items()):
        p = out / rel
        if not p.is_file() or sha256_file(p) != digest:
            problems.append(f"inventory does not re-hash: {rel}")
    verdict = json.loads(verdict_path.read_text())
    ref = reference_entry(workload, seed)
    if ref is None:
        # a seed with no stored reference: the scenario's own verdict only
        if not verdict.get("pass"):
            problems.append("verdict pass is false")
        return problems, None
    if verdict.get("pass") != ref["pass"]:
        problems.append(f"pass {verdict.get('pass')}, reference {ref['pass']}")
    got_ids = failing_monitors(verdict)
    if got_ids != ref["failing_monitors"]:
        problems.append(
            f"failing monitors {got_ids}, reference {ref['failing_monitors']}")
    problems += _measured_problems(verdict.get("measured", {}), ref["measured"])
    identical = all(
        (out / rel).is_file() and sha256_file(out / rel) == digest
        for rel, digest in ref["digests"].items()
    )
    return problems, identical


def cli_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    return ["run", "--spec", str(workload.spec), "--out", str(out),
            "--seed-override", str(seed)]


def one_run(workload: Workload, seed: int, tag: str, deadline: float,
            spans: Path | None = None) -> dict:
    """Launch, measure and check one run; its directory is deleted after."""
    out = OUT / "runs" / f"{workload.name}-{seed}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    if spans is None:
        argv = [sys.executable, "-m", "mcflab.cli", *cli_argv(workload, seed, out)]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                f"{workload.name}-{seed}", *cli_argv(workload, seed, out)]
    res = launch(argv, deadline, log=OUT / "runs" / f"{out.name}.log")
    res["run_dir_mb"] = dir_bytes(out) / 2**20 if out.is_dir() else 0.0
    res["problems"], res["identical"] = check_run(out, res["rc"], workload, seed)
    res["tag"] = tag
    shutil.rmtree(out, ignore_errors=True)
    return res


def setup_times(workload: Workload, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import mcflab.cli and validate
    the workload spec; one unmeasured warm-up first (bytecode caches)."""
    argv = [sys.executable, "-c", SETUP_CODE, str(workload.spec)]
    times = []
    for i in range(SETUP_PROBES + 1):
        res = launch(argv, deadline)
        if res["rc"] != 0:
            raise RuntimeError(f"set-up probe exited with {res['rc']}")
        if i:
            times.append(res["wall_s"])
    return times


# ---------------------------------------------------------------------------
# Context and output
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_context() -> dict:
    cpu = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(idx / "level").strip()
        kind = _read(idx / "type").strip()
        if level in ("2", "3"):
            caches[f"L{level}" + ("" if kind == "Unified" else f"-{kind}")] = (
                _read(idx / "size").strip())
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.group(1) if cpu else platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def traced_run(workload: Workload, seed: int, deadline: float):
    """One run under the tracer: (run, layer metrics from its spans).

    A traced run that fails its checks or leaves no readable spans file (it
    was killed at the deadline, say) gives no layer metrics; a missing spans
    file is one of its problems, so the run counts as failed.
    """
    spans_path = OUT / "spans" / f"{workload.name}-{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.unlink(missing_ok=True)
    traced = one_run(workload, seed, "traced", deadline, spans=spans_path)
    try:
        spans = json.loads(spans_path.read_text())["spans"]
    except (OSError, ValueError, KeyError) as exc:
        traced["problems"].append(f"no spans from the traced run: {exc!r}")
    if traced["problems"]:
        return traced, {}
    return traced, tracer.layer_metrics(spans)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """All runs of one invocation; returns the result document."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    context = machine_context()
    setup = [] if trace else setup_times(workload, deadline)
    runs = []
    while not runs or time.perf_counter() - start < seconds:
        # the traced run, if any, needs about as long as an untraced one
        last = runs[-1]["wall_s"] * (2 if trace else 1) if runs else 0.0
        if runs and time.perf_counter() + last > deadline:
            break
        runs.append(one_run(workload, seed, f"r{len(runs)}", deadline))
    run_s = statistics.median(r["wall_s"] for r in runs)
    if trace:
        traced, layers = traced_run(workload, seed, deadline)
        runs.append(traced)
        layers["trace.overhead_s"] = (traced["wall_s"] - run_s, "s")
    failed = sum(1 for r in runs if r["problems"])
    identical = sum(1 for r in runs if r["identical"] is True)
    if trace:
        layers["artifacts.identical"] = (identical, "count")
        metrics = layers
    else:
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MiB"),
            "run_dir_mb": (statistics.median(r["run_dir_mb"] for r in runs), "MiB"),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": context,
        "setup_s": setup,
        "runs": runs,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "artifacts_identical": identical,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def summary_lines(doc: dict) -> list[str]:
    lines = [f"workload {doc['workload']} seed {doc['seed']} "
             f"trace {doc['trace']}: {doc['attempted']} run(s)"]
    for r in doc["runs"]:
        lines.append(
            f"  run {r['tag']}: {r['wall_s']:.3f} s, rc {r['rc']}, "
            f"{r['peak_rss_mb']:.1f} MiB rss, {r['run_dir_mb']:.2f} MiB on disk, "
            f"artifacts {ARTIFACT_STATE[r['identical']]}"
            + "".join(f"\n    FAILED: {p}" for p in r["problems"]))
    for name, m in doc["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  failed_frac = {doc['failed_frac']:.6g} ratio")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mcflab" / "cli.py").is_file():
        print(f"error: no mcflab sources under {SRC}", file=sys.stderr)
        return 2
    doc = measure(load_workload(args.workload), args.seed, args.seconds,
                  bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}-{stamp}.json"
     ).write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summary_lines(doc)))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
