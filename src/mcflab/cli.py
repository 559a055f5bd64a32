"""Command-line driver: run scenarios, run sweeps, emit plot-ready CSVs.

Exit codes: 0 pass, 1 runtime or assertion failure, 2 usage/validation error.
A run_manifest.json (version, spec sha256, seed, wall times, workers, resolved
configuration, inventory of the files the run wrote) is written last.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._util import ConfigError, ValidationError, canonical_dumps, sha256_file, write_csv
from .geometry import ClosedCurve, loads_surface
from .scenarios import run_scenario, run_sweep, validate_scenario_spec, with_overrides

OUT_ENV_VAR = "MCFLAB_OUT"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_spec(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError("$", f"cannot read spec: {exc}")
    except UnicodeDecodeError as exc:
        raise ValidationError("$", f"spec is not UTF-8: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer literal beyond int_max_str_digits
        raise ValidationError("$", f"invalid JSON: {exc}")


def _resolve_out(explicit, spec_path: Path) -> Path:
    if explicit is not None:
        return Path(explicit)
    root = os.environ.get(OUT_ENV_VAR, ".")
    return Path(root) / spec_path.stem


def _write_manifest(out: Path, spec_path: Path, resolved: dict,
                    started: str, finished: str, workers: int, files: dict) -> None:
    """run_manifest.json; `files` is {relative path: sha256} of what the run
    wrote under out, as hashed when it was written."""
    manifest = {
        "tool": "mcflab",
        "version": __version__,
        "spec_sha256": sha256_file(spec_path),
        "seed": resolved.get("seed"),
        "started": started,
        "finished": finished,
        "workers": workers,
        "resolved_config": resolved,
        "files": files,
    }
    (out / "run_manifest.json").write_text(canonical_dumps(manifest) + "\n")


def cmd_run(args) -> int:
    spec_path = Path(args.spec)
    doc = with_overrides(_load_spec(spec_path), args.seed_override)
    resolved = validate_scenario_spec(doc)
    if resolved["scenario"] == "sweep":
        raise ValidationError("$.scenario", "sweep specs go through the sweep command")
    out = _resolve_out(args.out, spec_path)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    result = run_scenario(doc, out_dir=out)
    resolved["out"] = str(out)
    _write_manifest(out, spec_path, resolved, started, _now(), result.workers, result.outputs)
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.scenario}: {status} ({out})")
    for line in result.failures:
        print(f"  failure: {line}", file=sys.stderr)
    return 0 if result.passed else 1


def cmd_sweep(args) -> int:
    if args.parallelism < 1:
        raise ConfigError(f"--parallelism must be >= 1, got {args.parallelism}")
    spec_path = Path(args.spec)
    doc = _load_spec(spec_path)
    resolved = validate_scenario_spec(doc)
    out = _resolve_out(args.out, spec_path)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    sweep = run_sweep(doc, out_dir=out, parallelism=args.parallelism)
    resolved["out"] = str(out)
    resolved["parallelism"] = args.parallelism
    _write_manifest(out, spec_path, resolved, started, _now(), sweep["workers"], sweep["files"])
    n = len(sweep["rows"])
    status = "PASS" if sweep["all_passed"] else "FAIL"
    print(f"sweep: {status} ({n} runs, {out})")
    return 0 if sweep["all_passed"] else 1


def _run_base(run_dir: Path) -> Path:
    return run_dir / "run" if (run_dir / "run").is_dir() else run_dir


def _check_complete(base: Path) -> list:
    """Missing or corrupt files relative to the run manifest inventory, or
    the manifest itself if it is absent or holds no inventory."""
    gaps = []
    manifest_path = base / "manifest.json"
    if not manifest_path.is_file():
        return [str(manifest_path)]
    try:  # not JSON, not an object, no "files", or "files" not an object
        inventory = json.loads(manifest_path.read_text())["files"].items()
    except (ValueError, LookupError, TypeError, AttributeError):
        return [f"{manifest_path} (unreadable)"]
    for rel, digest in sorted(inventory):
        p = base / rel
        if not p.is_file():
            gaps.append(f"{p} (missing)")
        elif sha256_file(p) != digest:
            gaps.append(f"{p} (checksum mismatch)")
    return gaps


def _emit_snapshots(base: Path, out: Path) -> None:
    rows = []
    header = None
    inventory = json.loads((base / "manifest.json").read_text())["files"]
    snapshots = [(int(Path(rel).stem), rel) for rel in inventory if rel.startswith("snapshots/")]
    for idx, rel in sorted(snapshots):
        surface = loads_surface((base / rel).read_text())
        if isinstance(surface, ClosedCurve):
            header = header or ["snapshot", "t", "i", "x", "y"]
            for i, (x, y) in enumerate(surface.vertices):
                rows.append([idx, surface.time, i, float(x), float(y)])
        else:
            pts = surface.nodes[surface.active]
            vals = surface.values[surface.active]
            coords = [f"x{k}" for k in range(pts.shape[1])]
            header = header or ["snapshot", "t", "i", *coords, "f"]
            for i in range(len(vals)):
                rows.append(
                    [idx, surface.time, i]
                    + [float(c) for c in pts[i]]
                    + [float(vals[i])]
                )
    write_csv(out / "snapshots.csv", header or ["snapshot", "t", "i"], rows)


def _emit_margins(base: Path, out: Path) -> None:
    with open(base / "timeseries.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        margin_cols = [c for c in reader.fieldnames or [] if c.startswith("margin:")]
        rows = []
        for rec in reader:
            for col in margin_cols:
                if rec[col] != "":
                    rows.append(
                        [float(rec["t"]), col[len("margin:"):], float(rec[col])]
                    )
    write_csv(out / "margins.csv", ["t", "monitor", "margin"], rows)


def _emit_envelopes(run_dir: Path, out: Path) -> None:
    src = run_dir / "envelopes.csv"
    if not src.is_file():
        raise FileNotFoundError(str(src))
    out.joinpath("envelopes.csv").write_bytes(src.read_bytes())


def cmd_plotdata(args) -> int:
    run_dir = Path(args.run)
    base = _run_base(run_dir)
    gaps = _check_complete(base)
    if gaps:
        print("run directory incomplete:", file=sys.stderr)
        for g in gaps:
            print(f"  {g}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else run_dir / "plots"
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.kind == "snapshots":
            _emit_snapshots(base, out)
        elif args.kind == "margins":
            _emit_margins(base, out)
        else:
            _emit_envelopes(run_dir, out)
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 1
    print(f"plotdata {args.kind}: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcflab",
        description="Flow scenario runner: graphs under mean curvature flow, "
        "closed curves under curve shortening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario spec")
    p_run.add_argument("--spec", required=True, help="scenario spec JSON")
    p_run.add_argument(
        "--out",
        help=f"output directory (default: ${OUT_ENV_VAR}/<spec stem>)",
    )
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.add_argument("--parallelism", type=int, default=1)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSVs from a run")
    p_plot.add_argument("--run", required=True, help="scenario output directory")
    p_plot.add_argument(
        "--kind", required=True, choices=["snapshots", "margins", "envelopes"]
    )
    p_plot.add_argument("--out", help="destination (default: <run>/plots)")
    p_plot.set_defaults(fn=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure; events stay in the run dir
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
