"""Outside-in layer trace of one `mcflab run`, from the benchmark's own code.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID run --spec ... --out ...

The tracer imports mcflab, replaces each public function named in TARGETS at
every place a caller looks it up (the defining module and every
`from ... import` binding in the package, e.g. `scenarios.run_flow`,
`scenarios.is_graphical`, `scenarios.check_height_bound`), and calls
`mcflab.cli.main` in this process.  Every call becomes a span (id, name,
start, end, parent span, run id) kept in memory; the spans are written to
SPANS_JSON when the run ends.  The process exits with the run's exit code.

`layer_metrics` turns the spans into the per-layer metrics.  It is pure
Python, so the benchmark can import this file without importing mcflab.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Public functions timed per layer, by defining module.
TARGETS = {
    "cli": ("main",),
    "scenarios": ("run_scenario",),
    "flow": ("run_flow", "write_run_dir"),
    "geometry": ("is_simple", "dumps_surface"),
    "monitors": (
        "check_phi_monotonicity",
        "check_upsilon_monotonicity",
        "check_brakke_identity",
        "check_gradient_bound_EH",
        "check_height_bound",
        "check_measure_bound",
        "check_curvature_bound_EH",
    ),
    "graphicality": ("is_graphical", "first_graphical_time"),
}

# Checks that get their own `.ms` / `.calls` metrics.
NAMED_CHECKS = (
    "check_phi_monotonicity",
    "check_upsilon_monotonicity",
    "check_brakke_identity",
    "check_gradient_bound_EH",
    "check_height_bound",
)

# Span of one per-record monitor callable handed to run_flow.
MONITOR_SPAN = "monitors.monitor"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, annotate=None):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if annotate is not None:
            span.update(annotate(result))
        return result

    def wrap(self, name, fn, annotate=None, prepare=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            return self.call(name, fn, args, kwargs, annotate)

        return traced


def _flow_counts(trace) -> dict:
    """Counts read from the FlowTrace a run_flow call returns."""
    snaps = trace.snapshots
    held = 0
    for state in snaps:
        surf = state.surface
        held += (surf.vertices if hasattr(surf, "vertices") else surf.values).nbytes
    reports = trace.reports
    skipped = sum(1 for r in reports if r.skipped)
    failed = sum(1 for r in reports if not r.passed and not r.skipped)
    return {
        "steps": snaps[-1].step - snaps[0].step if snaps else 0,
        "records": len(snaps),
        "remeshes": len(trace.events_of("remesh")),
        "reports": len(reports),
        "skipped": skipped,
        "failed": failed,
        "held_bytes": held,
    }


def _snapshot_bytes(text: str) -> dict:
    return {"bytes": len(text)}


def install(tracer: Tracer) -> None:
    """Replace every binding of each target function in the mcflab package."""
    package = importlib.import_module("mcflab")
    modules = {name: importlib.import_module(f"mcflab.{name}") for name in TARGETS}

    def wrap_monitors(args, kwargs):
        def traced_battery(battery):
            return [tracer.wrap(MONITOR_SPAN, m) for m in battery]

        if "monitors" in kwargs:
            kwargs = dict(kwargs, monitors=traced_battery(kwargs["monitors"]))
        elif len(args) >= 3:
            args = (*args[:2], traced_battery(args[2]), *args[3:])
        return args, kwargs

    hooks = {
        "flow.run_flow": {"annotate": _flow_counts, "prepare": wrap_monitors},
        "geometry.dumps_surface": {"annotate": _snapshot_bytes},
    }
    replacements = {}
    for layer, names in TARGETS.items():
        for name in names:
            fn = getattr(modules[layer], name)
            span = f"{layer}.{name}"
            replacements[id(fn)] = (fn, tracer.wrap(span, fn, **hooks.get(span, {})))
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics from one run's spans; times are self times."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[s["id"]]
        total_s[name] = total_s.get(name, 0.0) + dur

    def layer_self(layer):
        return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

    def per_call_ms(name):
        n = calls.get(name, 0)
        return 1e3 * self_s[name] / n if n else 0.0

    flows = [s for s in spans if s["name"] == "flow.run_flow"]
    counts = {
        key: sum(s[key] for s in flows)
        for key in ("steps", "records", "remeshes", "reports", "skipped", "failed")
    }
    snaps = [s["bytes"] for s in spans if s["name"] == "geometry.dumps_surface"]
    stepping_s = self_s.get("flow.run_flow", 0.0)
    m = {
        "flow.step_us": (
            1e6 * stepping_s / counts["steps"] if counts["steps"] else 0.0, "us"),
        "flow.steps": (counts["steps"], "count"),
        "flow.records": (counts["records"], "count"),
        "flow.remeshes": (counts["remeshes"], "count"),
        "flow.stepping_s": (stepping_s, "s"),
        "flow.write_run_dir_s": (self_s.get("flow.write_run_dir", 0.0), "s"),
        "flow.held_snapshots_mb": (
            max((s["held_bytes"] for s in flows), default=0) / 2**20, "MiB"),
        "geometry.self_s": (layer_self("geometry"), "s"),
        "geometry.is_simple.ms": (per_call_ms("geometry.is_simple"), "ms"),
        "geometry.is_simple.calls": (calls.get("geometry.is_simple", 0), "count"),
        "geometry.dumps_surface.ms": (per_call_ms("geometry.dumps_surface"), "ms"),
        "geometry.dumps_surface.calls": (
            calls.get("geometry.dumps_surface", 0), "count"),
        "geometry.snapshot_kb": (
            sum(snaps) / len(snaps) / 1024 if snaps else 0.0, "kB"),
        "monitors.self_s": (layer_self("monitors"), "s"),
        "monitors.record_ms": (
            1e3 * total_s.get(MONITOR_SPAN, 0.0) / counts["records"]
            if counts["records"] else 0.0, "ms"),
    }
    for check in NAMED_CHECKS:
        m[f"monitors.{check}.ms"] = (per_call_ms(f"monitors.{check}"), "ms")
        m[f"monitors.{check}.calls"] = (calls.get(f"monitors.{check}", 0), "count")
    reports = counts["reports"]
    m.update({
        "monitors.reports": (reports, "count"),
        "monitors.skipped": (counts["skipped"], "count"),
        "monitors.failed": (counts["failed"], "count"),
        "monitors.evaluated_frac": (
            (reports - counts["skipped"]) / reports if reports else 0.0, "ratio"),
        "graphicality.self_s": (layer_self("graphicality"), "s"),
        "graphicality.is_graphical.ms": (
            per_call_ms("graphicality.is_graphical"), "ms"),
        "graphicality.is_graphical.calls": (
            calls.get("graphicality.is_graphical", 0), "count"),
        "scenarios.self_s": (self_s.get("scenarios.run_scenario", 0.0), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
    })
    return m


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    cli = importlib.import_module("mcflab.cli")
    try:
        rc = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run": run_id, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
