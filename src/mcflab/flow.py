"""Explicit time integrators for graph mean curvature flow and curve
shortening flow.

Forward Euler with a parabolic CFL restriction: dt <= CFL * h^2/(1+max|Df|^2)
for graphs, dt <= CFL * (min edge)^2 for curves, with the one CFL number
`CFL = 0.2`.  Graph boundary nodes stay frozen.  Each surface type has one
stepper: `_GraphStepper` computes Df once per step, for the CFL limit, the
Hessian and g^{-1}; `_CurveStepper` applies vertex += dt * kappa * N with the
Menger kappa and N of `geometry.CurveKernel`, the one polyline kernel.  A
stepper's `prepare(event)` loads the current array and raises the step's
remesh or extinction through `event` (False after an extinction), `limit()`
gives the CFL limit and `advance(dt)` returns the next array, kept as `raw`;
`recorded(surface)` hands it each recorded state of that array, whose cached
Df and D^2f the graph stepper adopts (its timeseries row computed both), so a
graph run computes each once per step and once for its final state.  The
single steppers `step_graph_mcf` / `step_csf` call only `limit` and `advance`,
so a single step never remeshes or stops; `run_flow` picks its stepper once,
from the surface type, before it records the initial state.  Both build each
next state with `_successor`, which revalidates the surface.  A state is its
surface and its step: its time is the surface's, so a recorded state is
exactly its snapshot plus the step in its `timeseries.csv` row.  `run_flow`
advances until the horizon, extinction, or a terminal event, recording a state
every `record_stride` steps and handing it to its sink.  `RunDirSink` is the
sink that streams a run directory: it writes each recorded state as
snapshots/NNNN.json as it arrives, and `write_run_dir` ends the directory with
the timeseries, the events and, last, the manifest, and returns the SHA-256 of
each file written, hashed from the bytes as they are written; a snapshot is
`geometry.dumps_surface`'s schema-2 document, its array an exact base64
payload.

A curve run `load`s each step's vertices into one `CurveKernel` per vertex
count (a remesh resamples through it and builds a new one), but each step
returns a fresh array.  The extinction tests read the initial curve's minimum
edge and area; the test `area < EXTINCTION_AREA_FACTOR * area0` takes the
shoelace only when a running lower bound on |A| cannot rule it out.  For
P' = P + u with every |u_i| <= delta,
A(P') - A(P) = 1/2 sum u_i x (p_{i+1} - p_{i-1}) + 1/2 sum u_i x u_{i+1}, so
|A(P') - A(P)| <= delta L + m delta^2 / 2, simple or not; the Menger
|kappa| <= 2 / lc gives delta <= dt * 2 / lc_min.  The shoelace runs when the
bound is at most twice the threshold, after a remesh or a guarded-path step
(some lc = 0), and for the extinction event, which records the area.

`run_flow` keeps only the states a monitor window reads: the first, and
while a state is recorded the previous one and the current one; a returned
trace holds its first and its last state and one row per record: its
`timeseries.csv` row, read from the state's context (`geometry._context`,
its one cache entry, which the monitors read too) before the monitors run,
and its reports; the sink receives the state then.  A state's cache is
released when the next state is recorded: the monitor windows start at the
previous record or at the first, whose cache stays.  A monitor that returns
None only observes, as the scenarios' probes do.  A cache is a pure function
of the snapshot's values, so a sink that keeps a released state recomputes
bit-identical values; it pays in time, and the cache it rebuilds stays.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import geometry
from ._util import ConfigError, GeometryError, canonical_dumps, write_csv, write_text_sha256
from .geometry import ClosedCurve, GraphPatch

EDGE_COLLAPSE = 1e-9
EDGE_RATIO_LIMIT = 4.0
EXTINCTION_LENGTH_FACTOR = 10.0
EXTINCTION_AREA_FACTOR = 1e-6
CFL = 0.2


class StepRejected(RuntimeError):
    """Fixed dt exceeds the CFL limit for the current state."""


class BlowUp(RuntimeError):
    """Update produced non-finite values (graph coordinates degenerating)."""


@dataclass(frozen=True)
class FlowConfig:
    """Integrator policy.  dt=None selects the adaptive CFL step."""

    t_end: float
    dt: float | None = None
    record_stride: int = 1
    remesh_spacing: float | None = None

    def __post_init__(self):
        for name in ("t_end", "dt", "remesh_spacing"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (numbers.Real, type(None))):
                raise ConfigError(f"{name} must be a number, not {value!r}")
        if self.t_end is None or not np.isfinite(self.t_end) or self.t_end < 0:
            raise ConfigError("t_end must be finite and >= 0")
        for name in ("dt", "remesh_spacing"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0")
        stride = self.record_stride
        if not isinstance(stride, numbers.Integral) or isinstance(stride, bool) or stride < 1:
            raise ConfigError("record_stride must be an integer >= 1")


@dataclass(frozen=True)
class FlowState:
    """A surface at a step: its snapshot plus its step.  Its time t is the
    surface's own, so a state holds nothing that its snapshot and step do
    not."""

    surface: object
    step: int = 0

    def __post_init__(self):
        if not isinstance(self.surface, (GraphPatch, ClosedCurve)):
            raise ConfigError("surface must be a GraphPatch or ClosedCurve")

    @property
    def t(self) -> float:
        return self.surface.time


@dataclass
class FlowTrace:
    """The bookkeeping of one flow run and the states its monitor windows
    read.  snapshots holds the first recorded state and, once there are
    two, the last (the previous and the current one while a state is
    recorded); run_flow's sink receives every state.  records[i] is record
    i's timeseries.csv row (t, step, measure, max|Df|, max|A|), taken when
    it was recorded, followed by the list of its reports, sorted by monitor
    id; `reports` is every report, record by record."""

    config: FlowConfig
    snapshots: list = field(default_factory=list)
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def final(self) -> FlowState:
        return self.snapshots[-1]

    @property
    def reports(self) -> list:
        return [r for *_, reports in self.records for r in reports]

    def events_of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["event"] == kind]

    @property
    def extinction_time(self) -> float | None:
        ev = self.events_of("extinction")
        return ev[0]["t"] if ev else None


# ---------------------------------------------------------------------------
# Steppers: the one implementation of each explicit update
# ---------------------------------------------------------------------------


def _check_cfl(dt: float, limit: float, context: str, *args) -> None:
    """Reject dt beyond the limit; the message ends in context.format(*args)."""
    if dt > limit * (1 + 1e-12):
        raise StepRejected(f"dt={dt:.3e} exceeds CFL limit {limit:.3e} {context.format(*args)}")


class _GraphStepper:
    """Forward-Euler step of dt f = g^{ij} D_iD_jf on raw node values,
    boundary nodes frozen; Df (by `limit`) and D^2f are computed once per
    step, unless `recorded` adopted those of the step's recorded state."""

    def __init__(self, values: np.ndarray, spacing: float):
        self.raw, self.spacing, self.df, self.d2f = values, spacing, None, None

    def prepare(self, event) -> bool:
        return True

    def recorded(self, surface: GraphPatch) -> None:
        """Adopt the Df and D^2f of `surface`, the current values' recorded state."""
        self.df, self.d2f = geometry.gradient_field(surface), geometry.hessian_field(surface)

    def limit(self) -> float:
        if self.df is None:
            self.df = geometry.gradient_raw(self.raw, self.spacing)
        gmax = float(np.max(geometry.sum_squares(self.df)))
        return CFL * self.spacing**2 / (1.0 + gmax)

    def advance(self, dt: float) -> np.ndarray:
        if self.d2f is None:
            self.d2f = geometry.hessian_raw(self.raw, self.df, self.spacing)
        ginv, _ = geometry.metric_inverse(self.df)
        interior = (slice(1, -1),) * self.raw.ndim
        out = self.raw.copy()
        out[interior] += (dt * np.einsum("...ij,...ij->...", ginv, self.d2f))[interior]
        if not np.isfinite(out).all():
            raise BlowUp(f"non-finite graph values after step of dt={dt}")
        self.raw, self.df, self.d2f = out, None, None
        return out


_EPS = float(np.finfo(float).eps)


def _shoelace_error_coef(m: int) -> float:
    """c with |CurveKernel.area() - |A|| <= c R^2 when every |coordinate| <= R."""
    return 2.0 * (m + 4) ** 2 * _EPS


def _area_bound_after_step(kernel, dt: float, area_lb: float, reach: float) -> tuple:
    """(area_lb, reach) after a curve step moved the kernel's polygon by dt:
    area_lb bounds |A| - c R^2 (c of `_shoelace_error_coef`), so the shoelace,
    from below, and reach bounds every |coordinate| R.  delta <= dt 2 / lc_min
    (module docstring) is widened for the rounding of kappa and of the add; a
    guarded-path step gives no bound."""
    if not kernel.lc_min > 0:
        return -np.inf, reach
    m = kernel.vertices.shape[0]
    delta = dt * 2.0 / kernel.lc_min * (1.0 + 1e-12)
    delta += 2.0 * _EPS * (reach + delta)
    drop = delta * kernel.length * (1.0 + (m + 8) * _EPS) + 0.5 * m * delta * delta
    drop += _shoelace_error_coef(m) * delta * (2.0 * reach + delta)  # R grows by delta
    return area_lb - drop - 2.0 * _EPS * abs(area_lb), reach + delta


class _CurveStepper:
    """Forward-Euler curve-shortening step on raw vertices, with the remesh
    and extinction tests of the module docstring."""

    def __init__(self, vertices: np.ndarray, closed: bool, remesh_spacing: float | None = None):
        self.raw, self.closed, self.remesh_spacing = vertices, closed, remesh_spacing
        self.kernel = kernel = geometry.CurveKernel(vertices, closed)
        self.min_edge0 = kernel.e_min
        self.area_floor = EXTINCTION_AREA_FACTOR * kernel.area() if self.closed else None
        self.area_lb, self.reach = -np.inf, 0.0  # no area bound until the first shoelace

    def prepare(self, event) -> bool:
        kernel, raw = self.kernel, self.raw
        if kernel.vertices is not raw:
            kernel.load(raw)
        e_min, e_max = kernel.e_min, kernel.e_max
        if e_min < EDGE_COLLAPSE or e_max / e_min > EDGE_RATIO_LIMIT:
            spacing = self.remesh_spacing
            count = max(8, int(round(kernel.length / spacing))) if spacing else raw.shape[0]
            self.raw = raw = kernel.resample(count)
            event("remesh", min_edge=e_min,
                  edge_ratio=e_max / e_min if e_min > 0 else float("inf"),
                  vertex_count=int(raw.shape[0]))
            self.kernel = kernel = geometry.CurveKernel(raw, self.closed)
            self.area_lb = -np.inf
        short = kernel.length < EXTINCTION_LENGTH_FACTOR * self.min_edge0
        area = None
        if self.closed and (short or self.area_lb <= 2.0 * self.area_floor):
            # the event records the area, or the bound cannot rule the test out
            area = kernel.area()
            reach = self.reach = float(np.abs(raw).max())
            self.area_lb = area - 2.0 * _shoelace_error_coef(raw.shape[0]) * reach * reach
        if short or (area is not None and area < self.area_floor):
            event("extinction", length=kernel.length, area=area)
            return False
        return True

    def recorded(self, surface: ClosedCurve) -> None:
        """A recorded state gives a curve step nothing."""

    def limit(self) -> float:
        return CFL * self.kernel.e_min**2

    def advance(self, dt: float) -> np.ndarray:
        """vertex += dt * kappa * N into a fresh array; open endpoints stay
        fixed.  The kernel's normal becomes dt * kappa * N in place (the
        products and the sum commute, so the bytes do not depend on the
        order)."""
        kernel = self.kernel
        kap, vel = kernel.menger()
        vel[:, 0] *= kap
        vel[:, 1] *= kap
        vel *= dt
        out = vel + kernel.vertices
        if not np.isfinite(out).all():
            raise BlowUp(f"non-finite vertices after step of dt={dt}")
        if self.closed:
            self.area_lb, self.reach = _area_bound_after_step(kernel, dt, self.area_lb, self.reach)
        self.raw = out
        return out


def _successor(state: FlowState, raw: np.ndarray, step: int, t: float) -> FlowState:
    """state's surface with raw as its vertices or values and t as its time,
    at step; the new surface is validated, and like every surface it starts
    with an empty cache of its own."""
    name = "vertices" if isinstance(state.surface, ClosedCurve) else "values"
    return FlowState(dataclasses.replace(state.surface, **{name: raw}, time=t), step)


# ---------------------------------------------------------------------------
# Single steppers
# ---------------------------------------------------------------------------


def step_graph_mcf(state: FlowState, dt: float) -> FlowState:
    """One forward-Euler step of dt f = (delta_ij - D_if D_jf/(1+|Df|^2)) D_iD_jf.

    Boundary nodes are frozen.  dt beyond the CFL limit rejects the step
    with a diagnostic.
    """
    patch = state.surface
    if not isinstance(patch, GraphPatch):
        raise ConfigError("step_graph_mcf requires a GraphPatch state")
    stepper = _GraphStepper(patch.values, patch.spacing)
    _check_cfl(dt, stepper.limit(), "(cfl={}, h={:.3e})", CFL, patch.spacing)
    return _successor(state, stepper.advance(dt), state.step + 1, state.t + dt)


def step_csf(state: FlowState, dt: float) -> FlowState:
    """One forward-Euler step of curve shortening: vertex += dt * kappa * N."""
    curve = state.surface
    if not isinstance(curve, ClosedCurve):
        raise ConfigError("step_csf requires a ClosedCurve state")
    stepper = _CurveStepper(curve.vertices, curve.closed)
    _check_cfl(dt, stepper.limit(), "(cfl={}, min edge={:.3e})", CFL, stepper.kernel.e_min)
    return _successor(state, stepper.advance(dt), state.step + 1, state.t + dt)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_flow(
    initial: FlowState | GraphPatch | ClosedCurve,
    config: FlowConfig,
    monitors: Sequence[Callable] = (),
    sink: Callable[[FlowState], None] | None = None,
) -> FlowTrace:
    """Advance the flow to t_end, recording every record_stride steps.

    Monitors are callables (trace_so_far, state) -> report | list | None,
    invoked at each recorded step; trace_so_far.snapshots[0] is the first
    state and [-2] the previous one.  The sink, if given, receives each
    recorded state once its monitors ran and its row was taken.  Step
    errors become trace events: blow_up and step_rejected terminate; remesh,
    non_simple, extinction, horizon are recorded as they occur (extinction
    also terminates).
    """
    if isinstance(initial, (GraphPatch, ClosedCurve)):
        initial = FlowState(initial)
    trace = FlowTrace(config=config)
    window = trace.snapshots
    surface = initial.surface
    closed = isinstance(surface, ClosedCurve) and surface.closed

    def event(kind: str, **fields):
        # an event, like a recorded state, is at the loop's current step and time
        trace.events.append({"event": kind, "step": step, "t": t, **fields})

    def record(state: FlowState):
        window.append(state)
        if closed and not geometry.is_simple(state.surface):
            event("non_simple")
        # the row first: a curve's kernel buffers go before the checks' per-point arrays come
        row = geometry._context(state.surface).row
        new_reports = []
        for monitor in monitors:
            rep = monitor(trace, state)
            if rep is None:
                continue
            new_reports.extend(rep if isinstance(rep, (list, tuple)) else [rep])
        new_reports.sort(key=lambda r: r.monitor_id)
        for r in new_reports:
            if not r.passed and not r.skipped:
                event("monitor_failure", monitor_id=r.monitor_id, value=r.value,
                      bound=r.bound, margin=r.margin)
        trace.records.append((state.t, state.step, *row, new_reports))
        stepper.recorded(state.surface)
        if sink is not None:
            sink(state)
        if len(window) > 2:
            # the previous state leaves the last window that reads it
            window.pop(-2).surface._cache.clear()

    # a state records the stepper's raw itself, not a copy: no step writes
    # into its input (both steppers and the resample return new arrays)
    if isinstance(surface, ClosedCurve):
        stepper = _CurveStepper(surface.vertices, surface.closed, config.remesh_spacing)
    else:
        stepper = _GraphStepper(surface.values, surface.spacing)
    t = initial.t
    step = initial.step
    t_end = initial.t + config.t_end
    record(initial)

    while t < t_end:
        try:
            if not stepper.prepare(event):
                break
            limit = stepper.limit()
            dt = config.dt if config.dt is not None else limit
            _check_cfl(dt, limit, "at step {}", step)
            t_next = t_end if dt >= t_end - t else t + dt
            if t_next == t:
                event("stall", detail="dt underflow")
                break
            stepper.advance(t_next - t)
        except StepRejected as exc:
            event("step_rejected", detail=str(exc))
            break
        except (BlowUp, GeometryError) as exc:
            event("blow_up", detail=str(exc))
            break
        step += 1
        t = t_next
        if (step - initial.step) % config.record_stride == 0:
            record(_successor(initial, stepper.raw, step, t))
    else:
        if config.t_end > 0:
            event("horizon")

    if window[-1].step != step:
        record(_successor(initial, stepper.raw, step, t))
    return trace


# ---------------------------------------------------------------------------
# Run-directory persistence
# ---------------------------------------------------------------------------


class RunDirSink:
    """A run_flow sink that streams a run directory: each recorded state is
    written as snapshots/NNNN.json when it arrives, and `write_run_dir` ends
    the directory.  A directory is complete only once its manifest exists,
    so an earlier run's manifest and snapshots go before the first write.
    `files` is {relative path: sha256} of what it wrote."""

    def __init__(self, out_dir: str | Path):
        self.out = Path(out_dir)
        snapshots = self.out / "snapshots"
        snapshots.mkdir(parents=True, exist_ok=True)
        (self.out / "manifest.json").unlink(missing_ok=True)
        for stale in snapshots.glob("[0-9]*.json"):
            stale.unlink()
        self.files: dict[str, str] = {}

    def __call__(self, state: FlowState) -> None:
        rel = f"snapshots/{len(self.files):04d}.json"
        self.files[rel] = write_text_sha256(self.out / rel,
                                            geometry.dumps_surface(state.surface) + "\n")


def write_run_dir(trace: FlowTrace, sink: RunDirSink) -> dict[str, str]:
    """End the run directory that `sink` streamed trace's states into:
    timeseries.csv, events.ndjson, and (last, with the checksums of the
    others) manifest.json.  Returns {relative path: sha256} of every file
    written, snapshots and manifest.json included."""
    out, files = sink.out, dict(sink.files)
    monitor_ids = sorted({r.monitor_id for r in trace.reports})
    header = ["t", "step", "measure", "max_gradient", "max_a"] + [
        f"margin:{mid}" for mid in monitor_ids
    ]
    rows = []
    for *row, reports in trace.records:
        margins = {r.monitor_id: r.margin for r in reports if not r.skipped}
        rows.append(row + [margins.get(mid) for mid in monitor_ids])
    files["timeseries.csv"] = write_csv(out / "timeseries.csv", header, rows)

    files["events.ndjson"] = write_text_sha256(
        out / "events.ndjson", "".join(canonical_dumps(e) + "\n" for e in trace.events)
    )

    manifest = {
        "schema_version": 1,
        "config": dataclasses.asdict(trace.config),
        "snapshot_count": len(trace.records),
        "report_count": len(trace.reports),
        "event_count": len(trace.events),
        "files": files,
    }
    files["manifest.json"] = write_text_sha256(out / "manifest.json",
                                               canonical_dumps(manifest) + "\n")
    return files
