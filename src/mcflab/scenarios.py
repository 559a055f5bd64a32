"""Scenario runs: initial data driven through the flow's qualitative milestones.

Each scenario builds initial data from a few geometric parameters, runs
every flow through `_monitored_flow` (the one `monitor_battery` that every
run carries, plus its own probes and bounds), checks its milestone assertions,
and ends in `_finish`, which builds its ScenarioResult and optionally writes
a run directory plus a machine-readable verdict.json; the result's `outputs`
is then {relative path: sha256} of every file written, each hashed as it was
written, and `run_sweep` joins its runs' outputs into one.  Specs are plain
JSON documents validated with field-path errors so drivers can surface
`$.params.L`-style diagnostics; a spec picks no monitors.

Calibrated constants (c_hat values) are measured outputs: they come from a
three-resolution sweep (2x the max observed ratio) and are recorded in the
verdict, never asserted against externally invented values.

Each scenario probes its states in its cylinders as run_flow records them,
while their caches are live (`graphicality.record_probe`, one of the flow's
monitors); its graphicality milestones read the probe lists that builds.
Whatever else a scenario reads of every state (the square's envelope rows,
flat_plane's curvature window) it also takes at record time, so a flow keeps
only its monitor window.

Flows that read no other flow's result run in `_util.worker_pool`: the
fold's calibration and doubled-gamma flows beside its main flow, and the
stay family's members beside its first.  A task returns only what its caller
reads.  The main flow streams its states into run/ as it records them
(`flow.RunDirSink`); the stay family's representative is known only once
every member has run, so its members keep their small states in a list and
the representative's go to run/ then.  run/ is ended once every flow is
done, then the extra CSVs, and `verdict.json` last.  No byte depends on the
worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import (ConfigError, ValidationError, canonical_dumps, finite_float, worker_pool,
                    write_csv, write_text_sha256)
from .flow import CFL, FlowConfig, FlowState, RunDirSink, run_flow, write_run_dir
from .geometry import (
    ClosedCurve,
    CurveKernel,
    Cylinder,
    GraphPatch,
    curve_point_distance,
    edge_lengths,
    enclosed_area,
    gradient_field,
    hessian_field,
    second_fundamental_norm,
    sum_squares,
    tilt,
    total_length,
)
from .graphicality import (
    first_graphical_time,
    first_nongraphical_time,
    record_probe,
    vertical_crossings,
)
from .monitors import (
    CurvatureWindowEH,
    calibrate_constant,
    check_brakke_identity,
    check_gradient_bound_EH,
    check_height_bound,
    check_measure_bound,
    check_phi_monotonicity,
    check_upsilon_monotonicity,
    phi_rho_cubed_field,
    windowed_monitor,
)

SCHEMA_VERSION = 1


@dataclass
class ScenarioResult:
    scenario: str
    measured: dict
    failures: list = field(default_factory=list)
    traces: dict = field(default_factory=dict, repr=False, compare=False)
    workers: int = field(default=1, compare=False)  # not in the verdict
    outputs: dict = field(default_factory=dict, compare=False)  # {path: sha256} in out_dir

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> dict:
        return {
            "scenario": self.scenario,
            "pass": self.passed,
            "measured": self.measured,
            "failures": list(self.failures),
        }


def monitor_battery(rho: float = 1.0, y0=(0.0, 0.0)):
    """The per-record monitors every scenario runs, for curves and 1-D graphs
    in R^2, centred at y0 from t = 0: the phi and three upsilon monotone
    quantities, the Ecker-Huisken gradient bound and Brakke's identity.

    The Brakke monitor uses the transport form H nu . Dphi.  The divergence
    form -div_M(Dphi) is the same identity after integration by parts and is
    exercised separately by the identity checks.
    """
    y0 = np.asarray(y0, dtype=float)
    upsilon = functools.partial(
        windowed_monitor, check_upsilon_monotonicity, -2, y0=y0, rho=rho
    )
    return [
        windowed_monitor(check_phi_monotonicity, -2, rho, x0=y0),
        upsilon("constant"),
        upsilon("slab", r0=0.2),
        upsilon("split", lam=0.5),
        windowed_monitor(check_gradient_bound_EH, 0, y0, rho),
        windowed_monitor(check_brakke_identity, -2,
                         phi_rho_cubed_field(rho, 0.0, y0), form="transport"),
    ]


def _monitored_flow(surface, config, *extra, rho=1.0, y0=(0.0, 0.0), sink=None):
    """run_flow from `surface` under the monitor battery (centred at y0,
    radius rho), then the `extra` per-record monitors, into `sink`: (trace,
    one failure line per monitor_failure event)."""
    battery = monitor_battery(rho, y0) + list(extra)
    trace = run_flow(FlowState(surface), config, monitors=battery, sink=sink)
    failures = [f"monitor {ev['monitor_id']} failed at t={ev['t']}: margin {ev['margin']}"
                for ev in trace.events_of("monitor_failure")]
    return trace, failures


def _run_dir(out_dir):
    """The sink that streams the main flow's states into out_dir/run, or
    None without an out_dir."""
    return None if out_dir is None else RunDirSink(Path(out_dir) / "run")


def _finish(scenario, measured, failures, run_dir, traces, extra_csv=None, workers=1):
    """The scenario's result; given the `_run_dir` sink that received
    traces["run"]'s states, it also ends run/, then writes each extra CSV
    ({name: (header, rows)}) and verdict.json beside it, and records
    {relative path: sha256} of each file in result.outputs."""
    result = ScenarioResult(scenario, measured, failures, traces, workers)
    if run_dir is not None:
        out = run_dir.out.parent
        outputs = {f"run/{rel}": digest
                   for rel, digest in write_run_dir(traces["run"], run_dir).items()}
        for name, (header, rows) in (extra_csv or {}).items():
            outputs[name] = write_csv(out / name, header, rows)
        outputs["verdict.json"] = write_text_sha256(out / "verdict.json",
                                                    canonical_dumps(result.verdict) + "\n")
        result.outputs = outputs
    return result


# ---------------------------------------------------------------------------
# Initial data builders
# ---------------------------------------------------------------------------


def _patch_axis(radius: float, resolution: int) -> np.ndarray:
    return np.linspace(-radius, radius, resolution)


def _line_patch(axis: np.ndarray, values: np.ndarray) -> GraphPatch:
    """The 1-D graph of `values` on the node axis of `_patch_axis`."""
    return GraphPatch(center=(0.0,), radius=float(axis[-1]),
                      spacing=float(axis[1] - axis[0]), values=values)


def _graph_config(axis: np.ndarray, slope: float, t_end: float, records: int) -> FlowConfig:
    """A flow to t_end of a graph of Lipschitz constant `slope` on `axis` that
    records about `records` times, counting steps of dt0 = CFL h^2/(1 + slope^2)."""
    h = float(axis[1] - axis[0])
    dt0 = CFL * h * h / (1.0 + slope * slope)
    return FlowConfig(t_end=t_end, record_stride=max(1, int(t_end / dt0) // records))


def _ramp(axis: np.ndarray, L: float, a: float) -> np.ndarray:
    """(L/a) log cosh(a x): slope tending to L, curvature at most L a."""
    return (L / a) * np.log(np.cosh(a * axis))


def _random_unit_profile(rng: np.random.Generator, axis: np.ndarray) -> np.ndarray:
    """Random Fourier sum with discrete Lipschitz constant exactly 1.

    Rejects shapes with sup/slope ratio above 1/8 so that rescaling the slope
    to any L <= 4 keeps sup |f| <= 1/2.
    """
    for _ in range(100):
        modes = rng.integers(5, 11, size=4)
        amps = rng.normal(size=4) / modes
        phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
        vals = np.zeros_like(axis)
        for k, a, p in zip(modes, amps, phases):
            vals += a * np.sin(0.5 * np.pi * k * axis + p)
        slope = float(np.max(np.abs(gradient_field(_line_patch(axis, vals)))))
        if slope > 0 and float(np.max(np.abs(vals))) <= slope / 8.0:
            return vals / slope
    raise ConfigError("profile rejection loop failed to produce sup/slope <= 1/8")


def _rounded_square_vertices(epsilon: float, count: int) -> np.ndarray:
    """Counterclockwise boundary of the rounded region A containing
    [-2,2] x [0,2] inside its epsilon-fattening, corner radius 0.8 epsilon."""
    rc = 0.8 * epsilon
    right = 2.0 + epsilon
    top = 2.0 + epsilon
    pieces = []

    def seg(p, q):
        pieces.append(("seg", np.asarray(p, float), np.asarray(q, float)))

    def arc(c, a0, a1):
        pieces.append(("arc", np.asarray(c, float), (a0, a1)))

    seg((-(right - rc), 0.0), (right - rc, 0.0))
    arc((right - rc, rc), -0.5 * np.pi, 0.0)
    seg((right, rc), (right, top - rc))
    arc((right - rc, top - rc), 0.0, 0.5 * np.pi)
    seg((right - rc, top), (-(right - rc), top))
    arc((-(right - rc), top - rc), 0.5 * np.pi, np.pi)
    seg((-right, top - rc), (-right, rc))
    arc((-(right - rc), rc), np.pi, 1.5 * np.pi)

    dense = []
    per_unit = max(4096, 8 * count) / (8 * right - 8 * rc + 2 * np.pi * rc)
    for kind, a, b in pieces:
        if kind == "seg":
            length = float(np.linalg.norm(b - a))
            m = max(2, int(math.ceil(length * per_unit)))
            ts = np.linspace(0.0, 1.0, m, endpoint=False)[:, None]
            dense.append(a + ts * (b - a))
        else:
            a0, a1 = b
            m = max(8, int(math.ceil(abs(a1 - a0) * rc * per_unit)))
            ang = np.linspace(a0, a1, m, endpoint=False)
            dense.append(a + rc * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    dense = np.concatenate(dense, axis=0)
    return CurveKernel(dense, True).resample(count)


def _fold_vertices(L: float, gamma: float, spacing: float):
    """Open initial curve over [-2, 2]: slab-confined Lipschitz graph outside
    the excised strip E = [-w, w], joined by a three-sheet Z-fold whose extra
    length over E stays within the measure budget gamma.

    Returns (vertices, extra_length, half_width).
    """
    w = 0.025
    b = 0.10 * gamma
    r = 0.075 * gamma
    if 4 * r >= gamma * (1 + 1e-12):
        raise ConfigError("fold height exceeds the slab")

    dense = []
    m_graph = max(64, int(math.ceil((2.0 - w) / (spacing / 4))))
    xs = np.linspace(-2.0, -w, m_graph, endpoint=False)
    dense.append(
        np.stack(
            [xs, 0.5 * gamma * (np.cos(2.0 * L * (xs + w) / gamma) - 1.0)], axis=1
        )
    )
    m_sheet = max(16, int(math.ceil((w + b) / (spacing / 4))))
    xs = np.linspace(-w, b, m_sheet, endpoint=False)
    dense.append(np.stack([xs, np.zeros_like(xs)], axis=1))
    m_cap = max(32, int(math.ceil(np.pi * r / (spacing / 4))))
    ang = np.linspace(-0.5 * np.pi, 0.5 * np.pi, m_cap, endpoint=False)
    dense.append(
        np.stack([b + r * np.cos(ang), r + r * np.sin(ang)], axis=1)
    )
    xs = np.linspace(b, -b, m_sheet, endpoint=False)
    dense.append(np.stack([xs, np.full_like(xs, 2 * r)], axis=1))
    ang = np.linspace(1.5 * np.pi, 0.5 * np.pi, m_cap, endpoint=False)
    dense.append(
        np.stack([-b + r * np.cos(ang), 3 * r + r * np.sin(ang)], axis=1)
    )
    xs = np.linspace(-b, w, m_sheet, endpoint=False)
    dense.append(np.stack([xs, np.full_like(xs, 4 * r)], axis=1))
    xs = np.linspace(w, 2.0, m_graph)
    dense.append(
        np.stack([xs, 4 * r * np.cos(L * (xs - w) / (4 * r))], axis=1)
    )
    dense = np.concatenate(dense, axis=0)

    kernel = CurveKernel(dense, False)
    verts = kernel.resample(max(8, int(round(kernel.length / spacing))))

    mids = 0.5 * (verts[:-1, 0] + verts[1:, 0])
    seg_len = CurveKernel(verts, False).edges
    in_strip = np.abs(mids) <= w
    extra = float(np.sum(seg_len[in_strip])) - 2 * w
    if extra > gamma * (1 + 1e-9):
        raise ConfigError(
            f"fold measure budget violated: extra length {extra:.6g} > {gamma}"
        )
    return verts, extra, w


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def scenario_flat_plane(
    resolution: int = 128,
    value: float = 0.0,
    radius: float = 2.0,
    t_end: float = 0.01,
    seed: int = 0,
    out_dir=None,
) -> ScenarioResult:
    """Stationary plane with the full monitor battery; everything must pass."""
    patch = GraphPatch.from_function(
        lambda x: np.full(x.shape[:-1], float(value)),
        center=(0.0,),
        radius=radius,
        nodes_per_axis=resolution,
    )
    curvature = CurvatureWindowEH((0.0, value), rho=radius / 4, c_hat=1.0)
    run_dir = _run_dir(out_dir)
    trace, failures = _monitored_flow(
        patch, FlowConfig(t_end=t_end, record_stride=1),
        windowed_monitor(check_measure_bound, 0, (0.0, value), radius / 2), curvature,
        rho=radius / 2, y0=(0.0, value), sink=run_dir,
    )
    height = check_height_bound(
        trace.snapshots[0], trace.final, (0.0, value), R=radius / 2, r0=1e-9, c_hat=1.0
    )
    if not height.passed and not height.skipped:
        failures.append(f"height bound failed: margin {height.margin}")
    curv = curvature.report()
    if not curv.passed and not curv.skipped:
        failures.append(f"curvature bound failed: margin {curv.margin}")

    measured = {
        "resolution": resolution,
        "records": len(trace.records),
        "reports": len(trace.reports),
        "reports_failed": sum(
            1 for r in trace.reports if not r.passed and not r.skipped
        ),
        "max_gradient": float(
            np.max(np.abs(gradient_field(trace.final.surface)))
        ),
        "height_margin": height.margin,
        "curvature_margin": curv.margin,
    }
    return _finish("flat_plane", measured, failures, run_dir, {"run": trace})


def _graph_radius(values: np.ndarray, axis: np.ndarray, spacing: float,
                  height: float) -> float:
    """Largest r with sup_{|x| <= r} |f| <= height on the node grid."""
    bad = np.abs(values) > height
    if not bad.any():
        return float(axis[-1])
    return max(0.0, float(np.min(np.abs(axis[bad]))) - spacing)


def _stay_member(i, values, config, L):
    """One stay_graphical family member, run and probed in C(0,1,1) (a pool
    task but for member 0): its failures, its family.csv row and, if it can
    be the representative, its trace and recorded states.  The representative
    is the member with the least (kappa candidate, index): the first member,
    or one that leaves the cylinder before the horizon."""
    axis = _patch_axis(2.0, values.shape[0])
    patch = _line_patch(axis, values)
    cyl = Cylinder((0.0, 0.0), 1.0, 1.0)
    probes = []
    states = []
    trace, mon_fail = _monitored_flow(patch, config,
                                      record_probe(cyl, probes, until_lost=True),
                                      sink=states.append)
    failures = [f"flow {i}: {m}" for m in mon_fail]

    fnt = first_nongraphical_time(probes)
    flow_grad = 0.0
    flow_lambda = 0.0
    graphical = probes if fnt is None else probes[:-1]  # until_lost: only the last fails
    for (t, rep), state in zip(graphical, states):  # probes[k] is record k's
        flow_grad = max(flow_grad, rep.sup_grad)
        if t > 0:
            r_ok = _graph_radius(state.surface.values, axis, patch.spacing, cyl.height)
            if r_ok < 2.0:
                flow_lambda = max(flow_lambda, (2.0 - r_ok) / math.sqrt(t))
    if trace.events_of("blow_up") and len(trace.records) <= 1:
        fnt = 0.0
    if flow_grad > 4.0 * L:
        failures.append(f"flow {i}: sup|Dg| {flow_grad:.6g} exceeds 4L = {4.0 * L}")
    row = [i, fnt, flow_lambda, flow_grad, len(mon_fail)]
    keep = i == 0 or (fnt is not None and fnt < config.t_end)
    return failures, row, (trace, states) if keep else None


def scenario_stay_graphical(
    L: float = 1.0,
    resolution: int = 256,
    seed: int = 0,
    family: int = 20,
    t_end: float = 0.1,
    out_dir=None,
) -> ScenarioResult:
    """Randomized graph family with lip = L: measure kappa_hat(L) in C(0,1,1).

    kappa_hat is the min over the family of the first non-graphical record
    time (horizon-censored); Lambda_hat fits the shrinking-cylinder radius
    2 - Lambda_hat sqrt(t); sup|Dg| <= 4L is asserted at every record.
    Every profile is drawn first; the pool runs members 1.. while this process
    runs member 0, the usual representative, whose trace then needs no pickling.
    """
    rng = np.random.default_rng(seed)
    axis = _patch_axis(2.0, resolution)
    # short record windows keep the identity-check trapezoid error well
    # under tol during the fast initial decay
    config = _graph_config(axis, L, t_end, 800)

    profiles = [L * _random_unit_profile(rng, axis) for _ in range(family)]
    member = functools.partial(_stay_member, config=config, L=L)
    with worker_pool(family) as pool:
        rest = pool.map(member, range(1, family), profiles[1:])
        members = [member(0, profiles[0]), *rest]
    failures = [f for mem_failures, _, _ in members for f in mem_failures]
    rows = [row for _, row, _ in members]
    fnts = [row[1] for row in rows]
    candidates = [t_end if fnt is None else fnt for fnt in fnts]
    kappa_hat = min(candidates)
    rep_trace, rep_states = members[candidates.index(kappa_hat)][2]
    run_dir = _run_dir(out_dir)
    if run_dir is not None:
        for state in rep_states:
            run_dir(state)
    censored = all(f is None for f in fnts)
    if kappa_hat <= 0:
        failures.append(f"kappa_hat = {kappa_hat} is not positive")
    measured = {
        "L": L,
        "family_size": family,
        "resolution": resolution,
        "t_end": t_end,
        "kappa_hat": kappa_hat,
        "kappa_censored": censored,
        "lambda_hat": max(row[2] for row in rows),
        "sup_grad_max": max(row[3] for row in rows),
        "grad_bound": 4.0 * L,
    }
    header = ["flow", "kappa_candidate", "lambda_hat", "sup_grad_max", "monitor_failures"]
    return _finish("stay_graphical", measured, failures, run_dir, {"run": rep_trace},
                   {"family.csv": (header, rows)}, workers=pool.workers)


def scenario_flat_stay_graphical(
    l: float = 0.05,
    resolution: int = 256,
    c_hat: float = 10.0,
    rho: float = 1.0,
    t_end: float = 0.05,
    seed: int = 0,
    out_dir=None,
) -> ScenarioResult:
    """Small-gradient sinusoid: height/gradient/curvature bounds with fixed
    c_hat at every recorded time inside C(0, rho, 1)."""
    axis = _patch_axis(2.0, resolution)
    values = l * (2.0 / np.pi) * np.sin(0.5 * np.pi * axis)
    probes = []
    run_dir = _run_dir(out_dir)
    trace, failures = _monitored_flow(
        _line_patch(axis, values), _graph_config(axis, l, t_end, 50),
        record_probe(Cylinder((0.0, 0.0), rho, 1.0), probes), rho=rho, sink=run_dir,
    )
    max_h_ratio = max_g_ratio = max_d2_ratio = 0.0
    d2_sqrt_t = []
    for t, rep in probes:
        if not rep.graphical:
            failures.append(f"not graphical in C(0,{rho},1) at t={t}")
            continue
        max_h_ratio = max(
            max_h_ratio, rep.sup_height / (2 * l * rho + c_hat * t / rho)
        )
        max_g_ratio = max(
            max_g_ratio, rep.sup_grad / (c_hat * (l + t / rho**2) ** 0.25)
        )
        if t > 0:
            max_d2_ratio = max(max_d2_ratio, rep.sup_hess * math.sqrt(t) / c_hat)
            if len(d2_sqrt_t) < 10:
                d2_sqrt_t.append(rep.sup_hess * math.sqrt(t))
    for name, ratio in [
        ("height", max_h_ratio),
        ("gradient", max_g_ratio),
        ("curvature", max_d2_ratio),
    ]:
        if ratio > 1.0:
            failures.append(f"{name} bound exceeded: ratio {ratio:.6g} > 1")
    measured = {
        "l": l,
        "resolution": resolution,
        "c_hat": c_hat,
        "rho": rho,
        "t_end": t_end,
        "height_ratio": max_h_ratio,
        "grad_ratio": max_g_ratio,
        "hess_ratio": max_d2_ratio,
        "d2_sqrt_t_max": max(d2_sqrt_t) if d2_sqrt_t else 0.0,
    }
    return _finish("flat_stay_graphical", measured, failures, run_dir, {"run": trace})


def scenario_shrinking_square(
    epsilon: float = 0.1,
    resolution: int = 768,
    seed: int = 0,
    out_dir=None,
) -> ScenarioResult:
    """Rounded-square boundary under CSF: envelopes, graphicality milestones,
    extinction window, and the round-point isoperimetric ratio.

    The classical outer envelope sqrt(3 + 3 eps - 2t) around (0,1) is
    geometrically incompatible with any region containing [-2,2] x [0,2]
    (the far corner alone is at distance sqrt(5) > sqrt(3 + 3 eps)); it is
    reported as a diagnostic while the enforced envelope uses the measured
    circumscribed radius.  The avoidance circle uses the literal r(t).
    """
    verts = _rounded_square_vertices(epsilon, resolution)
    curve = ClosedCurve(verts)
    inner = np.array([0.0, 1.0])
    for corner in [(-2, 0), (2, 0), (2, 2), (-2, 2)]:
        if np.count_nonzero(vertical_crossings(curve, float(corner[0])) > corner[1]) % 2 == 0:
            raise ConfigError(f"initial region does not contain corner {corner}")

    e0 = float(np.min(edge_lengths(curve)))
    dt0 = CFL * e0 * e0
    t_upper = (3 + 3 * epsilon) / 2
    stride = max(1, int(3 * t_upper / dt0) // 600)
    config = FlowConfig(t_end=2.0, record_stride=stride, remesh_spacing=e0)
    probes22, probes11 = [], []
    rows = []  # envelopes.csv: one row per record

    def envelope_row(trace, state):
        t = state.t
        max_d = float(np.max(np.sqrt(sum_squares(state.surface.vertices, inner))))
        min_d = curve_point_distance(state.surface, inner)
        r_t = math.sqrt(1 - 2 * t) if t < 0.5 else None
        big = 3 + 3 * epsilon - 2 * t
        rows.append([t, math.sqrt(big) if big > 0 else None, r_t, min_d, max_d])

    run_dir = _run_dir(out_dir)
    trace, failures = _monitored_flow(
        curve, config,
        windowed_monitor(check_height_bound, 0, (0.0, 0.0), R=1.0, r0=0.05, c_hat=2.0),
        record_probe(Cylinder((0.0, 0.0), 2.0, 2.0), probes22, until_lost=True),
        record_probe(Cylinder((0.0, 0.0), 1.0, 1.0), probes11, until_lost=True),
        envelope_row, y0=(0.0, 1.0), sink=run_dir,
    )
    failures.extend(
        f"non-simple at step {ev['step']}" for ev in trace.events_of("non_simple")
    )

    r0_literal = math.sqrt(3 + 3 * epsilon)
    r0_measured = rows[0][4] * (1 + 1e-6)
    literal_violation = 0.0
    containment_margin = math.inf
    avoidance_margin = math.inf
    for t, r_lit, r_t, min_d, max_d in rows:
        if r_lit is not None:
            literal_violation = max(literal_violation, max_d - r_lit)
        r_hat = math.sqrt(r0_measured**2 - 2 * t)
        containment_margin = min(containment_margin, r_hat - max_d)
        if r_t is not None:
            avoidance_margin = min(avoidance_margin, min_d - r_t)
    # a probe list ends at its first non-graphical record, if it has one
    t_ng22 = first_nongraphical_time(probes22)
    t_ng22_prev = probes22[-2][0] if t_ng22 is not None and len(probes22) > 1 else None
    t_ng11 = first_nongraphical_time(probes11)

    T = trace.extinction_time
    if T is None:
        failures.append("no extinction recorded before the horizon")
    elif not 0.5 <= T <= 2.0:
        failures.append(f"extinction time {T:.6g} outside [0.5, 2]")
    if containment_margin < -1e-3:
        failures.append(
            f"measured containment envelope violated by {-containment_margin:.6g}"
        )
    if avoidance_margin < -1e-9:
        failures.append(
            f"avoidance envelope violated by {-avoidance_margin:.6g}"
        )
    if t_ng22 is None:
        failures.append("never non-graphical in C(0,2,2)")
    elif t_ng22_prev is not None and t_ng22_prev > 2 * epsilon:
        failures.append(
            f"non-graphical in C(0,2,2) only from t={t_ng22:.6g}, "
            f"beyond 2 eps + one stride"
        )
    if t_ng11 is None:
        failures.append("never non-graphical in C(0,1,1)")
    elif t_ng22 is not None and t_ng11 < t_ng22:
        failures.append("C(0,1,1) failure precedes C(0,2,2) failure")

    final = trace.final.surface
    length = total_length(final)
    area = enclosed_area(final)
    iso = length**2 / (4 * np.pi * area) if area > 0 else math.inf
    if iso > 1.05:
        failures.append(f"final isoperimetric ratio {iso:.6g} > 1.05")

    measured = {
        "epsilon": epsilon,
        "resolution": resolution,
        "extinction_time": T,
        "isoperimetric_final": iso,
        "t_nongraphical_22": t_ng22,
        "t_nongraphical_11": t_ng11,
        "r0_literal": r0_literal,
        "r0_measured": r0_measured,
        "containment_literal_holds": literal_violation <= 0.0,
        "containment_literal_violation": literal_violation,
        "containment_margin": containment_margin,
        "avoidance_margin": avoidance_margin,
    }
    header = ["t", "R", "r", "min_dist_to_inner", "max_dist_to_center"]
    return _finish("shrinking_square", measured, failures, run_dir, {"run": trace},
                   {"envelopes.csv": (header, rows)})


def _fold_graphicality(probes):
    """(held-graphical time, max ratios of the probed sup stats against the
    slab-regularization bound shapes t/rho, (t/rho^2)^(1/4), t^(-1/2) from
    then on), from the record-time probes of one flow; (None, zeros) if
    never held."""
    t_graph = first_graphical_time(probes)
    ratios = [0.0, 0.0, 0.0]
    if t_graph is None:
        return None, ratios
    rho = probes[0][1].cylinder.radius
    for t, rep in probes:
        if t < t_graph or t <= 0 or not rep.graphical:
            continue
        ratios[0] = max(ratios[0], rep.sup_height / (t / rho))
        ratios[1] = max(ratios[1], rep.sup_grad / (t / rho**2) ** 0.25)
        ratios[2] = max(ratios[2], rep.sup_hess * math.sqrt(t))
    return t_graph, ratios


def _run_fold(L, gamma, spacing, t_end, sink=None):
    """One fold flow, probed in C(0,1,1) as it records, into `sink`: (trace,
    failures, extra length, _fold_graphicality)."""
    verts, extra, w = _fold_vertices(L, gamma, spacing)
    curve = ClosedCurve(verts, closed=False)
    dt0 = CFL * float(np.min(edge_lengths(curve))) ** 2
    config = FlowConfig(t_end=t_end, record_stride=max(1, int(t_end / dt0) // 80))
    probes = []
    trace, failures = _monitored_flow(curve, config,
                                      record_probe(Cylinder((0.0, 0.0), 1.0, 1.0), probes),
                                      sink=sink)
    return trace, failures, extra, _fold_graphicality(probes)


def _fold_aux(L, gamma, spacing, t_end):
    """An auxiliary fold flow (a pool task), which writes no state: its trace
    and its _fold_graphicality."""
    trace, _, _, graphicality = _run_fold(L, gamma, spacing, t_end)
    return trace, graphicality


def scenario_become_graphical(
    L: float = 1.0,
    gamma: float = 0.02,
    epsilon: float = 0.05,
    resolution: int | None = None,
    seed: int = 0,
    t_end: float = 1e-4,
    out_dir=None,
) -> ScenarioResult:
    """Z-fold over the excised strip unwinds into a graph in C(0,1,1).

    Asserts graphicality (10-record hold) by t = epsilon, the slab
    regularization bounds with a three-resolution calibrated c_hat, and that
    doubling gamma on the matched construction does not decrease the first
    graphical time.  `resolution` is a vertex-count floor; the spacing needed
    to resolve the fold cap dominates at desk scale.
    """
    r_cap = 0.075 * gamma
    base_spacing = r_cap / 5.0
    if resolution:
        base_spacing = min(base_spacing, 4.0 / resolution)
    aux = {
        "cal_mid": (gamma, base_spacing / 1.3),
        "cal_fine": (gamma, base_spacing / 1.6),
        "doubled": (2 * gamma, 2 * base_spacing),
    }
    with worker_pool(len(aux)) as pool:
        pending = {tag: pool.submit(_fold_aux, L, g, spacing, t_end)
                   for tag, (g, spacing) in aux.items()}
        run_dir = _run_dir(out_dir)
        trace, failures, extra_len, (t_graph, ratios) = _run_fold(
            L, gamma, base_spacing, t_end, run_dir)
        traces = {"run": trace}
        probes = {}
        for tag, future in pending.items():
            traces[tag], probes[tag] = future.result()
    ratio_sets = [ratios, probes["cal_mid"][1], probes["cal_fine"][1]]
    c_hats = [calibrate_constant([rs[i] for rs in ratio_sets]) for i in range(3)]
    t_graph2 = probes["doubled"][0]

    if t_graph is None:
        failures.append("never reaches held graphicality in C(0,1,1)")
    elif t_graph > epsilon:
        failures.append(f"first graphical time {t_graph:.6g} > epsilon {epsilon}")
    if t_graph2 is None:
        failures.append("doubled-gamma run never reaches held graphicality")
    elif t_graph is not None and t_graph2 < t_graph * (1 - 1e-9):
        failures.append(
            f"doubling gamma decreased first graphical time: "
            f"{t_graph2:.6g} < {t_graph:.6g}"
        )

    measured = {
        "L": L,
        "gamma": gamma,
        "epsilon": epsilon,
        "spacing": base_spacing,
        "vertices": len(traces["run"].snapshots[0].surface.vertices),
        "extra_length": extra_len,
        "t_graphical": t_graph,
        "t_graphical_doubled": t_graph2,
        "c_hat_height": c_hats[0],
        "c_hat_grad": c_hats[1],
        "c_hat_hess": c_hats[2],
    }
    return _finish("become_graphical", measured, failures, run_dir, traces,
                   workers=pool.workers)


def scenario_bounded_curvature(
    K: float = 5.0,
    kappa_tilt: float = 0.09,
    L: float = 2.0,
    resolution: int = 256,
    rho: float = 1.0,
    t_end: float = 0.02,
    seed: int = 0,
    out_dir=None,
) -> ScenarioResult:
    """Steep tanh ramp with bounded curvature: graphicality persists over a
    measured window, tilt stays below 1 - kappa_tilt, max|A| sqrt(t) bounded."""
    axis = _patch_axis(2.0, resolution)
    values = _ramp(axis, L, 0.9 * K / (L * rho))
    patch = _line_patch(axis, values)
    a_norm0 = float(
        np.max(second_fundamental_norm(gradient_field(patch), hessian_field(patch)))
    )
    tilt0 = float(np.max(tilt(gradient_field(patch))))
    if a_norm0 > K / rho:
        raise ConfigError(f"initial max|A| {a_norm0:.6g} exceeds K/rho")
    if tilt0 > 1 - 2 * kappa_tilt:
        raise ConfigError(f"initial tilt {tilt0:.6g} exceeds 1 - 2 kappa_tilt")

    gamma_h = float(np.max(np.abs(values))) + 0.5
    probes = []
    run_dir = _run_dir(out_dir)
    trace, failures = _monitored_flow(
        patch, _graph_config(axis, L, t_end, 50),
        record_probe(Cylinder((0.0, 0.0), rho, gamma_h), probes, until_lost=True), rho=rho,
        sink=run_dir,
    )
    sigma_end = first_nongraphical_time(probes)
    tilt_max = 0.0
    a_sqrt_t = 0.0
    # each row is (t, step, measure, max|Df| = g, max|A|, reports); tilt is g^2/(1+g^2)
    graphical = probes if sigma_end is None else probes[:-1]  # until_lost: only the last fails
    for (t, _), (_, _, _, g, a_now, _) in zip(graphical, trace.records):
        tilt_max = max(tilt_max, g * g / (1.0 + g * g))
        if t > 0:
            a_sqrt_t = max(a_sqrt_t, a_now * math.sqrt(t))
    censored = sigma_end is None
    sigma_hat = (t_end if censored else sigma_end) / rho**2
    if sigma_hat <= 0:
        failures.append("graphicality window is empty")
    if tilt_max > 1 - kappa_tilt:
        failures.append(
            f"tilt {tilt_max:.6g} exceeded 1 - kappa_tilt = {1 - kappa_tilt}"
        )
    measured = {
        "K": K,
        "kappa_tilt": kappa_tilt,
        "L": L,
        "resolution": resolution,
        "initial_a_norm": a_norm0,
        "initial_tilt": tilt0,
        "sigma_hat": sigma_hat,
        "sigma_censored": censored,
        "tilt_max": tilt_max,
        "a_sqrt_t_max": a_sqrt_t,
    }
    return _finish("bounded_curvature", measured, failures, run_dir, {"run": trace})


# ---------------------------------------------------------------------------
# Spec validation and dispatch
# ---------------------------------------------------------------------------

_PARAM_RANGES = {
    "stay_graphical": {
        "L": (0.1, 4.0),
        "family": (1, 1000),
        "t_end": (0.0, None),
    },
    "flat_stay_graphical": {
        "l": (0.0, 0.1),
        "c_hat": (0.0, None),
        "rho": (0.0, None),
        "t_end": (0.0, None),
    },
    "shrinking_square": {"epsilon": (0.0, 0.25)},
    "become_graphical": {
        "L": (0.0, 4.0),
        "gamma": (0.0, 0.1),
        "epsilon": (0.0, 1.0),
        "t_end": (0.0, None),
    },
    "bounded_curvature": {
        "K": (0.0, None),
        "kappa_tilt": (0.0, 0.5),
        "L": (0.0, 4.0),
        "rho": (0.0, None),
        "t_end": (0.0, None),
    },
    "flat_plane": {
        "value": (None, None),
        "radius": (0.0, None),
        "t_end": (0.0, None),
    },
}

# Parameters the scenario uses as counts (e.g. range(family)).
_INTEGER_PARAMS = {"family"}

SCENARIOS = {
    "flat_plane": scenario_flat_plane,
    "stay_graphical": scenario_stay_graphical,
    "flat_stay_graphical": scenario_flat_stay_graphical,
    "shrinking_square": scenario_shrinking_square,
    "become_graphical": scenario_become_graphical,
    "bounded_curvature": scenario_bounded_curvature,
}


def validate_scenario_spec(doc, path: str = "$") -> dict:
    """Normalize and range-check a scenario spec document."""
    if not isinstance(doc, dict):
        raise ValidationError(path, "spec must be a JSON object")
    # a JSON integer, as for seed: neither true nor 1.0 equals the version
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}.schema_version", f"must be {SCHEMA_VERSION}"
        )
    scenario = doc.get("scenario")
    if scenario == "sweep":
        return _validate_sweep_spec(doc, path)
    if scenario not in SCENARIOS:
        raise ValidationError(
            f"{path}.scenario",
            f"unknown scenario {scenario!r}; expected one of "
            f"{sorted(SCENARIOS)} or 'sweep'",
        )
    out = {"schema_version": SCHEMA_VERSION, "scenario": scenario}

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"{path}.seed", "must be a nonnegative integer")
    out["seed"] = seed

    resolution = doc.get("resolution")
    if resolution is not None and (
        not isinstance(resolution, int)
        or isinstance(resolution, bool)
        or resolution < 8
    ):
        raise ValidationError(f"{path}.resolution", "must be an integer >= 8")
    out["resolution"] = resolution

    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError(f"{path}.params", "must be an object")
    for key, value in params.items():
        _check_param(scenario, key, value, f"{path}.params.{key}")
    out["params"] = dict(params)

    known = {"schema_version", "scenario", "seed", "resolution", "params"}
    for key in doc:
        if key not in known:
            raise ValidationError(f"{path}.{key}", "unknown field")
    return out


def _check_param(scenario: str, key: str, value, where: str) -> None:
    """Raise a ValidationError at `where` unless `value` is a valid `key`."""
    ranges = _PARAM_RANGES[scenario]
    if key not in ranges:
        raise ValidationError(
            where, f"unknown parameter for {scenario}; expected one of {sorted(ranges)}"
        )
    finite_float(value, where)  # the spec keeps an int as an int
    if key in _INTEGER_PARAMS and not isinstance(value, int):
        raise ValidationError(where, "must be an integer")
    lo, hi = ranges[key]
    if lo is not None and value <= lo:
        raise ValidationError(where, f"must be > {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValidationError(where, f"must be <= {hi}, got {value}")


def _validate_sweep_member(doc, path: str) -> dict:
    """A scenario spec a sweep runs or varies; a sweep cannot nest a sweep."""
    spec = validate_scenario_spec(doc, path)
    if spec["scenario"] == "sweep":
        raise ValidationError(f"{path}.scenario", "a sweep cannot run a sweep")
    return spec


def _validate_sweep_spec(doc, path: str = "$") -> dict:
    out = {"schema_version": SCHEMA_VERSION, "scenario": "sweep"}
    runs = doc.get("runs")
    base = doc.get("base")
    vary = doc.get("vary")
    known = {"schema_version", "scenario", "runs", "base", "vary"}
    for key in doc:
        if key not in known:
            raise ValidationError(f"{path}.{key}", "unknown field")
    if runs is not None:
        for key, value in (("base", base), ("vary", vary)):
            if value is not None:
                raise ValidationError(f"{path}.{key}", "a sweep with 'runs' takes no base or vary")
        if not isinstance(runs, list) or not runs:
            raise ValidationError(f"{path}.runs", "must be a non-empty list")
        out["runs"] = [
            _validate_sweep_member(r, f"{path}.runs[{i}]")
            for i, r in enumerate(runs)
        ]
        return out
    if base is None or vary is None:
        raise ValidationError(
            path, "sweep needs either 'runs' or both 'base' and 'vary'"
        )
    base_spec = _validate_sweep_member(base, f"{path}.base")
    if not isinstance(vary, dict):
        raise ValidationError(f"{path}.vary", "must map parameter -> list")
    keys = sorted(vary)
    for k in keys:
        if not isinstance(vary[k], list) or not vary[k]:
            raise ValidationError(f"{path}.vary.{k}", "must be a non-empty list")
        for i, v in enumerate(vary[k]):
            _check_param(base_spec["scenario"], k, v, f"{path}.vary.{k}[{i}]")
    grids = [[]]
    for k in keys:
        grids = [g + [(k, v)] for g in grids for v in vary[k]]
    out["runs"] = [
        {**base_spec, "params": {**base_spec["params"], **dict(combo)}}
        for combo in grids
    ]
    return out


def with_overrides(doc, seed=None):
    """The spec document with `seed` in place of its own where given, so that
    the override goes through validation like the spec field."""
    if seed is None or not isinstance(doc, dict):
        return doc
    return {**doc, "seed": seed}


def run_scenario(doc, out_dir=None) -> ScenarioResult:
    """Validate a spec document and execute its scenario."""
    spec = validate_scenario_spec(doc)
    if spec["scenario"] == "sweep":
        raise ConfigError("sweep specs go through run_sweep")
    fn = SCENARIOS[spec["scenario"]]
    kwargs = dict(spec["params"])
    kwargs["seed"] = spec["seed"]
    if spec["resolution"] is not None:
        kwargs["resolution"] = spec["resolution"]
    return fn(out_dir=out_dir, **kwargs)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def _sweep_worker(item):
    run_id, doc, out_root = item
    row = {"run_id": run_id, "params": doc.get("params", {})}
    try:
        res = run_scenario(doc, out_dir=None if out_root is None else Path(out_root) / run_id)
    except Exception as exc:  # individual failures recorded, sweep continues
        return {**row, "scenario": doc.get("scenario"), "pass": False,
                "error": f"{type(exc).__name__}: {exc}", "measured": {}, "outputs": {}}
    return {**row, "scenario": res.scenario, "pass": res.passed, "error": None,
            "measured": res.measured, "outputs": res.outputs}


def run_sweep(doc, out_dir=None, parallelism: int = 1):
    """Run a sweep spec and, given an out_dir, write sweep.csv and each run
    under runs/<run id>/.  Returns the header and rows, all_passed, each
    run's result, the worker count, and "files": {relative path: sha256} of
    every file written (a run that raised wrote none).

    Rows are canonically sorted by run id, so results are byte-identical
    across parallelism settings.
    """
    spec = validate_scenario_spec(doc)
    if spec["scenario"] != "sweep":
        spec = {"schema_version": SCHEMA_VERSION, "scenario": "sweep",
                "runs": [spec]}
    runs = spec["runs"]
    out_root = None
    if out_dir is not None:
        out_root = Path(out_dir)
        (out_root / "runs").mkdir(parents=True, exist_ok=True)
    items = [
        (f"run_{i:04d}", run, None if out_root is None else str(out_root / "runs"))
        for i, run in enumerate(runs)
    ]
    with worker_pool(len(items), cap=parallelism) as pool:
        results = list(pool.map(_sweep_worker, items))
    results.sort(key=lambda r: r["run_id"])

    param_keys = sorted({k for r in results for k in r["params"]})
    measured_keys = sorted({k for r in results for k in r["measured"]})
    header = (
        ["run_id", "scenario", "pass", "error"]
        + [f"param:{k}" for k in param_keys]
        + [f"measured:{k}" for k in measured_keys]
    )
    rows = []
    for r in results:
        rows.append(
            [r["run_id"], r["scenario"], r["pass"], r["error"]]
            + [r["params"].get(k) for k in param_keys]
            + [r["measured"].get(k) for k in measured_keys]
        )
    files = {}
    if out_root is not None:
        files["sweep.csv"] = write_csv(out_root / "sweep.csv", header, rows)
        files.update((f"runs/{r['run_id']}/{rel}", digest)
                     for r in results for rel, digest in r["outputs"].items())
    all_passed = all(r["pass"] for r in results)
    return {"header": header, "rows": rows, "all_passed": all_passed,
            "results": results, "workers": pool.workers, "files": files}
