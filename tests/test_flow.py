import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mcflab import flow, geometry

from mcflab._util import ConfigError, ValidationError
from mcflab.flow import (
    FlowConfig,
    FlowState,
    StepRejected,
    _GraphStepper,
    run_flow,
    step_csf,
    step_graph_mcf,
)
from mcflab.geometry import (
    ClosedCurve,
    GraphPatch,
    curve_quantities_all,
    enclosed_area,
    gradient_field,
    hessian_field,
    is_simple,
    metric_inverse,
    total_length,
)
from mcflab.monitors import MonitorReport

from conftest import (
    count_kernels,
    curves_intersect,
    make_circle,
    run_states,
    run_to_dir,
    state_stats,
)


# ---------------------------------------------------------------------------
# Graph stepper
# ---------------------------------------------------------------------------


def _linear_patch(m=33):
    # dyadic coefficients on a dyadic grid: sampling and differencing are
    # exact, so the zero right side is exact too
    return GraphPatch.from_function(
        lambda p: 0.5 * p[..., 0] - 0.25 * p[..., 1] + 0.125,
        center=(0.0, 0.0), radius=1.0, nodes_per_axis=m,
    )


def test_plane_is_stationary():
    state = FlowState(surface=_linear_patch())
    dt = _GraphStepper(state.surface.values, state.surface.spacing).limit()
    out = step_graph_mcf(state, dt)
    assert np.array_equal(out.surface.values, state.surface.values)
    assert out.t == dt and out.step == 1


def test_small_amplitude_mode_decays_like_heat():
    """For |Df| << 1 the graph flow linearizes to the heat equation; the
    lowest Dirichlet mode on [-1, 1] decays at rate (pi/2)^2."""
    eps, t_end = 1e-4, 0.1
    patch = GraphPatch.from_function(
        lambda p: eps * np.cos(0.5 * math.pi * p[..., 0]),
        center=(0.0,), radius=1.0, nodes_per_axis=81,
    )
    trace = run_flow(patch, FlowConfig(t_end=t_end, record_stride=10**9))
    final = trace.final.surface
    decay = math.exp(-((math.pi / 2.0) ** 2) * trace.final.t)
    mid = final.values[final.shape[0] // 2]
    assert math.isclose(float(mid), eps * decay, rel_tol=1e-3)


def test_graph_step_rejects_beyond_cfl():
    state = FlowState(surface=_linear_patch())
    limit = _GraphStepper(state.surface.values, state.surface.spacing).limit()
    with pytest.raises(StepRejected) as err:
        step_graph_mcf(state, 3.0 * limit)
    h = state.surface.spacing
    assert str(err.value) == (
        f"dt={3.0 * limit:.3e} exceeds CFL limit {limit:.3e} (cfl=0.2, h={h:.3e})")
    curve = make_circle(radius=1.0, m=64)
    edge = 2.0 * math.sin(math.pi / 64)
    with pytest.raises(StepRejected, match=rf"\(cfl=0\.2, min edge={edge:.3e}\)$"):
        step_csf(FlowState(surface=curve), 0.05)


def test_dirichlet_boundary_frozen():
    patch = GraphPatch.from_function(
        lambda p: 0.3 * np.sin(math.pi * p[..., 0]) * np.sin(math.pi * p[..., 1]),
        center=(0.0, 0.0), radius=1.0, nodes_per_axis=25,
    )
    state = FlowState(surface=patch)
    dt = _GraphStepper(patch.values, patch.spacing).limit()
    out = step_graph_mcf(state, dt).surface
    assert np.array_equal(out.values[0, :], patch.values[0, :])
    assert np.array_equal(out.values[-1, :], patch.values[-1, :])
    assert np.array_equal(out.values[:, 0], patch.values[:, 0])
    assert np.array_equal(out.values[:, -1], patch.values[:, -1])
    assert not np.array_equal(out.values[1:-1, 1:-1], patch.values[1:-1, 1:-1])


_GRAPH_PROFILES = {
    1: lambda p: 0.3 * np.sin(math.pi * p[..., 0]) + 0.2 * np.cos(math.pi * p[..., 0]) ** 2,
    2: lambda p: 0.3 * np.sin(math.pi * p[..., 0]) * np.cos(math.pi * p[..., 1])
    + 0.1 * np.sin(math.pi * p[..., 1]),
}


@pytest.mark.parametrize("n", [1, 2], ids=["1-dirichlet-frozen", "2-dirichlet-frozen"])
def test_graph_step_matches_field_oracle(n):
    """One step equals f + dt * g^{ij} D_iD_jf assembled from the cached
    geometry fields, with the boundary nodes frozen."""
    patch = GraphPatch.from_function(
        _GRAPH_PROFILES[n], center=(0.0,) * n, radius=1.0,
        nodes_per_axis=40 if n == 1 else 24,
    )
    dt = 0.5 * _GraphStepper(patch.values, patch.spacing).limit()
    out = step_graph_mcf(FlowState(surface=patch), dt).surface.values

    ginv, _ = metric_inverse(gradient_field(patch))
    rhs = np.einsum("...ij,...ij->...", ginv, hessian_field(patch))
    expected = patch.values + dt * rhs
    interior = (slice(1, -1),) * n
    frozen = np.ones(patch.shape, dtype=bool)
    frozen[interior] = False
    expected[frozen] = patch.values[frozen]
    assert np.array_equal(out, expected)
    assert not np.array_equal(out, patch.values)


def test_step_requires_matching_surface():
    with pytest.raises(ConfigError):
        step_graph_mcf(FlowState(surface=make_circle()), 1e-4)
    with pytest.raises(ConfigError):
        step_csf(FlowState(surface=_linear_patch()), 1e-4)


# ---------------------------------------------------------------------------
# Curve stepper
# ---------------------------------------------------------------------------


def test_circle_step_is_exactly_radial():
    """Co-circular stencils give kappa = 1/r and radial normals, so one Euler
    step maps the regular m-gon to the regular m-gon of radius r - dt/r."""
    r, m, dt = 1.0, 128, 1e-4
    state = FlowState(surface=make_circle(radius=r, m=m))
    out = step_csf(state, dt)
    radii = np.linalg.norm(out.surface.vertices, axis=1)
    assert np.allclose(radii, r - dt / r, rtol=1e-12, atol=1e-14)


def _menger_oracle(vertices, closed):
    """Slow per-vertex circumscribed-circle (kappa, left unit normal, unit
    chord tangent), in the operation order of the vectorised kernel; open
    endpoints get kappa = 0 and no normal or tangent (NaN)."""
    m = len(vertices)
    kappa = np.zeros(m)
    normals = np.full((m, 2), np.nan)
    tangents = np.full((m, 2), np.nan)
    for i in range(m) if closed else range(1, m - 1):
        (px, py), (x, y), (nx, ny) = (
            vertices[i - 1], vertices[i], vertices[(i + 1) % m])
        ax, ay = x - px, y - py
        bx, by = nx - x, ny - y
        cx, cy = nx - px, ny - py
        la = math.sqrt(ax * ax + ay * ay)
        lb = math.sqrt(bx * bx + by * by)
        lc = math.sqrt(cx * cx + cy * cy)
        cross = ax * by - ay * bx
        kappa[i] = 2.0 * cross / (la * lb * lc) if lc > 0 else 0.0
        lc = lc if lc > 0 else 1.0
        normals[i] = (-(cy / lc), cx / lc)
        tangents[i] = (cx / lc, cy / lc)
    return kappa, normals, tangents


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_curve_step_matches_menger_oracle(closed):
    """One step equals v + dt * (kappa N) with kappa and N from a slow
    per-vertex oracle, bit for bit; curve_quantities_all gives the same kappa
    and N, whose (N_1, -N_0) is the oracle's chord / lc as the tangent at
    every curved vertex; open endpoints (kappa = 0 there) do not move.

    Every other vertex of the star sits at radius 0.01, where the update is
    far larger than the coordinate, so the comparison sees the last bits of
    the velocity too."""
    m = 16 if closed else 17
    th = 2.0 * np.pi * np.arange(m) / m if closed else np.linspace(0.0, np.pi, m)
    r = np.where(np.arange(m) % 2 == 0, 1.0, 0.01)
    curve = ClosedCurve(np.stack([r * np.cos(th), r * np.sin(th)], axis=1),
                        closed=closed)
    dt = 0.05
    out = step_csf(FlowState(surface=curve), dt).surface.vertices

    kappa, normals, tangents = _menger_oracle(curve.vertices.tolist(), closed)
    got_normals, got_kappa = curve_quantities_all(curve)
    inner = slice(None) if closed else slice(1, -1)
    assert np.array_equal(got_kappa, kappa)
    assert np.array_equal(got_normals[inner], normals[inner])
    got_tangents = np.stack([got_normals[:, 1], -got_normals[:, 0]], axis=1)
    assert np.array_equal(got_tangents[inner], tangents[inner])
    velocity = np.where(np.isnan(normals), 0.0, kappa[:, None] * normals)
    assert np.array_equal(out, curve.vertices + dt * velocity)
    if not closed:
        assert np.array_equal(out[[0, -1]], curve.vertices[[0, -1]])
    assert not np.array_equal(out, curve.vertices)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_hairpin_takes_the_guarded_path(closed):
    """A hairpin, v[i-1] == v[i+1], has a zero chord: the kernel takes the
    guarded path (kappa = 0 there) and still matches the oracle bit for bit,
    also when the same kernel was loaded with a regular curve before and
    after."""
    m = 16 if closed else 17
    th = 2.0 * np.pi * np.arange(m) / m if closed else np.linspace(0.0, np.pi, m)
    smooth = np.stack([np.cos(th), np.sin(th)], axis=1)
    hairpin = smooth.copy()
    hairpin[7] = hairpin[5]
    stepper = flow._CurveStepper(smooth, closed)
    kernel = stepper.kernel
    for v in (smooth, hairpin, smooth, hairpin):
        kernel.load(v)
        kappa, normals, _ = _menger_oracle(v.tolist(), closed)
        got_kappa, got_normals = kernel.menger()
        assert (kernel.lc_min == 0.0) == (v is hairpin)
        inner = slice(None) if closed else slice(1, -1)
        assert np.array_equal(got_kappa, kappa)
        assert np.array_equal(got_normals[inner], normals[inner])
    assert kappa[6] == 0.0
    dt = 1e-3
    velocity = np.where(np.isnan(normals), 0.0, kappa[:, None] * normals)
    assert np.array_equal(stepper.advance(dt), hairpin + dt * velocity)


def _exact_abs_area(v) -> Fraction:
    x = [Fraction(float(a)) for a in v[:, 0]]
    y = [Fraction(float(b)) for b in v[:, 1]]
    m = len(x)
    return abs(sum(x[i] * y[(i + 1) % m] - x[(i + 1) % m] * y[i] for i in range(m))) / 2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-3, max_value=1e3),
    st.booleans(),
)
def test_area_bound_after_step_holds(m, seed, size, star):
    """One CFL step of run_flow's kernel keeps the exact |A| above the
    running bound, and the shoelace within its error bound of the exact |A|,
    on star polygons and on random self-intersecting ones."""
    rng = np.random.default_rng(seed)
    if star:
        th = 2.0 * np.pi * np.arange(m) / m
        r = rng.uniform(0.2, 1.0, m)
        v = size * np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    else:
        v = size * rng.normal(size=(m, 2))
    stepper = flow._CurveStepper(v, True)
    kernel = stepper.kernel
    coef = flow._shoelace_error_coef(m)
    reach = float(np.abs(v).max())
    area = _exact_abs_area(v)
    assert abs(Fraction(kernel.area()) - area) <= coef * reach * reach
    dt = stepper.limit()
    out = stepper.advance(dt)
    # as run_flow starts it: |A| - c R^2 >= shoelace - 2 c R^2
    area_lb, reach_after = flow._area_bound_after_step(
        kernel, dt, kernel.area() - 2.0 * coef * reach * reach, reach)
    if kernel.lc_min > 0:
        assert float(np.abs(out).max()) <= reach_after
        assert Fraction(area_lb) <= _exact_abs_area(out) - Fraction(coef * reach_after * reach_after)
        assert area_lb <= geometry.CurveKernel(out, True).area()
    else:
        assert area_lb == -math.inf


@pytest.mark.parametrize("m", [4, 5, 8])
def test_area_bound_after_step_on_regular_polygons(m):
    """On a square the Menger |kappa| is 2 / lc and every vertex moves
    across its chord, so the exact area drop is 1 / sqrt(2) of the bound:
    a bound any tighter in delta would fail here."""
    th = 2.0 * np.pi * np.arange(m) / m + 0.3
    v = np.stack([np.cos(th), np.sin(th)], axis=1)
    stepper = flow._CurveStepper(v, True)
    kernel = stepper.kernel
    area = _exact_abs_area(v)
    dt = 1e-4 * stepper.limit()  # first order dominates
    out = stepper.advance(dt)
    area_lb, _ = flow._area_bound_after_step(
        kernel, dt, float(area) - 2.0 * flow._shoelace_error_coef(m), 1.0)
    after = _exact_abs_area(out)
    assert Fraction(area_lb) <= after
    if m == 4:
        assert float(area - after) > 0.7 * (float(area) - area_lb)


def _curve_run(curve, monkeypatch, every_step):
    """run_flow on curve, and how many shoelaces it took; every_step makes
    the area bound say nothing, so the shoelace runs on every step."""
    shoelaces = []
    area = geometry.CurveKernel.area

    def counted(kernel):
        shoelaces.append(1)
        return area(kernel)

    with monkeypatch.context() as patch:
        patch.setattr(geometry.CurveKernel, "area", counted)
        if every_step:
            patch.setattr(flow, "_area_bound_after_step",
                          lambda kernel, dt, lb, reach: (-math.inf, reach))
        trace, states = run_states(curve, FlowConfig(t_end=1.0, record_stride=50))
    snapshots = [geometry.dumps_surface(s.surface) for s in states]
    return trace.events, snapshots, len(shoelaces), trace.final.step


def test_shoelace_skip_keeps_events_and_bytes(monkeypatch):
    """The extinction test reads the shoelace only when the area bound
    cannot rule it out; the events (each extinction with its area) and
    snapshot bytes equal those of a run that takes the shoelace on every
    step.  A plain circle ends by the length test; a circle with one tiny
    first edge (remeshed away at once, but it sets the length threshold)
    ends by the area test."""
    th = 2.0 * np.pi * np.arange(32) / 32
    th[1] = th[0] + 1e-6
    tiny_edge = ClosedCurve(np.stack([np.cos(th), np.sin(th)], axis=1))
    for curve, ends_by_area in ((make_circle(radius=1.0, m=64), False), (tiny_edge, True)):
        skip = _curve_run(curve, monkeypatch, every_step=False)
        full = _curve_run(curve, monkeypatch, every_step=True)
        assert skip[:2] == full[:2]
        (ext,) = [e for e in skip[0] if e["event"] == "extinction"]
        area0 = enclosed_area(curve)
        assert (ext["area"] < flow.EXTINCTION_AREA_FACTOR * area0) == ends_by_area
        steps = skip[3]
        assert full[2] == steps + 2
        assert skip[2] < steps / 4


def test_circle_extinction_time():
    r = 0.6
    trace = run_flow(make_circle(radius=r, m=128),
                     FlowConfig(t_end=1.0, record_stride=64))
    T = trace.extinction_time
    assert T is not None
    assert math.isclose(T, r * r / 2.0, rel_tol=1e-2)
    assert not trace.events_of("horizon")


def test_circle_radius_tracks_exact_law():
    r0 = 0.6
    _, states = run_states(make_circle(radius=r0, m=128),
                           FlowConfig(t_end=1.0, record_stride=32))
    T = r0 * r0 / 2.0
    for snap in states:
        if snap.t > 0.8 * T:
            break
        radius = float(np.linalg.norm(snap.surface.vertices, axis=1).mean())
        assert math.isclose(radius, math.sqrt(r0 * r0 - 2.0 * snap.t),
                            rel_tol=5e-3)


def test_convex_area_decreases_at_2pi():
    th = 2.0 * np.pi * np.arange(256) / 256
    ellipse = ClosedCurve(np.stack([np.cos(th), 0.6 * np.sin(th)], axis=1))
    trace = run_flow(ellipse, FlowConfig(t_end=0.05, record_stride=16))
    t0, t1 = trace.snapshots[0].t, trace.snapshots[-1].t
    a0 = enclosed_area(trace.snapshots[0].surface)
    a1 = enclosed_area(trace.snapshots[-1].surface)
    rate = (a0 - a1) / (t1 - t0)
    assert math.isclose(rate, 2.0 * math.pi, rel_tol=5e-3)


def test_flow_preserves_simplicity_and_embedding():
    th = 2.0 * np.pi * np.arange(200) / 200
    wavy = ClosedCurve(np.stack([(1 + 0.2 * np.cos(5 * th)) * np.cos(th),
                                 (1 + 0.2 * np.cos(5 * th)) * np.sin(th)], axis=1))
    trace, states = run_states(wavy, FlowConfig(t_end=0.08, record_stride=50))
    assert not trace.events_of("non_simple")
    assert all(is_simple(s.surface) for s in states)


def test_disjoint_flows_stay_disjoint():
    inner = make_circle(radius=0.5, m=128)
    th = 2.0 * np.pi * np.arange(192) / 192
    outer = ClosedCurve(np.stack([1.2 * np.cos(th) + 0.1,
                                  1.0 * np.sin(th)], axis=1))
    cfg = FlowConfig(t_end=0.1, dt=2e-5, record_stride=500)
    _, states_in = run_states(inner, cfg)
    _, states_out = run_states(outer, cfg)
    paired = zip(states_in, states_out)
    for a, b in paired:
        if abs(a.t - b.t) > 1e-12:
            break
        assert not curves_intersect(a.surface, b.surface)


# ---------------------------------------------------------------------------
# Driver replay parity: run_flow advances by the realized step t_next - t,
# so replaying recorded times through the single-steppers is bit-identical.
# ---------------------------------------------------------------------------


def test_run_flow_matches_step_csf_closed():
    th = 2.0 * np.pi * np.arange(96) / 96
    curve = ClosedCurve(np.stack([(1 + 0.1 * np.sin(3 * th)) * np.cos(th),
                                  (1 + 0.1 * np.sin(3 * th)) * np.sin(th)], axis=1))
    trace, states = run_states(curve, FlowConfig(t_end=0.002, record_stride=1))
    assert not trace.events_of("remesh")
    state = states[0]
    for snap in states[1:]:
        state = step_csf(state, snap.t - state.t)
        assert np.array_equal(state.surface.vertices, snap.surface.vertices)
        assert state.t == snap.t


def test_run_flow_matches_step_csf_open():
    x = np.linspace(-1.0, 1.0, 64)
    curve = ClosedCurve(np.stack([x, 0.3 * np.cos(0.5 * math.pi * x)], axis=1),
                        closed=False)
    trace, states = run_states(curve, FlowConfig(t_end=0.001, record_stride=1))
    assert not trace.events_of("remesh")
    state = states[0]
    for snap in states[1:]:
        state = step_csf(state, snap.t - state.t)
        assert np.array_equal(state.surface.vertices, snap.surface.vertices)
    # endpoints never move
    assert np.array_equal(trace.final.surface.vertices[[0, -1]],
                          curve.vertices[[0, -1]])


def test_run_flow_matches_step_graph():
    patch = GraphPatch.from_function(
        lambda p: 0.2 * np.cos(0.5 * math.pi * p[..., 0]),
        center=(0.0,), radius=1.0, nodes_per_axis=41,
    )
    _, states = run_states(patch, FlowConfig(t_end=0.004, record_stride=1))
    state = states[0]
    for snap in states[1:]:
        state = step_graph_mcf(state, snap.t - state.t)
        assert np.array_equal(state.surface.values, snap.surface.values)


# ---------------------------------------------------------------------------
# What a recorded state holds
# ---------------------------------------------------------------------------


def _cached_arrays(obj):
    """Every array reachable from a cache entry (tuples, dicts, objects)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _cached_arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _cached_arrays(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _cached_arrays(item)


def _owner(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _flow_initial(kind):
    if kind == "graph":
        return GraphPatch.from_function(
            lambda p: 0.2 * np.cos(0.5 * math.pi * p[..., 0]),
            center=(0.0,), radius=1.0, nodes_per_axis=41,
        )
    if kind == "closed":
        return make_circle(radius=0.5, m=64)
    x = np.linspace(-1.0, 1.0, 64)
    return ClosedCurve(np.stack([x, 0.3 * np.cos(0.5 * math.pi * x)], axis=1),
                       closed=False)


@pytest.mark.parametrize("kind", ["closed", "open", "graph"])
def test_recorded_states_cache_no_tangent_or_a_norm(kind, tmp_path):
    """A monitored, persisted flow releases the cache of every state that
    has left all monitor windows, so of the states a list sink kept only the
    first and the last hold one, and the trace holds only those two; they
    hold only data some reader reads: no tangent array, no |A|
    column in the sample, and for a curve at most 5m + 1 floats of unique
    cached memory (the normals, kappa, vertex weights and edge lengths)
    besides the context's two per-point arrays: |x - y0|^2 and
    phi_rho, one each."""
    from mcflab.scenarios import monitor_battery

    trace, states, _ = run_to_dir(_flow_initial(kind), FlowConfig(t_end=0.01, record_stride=4),
                                  tmp_path / "run", monitors=monitor_battery())
    assert len(states) > 2
    assert trace.snapshots == [states[0], states[-1]]
    for state in states[1:-1]:
        assert state.surface._cache == {}
    for state in (trace.snapshots[0], trace.final):
        surf = state.surface
        sample = surf._cache["context"].sample
        assert not hasattr(sample, "a_norm")
        if kind == "graph":
            continue
        normals, _ = curve_quantities_all(surf)
        tangents = np.stack([normals[:, 1], -normals[:, 0]], axis=-1)
        memo = surf._cache["context"].memo
        per_point = {key[0]: v for key, v in memo.items() if isinstance(v, np.ndarray)}
        assert sorted(per_point) == ["dist2", "phi_rho"]
        assert all(v.shape == (surf.m,) for v in per_point.values())
        owners = {id(_owner(a)): _owner(a) for a in _cached_arrays(surf._cache)}
        owners.pop(id(_owner(surf.vertices)))
        for v in per_point.values():
            owners.pop(id(_owner(v)))
        assert not any(a.shape == tangents.shape and np.array_equal(a, tangents)
                       for a in owners.values())
        held = sum(a.nbytes for a in owners.values())
        assert held <= (5 * surf.m + 1) * 8


@pytest.mark.parametrize("kind", ["closed", "open", "graph"])
def test_row_only_context_builds_no_sample(kind):
    """An unmonitored run reads a recorded state only for its timeseries
    row, so the state's one cache entry, its context, builds no sample, no
    points, no curve vertex weights and no H: besides a graph's Df, D^2f and
    jac, or a curve's (edges, normals, kappa), every array it holds is one
    the surface (its cache aside) or its grid owns."""
    trace = run_flow(_flow_initial(kind), FlowConfig(t_end=0.01, record_stride=4))
    surf = trace.final.surface
    assert surf._cache.keys() == {"context"}
    ctx = surf._cache["context"]
    built = vars(ctx)
    unread = {"sample", "points", "mean_curvature"} | ({"jac"} if kind != "graph" else set())
    assert not unread & built.keys()
    assert ctx.memo == {}
    derived = ("grad", "hess", "jac") if kind == "graph" else ("curve",)
    owned = [v for k, v in vars(surf).items() if k != "_cache"]
    owned += [built[k] for k in derived] + ([surf.grid] if kind == "graph" else [])
    owners = {id(_owner(a)) for a in _cached_arrays(owned)}
    assert all(id(_owner(a)) in owners for a in _cached_arrays(ctx))


@pytest.mark.parametrize("kind", ["closed", "open", "graph"])
def test_monitored_trace_pickles_without_caches(kind):
    """A trace whose states the monitors touched pickles, its caches left
    out.  The loaded snapshots (the first and the last state), records (each
    a timeseries.csv row and its reports), reports and events equal the
    originals; every loaded state starts with an empty cache and recomputes
    the row recorded for it."""
    from mcflab.geometry import dumps_surface
    from mcflab.scenarios import monitor_battery

    trace = run_flow(_flow_initial(kind), FlowConfig(t_end=0.01, record_stride=4),
                     monitors=monitor_battery())
    assert "context" in trace.final.surface._cache
    loaded = pickle.loads(pickle.dumps(trace))
    assert loaded.config == trace.config
    assert loaded.records == trace.records and len(loaded.records) > 2
    assert loaded.reports == trace.reports and loaded.reports
    assert loaded.events == trace.events
    assert len(loaded.snapshots) == len(trace.snapshots) == 2
    for got, want in zip(loaded.snapshots, trace.snapshots):
        assert (got.step, got.t) == (want.step, want.t)
        assert dumps_surface(got.surface) == dumps_surface(want.surface)
        assert got.surface._cache == {}
    assert state_stats(loaded.final) == trace.records[-1][2:5]


@pytest.mark.parametrize("kind", ["closed", "open", "remeshing"])
def test_monitored_curve_run_builds_one_kernel_per_record(kind, monkeypatch):
    """A monitored curve run builds one CurveKernel for its steps, one per
    remesh (the resample reads the kernel that holds the curve, and the
    resampled curve gets its own), and one per recorded state, which gives
    that state's edge lengths, normals and kappa to the monitors, the probes
    and the stats alike."""
    from mcflab.scenarios import monitor_battery

    initial = _clustered_circle() if kind == "remeshing" else _flow_initial(kind)
    built = count_kernels(monkeypatch)
    trace = run_flow(initial, FlowConfig(t_end=0.01, record_stride=4),
                     monitors=monitor_battery())
    remeshes = trace.events_of("remesh")
    assert bool(remeshes) == (kind == "remeshing")
    assert len(trace.records) > 2
    assert len(built) == 1 + len(trace.records) + len(remeshes)


@pytest.mark.parametrize("kind", ["closed", "open", "graph"])
def test_snapshots_share_no_memory(kind):
    """run_flow records each step's output array without a copy; no two
    snapshots may share memory, and what a monitor copies at record time
    still equals the snapshot after the run (no step writes into its
    input).  The closed curve is remeshed on the way."""
    config = FlowConfig(t_end=0.01, record_stride=2)
    initial = _flow_initial(kind)
    if kind == "closed":
        th = 2.0 * np.pi * np.arange(64) / 64
        s = th + 0.9 * np.sin(th)
        initial = ClosedCurve(np.stack([np.cos(s), np.sin(s)], axis=1))
        config = FlowConfig(t_end=5e-4, record_stride=2,
                            remesh_spacing=2.0 * math.pi / 400.0)
    def raw(state):
        surf = state.surface
        return surf.values if isinstance(surf, GraphPatch) else surf.vertices

    seen = []

    def copying_monitor(trace, state):
        seen.append(raw(state).copy())

    trace, states = run_states(initial, config, monitors=[copying_monitor])
    if kind == "closed":
        assert trace.events_of("remesh")
    arrays = [raw(s) for s in states]
    assert len(arrays) > 3 and len(seen) == len(arrays)
    for i, a in enumerate(arrays):
        assert np.array_equal(a, seen[i])
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind", ["closed", "open", "graph"])
def test_cache_release_is_invisible(kind, tmp_path):
    """Releasing a state's cache changes no result.  The oracle replays the
    same monitors over fresh copies of the persisted snapshots, whose
    caches are never released: the reports are equal, each timeseries row
    equals the stats of its reloaded snapshot, and events.ndjson is
    byte-equal.  One monitor keeps every state it is given and reads the
    state two records back, whose cache the flow had already released; its
    reports fail, so its values reach the events."""
    from mcflab._util import canonical_dumps, format_csv_cell
    from mcflab.flow import FlowTrace
    from mcflab.geometry import loads_surface, sample_surface
    from mcflab.scenarios import monitor_battery

    def lagging_monitor():
        seen = []

        def lagging(trace, state):
            seen.append(state)
            if len(seen) < 3:
                return None
            old = seen[-3].surface
            return MonitorReport(monitor_id="lagging", t=state.t,
                                 value=float(sample_surface(old).weights.sum()),
                                 bound=float(sample_surface(state.surface).weights.sum()))

        return lagging

    out = tmp_path / "run"
    trace, states, _ = run_to_dir(_flow_initial(kind), FlowConfig(t_end=0.01, record_stride=2),
                                  out, monitors=monitor_battery() + [lagging_monitor()])
    # the per-point arrays go with the context's memo: only the first and
    # the last state still hold one (lagging rebuilds a context for its
    # sample, with an empty memo)
    assert all(s.surface._cache.keys() <= {"context"} for s in states)
    holding = [i for i, s in enumerate(states) if s.surface._cache.get("context")
               and s.surface._cache["context"].memo]
    assert holding == [0, len(states) - 1]
    assert len(states) > 4

    lines = (out / "timeseries.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    replay = FlowTrace(config=trace.config)
    monitors = monitor_battery() + [lagging_monitor()]
    reports, failures = [], []
    for i, row in enumerate(rows):
        surf = loads_surface((out / "snapshots" / f"{i:04d}.json").read_text())
        state = FlowState(surface=surf, step=int(row[1]))
        assert row[2:5] == [format_csv_cell(v) for v in state_stats(state)]
        replay.snapshots.append(state)
        new = []
        for monitor in monitors:
            rep = monitor(replay, state)
            if rep is not None:
                new.extend(rep if isinstance(rep, list) else [rep])
        new.sort(key=lambda r: r.monitor_id)
        reports.extend(new)
        failures.extend(
            {"event": "monitor_failure", "monitor_id": r.monitor_id, "step": state.step,
             "t": state.t, "value": r.value, "bound": r.bound, "margin": r.margin}
            for r in new if not r.passed and not r.skipped
        )
    assert reports == trace.reports
    assert any(e["monitor_id"] == "lagging" for e in failures)

    persisted = (out / "events.ndjson").read_bytes()
    replayed = iter(failures)
    expected = [next(replayed) if e["event"] == "monitor_failure" else e
                for e in trace.events]
    assert next(replayed, None) is None
    assert "".join(canonical_dumps(e) + "\n" for e in expected).encode() == persisted


def test_trace_memory_grows_with_snapshots_only():
    """What a monitored run without a sink holds does not grow with its
    states: four times the records costs per-record bookkeeping (a
    timeseries.csv row and its six reports, about 2 KiB) plus a constant
    over the shorter run's peak, and no vertex bytes per extra record.  A
    state kept past its window would add its 2m floats (62.5 KiB here) and
    a kept cache about 5m floats more."""
    import tracemalloc

    from mcflab.scenarios import monitor_battery

    m = 4000
    x = np.linspace(-1.0, 1.0, m)
    dt = 0.1 * float(np.min(np.diff(x))) ** 2

    def peak(records):
        curve = ClosedCurve(np.stack([x, 0.3 * np.cos(0.5 * math.pi * x)], axis=1),
                            closed=False)
        config = FlowConfig(t_end=(records - 1.5) * dt, dt=dt, record_stride=1)
        tracemalloc.start()
        try:
            trace = run_flow(curve, config, monitors=monitor_battery())
            return len(trace.records), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n1, peak1 = peak(10)
    n4, peak4 = peak(40)
    assert (n1, n4) == (10, 40)
    bookkeeping = 4 * 1024  # per record, a sixteenth of one state's vertices
    assert peak4 - peak1 <= (n4 - n1) * bookkeeping + 128 * 1024


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


def _clustered_circle() -> ClosedCurve:
    """The unit circle with 64 vertices whose edge lengths vary by about
    e^2, past EDGE_RATIO_LIMIT."""
    th = 2.0 * np.pi * np.arange(64) / 64
    s = th + 0.9 * np.sin(th)
    return ClosedCurve(np.stack([np.cos(s), np.sin(s)], axis=1))


def test_remesh_event_restores_edge_ratio():
    curve = _clustered_circle()
    trace = run_flow(curve, FlowConfig(t_end=1e-5, record_stride=1))
    events = trace.events_of("remesh")
    assert events and events[0]["edge_ratio"] > 4.0
    final = trace.final.surface
    from mcflab.geometry import edge_lengths

    e = edge_lengths(final)
    assert float(e.max() / e.min()) < 4.0


def test_remesh_spacing_controls_vertex_count():
    curve = _clustered_circle()
    spacing = 2.0 * math.pi / 200.0
    trace = run_flow(curve, FlowConfig(t_end=1e-5, record_stride=1,
                                       remesh_spacing=spacing))
    counts = {e["vertex_count"] for e in trace.events_of("remesh")}
    assert counts and all(abs(c - 200) <= 2 for c in counts)


def test_single_step_never_remeshes():
    """step_csf steps a curve past EDGE_RATIO_LIMIT on its own vertices,
    while run_flow from the same curve remeshes it at step 0: only
    run_flow's loop remeshes."""
    curve = _clustered_circle()
    kernel = geometry.CurveKernel(curve.vertices, True)
    assert kernel.e_max / kernel.e_min > flow.EDGE_RATIO_LIMIT
    dt = 0.1 * flow.CFL * kernel.e_min**2
    normals, kappa = curve_quantities_all(curve)
    out = step_csf(FlowState(curve), dt).surface.vertices
    assert np.array_equal(out, curve.vertices + dt * (kappa[:, None] * normals))
    trace = run_flow(curve, FlowConfig(t_end=dt, remesh_spacing=2.0 * math.pi / 100.0))
    (remesh,) = trace.events_of("remesh")
    assert remesh["step"] == 0 and remesh["vertex_count"] == 100
    assert trace.final.surface.m == 100


@pytest.mark.parametrize("n, monitored", [
    pytest.param(1, False, id="1"),
    pytest.param(2, False, id="2"),
    pytest.param(1, True, id="1-battery"),
])
def test_graph_run_computes_df_once_per_step(n, monitored, monkeypatch):
    """A graph run computes Df once per step, for the CFL limit, the Hessian
    and g^{-1} alike, and D^2f once per step, and each once for the final
    state: a recorded state's Df and D^2f, which its timeseries row and its
    monitors read, are the ones its next step reads."""
    from mcflab.scenarios import monitor_battery

    patch = GraphPatch.from_function(
        lambda p: 0.2 * np.cos(0.5 * math.pi * p[..., 0]) + 0.1 * p[..., -1] ** 2,
        center=(0.0,) * n, radius=1.0, nodes_per_axis=17)
    calls = {"gradient_raw": [], "hessian_raw": []}

    def counting(name):
        raw = getattr(geometry, name)

        def counted(*args):
            calls[name].append(None)
            return raw(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(geometry, name, counting(name))
    trace = run_flow(patch, FlowConfig(t_end=0.05, record_stride=5),
                     monitors=monitor_battery() if monitored else ())
    assert trace.final.step > 10 and len(trace.records) > 2
    assert not monitored or any(not r.skipped for r in trace.reports)
    assert {k: len(v) for k, v in calls.items()} == {
        "gradient_raw": trace.final.step + 1, "hessian_raw": trace.final.step + 1}


def test_horizon_event_when_no_extinction():
    trace = run_flow(make_circle(radius=1.0, m=64),
                     FlowConfig(t_end=1e-4, record_stride=10))
    assert trace.events_of("horizon")
    assert trace.extinction_time is None
    assert trace.final.t >= 1e-4


def test_step_rejected_event_terminates():
    trace = run_flow(make_circle(radius=1.0, m=64),
                     FlowConfig(t_end=0.1, dt=0.05))
    ev = trace.events_of("step_rejected")
    assert len(ev) == 1 and "CFL" in ev[0]["detail"]
    limit = 0.2 * (2.0 * math.sin(math.pi / 64)) ** 2
    assert ev[0]["detail"] == f"dt={0.05:.3e} exceeds CFL limit {limit:.3e} at step 0"
    assert trace.final.t == 0.0


def test_flow_state_starts_at_the_surface_time():
    curve = make_circle(radius=1.0, m=256, time=0.3)
    config = FlowConfig(t_end=1e-3, record_stride=2)
    via_state, states = run_states(FlowState(curve), config)
    via_surface, surface_states = run_states(curve, config)
    times = [s.t for s in states]
    assert times[0] == 0.3 and len(times) > 2
    assert times == [s.t for s in surface_states]
    assert times == [s.surface.time for s in states]
    assert [row[:2] for row in via_state.records] == [(s.t, s.step) for s in states]
    assert via_state.records == via_surface.records


def test_stall_event_when_dt_underflows():
    # at t = 1e16 an admissible dt no longer changes t
    trace = run_flow(make_circle(radius=1.0, m=64, time=1e16),
                     FlowConfig(t_end=10.0))
    ev = trace.events_of("stall")
    assert len(ev) == 1 and ev[0]["detail"] == "dt underflow"
    assert ev[0]["step"] == 0 and ev[0]["t"] == 1e16
    assert not trace.events_of("horizon")


def test_non_simple_event_on_figure_eight():
    # the crossing at the origin lies inside two segments, at no vertex
    th = 2.0 * np.pi * np.arange(64) / 64 + np.pi / 64
    eight = ClosedCurve(np.stack([np.sin(th), np.sin(th) * np.cos(th)], axis=1))
    trace = run_flow(eight, FlowConfig(t_end=1e-5))
    assert trace.events_of("non_simple")[0]["step"] == 0


def test_blow_up_event_on_non_finite_curvature(monkeypatch):
    menger = geometry.CurveKernel.menger

    def one_nan(kernel):
        kap, nor = menger(kernel)
        kap[3] = np.nan
        return kap, nor

    monkeypatch.setattr(geometry.CurveKernel, "menger", one_nan)
    trace = run_flow(make_circle(radius=1.0, m=64), FlowConfig(t_end=1e-3))
    ev = trace.events_of("blow_up")
    assert len(ev) == 1 and ev[0]["step"] == 0
    assert "non-finite" in ev[0]["detail"]


def test_monitor_wiring_and_failure_events():
    calls = []

    def failing_monitor(trace, state):
        calls.append(state.t)
        return MonitorReport(monitor_id="always_bad", t=state.t, value=2.0,
                             bound=1.0)

    def quiet_monitor(trace, state):
        return None

    def list_monitor(trace, state):
        return [MonitorReport(monitor_id="a_ok", t=state.t, value=0.0,
                              bound=1.0)]

    trace = run_flow(make_circle(radius=0.5, m=64),
                     FlowConfig(t_end=1e-3, record_stride=5),
                     monitors=[failing_monitor, quiet_monitor, list_monitor])
    n_records = len(trace.records)
    assert len(calls) == n_records
    fails = trace.events_of("monitor_failure")
    assert len(fails) == n_records
    assert all(e["monitor_id"] == "always_bad" for e in fails)
    # reports of one record are sorted by monitor id
    per_record = trace.reports[:2]
    assert [r.monitor_id for r in per_record] == ["a_ok", "always_bad"]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


# explicit ids: a row inserted anywhere renames no other case
@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"t_end": -1.0}, id="kwargs0"),
        pytest.param({"t_end": math.nan}, id="kwargs1"),
        pytest.param({"t_end": 1.0, "dt": 0.0}, id="kwargs2"),
        pytest.param({"t_end": math.inf}, id="kwargs3"),
        pytest.param({"t_end": 1.0, "dt": math.nan}, id="kwargs4"),
        pytest.param({"t_end": 1.0, "remesh_spacing": math.nan}, id="kwargs5"),
        pytest.param({"t_end": 1.0, "record_stride": 0}, id="kwargs6"),
        pytest.param({"t_end": 1.0, "remesh_spacing": 0.0}, id="kwargs7"),
        pytest.param({"t_end": 1.0, "remesh_spacing": math.inf}, id="kwargs8"),
        pytest.param({"t_end": 1.0, "record_stride": 2.5}, id="kwargs9"),
        pytest.param({"t_end": 1.0, "record_stride": True}, id="kwargs10"),
        pytest.param({"t_end": 1.0, "dt": math.inf}, id="kwargs11"),
        pytest.param({"t_end": True}, id="kwargs12"),
        pytest.param({"t_end": 1.0, "dt": True}, id="kwargs13"),
        pytest.param({"t_end": 1.0, "remesh_spacing": True}, id="kwargs14"),
        pytest.param({"t_end": "x"}, id="kwargs15"),
        pytest.param({"t_end": None}, id="kwargs16"),
        pytest.param({"t_end": 1.0, "dt": "x"}, id="kwargs17"),
        pytest.param({"t_end": 1.0, "remesh_spacing": [1.0]}, id="kwargs18"),
    ],
)
def test_flow_config_validation(kwargs):
    with pytest.raises(ConfigError):
        FlowConfig(**kwargs)


def test_flow_state_requires_surface():
    with pytest.raises(ConfigError):
        FlowState(surface=np.zeros((8, 2)))


def test_flow_state_is_its_surface_and_step():
    """A state takes no time of its own: t reads the surface's."""
    curve = make_circle(m=32, time=0.25)
    state = FlowState(curve, 3)
    assert [f.name for f in dataclasses.fields(FlowState)] == ["surface", "step"]
    assert state.t is state.surface.time
    with pytest.raises(TypeError):
        FlowState(curve, 3, 0.5)
    with pytest.raises(TypeError):
        FlowState(curve, t=0.5)
    with pytest.raises(AttributeError):
        state.t = 0.5
    moved = dataclasses.replace(state, surface=dataclasses.replace(curve, time=0.5))
    assert (moved.step, moved.t) == (3, 0.5)


def test_flow_trace_keeps_one_row_per_record(tmp_path):
    """records[i] is record i's timeseries.csv row followed by its reports,
    sorted by monitor id; `reports` flattens them, record by record."""
    assert [f.name for f in dataclasses.fields(flow.FlowTrace)] == [
        "config", "snapshots", "records", "events"]

    def late(trace, state):
        return MonitorReport(monitor_id="z", t=state.t, value=float(state.step), bound=1.0)

    def early(trace, state):
        if state.step % 2:
            return None
        return [MonitorReport(monitor_id="a", t=state.t, value=0.0, bound=2.0, skipped=True),
                MonitorReport(monitor_id="b", t=state.t, value=0.0, bound=3.0)]

    patch = GraphPatch.from_function(lambda p: 0.2 * np.cos(2.0 * p[..., 0]),
                                     center=(0.0,), radius=1.0, nodes_per_axis=33)
    out = tmp_path / "run"
    trace, states, _ = run_to_dir(patch, FlowConfig(t_end=5e-3, record_stride=1), out,
                                  monitors=[late, early])
    assert len(trace.records) == len(states) >= 5
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0].split(",")[-3:] == ["margin:a", "margin:b", "margin:z"]
    for (*row, reports), state, line in zip(trace.records, states, lines[1:]):
        fresh = FlowState(dataclasses.replace(state.surface), state.step)
        assert tuple(row) == (state.t, state.step, *state_stats(fresh))
        assert [r.monitor_id for r in reports] == (["z"] if state.step % 2 else ["a", "b", "z"])
        assert all(r.t == state.t for r in reports)
        cells = line.split(",")
        assert [float(c) for c in cells[:5]] == row
        assert cells[5:] == ["", "" if state.step % 2 else "3.0", repr(1.0 - state.step)]
    assert trace.reports == [r for *_, reports in trace.records for r in reports]


# ---------------------------------------------------------------------------
# Run-directory persistence
# ---------------------------------------------------------------------------


def test_write_run_dir_deterministic(tmp_path):
    def run_once(dest):
        run_to_dir(make_circle(radius=0.4, m=96), FlowConfig(t_end=0.02, record_stride=25),
                   dest)
        return dest

    a = run_once(tmp_path / "a")
    b = run_once(tmp_path / "b")
    for rel in ("timeseries.csv", "events.ndjson"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    snaps_a = sorted(p.name for p in (a / "snapshots").iterdir())
    snaps_b = sorted(p.name for p in (b / "snapshots").iterdir())
    assert snaps_a == snaps_b
    for name in snaps_a:
        assert (a / "snapshots" / name).read_bytes() == \
            (b / "snapshots" / name).read_bytes()


def test_run_dir_layout_and_manifest(tmp_path):
    out = tmp_path / "run"
    trace, _, written = run_to_dir(make_circle(radius=0.4, m=64),
                                   FlowConfig(t_end=0.01, record_stride=20), out)
    assert (out / "manifest.json").is_file()
    assert (out / "timeseries.csv").is_file()
    assert (out / "events.ndjson").is_file()
    import json

    from mcflab._util import sha256_file

    manifest = json.loads((out / "manifest.json").read_text())
    inv = manifest["files"]
    on_disk = {p.relative_to(out).as_posix()
               for p in out.rglob("*") if p.is_file()} - {"manifest.json"}
    assert set(inv) == on_disk
    for rel, digest in inv.items():
        assert sha256_file(out / rel) == digest
    assert written == {**inv, "manifest.json": sha256_file(out / "manifest.json")}
    snapshots = sorted(rel for rel in inv if rel.startswith("snapshots/"))
    assert snapshots == [f"snapshots/{i:04d}.json" for i in range(len(trace.records))]
    assert manifest["snapshot_count"] == len(trace.records) > 2


def test_margins_join_on_record_index(tmp_path):
    # the last step is clipped to t_end 1e-13 after the third, so the two
    # rows' times agree to 1e-12 and only the record index tells them apart
    patch = GraphPatch.from_function(lambda p: np.zeros(p.shape[:-1]),
                                     center=(0.0,), radius=1.0, nodes_per_axis=64)
    margins = iter([99.0, 98.0, 97.0, 96.0, 95.0])

    def monitor(trace, state):
        return MonitorReport(monitor_id="m", t=state.t, value=0.0,
                             bound=next(margins))

    out = tmp_path / "run"
    trace, states, _ = run_to_dir(
        patch, FlowConfig(t_end=3e-5 + 1e-13, dt=1e-5, record_stride=1), out,
        monitors=[monitor])
    times = [s.t for s in states]
    assert [s.step for s in states] == [0, 1, 2, 3, 4]
    assert round(times[3] * 1e12) == round(times[4] * 1e12)
    assert [[r.margin for r in reps] for *_, reps in trace.records] == [
        [99.0], [98.0], [97.0], [96.0], [95.0]]

    lines = (out / "timeseries.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("margin:m")
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[header.index("step")]) for r in rows] == [0, 1, 2, 3, 4]
    assert [float(r[col]) for r in rows] == [99.0, 98.0, 97.0, 96.0, 95.0]


@pytest.mark.parametrize("kind", ["open", "graph"])
def test_non_finite_snapshot_raises_at_its_path(tmp_path, kind):
    """A non-finite snapshot stops the streamed write at its field: the
    states before it are written, it and the manifest are not."""
    dt = 1e-5
    field = "values" if kind == "graph" else "vertices"
    run_dir = flow.RunDirSink(tmp_path / "run")

    def spoiling(state):
        if state.step == 1:
            getattr(state.surface, field)[2, ...] = np.nan
        run_dir(state)

    with pytest.raises(ValidationError) as exc:
        run_flow(_flow_initial(kind), FlowConfig(t_end=3 * dt, dt=dt), sink=spoiling)
    assert exc.value.path == f"$.{field}"
    assert sorted(p.name for p in (tmp_path / "run").rglob("*") if p.is_file()) == ["0000.json"]


def test_timeseries_and_snapshots_agree_on_the_time(tmp_path):
    """A state's time is its surface's, so a state moved to another surface
    by dataclasses.replace takes that surface's time: every timeseries.csv
    row and its snapshot carry the same t, from row 0 on."""
    state = FlowState(make_circle(radius=1.0, m=64), 0)
    moved = dataclasses.replace(state, surface=make_circle(radius=1.0, m=64, time=0.5))
    run_to_dir(moved, FlowConfig(t_end=0.02, record_stride=4), tmp_path)
    rows = [line.split(",") for line in (tmp_path / "timeseries.csv").read_text().splitlines()]
    assert rows[0][0] == "t" and len(rows) > 3
    for i, row in enumerate(rows[1:]):
        snapshot = geometry.loads_surface((tmp_path / f"snapshots/{i:04d}.json").read_text())
        assert float(row[0]) == snapshot.time
    assert float(rows[1][0]) == 0.5


def _square(m: int) -> ClosedCurve:
    """m vertices spread evenly along the boundary of [-1, 1]^2; under the
    flow its corners round off and the edges there shrink until a remesh."""
    side, u = np.divmod(np.arange(m) * 8.0 / m, 2.0)
    z = (1.0 + 1j * (u - 1.0)) * np.array([1, 1j, -1, -1j])[side.astype(int)]
    return ClosedCurve(np.stack([z.real, z.imag], axis=1))


@st.composite
def _restart_runs(draw, kinds=("closed", "open", "square", "graph", "patch"), least=0.0):
    """(kind, initial surface, t_end): a star-shaped closed curve, an open
    curve, a square that remeshes before t_end, a 1-D graph or a 2-D patch,
    each run far from extinction (the extinction tests read the initial
    state); kind is one of `kinds`, and each shape coefficient is 0 or at
    least `least` in size."""
    kind = draw(st.sampled_from(kinds))
    a, b = (draw(st.floats(-0.2, 0.2).filter(lambda v: v == 0 or abs(v) >= least))
            for _ in range(2))
    if kind == "square":
        return kind, _square(draw(st.integers(40, 56))), 0.3
    if kind == "patch":
        return kind, GraphPatch.from_function(
            lambda p: a * p[..., 0] * p[..., 1] + b * np.cos(p[..., 0] + p[..., 1]),
            center=(0.0, 0.0), radius=1.0, nodes_per_axis=17), 0.02
    m = draw(st.integers(16, 48))
    if kind == "closed":
        th = 2.0 * np.pi * np.arange(m) / m
        r = 1.0 + a * np.cos(2.0 * th) + b * np.sin(3.0 * th)
        return kind, ClosedCurve(np.stack([r * np.cos(th), r * np.sin(th)], axis=1)), 0.1
    if kind == "open":
        x = np.linspace(-1.0, 1.0, m)
        y = a * np.sin(np.pi * x) + b * np.cos(0.5 * np.pi * x)
        return kind, ClosedCurve(np.stack([x, y], axis=1), closed=False), 0.02
    return kind, GraphPatch.from_function(
        lambda p: a * np.sin(np.pi * p[..., 0]) + b * np.cos(0.5 * np.pi * p[..., 0]),
        center=(0.0,), radius=1.0, nodes_per_axis=m), 0.02


@settings(max_examples=60, deadline=None)
@given(_restart_runs(), st.integers(1, 12), st.data())
def test_restart_from_a_snapshot_continues_bitwise(run, stride, data):
    """A flow restarted from recorded state k, rebuilt from its snapshot
    alone, retraces the original run bitwise: each later record has the same
    step and the same snapshot bytes, and the events between match.  So
    nothing outside a snapshot steers the trajectory.  A snapshot lacks two
    things: the step, which the restart takes from the state (a run
    directory has it in timeseries.csv), and the extinction thresholds,
    which run_flow takes from the initial minimum edge and area, so these
    runs stay far from extinction.  The final record is left out: the
    restart's horizon t_k + (T - t_k) need not round to T, so its last step
    may differ by rounding."""
    kind, surface, t_end = run
    trace, states = run_states(surface, FlowConfig(t_end=t_end, record_stride=stride))
    k = data.draw(st.integers(0, len(states) - 2), label="k")
    start = states[k]
    restart, restarted = run_states(
        FlowState(geometry.loads_surface(geometry.dumps_surface(start.surface)), start.step),
        FlowConfig(t_end=t_end - start.t, record_stride=stride),
    )
    assert len(restarted) == len(states) - k
    assert restart.final.step == trace.final.step
    for got, want in zip(restarted[:-1], states[k:-1]):
        assert got.step == want.step
        assert geometry.dumps_surface(got.surface) == geometry.dumps_surface(want.surface)

    def between(events):
        return [e for e in events if start.step <= e["step"] < trace.final.step]

    assert between(restart.events) == between(trace.events)
    assert not trace.events_of("extinction") and not restart.events_of("extinction")
    assert bool(trace.events_of("remesh")) == (kind == "square")


# ---------------------------------------------------------------------------
# Exact symmetries: a map that is exact on the float grid commutes with
# run_flow bit for bit, so it is an oracle for every step path
# ---------------------------------------------------------------------------


def _scaled(surface):
    """x -> 2x at t -> 4t: lengths double and times quadruple, exactly."""
    if isinstance(surface, ClosedCurve):
        return dataclasses.replace(surface, vertices=2.0 * surface.vertices,
                                   time=4.0 * surface.time)
    return dataclasses.replace(surface, center=2.0 * surface.center, radius=2.0 * surface.radius,
                               spacing=2.0 * surface.spacing, values=2.0 * surface.values,
                               time=4.0 * surface.time)


def _turned(curve):
    """The quarter turn (x, y) -> (-y, x)."""
    x, y = curve.vertices[:, 0], curve.vertices[:, 1]
    return dataclasses.replace(curve, vertices=np.stack([-y, x], axis=1))


def _negated(patch):
    return dataclasses.replace(patch, values=-patch.values)


def _mirrored(patch):
    """x_0 -> -x_0 about the patch's centre, which is 0 here."""
    return dataclasses.replace(patch, values=np.flip(patch.values, axis=0).copy())


def _reflected(curve):
    """(x, y) -> (-x, y) with the vertex order reversed, which keeps the
    orientation."""
    v = curve.vertices[::-1]
    return dataclasses.replace(curve, vertices=np.stack([-v[:, 0], v[:, 1]], axis=1))


# The least nonzero shape coefficient of a scaled run.  x -> 2x is exact only
# on normal floats, and a step multiplies a coefficient by itself: an open
# curve's middle vertex moves by dt kappa N_x, quadratic in it, and a 2-D
# patch's g^{-1} D^2 f is cubic.  A subnormal product rounds on a fixed
# absolute grid: on these runs, coefficients from 1e-154 to 1e-161, and from
# 1e-300 down, break the scaling.  At the fourth root of the least normal
# float, 1.2e-77, the products stay normal.
# The other maps only move, swap or negate values, which is exact at any size.
_NORMAL = float(np.finfo(float).tiny) ** 0.25

# name: (map, the run kinds it applies to, its length factor, its time factor)
_SYMMETRIES = {
    "scale": (_scaled, ("closed", "open", "square", "graph", "patch"), 2.0, 4.0),
    "turn": (_turned, ("closed", "open", "square"), 1.0, 1.0),
    "negate": (_negated, ("graph", "patch"), 1.0, 1.0),
    "mirror": (_mirrored, ("graph",), 1.0, 1.0),
    "reflect": (_reflected, ("square",), 1.0, 1.0),
}


def _snapshot(surface) -> str:
    """surface's snapshot with -0.0 read as 0.0: f -> -f and the turn map a
    zero to -0.0, which the flow's sums turn back into 0.0."""
    name = "vertices" if isinstance(surface, ClosedCurve) else "values"
    return geometry.dumps_surface(
        dataclasses.replace(surface, **{name: getattr(surface, name) + 0.0}))


def _mapped_event(event, length, time):
    factors = {"t": time, "min_edge": length, "length": length, "area": length * length}
    return {k: v * factors[k] if k in factors and v is not None else v
            for k, v in event.items()}


@pytest.mark.parametrize("name", [
    "scale",
    "turn",
    "negate",
    pytest.param("mirror", marks=pytest.mark.xfail(strict=True, reason=(
        "geometry._d2 evaluates (f[i+1] - 2f[i]) + f[i-1], which rounds "
        "differently when the nodes are reversed"))),
    pytest.param("reflect", marks=pytest.mark.xfail(strict=True, reason=(
        "a remesh resamples from vertex 0, and the reversed order starts "
        "at the other end"))),
])
# no shrink phase: each xfail fails on its first example, and shrinking
# that example costs seconds
@settings(max_examples=12, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_exact_symmetries_commute_with_run_flow(name, data):
    """A map that is exact in binary floating point commutes with run_flow
    bitwise, but for the sign of zero: the run from the mapped surface
    records, step for step, the map of each state the original run records,
    and the same events, their times, lengths and areas scaled by the map.
    The maps: x -> 2x with t -> 4t and the remesh spacing doubled, on curves
    and graphs; the quarter turn of a curve, through its remeshes; f -> -f
    on 1-D and 2-D graphs.  Two maps that do not hold are strict xfails,
    each with its reason: the graph mirror x -> -x, and a curve reflection
    with reversed vertex order on the square, which remeshes."""
    mapping, kinds, length, time = _SYMMETRIES[name]
    least = _NORMAL if name == "scale" else 0.0
    kind, surface, t_end = data.draw(_restart_runs(kinds, least), label="run")
    stride = data.draw(st.integers(1, 12), label="stride")
    spacing = None
    if isinstance(surface, ClosedCurve):
        spacing = data.draw(st.sampled_from([None, 0.25]), label="remesh_spacing")
    trace, states = run_states(
        surface, FlowConfig(t_end=t_end, record_stride=stride, remesh_spacing=spacing))
    image, image_states = run_states(mapping(surface), FlowConfig(
        t_end=time * t_end, record_stride=stride,
        remesh_spacing=None if spacing is None else length * spacing))
    assert [s.step for s in image_states] == [s.step for s in states]
    for got, want in zip(image_states, states):
        assert _snapshot(got.surface) == _snapshot(mapping(want.surface))
    assert image.events == [_mapped_event(e, length, time) for e in trace.events]


# exponent k of each battery report: under x -> 2x, t -> 4t with the battery
# at (2 rho, 2 y0), its value, bound and tol scale by exactly 2^k
_MONITOR_SCALING = {
    "phi_monotonicity": 1,
    "upsilon_monotonicity[constant]": 7,
    "gradient_bound_eh": 0,
    "brakke_identity[transport]": 1,
}


@pytest.mark.parametrize("monitor_id", [
    *_MONITOR_SCALING,
    *(pytest.param(f"upsilon_monotonicity[{form}]", marks=pytest.mark.xfail(
        strict=True, reason="the battery passes r0 = 0.2 and lam = 0.5 unscaled"))
      for form in ("slab", "split")),
])
@settings(max_examples=12, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_monitor_battery_scales_with_the_flow(monitor_id, data):
    """The monitor battery commutes with x -> 2x, t -> 4t: run at
    (2 rho, 2 y0) on the scaled flow, each record's reports are those of
    the original run, in the same order, with the same skips and reasons, at
    4 times the time, and the value, bound and tol of `monitor_id` scaled by
    exactly 2^k: phi and Brakke's identity integrate a dimensionless
    function over a length (k = 1), Upsilon[constant] the cube of an area
    (k = 7), and the gradient bound compares slopes (k = 0).  The slab and
    split forms are strict xfails: their r0 and lam are lengths the battery
    does not scale."""
    from mcflab.scenarios import monitor_battery

    kind, surface, t_end = data.draw(_restart_runs(("closed", "open", "graph"), least=_NORMAL),
                                     label="run")
    stride = data.draw(st.integers(1, 12), label="stride")
    rho = data.draw(st.sampled_from([0.5, 1.0, 1.5]), label="rho")
    y0 = np.array(data.draw(st.tuples(*[st.floats(-0.25, 0.25)] * 2), label="y0"))
    trace = run_flow(surface, FlowConfig(t_end=t_end, record_stride=stride),
                     monitors=monitor_battery(rho, y0))
    image = run_flow(_scaled(surface), FlowConfig(t_end=4.0 * t_end, record_stride=stride),
                     monitors=monitor_battery(2.0 * rho, 2.0 * y0))
    factor = 2.0 ** _MONITOR_SCALING.get(monitor_id, 1)
    assert len(image.records) == len(trace.records) > 1
    assert any(r.monitor_id == monitor_id for r in trace.reports)
    for image_record, record in zip(image.records, trace.records):
        assert len(image_record[-1]) == len(record[-1])
        for got, want in zip(image_record[-1], record[-1]):
            assert (got.monitor_id, got.skipped, got.reason) == (
                want.monitor_id, want.skipped, want.reason)
            assert got.t == 4.0 * want.t
            if got.monitor_id == monitor_id:
                assert (got.value, got.bound, got.tol) == (
                    factor * want.value, factor * want.bound, factor * want.tol)
