import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab._util import ConfigError
from mcflab.flow import FlowConfig, FlowState, run_flow
from mcflab.geometry import (
    ClosedCurve,
    GraphPatch,
    sum_squares,
)
from mcflab.monitors import (
    IDENTITY_TOL_REL_DEFAULT,
    TestField as Field,
    calibrate_constant,
    check_brakke_identity,
    check_curvature_bound_EH,
    check_gradient_bound_EH,
    check_height_bound,
    check_measure_bound,
    check_phi_monotonicity,
    check_upsilon_monotonicity,
    phi_rho,
    phi_rho_cubed_field,
    upsilon,
    windowed_monitor,
)

from conftest import make_circle, run_states


def constant_field(c=1.0):
    def zeros(t, pts):
        return np.zeros(np.asarray(pts).shape[0])

    return Field(
        value=lambda t, pts: np.full(np.asarray(pts).shape[0], float(c)),
        grad=lambda t, pts: np.zeros_like(np.asarray(pts, dtype=float)),
        dt=zeros,
        hess=lambda t, pts: np.zeros((np.asarray(pts).shape[0],) + (np.asarray(pts).shape[1],) * 2),
    )


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def test_phi_rho_values_and_support():
    assert phi_rho(2.0, 0.0, (0.0, 0.0), 0.0, (0.0, 0.0)) == 1.0
    # support shrinks like rho^2 - 2n(t - t0)
    x_edge = math.sqrt(4.0 - 2.0 * 0.5)
    assert phi_rho(2.0, 0.0, (0.0, 0.0), 0.5, (x_edge + 1e-9, 0.0)) == 0.0
    assert phi_rho(2.0, 0.0, (0.0, 0.0), 0.5, (x_edge - 1e-3, 0.0)) > 0.0
    with pytest.raises(ConfigError):
        phi_rho(0.0, 0.0, (0.0, 0.0), 0.0, (0.0, 0.0))


def test_phi_rho_is_scaled_constant_upsilon():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(64, 2), scale=2.0)
    for t in (0.0, 0.3):
        a = upsilon("constant", t, pts, y0=(0.1, -0.2), rho=1.7)
        b = 1.7**2 * phi_rho(1.7, 0.0, (0.1, -0.2), t, pts)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Upsilon forms
# ---------------------------------------------------------------------------


def test_upsilon_trivials():
    # constant form at the kernel point equals rho^2
    assert upsilon("constant", 0.0, (0.0, 0.0), y0=(0.0, 0.0),
                   rho=1.5) == pytest.approx(1.5**2, rel=1e-12)
    # slab form truncates to zero inside |x_last| <= r0
    assert upsilon("slab", 0.0, (0.3, 0.1), y0=(0.0, 0.0), rho=2.0, r0=0.2) == 0.0
    assert upsilon("slab", 0.0, (0.3, 1.0), y0=(0.0, 0.0), rho=2.0, r0=0.2) > 0.0
    with pytest.raises(ConfigError):
        upsilon("spiral", 0.0, (0.0, 0.0), y0=(0.0, 0.0), rho=1.0)
    with pytest.raises(ConfigError):
        upsilon("split", 0.0, (0.0, 0.0), y0=(0.0, 0.0), rho=1.0, lam=2.0)


@settings(max_examples=150)
@given(
    st.sampled_from(["constant", "slab", "split"]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_upsilon_nonincreasing_in_time(form, px, py, t1_offset, dt):
    x = (px, py)
    kw = dict(y0=(0.0, 0.0), rho=1.3, r0=0.1, lam=0.5)
    early = upsilon(form, t1_offset, x, **kw)
    late = upsilon(form, t1_offset + dt, x, **kw)
    assert late <= early + 1e-12
    assert late >= 0.0


# ---------------------------------------------------------------------------
# Monotonicity checks on the exact shrinking circle
# ---------------------------------------------------------------------------


def _circle_state(r0, t, m=256):
    r = math.sqrt(r0 * r0 - 2.0 * t)
    return FlowState(surface=make_circle(radius=r, m=m, time=t))


def test_phi_monotonicity_on_shrinking_circle():
    a, b = _circle_state(1.0, 0.0), _circle_state(1.0, 0.2)
    rep = check_phi_monotonicity(a, b, rho=3.0, x0=(0.0, 0.0))
    assert rep.passed and rep.value <= 0.0
    assert rep.monitor_id == "phi_monotonicity"


def test_phi_monotonicity_flags_growth():
    # an expanding circle gains localized mass faster than the kernel decays
    a = FlowState(surface=make_circle(radius=0.5, m=256, time=0.0))
    b = FlowState(surface=make_circle(radius=1.0, m=256, time=0.01), step=1)
    rep = check_phi_monotonicity(a, b, rho=3.0, x0=(0.0, 0.0))
    assert not rep.passed and rep.value > 0.0 and rep.margin < 0.0


@pytest.mark.parametrize("form,extra", [
    ("constant", {}),
    ("slab", {"r0": 0.05}),
    ("split", {"lam": 0.5}),
])
def test_upsilon_monotonicity_all_forms(form, extra):
    a, b = _circle_state(1.0, 0.0), _circle_state(1.0, 0.2)
    rep = check_upsilon_monotonicity(a, b, form, y0=(0.0, 0.0), rho=3.0, **extra)
    assert rep.passed
    assert rep.monitor_id == f"upsilon_monotonicity[{form}]"


def test_monotonicity_skips_when_support_exits():
    patch = GraphPatch.from_function(
        lambda p: np.zeros(p.shape[:-1]), center=(0.0,), radius=1.0,
        nodes_per_axis=64,
    )
    a = FlowState(surface=patch)
    b = FlowState(surface=dataclasses.replace(patch, time=0.01))
    rep = check_phi_monotonicity(a, b, rho=10.0, x0=(0.0, 0.0))
    assert rep.skipped and "support" in rep.reason
    assert not rep.passed


def test_graph_integrals_use_the_state_time():
    def flat(time):
        return GraphPatch.from_function(lambda p: np.zeros(p.shape[:-1]),
                                        center=(0.0,), radius=2.0,
                                        nodes_per_axis=401, time=time)

    # one patch moved to a second time: the copy's time counts, and its
    # cache is its own, so nothing computed at t = 0 is read at t = 0.1
    patch = flat(0.0)
    rep = check_phi_monotonicity(FlowState(surface=patch),
                                 FlowState(surface=dataclasses.replace(patch, time=0.1)),
                                 rho=1.0, x0=(0.0, 0.0))
    # int (1 - x^2 - 2t)^3 dx over its support is (32/35)(1 - 2t)^(7/2)
    exact = -(32.0 / 35.0) * (1.0 - 0.8**3.5)
    assert math.isclose(rep.value, exact, rel_tol=1e-3)
    timed = check_phi_monotonicity(FlowState(surface=flat(0.0)),
                                   FlowState(surface=flat(0.1)), rho=1.0,
                                   x0=(0.0, 0.0))
    assert timed == rep


# ---------------------------------------------------------------------------
# Measure and height bounds
# ---------------------------------------------------------------------------


def test_measure_bound_inside_window():
    a, b = _circle_state(1.0, 0.0), _circle_state(1.0, 0.05)
    rep = check_measure_bound(a, b, y0=(0.0, 0.0), rho=2.0)
    assert rep.passed
    assert math.isclose(rep.bound, 8.0 * 2.0 * math.pi, rel_tol=1e-3)


def test_measure_bound_skips_outside_window():
    a, b = _circle_state(1.5, 0.0), _circle_state(1.5, 0.9)
    rep = check_measure_bound(a, b, y0=(0.0, 0.0), rho=2.0)
    assert rep.skipped and "window" in rep.reason


def _flat_state(height, t, radius=2.0, m=257):
    patch = GraphPatch.from_function(
        lambda p: np.full(p.shape[:-1], height),
        center=(0.0,), radius=radius, nodes_per_axis=m, time=t,
    )
    return FlowState(surface=patch)


def test_height_bound_pass_and_fail():
    a = _flat_state(0.01, 0.0)
    ok = check_height_bound(a, _flat_state(0.05, 0.1), x0=(0.0, 0.0),
                            R=0.5, r0=0.02, c_hat=1.0)
    assert ok.passed and math.isclose(ok.value, 0.05, rel_tol=1e-12)
    assert math.isclose(ok.bound, 0.02 + 0.1 / 0.5, rel_tol=1e-12)
    bad = check_height_bound(a, _flat_state(0.5, 0.1), x0=(0.0, 0.0),
                             R=0.5, r0=0.02, c_hat=1.0)
    assert not bad.passed


def test_height_bound_precondition():
    a = _flat_state(0.5, 0.0)
    with pytest.raises(ConfigError):
        check_height_bound(a, _flat_state(0.5, 0.1), x0=(0.0, 0.0),
                           R=0.5, r0=0.02, c_hat=1.0)


# ---------------------------------------------------------------------------
# Ecker-Huisken gradient and curvature bounds
# ---------------------------------------------------------------------------


def _cosine_trace(amp=0.3, t_end=0.05, m=129, sink=None):
    patch = GraphPatch.from_function(
        lambda p: amp * np.cos(0.5 * math.pi * p[..., 0]),
        center=(0.0,), radius=1.0, nodes_per_axis=m,
    )
    return run_flow(patch, FlowConfig(t_end=t_end, record_stride=50), sink=sink)


def test_gradient_bound_eh_on_decaying_graph():
    trace = _cosine_trace()
    rep = check_gradient_bound_EH(trace.snapshots[0], trace.final,
                                  x0=(0.0, 0.0), rho=0.8)
    assert rep.passed


def test_gradient_bound_eh_detects_steepening():
    a = FlowState(surface=GraphPatch.from_function(
        lambda p: 0.05 * p[..., 0], center=(0.0,), radius=2.0,
        nodes_per_axis=257))
    b = FlowState(surface=GraphPatch.from_function(
        lambda p: 1.5 * p[..., 0], center=(0.0,), radius=2.0,
        nodes_per_axis=257, time=0.01))
    rep = check_gradient_bound_EH(a, b, x0=(0.0, 0.0), rho=1.0)
    assert not rep.passed
    with pytest.raises(ConfigError):
        check_gradient_bound_EH(a, b, x0=(0.0, 0.0), rho=0.0)


def test_curvature_bound_eh():
    states = []
    _cosine_trace(sink=states.append)
    assert len(states) > 2
    ok = check_curvature_bound_EH(states, x0=(0.0, 0.0), rho=0.5,
                                  c_hat=100.0)
    assert ok.passed
    bad = check_curvature_bound_EH(states, x0=(0.0, 0.0), rho=0.5,
                                   c_hat=1e-9)
    assert not bad.passed
    short = check_curvature_bound_EH(states[:1], x0=(0.0, 0.0),
                                     rho=0.5, c_hat=1.0)
    assert short.skipped


def test_curvature_window_keeps_d2f_of_the_last_state_only():
    """The window reads each state's Df, and D^2f only of its last state,
    so of the states the caller keeps, only the last holds D^2f or a
    timeseries row, each in the state's one cache entry."""
    states = []
    _cosine_trace(sink=states.append)
    fresh = [FlowState(dataclasses.replace(s.surface), s.step) for s in states]
    assert len(fresh) > 2
    check_curvature_bound_EH(fresh, x0=(0.0, 0.0), rho=0.5, c_hat=100.0)
    for state in fresh:
        assert state.surface._cache.keys() == {"context"}
    held = [{"hess", "row"} & vars(s.surface._cache["context"]).keys() for s in fresh]
    assert held[:-1] == [set()] * (len(fresh) - 1) and held[-1] == {"hess"}


# ---------------------------------------------------------------------------
# Brakke identity
# ---------------------------------------------------------------------------


def _circle_window(m=256, t_end=0.02):
    trace = run_flow(make_circle(radius=1.0, m=m),
                     FlowConfig(t_end=t_end, record_stride=10**9))
    return trace.snapshots[0], trace.final


def test_brakke_constant_field_matches_length_decay():
    """With phi = 1 the identity reduces to d/dt length = -int kappa^2."""
    a, b = _circle_window()
    for form in ("divergence", "transport"):
        rep = check_brakke_identity(a, b, constant_field(), form=form)
        assert rep.passed, form
        # window length drop agrees with -2 pi / r * dt within 2%
        drop = rep.value  # |lhs - rhs| residual
        assert drop <= rep.bound


def test_brakke_static_plane_both_forms():
    field = phi_rho_cubed_field(rho=1.5, t0=1.0, x0=(0.0, 0.0))
    a = _flat_state(0.0, 0.0, radius=4.0, m=513)
    b = _flat_state(0.0, 0.01, radius=4.0, m=513)
    for form in ("divergence", "transport"):
        rep = check_brakke_identity(a, b, field, form=form)
        assert rep.passed, form


def test_brakke_disjoint_support_trivial():
    field = phi_rho_cubed_field(rho=0.5, t0=1.0, x0=(50.0, 50.0))
    a, b = _circle_window()
    rep = check_brakke_identity(a, b, field)
    assert rep.value == 0.0 and rep.passed


def test_brakke_forms_split_on_curved_flow():
    """On a closed surface int div_M(D phi) = -int H . D phi, so the
    divergence form (middle term -div_M(D phi)) and the transport form
    (middle term H . D phi) balance the same measured mass change on a
    shrinking circle.  The field is centred off the circle's centre: for a
    centred radial field the two middle terms agree pointwise, so only an
    off-centre field tests the integration by parts."""
    field = phi_rho_cubed_field(rho=2.0, t0=1.0, x0=(0.8, 0.4))
    a, b = _circle_window(m=512, t_end=0.01)
    for form in ("transport", "divergence"):
        rep = check_brakke_identity(a, b, field, form=form)
        assert rep.passed, form
        scale = rep.bound / IDENTITY_TOL_REL_DEFAULT
        assert rep.value / scale <= 1e-3, form
    with pytest.raises(ConfigError):
        check_brakke_identity(a, b, field, form="sideways")


def test_brakke_forms_evaluate_only_their_derivative():
    """The divergence form needs only the Hessian of phi and the transport
    form only its gradient; the other derivative is never evaluated."""
    field = phi_rho_cubed_field(rho=2.0, t0=1.0, x0=(0.8, 0.4))
    a, b = _circle_window(m=128, t_end=0.005)

    def unused(t, pts):
        raise AssertionError("derivative evaluated but not used")

    for form, blind in (("divergence", dataclasses.replace(field, grad=unused)),
                        ("transport", dataclasses.replace(field, hess=unused))):
        rep = check_brakke_identity(a, b, blind, form=form)
        ref = check_brakke_identity(a, b, field, form=form)
        assert not ref.skipped, form
        assert (rep.value, rep.bound) == (ref.value, ref.bound), form


def test_brakke_window_must_advance():
    field = constant_field()
    a, _ = _circle_window()
    rep = check_brakke_identity(a, a, field)
    assert rep.skipped


# ---------------------------------------------------------------------------
# Calibration helper
# ---------------------------------------------------------------------------


def test_calibrate_constant_doubles_worst_case():
    assert calibrate_constant([1.0, 2.5, 0.5]) == 5.0
    with pytest.raises(ConfigError):
        calibrate_constant([1.0, 2.5])


# ---------------------------------------------------------------------------
# Per-state context: monitored runs against fresh checks
# ---------------------------------------------------------------------------


def _oracle_flows():
    graph = GraphPatch.from_function(lambda p: 0.2 * np.exp(-4.0 * p[..., 0] ** 2),
                                     center=(0.0,), radius=2.0, nodes_per_axis=256)
    th = 2.0 * np.pi * np.arange(160) / 160
    ellipse = ClosedCurve(np.stack([0.9 * np.cos(th), 0.6 * np.sin(th)], axis=1))
    x = np.linspace(-2.0, 2.0, 200)
    wave = ClosedCurve(np.stack([x, 0.3 * np.sin(np.pi * x / 2)], axis=1), closed=False)
    return {
        "graph": (graph, FlowConfig(t_end=2e-3, record_stride=7)),
        "closed": (ellipse, FlowConfig(t_end=2e-3, record_stride=2)),
        "open": (wave, FlowConfig(t_end=1e-3, record_stride=2)),
    }


def _oracle_checks():
    y0 = (0.0, 0.0)
    field = phi_rho_cubed_field(1.0, 0.0, y0)
    return [
        (check_phi_monotonicity, -2, (1.0,), {"x0": y0}),
        # support reaching the open ends and the graph's boundary: skipped
        (check_phi_monotonicity, -2, (1.0,), {"x0": (1.6, 0.0)}),
        (check_upsilon_monotonicity, -2, ("constant",), {"y0": y0, "rho": 1.0}),
        (check_upsilon_monotonicity, -2, ("slab",), {"y0": y0, "rho": 1.0, "r0": 0.2}),
        (check_upsilon_monotonicity, -2, ("split",),
         {"y0": y0, "rho": 1.0, "lam": 0.5}),
        (check_gradient_bound_EH, 0, (y0, 1.0), {}),
        (check_brakke_identity, -2, (field,), {"form": "transport"}),
        (check_brakke_identity, -2, (field,), {"form": "divergence"}),
        (check_measure_bound, 0, (y0, 1.0), {}),
        (check_height_bound, 0, (y0,), {"R": 1.0, "r0": 1.0, "c_hat": 1.0}),
    ]


def _fresh(state):
    """The same state on a surface with empty caches."""
    return FlowState(surface=dataclasses.replace(state.surface), step=state.step)


def _bits(report):
    return [v.hex() if isinstance(v, float) else v
            for v in dataclasses.astuple(report)]


@pytest.mark.parametrize("kind", ["graph", "closed", "open"])
def test_monitored_reports_match_fresh_checks(kind):
    surface, config = _oracle_flows()[kind]
    checks = _oracle_checks()
    monitors = [windowed_monitor(check, start, *args, **kwargs)
                for check, start, args, kwargs in checks]
    trace, snaps = run_states(surface, config, monitors=monitors)
    assert len(snaps) >= 5
    assert len(trace.reports) == len(checks) * (len(snaps) - 1)
    assert trace.records[0][-1] == []
    evaluated = 0
    for record, (*_, reps) in enumerate(trace.records[1:], start=1):
        fresh = []
        for check, start, args, kwargs in checks:
            window = snaps[:record + 1][start]
            fresh.append(check(_fresh(window), _fresh(snaps[record]), *args, **kwargs))
        fresh.sort(key=lambda r: r.monitor_id)
        assert [_bits(r) for r in reps] == [_bits(r) for r in fresh]
        evaluated += sum(not r.skipped for r in reps)
    assert evaluated > 0
    # each record's two phi reports keep the battery's order: centred, edge
    phi = [r for r in trace.reports if r.monitor_id == "phi_monotonicity"]
    skipped_edge = {r.skipped for r in phi[1::2]}
    assert skipped_edge == ({False} if kind == "closed" else {True})


def _counting_field(base, counts):
    def counted(name, fn):
        def wrapper(t, pts, *phi):
            counts[(name, t)] = counts.get((name, t), 0) + 1
            return fn(t, pts, *phi)

        return wrapper

    return dataclasses.replace(
        base, value=counted("value", base.value), grad=counted("grad", base.grad),
        dt=counted("dt", base.dt), hess=counted("hess", base.hess))


@pytest.mark.parametrize("kind", ["graph", "closed", "open"])
def test_test_function_evaluated_once_per_recorded_state(kind, monkeypatch):
    """Each recorded state evaluates the test field once, and computes
    |x - c|^2 once per centre and phi_rho once, for every check that reads
    them: the phi check and Brakke's value, dt and grad share one phi_rho,
    and the upsilon forms and the gradient bound one |x - y0|^2, the
    context's dist2; the checks compute no full-width distance of their
    own."""
    from mcflab import geometry, monitors

    squares, phis = [], {}
    once = geometry._Context.once

    def count_squares(v, c=None):
        squares.append((v.shape[-1], None if c is None else tuple(np.asarray(c).tolist())))
        return sum_squares(v, c)

    def count_dist2(ctx, key, compute):
        def counted(c):
            squares.append((c.points.shape[-1], key[1:]))
            return compute(c)

        return once(ctx, key, counted if key[0] == "dist2" else compute)

    def count_phi(rho, t0, x0, t, x, d2=None):
        phis[t] = phis.get(t, 0) + 1
        return phi_rho(rho, t0, x0, t, x, d2=d2)

    monkeypatch.setattr(monitors, "sum_squares", count_squares)
    monkeypatch.setattr(geometry._Context, "once", count_dist2)
    monkeypatch.setattr(monitors, "phi_rho", count_phi)
    surface, config = _oracle_flows()[kind]
    y0, y1 = (0.0, 0.0), (0.1, 0.0)
    counts = {}
    field = _counting_field(phi_rho_cubed_field(1.0, 0.0, y0), counts)
    trace = run_flow(surface, config, monitors=[
        windowed_monitor(check_brakke_identity, -2, field, form="transport"),
        windowed_monitor(check_brakke_identity, -2, field, form="transport"),
        windowed_monitor(check_phi_monotonicity, -2, 1.0, x0=y0),
        *(windowed_monitor(check_upsilon_monotonicity, -2, form, y0=y0, rho=1.0, **kw)
          for form, kw in (("constant", {}), ("slab", {"r0": 0.2}), ("split", {"lam": 0.5}))),
        windowed_monitor(check_upsilon_monotonicity, -2, "constant", y0=y1, rho=1.0),
        windowed_monitor(check_gradient_bound_EH, 0, y0, 1.0),
    ])
    assert all(not r.skipped for r in trace.reports if r.monitor_id != "gradient_bound_eh")
    times = [row[0] for row in trace.records]
    for name in ("value", "dt", "grad"):
        assert {t: counts.get((name, t), 0) for t in times} == {t: 1 for t in times}
    assert not any(name == "hess" for name, _ in counts)
    assert phis == {t: 1 for t in times}
    # full-width distances, the context's and any a check computes: one per
    # state and centre (the gradient bound's base-ball distance at the first
    # state is one column narrower)
    full = [c for width, c in squares if width == 2]
    assert sorted(full) == sorted([y0, y1] * len(times))


@pytest.mark.parametrize("kind", ["graph", "closed", "open"])
def test_window_start_quantities_computed_once_per_flow(kind, monkeypatch):
    """What the height and measure bounds read of their window's first state,
    the slab precondition and the ball measure, is computed once per flow,
    however many records read it; every later state's ball measure once."""
    from mcflab import geometry

    evaluated = []
    once = geometry._Context.once

    def counted_once(ctx, key, compute):
        def counted(c):
            evaluated.append((c.t, key))
            return compute(c)

        return once(ctx, key, counted)

    monkeypatch.setattr(geometry._Context, "once", counted_once)
    surface, config = _oracle_flows()[kind]
    y0 = (0.0, 0.0)
    trace = run_flow(surface, config, monitors=[
        windowed_monitor(check_measure_bound, 0, y0, 1.0),
        windowed_monitor(check_height_bound, 0, y0, R=1.0, r0=1.0, c_hat=1.0),
    ])
    times = [row[0] for row in trace.records]
    assert len(times) >= 5 and len(set(times)) == len(times)
    assert len(trace.reports) == 2 * (len(times) - 1)
    assert not any(r.skipped for r in trace.reports)
    slab = [t for t, key in evaluated if key[0] == "slab"]
    assert slab == [times[0]]
    balls = sorted((t, key[1]) for t, key in evaluated if key[0] == "ball_measure")
    assert balls == sorted([(times[0], 1.0)] + [(t, 0.5) for t in times[1:]])


def _phi_rho_reference(rho, t0, x0, t, x, d2=None):
    """phi_rho as a numpy reduce over the trailing axis, the slow reference;
    it ignores d2 and computes |x - x0|^2 itself."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] - 1
    d2 = np.sum((x - np.asarray(x0, dtype=float)) ** 2, axis=-1)
    return np.maximum(1.0 - (d2 + 2.0 * n * (t - t0)) / rho**2, 0.0)


def _upsilon_reference(form, t, x, *, y0, rho, r0=0.0, lam=None, d2=None):
    """upsilon as a numpy reduce over the trailing axis, ignoring d2."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] - 1
    if form == "constant":
        eta, lip = np.ones(x.shape[:-1]), 0.0
    elif form == "slab":
        eta, lip = np.minimum(np.maximum(np.abs(x[..., -1]) - r0, 0.0) / 2.0, 1.0), 0.5
    else:
        q2 = x[..., -2] ** 2 + x[..., -1] ** 2
        eta = np.maximum(1.0 - (q2 + 2.0 * n * t) / (2.0 * lam**n) ** 2, 0.0)
        lip = lam ** (-2 * n)
    d2 = np.sum((x - np.asarray(y0, dtype=float)) ** 2, axis=-1)
    return np.maximum((rho**2 - d2) * eta - (2.0 * n + lip * rho) * t, 0.0)


def _sum_squares_reference(v, c=None):
    return np.sum(v * v if c is None else (v - np.asarray(c, dtype=float)) ** 2, axis=-1)


def _phi_rho_cubed_reference(rho, t0, x0):
    """phi_rho^3, its t-derivative and its gradient on _phi_rho_reference,
    with the gradient broadcast over the (N, d) points; no shared phi_rho."""
    x0 = np.asarray(x0, dtype=float)

    def base(t, pts):
        return _phi_rho_reference(rho, t0, x0, t, pts)

    def grad(t, pts):
        return (3.0 * base(t, pts) ** 2 * (-2.0 / rho**2))[:, None] * (pts - x0)

    def dt(t, pts):
        return 3.0 * base(t, pts) ** 2 * (-2.0 * (np.shape(pts)[-1] - 1) / rho**2)

    def hess(t, pts):
        raise AssertionError("the transport form reads no Hessian")

    return Field(value=lambda t, pts: base(t, pts) ** 3, grad=grad, dt=dt, hess=hess)


@pytest.mark.parametrize("kind", ["open", "graph"])
def test_battery_margins_equal_the_numpy_reduce_reference(kind, monkeypatch):
    """Every report of the monitor battery equals, bit for bit, the battery
    run on the reference arithmetic: phi_rho, upsilon and |x - c|^2 as numpy
    reduces (the context's dist2 too), and a Brakke field that computes its
    own phi_rho in each callable and broadcasts its gradient."""
    from mcflab import geometry, monitors
    from mcflab.scenarios import monitor_battery

    surface, config = _oracle_flows()[kind]
    fast = run_flow(surface, config, monitors=monitor_battery())
    monkeypatch.setattr(monitors, "phi_rho", _phi_rho_reference)
    monkeypatch.setattr(monitors, "upsilon", _upsilon_reference)
    monkeypatch.setattr(monitors, "sum_squares", _sum_squares_reference)
    monkeypatch.setattr(geometry, "sum_squares", _sum_squares_reference)
    battery = monitor_battery()[:-1] + [windowed_monitor(
        check_brakke_identity, -2, _phi_rho_cubed_reference(1.0, 0.0, (0.0, 0.0)),
        form="transport")]
    surface, config = _oracle_flows()[kind]
    slow = run_flow(surface, config, monitors=battery)
    assert [_bits(r) for r in fast.reports] == [_bits(r) for r in slow.reports]
    evaluated = {r.monitor_id for r in fast.reports if not r.skipped}
    assert len(evaluated) == 6, evaluated


@pytest.mark.parametrize("kind", ["graph", "closed", "open"])
def test_checked_surface_is_freed_by_reference_counting(kind):
    """The context a check caches on a surface holds arrays, not the
    surface, so the two form no cycle: with the cyclic collector off, the
    last reference to the state going frees its surface."""
    surface, _ = _oracle_flows()[kind]
    a = FlowState(surface)
    b = FlowState(dataclasses.replace(surface, time=1e-4), 1)
    for check, _, args, kwargs in _oracle_checks():
        check(a, b, *args, **kwargs)
    assert "context" in b.surface._cache
    freed = weakref.ref(b.surface)
    gc.disable()
    try:
        del b
        assert freed() is None
    finally:
        gc.enable()
