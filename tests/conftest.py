import numpy as np
import pytest

from mcflab import geometry
from mcflab.flow import RunDirSink, run_flow, write_run_dir
from mcflab.geometry import ClosedCurve, CurveKernel, curve_segments


def make_circle(radius=1.0, m=256, center=(0.0, 0.0), time=0.0):
    th = 2.0 * np.pi * np.arange(m) / m
    verts = np.stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1
    )
    return ClosedCurve(vertices=verts, time=time)


def run_states(initial, config, monitors=(), sink=None):
    """run_flow with a list sink: (trace, every recorded state).  A trace
    keeps only its first and last state; `sink`, if given, also receives
    each state as it is recorded."""
    states = []

    def keep(state):
        states.append(state)
        if sink is not None:
            sink(state)

    return run_flow(initial, config, monitors, sink=keep), states


def run_to_dir(initial, config, out, monitors=()):
    """run_flow streamed into the run directory `out`: (trace, every
    recorded state, {relative path: sha256} of the files written)."""
    run_dir = RunDirSink(out)
    trace, states = run_states(initial, config, monitors, sink=run_dir)
    return trace, states, write_run_dir(trace, run_dir)


def state_stats(state) -> tuple:
    """(measure, max|Df| or None, max|A|) of a state, from the surface's own
    cached fields: the reference for its timeseries.csv row."""
    surf = state.surface
    if isinstance(surf, ClosedCurve):
        _, kap = geometry.curve_quantities_all(surf)
        return geometry.total_length(surf), None, float(np.max(np.abs(kap)))
    act = surf.active
    df = geometry.gradient_field(surf)[act]
    d2f = geometry.hessian_field(surf)[act]
    measure = geometry.integrate_over_graph(surf, lambda t, pts: 1.0)
    max_grad = float(np.max(np.sqrt(geometry.sum_squares(df))))
    max_a = float(np.max(geometry.second_fundamental_norm(df, d2f)))
    return measure, max_grad, max_a


def count_kernels(monkeypatch) -> list:
    """Wrap CurveKernel.__init__; the returned list grows by one per kernel
    built while the patch holds."""
    built = []
    init = CurveKernel.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CurveKernel, "__init__", counted)
    return built


def curves_intersect(a: ClosedCurve, b: ClosedCurve) -> bool:
    """Whether any segment of a touches any segment of b (closed test)."""
    sa, ea = curve_segments(a)
    sb, eb = curve_segments(b)
    d_a, d_b = ea - sa, eb - sb
    for i in range(sa.shape[0]):
        r = d_a[i]
        qp = sb - sa[i]
        denom = r[0] * d_b[:, 1] - r[1] * d_b[:, 0]
        t_num = qp[:, 0] * d_b[:, 1] - qp[:, 1] * d_b[:, 0]
        u_num = qp[:, 0] * r[1] - qp[:, 1] * r[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            safe = np.where(denom != 0, denom, 1.0)
            t = np.where(denom != 0, t_num / safe, np.inf)
            u = np.where(denom != 0, u_num / safe, np.inf)
        if np.any((t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)):
            return True
    return False


def fitted_order(hs, errs):
    """Least-squares slope of log err against log h."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
