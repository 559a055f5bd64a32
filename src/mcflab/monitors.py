"""Runtime inequality monitors: localized test functions and local
height/gradient/curvature bounds.

Every check returns a MonitorReport with margin = bound - value and
pass <=> margin >= -tol.  A check that cannot be evaluated honestly (test
function support leaving the computational domain, graphicality missing,
empty time window) returns a skipped report carrying the reason rather than
a fabricated pass.

The integral identity check supports two integrand forms and both are kept:
  "divergence"  d/dt int(phi) = int(dt phi - div_M(D phi) - |H|^2 phi)
  "transport"   d/dt int(phi) = int(dt phi + H . D phi    - |H|^2 phi)
With H the mean-curvature vector, Delta_M phi = div_M(D phi) + H . D phi, and
int(Delta_M phi) = 0 on a closed surface or for compactly supported phi, so
the two forms agree as integrals.  Pointwise their integrands differ by
Delta_M phi, so their discrete residuals differ only by how well the
quadrature integrates Delta_M phi to zero.

The checks read each surface through one private context, kept in the
surface's cache: the sample and the signed mean curvature, computed when the
context is built, the graph Jacobian and h^n (so a graph integral keeps its
sum(vals * jac) * h^n arithmetic), and the rows on the computational
boundary, whose mask comes from the grid; never the surface itself, so the
two form no cycle.  Its memo holds the scalar results of each test
function, keyed by the test function and its parameters alone, since a
state's time is its surface's: the integral and support-exits flag of a
monotonicity check, the Brakke side, part and mass, and the gradient
bound's sup at its window start.  A monitored run therefore evaluates each
test function once per recorded state, though every window uses the state
twice.  The monotone quantities' windows start at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._util import ConfigError
from .geometry import (
    GraphPatch,
    curve_quantities_all,
    gradient_field,
    gradient_raw,
    graph_lift_and_jacobian,
    hessian_field,
    mean_curvature_graph,
    sample_surface,
    second_fundamental_norm,
)

MONO_TOL_REL_DEFAULT = 1e-6
IDENTITY_TOL_REL_DEFAULT = 0.02


@dataclass(frozen=True)
class MonitorReport:
    """One checked inequality: value <= bound up to tol (margin >= -tol)."""

    monitor_id: str
    t: float
    value: float
    bound: float
    tol: float = 0.0
    skipped: bool = False
    reason: str = ""
    margin: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        margin = self.bound - self.value
        object.__setattr__(self, "margin", margin)
        object.__setattr__(
            self, "passed", bool(not self.skipped and margin >= -self.tol)
        )


def _skipped(monitor_id: str, t: float, reason: str) -> MonitorReport:
    return MonitorReport(
        monitor_id=monitor_id, t=t, value=0.0, bound=0.0, skipped=True, reason=reason
    )


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


def phi_rho(rho: float, t0: float, x0, t: float, x):
    """(1 - rho^-2 (|x-x0|^2 + 2n(t-t0)))_+ ; x ambient, of dimension n + 1
    (codimension 1)."""
    if rho <= 0:
        raise ConfigError("rho must be > 0")
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x.shape[-1] - 1
    d2 = np.sum((x - x0) ** 2, axis=-1)
    return np.maximum(1.0 - (d2 + 2.0 * n * (t - t0)) / rho**2, 0.0)


def upsilon(
    form: str,
    t: float,
    x,
    *,
    y0,
    rho: float,
    r0: float = 0.0,
    lam: float | None = None,
):
    """Localized barrier ((rho^2 - |x-y0|^2) eta - (2n + L rho) t)_+ , with x
    of dimension n + 1.

    Built-in eta forms and their Lipschitz constants L:
      "constant"  eta = 1, L = 0 (recovers the rho^2-scaled paraboloid cutoff)
      "slab"      eta = min(((|x_last| - r0)_+)/2, 1), L = 1/2
      "split"     eta = (1 - (2 lam^n)^-2 (|Q x|^2 + 2n t))_+ with Q the
                  projection onto the last two ambient coordinates, L = lam^-2n
    """
    x = np.asarray(x, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if rho <= 0:
        raise ConfigError("rho must be > 0")
    n = x.shape[-1] - 1
    if form == "constant":
        eta = np.ones(x.shape[:-1])
        lip = 0.0
    elif form == "slab":
        eta = np.minimum(np.maximum(np.abs(x[..., -1]) - r0, 0.0) / 2.0, 1.0)
        lip = 0.5
    elif form == "split":
        if lam is None or not 0 < lam <= 1:
            raise ConfigError("split form needs lam in (0, 1]")
        q2 = x[..., -2] ** 2 + x[..., -1] ** 2
        eta = np.maximum(1.0 - (q2 + 2.0 * n * t) / (2.0 * lam**n) ** 2, 0.0)
        lip = lam ** (-2 * n)
    else:
        raise ConfigError(f"unknown upsilon form {form!r}")
    d2 = np.sum((x - y0) ** 2, axis=-1)
    return np.maximum((rho**2 - d2) * eta - (2.0 * n + lip * rho) * t, 0.0)


# ---------------------------------------------------------------------------
# Per-state geometric context shared by the checks
# ---------------------------------------------------------------------------


class _Context:
    """One surface as the checks see it (module docstring); H is signed, the
    curvature vector is H times the normal.  A test function's quadrature is
    sum(vals * jac) * scale, with scale = h^n for a graph and 1 for a curve,
    whose jac holds the vertex weights."""

    def __init__(self, surface):
        self.memo = {}
        self.sample = sample_surface(surface)
        if isinstance(surface, GraphPatch):
            act = surface.active
            df, d2f = gradient_field(surface)[act], hessian_field(surface)[act]
            self.mean_curvature = mean_curvature_graph(df, d2f)
            self.points, self.jac = graph_lift_and_jacobian(surface)
            self.scale = surface.spacing**surface.n
            self.edge = surface.grid.boundary
        else:
            self.mean_curvature = curve_quantities_all(surface)[1]
            self.points = surface.vertices
            self.jac = self.sample.weights
            self.scale = 1.0
            self.edge = [] if surface.closed else [0, -1]

    def exits(self, vals: np.ndarray) -> bool:
        """Whether a test function's support reaches the boundary."""
        return bool(np.any(vals[self.edge] > 0.0))


def _memo(state, key, compute):
    """compute(t, context) of the state's surface, once per key."""
    cache = state.surface._cache
    ctx = cache.get("monitor_context")
    if ctx is None:
        ctx = cache["monitor_context"] = _Context(state.surface)
    if key not in ctx.memo:
        ctx.memo[key] = compute(state.t, ctx)
    return ctx.memo[key]


def _ball_measure(state, center, radius: float) -> float:
    sample = sample_surface(state.surface)
    c = np.asarray(center, dtype=float)
    inside = np.linalg.norm(sample.points - c, axis=1) <= radius
    return float(np.sum(sample.weights[inside]))


# ---------------------------------------------------------------------------
# Monotonicity checks
# ---------------------------------------------------------------------------


def _monotonicity_report(monitor_id: str, state_a, state_b, key, fn) -> MonitorReport:
    """key names fn by its parameters, so that every check of the same test
    function shares one evaluation per state."""

    def quadrature(t, ctx):
        vals = np.asarray(fn(t, ctx.points), dtype=float)
        return ctx.exits(vals), float(np.sum(vals * ctx.jac) * ctx.scale)

    exits_a, i_a = _memo(state_a, key, quadrature)
    exits_b, i_b = _memo(state_b, key, quadrature)
    if exits_a or exits_b:
        return _skipped(monitor_id, state_b.t, "support leaves computational domain")
    return MonitorReport(
        monitor_id=monitor_id,
        t=state_b.t,
        value=i_b - i_a,
        bound=0.0,
        tol=MONO_TOL_REL_DEFAULT * abs(i_a),
    )


def check_phi_monotonicity(
    state_a,
    state_b,
    rho: float,
    *,
    x0,
) -> MonitorReport:
    """int phi_rho^3 dmu, centred at (t = 0, x0), between two recorded states
    must not increase."""
    key = ("phi", rho, tuple(np.asarray(x0, dtype=float).tolist()))

    def fn(t, pts):
        return phi_rho(rho, 0.0, x0, t, pts) ** 3

    return _monotonicity_report("phi_monotonicity", state_a, state_b, key, fn)


def check_upsilon_monotonicity(
    state_a,
    state_b,
    form: str,
    *,
    y0,
    rho: float,
    r0: float = 0.0,
    lam: float | None = None,
) -> MonitorReport:
    """int Upsilon^3 dmu between two recorded states must not increase."""
    key = ("upsilon", form, tuple(np.asarray(y0, dtype=float).tolist()), rho, r0, lam)

    def fn(t, pts):
        return upsilon(form, t, pts, y0=y0, rho=rho, r0=r0, lam=lam) ** 3

    return _monotonicity_report(f"upsilon_monotonicity[{form}]", state_a, state_b, key, fn)


# ---------------------------------------------------------------------------
# Measure and height bounds
# ---------------------------------------------------------------------------


def check_measure_bound(
    state_s1,
    state_t,
    y0,
    rho: float,
) -> MonitorReport:
    """mu_t(B(y0, rho/2)) <= 8 mu_s1(B(y0, rho)) inside the parabolic window."""
    mid = "measure_bound"
    if rho <= 0:
        raise ConfigError("rho must be > 0")
    n = sample_surface(state_t.surface).points.shape[1] - 1
    dt = state_t.t - state_s1.t
    if dt < 0:
        return _skipped(mid, state_t.t, "window ends before it starts")
    window = rho**2 / (8.0 * n)
    if dt >= window:
        return _skipped(mid, state_t.t, f"t - s1 = {dt:.3e} outside window {window:.3e}")
    value = _ball_measure(state_t, y0, rho / 2.0)
    bound = 8.0 * _ball_measure(state_s1, y0, rho)
    return MonitorReport(monitor_id=mid, t=state_t.t, value=value, bound=bound)


def check_height_bound(
    state_t1,
    state_t,
    x0,
    R: float,
    r0: float,
    c_hat: float,
) -> MonitorReport:
    """Vertical excursion in C(x0, R, R) stays below r0 + c_hat (t-t1)/R.

    Precondition (initial containment in the slab of half-height r0 within
    the ball of radius 2R) is a configuration error when violated.
    """
    if R <= 0 or r0 < 0 or c_hat < 0:
        raise ConfigError("need R > 0, r0 >= 0, c_hat >= 0")
    x0 = np.asarray(x0, dtype=float)
    sample_1 = sample_surface(state_t1.surface)
    dist_1 = np.linalg.norm(sample_1.points - x0, axis=1)
    heights_1 = np.abs(sample_1.points[:, -1] - x0[-1])
    near = dist_1 <= 2.0 * R
    if np.any(heights_1[near] > r0 * (1 + 1e-12) + 1e-15):
        worst = float(np.max(heights_1[near]))
        raise ConfigError(
            f"initial state not inside C(x0, 2R, r0): max height {worst:.6g} > r0 = {r0}"
        )
    sample_t = sample_surface(state_t.surface)
    base = np.linalg.norm(sample_t.points[:, :-1] - x0[:-1], axis=1)
    heights = np.abs(sample_t.points[:, -1] - x0[-1])
    inside = (base <= R) & (heights <= R)
    value = float(np.max(heights[inside])) if np.any(inside) else 0.0
    bound = r0 + c_hat * (state_t.t - state_t1.t) / R
    return MonitorReport(monitor_id="height_bound", t=state_t.t, value=value, bound=bound)


# ---------------------------------------------------------------------------
# Gradient and curvature bounds
# ---------------------------------------------------------------------------


def check_gradient_bound_EH(
    state_t1,
    state_t,
    x0,
    rho: float,
) -> MonitorReport:
    """v(t,x) (1 - rho^-2(|x-x0|^2 + 2n(t-t1))) <= sup_{B^n(x0_hat, rho)} v(t1)
    on the shrinking ball B(x0, rho(t)), with v = (nu . e_last)^-1."""
    mid = "gradient_bound_eh"
    if rho <= 0:
        raise ConfigError("rho must be > 0")
    x0 = np.asarray(x0, dtype=float)
    sample_t = sample_surface(state_t.surface)
    n = sample_t.points.shape[1] - 1
    tau = state_t.t - state_t1.t
    if tau < 0:
        return _skipped(mid, state_t.t, "window ends before it starts")
    rho_t_sq = rho**2 - 2.0 * n * tau
    if rho_t_sq <= 0:
        return _skipped(mid, state_t.t, "shrunken ball is empty")

    def initial_sup(t, ctx):
        """(sup of v over the base ball, or None with the reason)."""
        sample = ctx.sample
        sel = np.linalg.norm(sample.points[:, :-1] - x0[:-1], axis=1) <= rho
        if not np.any(sel):
            return None, "no initial samples over the base ball"
        ne = sample.normals[sel, -1]
        if np.any(ne <= 0):
            return None, "initial state not graphical (nu.e <= 0)"
        return float(np.max(1.0 / ne)), ""

    key = ("gradient_sup", tuple(x0.tolist()), rho)
    bound, reason = _memo(state_t1, key, initial_sup)
    if bound is None:
        return _skipped(mid, state_t.t, reason)

    dist = np.linalg.norm(sample_t.points - x0, axis=1)
    sel_t = dist <= math.sqrt(rho_t_sq)
    if not np.any(sel_t):
        value = 0.0
    else:
        ne_t = sample_t.normals[sel_t, -1]
        if np.any(ne_t <= 0):
            return _skipped(mid, state_t.t, "current state not graphical (nu.e <= 0)")
        weight = 1.0 - (dist[sel_t] ** 2 + 2.0 * n * tau) / rho**2
        value = float(np.max(weight / ne_t))
    return MonitorReport(monitor_id=mid, t=state_t.t, value=value, bound=bound)


def check_curvature_bound_EH(
    states: Sequence,
    x0,
    rho: float,
    c_hat: float,
) -> MonitorReport:
    """max |A|^2 over the final lift of B^n(x0_hat, rho) against
    c_hat ((s-s1)^-1 + rho^-2) sup_{[s1,s]} sup_{B^n(x0_hat, 2 rho)} (1+|Df|^2)^2."""
    mid = "curvature_bound_eh"
    if rho <= 0 or c_hat <= 0:
        raise ConfigError("need rho > 0 and c_hat > 0")
    if len(states) < 2:
        return _skipped(mid, states[-1].t if states else 0.0, "window too short")
    x0 = np.asarray(x0, dtype=float)
    s1, s = states[0].t, states[-1].t
    if s <= s1:
        return _skipped(mid, s, "window has zero duration")
    sup_df = 0.0
    for st in states:
        surf = st.surface
        if not isinstance(surf, GraphPatch):
            return _skipped(mid, s, "requires graph states")
        if np.linalg.norm(surf.center - x0[:-1]) + 2 * rho > surf.radius + surf.spacing:
            return _skipped(mid, s, "patch does not cover B(x0, 2 rho)")
        act = surf.active
        base = np.linalg.norm(surf.nodes[act] - x0[:-1], axis=1)
        df = gradient_raw(surf.values, surf.spacing)[act]  # builds no cache
        sel = base <= 2 * rho
        w = 1.0 + np.sum(df[sel] ** 2, axis=-1)
        sup_df = max(sup_df, float(np.max(w**2)))
    final = states[-1].surface
    act = final.active
    base = np.linalg.norm(final.nodes[act] - x0[:-1], axis=1)
    sel = base <= rho
    df = gradient_field(final)[act][sel]
    d2f = hessian_field(final)[act][sel]
    value = float(np.max(second_fundamental_norm(df, d2f) ** 2))
    bound = c_hat * (1.0 / (s - s1) + 1.0 / rho**2) * sup_df
    return MonitorReport(monitor_id=mid, t=s, value=value, bound=bound)


# ---------------------------------------------------------------------------
# Integral flow identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestField:
    """C^2 ambient test field phi(t, x) with its derivatives.

    value/grad/dt/hess take (t, points) with points of shape (N, d) and
    return arrays of shape (N,), (N, d), (N,), (N, d, d).
    """

    value: Callable
    grad: Callable
    dt: Callable
    hess: Callable


def phi_rho_cubed_field(rho: float, t0: float, x0) -> TestField:
    """phi_rho^3 as a C^2 test field (cubing smooths the truncation kink)."""
    if rho <= 0:
        raise ConfigError("rho must be > 0")
    x0 = np.asarray(x0, dtype=float)

    def base(t, pts):
        return phi_rho(rho, t0, x0, t, pts)

    def value(t, pts):
        return base(t, pts) ** 3

    def dt(t, pts):
        n = np.shape(pts)[-1] - 1
        return 3.0 * base(t, pts) ** 2 * (-2.0 * n / rho**2)

    def grad(t, pts):
        pts = np.asarray(pts, dtype=float)
        u = base(t, pts)
        return (3.0 * u**2 * (-2.0 / rho**2))[:, None] * (pts - x0)

    def hess(t, pts):
        pts = np.asarray(pts, dtype=float)
        u = base(t, pts)
        d = pts.shape[1]
        offset = pts - x0
        outer = offset[:, :, None] * offset[:, None, :]
        h = 6.0 * u[:, None, None] * (4.0 / rho**4) * outer
        h += (3.0 * u**2 * (-2.0 / rho**2))[:, None, None] * np.eye(d)
        return h

    return TestField(value=value, grad=grad, dt=dt, hess=hess)


def check_brakke_identity(
    state_a,
    state_b,
    test_field: TestField,
    form: str = "divergence",
) -> MonitorReport:
    """|Delta int(phi) - Delta_t * int(dt phi + (form term) - |H|^2 phi)| small.

    The right side is the trapezoid average of the two window endpoints
    (second-order midpoint value).  form picks the middle term: "divergence"
    uses -div_M(D phi) = -tr(P D^2 phi) with P the tangent projection;
    "transport" uses H . D phi.  The two agree after integration because
    int(div_M(D phi)) = -int(H . D phi) on a closed surface or for a
    compactly supported phi.
    """
    if form not in ("divergence", "transport"):
        raise ConfigError(f"unknown identity form {form!r}")
    mid = f"brakke_identity[{form}]"
    dt_window = state_b.t - state_a.t
    if dt_window <= 0:
        return _skipped(mid, state_b.t, "window has zero duration")

    def terms(t, ctx):
        """None if phi's support exits, else the integrals (side, part, mass)."""
        pts = ctx.points
        phi = np.asarray(test_field.value(t, pts), dtype=float)
        if ctx.exits(phi):
            return None
        w, nu, h_scalar = ctx.sample.weights, ctx.sample.normals, ctx.mean_curvature
        dphi = np.asarray(test_field.dt(t, pts), dtype=float)
        if form == "divergence":
            hess = np.asarray(test_field.hess(t, pts), dtype=float)
            trace_h = np.einsum("...ii->...", hess)
            nhn = np.einsum("...i,...ij,...j->...", nu, hess, nu)
            middle = nhn - trace_h
        else:
            grad = np.asarray(test_field.grad(t, pts), dtype=float)
            middle = h_scalar * np.einsum("...i,...i->...", nu, grad)
        integrand = dphi + middle - h_scalar**2 * phi
        return (
            float(np.sum(w * integrand)),
            float(np.sum(w * (np.abs(dphi) + np.abs(middle) + np.abs(h_scalar**2 * phi)))),
            float(np.sum(w * phi)),
        )

    key = ("brakke", test_field, form)
    a = _memo(state_a, key, terms)
    b = None if a is None else _memo(state_b, key, terms)
    if b is None:
        return _skipped(mid, state_b.t, "support leaves computational domain")
    lhs = b[2] - a[2]
    rhs = dt_window * (a[0] + b[0]) / 2.0
    value = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), dt_window * (a[1] + b[1]) / 2.0)
    return MonitorReport(
        monitor_id=mid, t=state_b.t, value=value, bound=IDENTITY_TOL_REL_DEFAULT * scale
    )


# ---------------------------------------------------------------------------
# Calibration and the monitor helper for run_flow
# ---------------------------------------------------------------------------


def calibrate_constant(ratios: Sequence[float]) -> float:
    """2x the max ratio observed across resolutions (constant calibration)."""
    if len(ratios) < 3:
        raise ConfigError("calibration needs at least 3 resolutions")
    return 2.0 * max(float(r) for r in ratios)


def windowed_monitor(check: Callable, start: int, *args, **kwargs) -> Callable:
    """run_flow monitor calling check(trace.snapshots[start], state, *args,
    **kwargs) from the second record on: start -2 checks the window since the
    previous record, start 0 the window since the first."""

    def monitor(trace, state):
        if len(trace.snapshots) < 2:
            return None
        return check(trace.snapshots[start], state, *args, **kwargs)

    return monitor
