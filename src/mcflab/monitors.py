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

The checks read a state only through its one context, `geometry._context`,
the surface's one cache entry (`geometry._Context` says what it builds on
first read); the curvature window reads its Df and D^2f there too, and each
test function's integral is its quadrature `integrate`.  Its memo, keyed by
parameters alone, holds |x - c|^2 per centre and phi_rho per (rho, t0, x0)
(`_phi_rho_at`), shared by the checks that read them, and the scalar results
of each test function and ball measure.  A monitored run therefore evaluates
each once per recorded state, though every window uses the state twice; what
a window reads of its first state (the gradient sup, the slab precondition,
the ball measure) is computed once per flow.  The monotone windows start at
t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry
from ._util import ConfigError
from .geometry import GraphPatch, second_fundamental_norm, sum_squares

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


def phi_rho(rho: float, t0: float, x0, t: float, x, d2=None):
    """(1 - rho^-2 (|x-x0|^2 + 2n(t-t0)))_+ ; x ambient, of dimension n + 1
    (codimension 1).  d2, if given, is |x-x0|^2."""
    if rho <= 0:
        raise ConfigError("rho must be > 0")
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] - 1
    if d2 is None:
        d2 = sum_squares(x, x0)
    return np.maximum(1.0 - (d2 + 2.0 * n * (t - t0)) / rho**2, 0.0)


def _phi_rho_at(ctx, rho: float, t0: float, x0) -> np.ndarray:
    """phi_rho(rho, t0, x0) at a state's context's points, on its dist2(x0),
    once per state."""
    x0 = np.asarray(x0, dtype=float)
    return ctx.once(("phi_rho", rho, t0, *x0.tolist()), lambda c: phi_rho(
        rho, t0, x0, c.t, c.points, d2=c.dist2(x0)))


def upsilon(
    form: str,
    t: float,
    x,
    *,
    y0,
    rho: float,
    r0: float = 0.0,
    lam: float | None = None,
    d2=None,
):
    """Localized barrier ((rho^2 - |x-y0|^2) eta - (2n + L rho) t)_+ , with x
    of dimension n + 1; d2, if given, is |x-y0|^2.

    Built-in eta forms and their Lipschitz constants L:
      "constant"  eta = 1, L = 0 (recovers the rho^2-scaled paraboloid cutoff)
      "slab"      eta = min(((|x_last| - r0)_+)/2, 1), L = 1/2
      "split"     eta = (1 - (2 lam^n)^-2 (|Q x|^2 + 2n t))_+ with Q the
                  projection onto the last two ambient coordinates, L = lam^-2n
    """
    x = np.asarray(x, dtype=float)
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
    if d2 is None:
        d2 = sum_squares(x, y0)
    return np.maximum((rho**2 - d2) * eta - (2.0 * n + lip * rho) * t, 0.0)


# ---------------------------------------------------------------------------
# Monotonicity checks
# ---------------------------------------------------------------------------


def _monotonicity_report(monitor_id: str, state_a, state_b, key, fn) -> MonitorReport:
    """fn(ctx) gives the test function at the context's points; key names
    it by its parameters, so that every check of the same test function
    shares one evaluation per state."""

    def quadrature(ctx):
        vals = np.asarray(fn(ctx), dtype=float)
        return ctx.exits(vals), ctx.integrate(vals)

    exits_a, i_a = geometry._context(state_a.surface).once(key, quadrature)
    exits_b, i_b = geometry._context(state_b.surface).once(key, quadrature)
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

    def fn(ctx):
        return _phi_rho_at(ctx, rho, 0.0, x0) ** 3

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

    def fn(ctx):
        return upsilon(form, ctx.t, ctx.points, y0=y0, rho=rho, r0=r0, lam=lam,
                       d2=ctx.dist2(y0)) ** 3

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
    ctx_t = geometry._context(state_t.surface)
    n = ctx_t.points.shape[1] - 1
    dt = state_t.t - state_s1.t
    if dt < 0:
        return _skipped(mid, state_t.t, "window ends before it starts")
    window = rho**2 / (8.0 * n)
    if dt >= window:
        return _skipped(mid, state_t.t, f"t - s1 = {dt:.3e} outside window {window:.3e}")
    value = ctx_t.ball_measure(y0, rho / 2.0)
    bound = 8.0 * geometry._context(state_s1.surface).ball_measure(y0, rho)
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

    def slab_excess(ctx):
        """The max height within 2R of x0 if it leaves the slab, else None."""
        near = np.sqrt(ctx.dist2(x0)) <= 2.0 * R
        heights = np.abs(ctx.points[near, -1] - x0[-1])
        return float(np.max(heights)) if np.any(heights > r0 * (1 + 1e-12) + 1e-15) else None

    worst = geometry._context(state_t1.surface).once(("slab", *x0.tolist(), R, r0), slab_excess)
    if worst is not None:
        raise ConfigError(
            f"initial state not inside C(x0, 2R, r0): max height {worst:.6g} > r0 = {r0}"
        )
    points = geometry._context(state_t.surface).points
    base = np.sqrt(sum_squares(points[:, :-1], x0[:-1]))
    heights = np.abs(points[:, -1] - x0[-1])
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
    ctx_t = geometry._context(state_t.surface)
    n = ctx_t.points.shape[1] - 1
    tau = state_t.t - state_t1.t
    if tau < 0:
        return _skipped(mid, state_t.t, "window ends before it starts")
    rho_t_sq = rho**2 - 2.0 * n * tau
    if rho_t_sq <= 0:
        return _skipped(mid, state_t.t, "shrunken ball is empty")

    def initial_sup(ctx):
        """(sup of v over the base ball, or None with the reason)."""
        sample = ctx.sample
        sel = np.sqrt(sum_squares(sample.points[:, :-1], x0[:-1])) <= rho
        if not np.any(sel):
            return None, "no initial samples over the base ball"
        ne = sample.normals[sel, -1]
        if np.any(ne <= 0):
            return None, "initial state not graphical (nu.e <= 0)"
        return float(np.max(1.0 / ne)), ""

    key = ("gradient_sup", tuple(x0.tolist()), rho)
    bound, reason = geometry._context(state_t1.surface).once(key, initial_sup)
    if bound is None:
        return _skipped(mid, state_t.t, reason)

    dist = np.sqrt(ctx_t.dist2(x0))
    sel_t = dist <= math.sqrt(rho_t_sq)
    if not np.any(sel_t):
        value = 0.0
    else:
        ne_t = ctx_t.sample.normals[sel_t, -1]
        if np.any(ne_t <= 0):
            return _skipped(mid, state_t.t, "current state not graphical (nu.e <= 0)")
        weight = 1.0 - (dist[sel_t] ** 2 + 2.0 * n * tau) / rho**2
        value = float(np.max(weight / ne_t))
    return MonitorReport(monitor_id=mid, t=state_t.t, value=value, bound=bound)


class CurvatureWindowEH:
    """check_curvature_bound_EH's window, taken in one recorded state at a
    time: the first state's time, the last state and the running sup of
    (1+|Df|^2)^2 over B^n(x0_hat, 2 rho), so no state need be kept.  As a
    run_flow monitor it takes in each recorded state and returns no report;
    `report()` checks the window from the first state taken in to the last."""

    def __init__(self, x0, rho: float, c_hat: float):
        if rho <= 0 or c_hat <= 0:
            raise ConfigError("need rho > 0 and c_hat > 0")
        self.x0 = np.asarray(x0, dtype=float)
        self.rho = rho
        self.c_hat = c_hat
        self.count = 0
        self.s1 = 0.0
        self.last = None
        self.sup_df = 0.0
        self.reason = None  # why a state cannot enter the bound, if one cannot

    def __call__(self, trace, state) -> None:
        self.add(state)

    def add(self, state) -> None:
        if self.count == 0:
            self.s1 = state.t
        self.count += 1
        self.last = state
        surf = state.surface
        if self.reason is not None:
            return
        if not isinstance(surf, GraphPatch):
            self.reason = "requires graph states"
            return
        if np.linalg.norm(surf.center - self.x0[:-1]) + 2 * self.rho > surf.radius + surf.spacing:
            self.reason = "patch does not cover B(x0, 2 rho)"
            return
        ctx = geometry._context(surf)
        base = np.sqrt(sum_squares(ctx.nodes[ctx.active], self.x0[:-1]))
        w = 1.0 + sum_squares(ctx.grad[ctx.active][base <= 2 * self.rho])
        self.sup_df = max(self.sup_df, float(np.max(w**2)))

    def report(self) -> MonitorReport:
        mid = "curvature_bound_eh"
        if self.count < 2:
            return _skipped(mid, self.last.t if self.last else 0.0, "window too short")
        s = self.last.t
        if s <= self.s1:
            return _skipped(mid, s, "window has zero duration")
        if self.reason is not None:
            return _skipped(mid, s, self.reason)
        ctx = geometry._context(self.last.surface)
        sel = np.sqrt(sum_squares(ctx.nodes[ctx.active], self.x0[:-1])) <= self.rho
        df, d2f = ctx.grad[ctx.active][sel], ctx.hess[ctx.active][sel]
        value = float(np.max(second_fundamental_norm(df, d2f) ** 2))
        bound = self.c_hat * (1.0 / (s - self.s1) + 1.0 / self.rho**2) * self.sup_df
        return MonitorReport(monitor_id=mid, t=s, value=value, bound=bound)


def check_curvature_bound_EH(
    states: Sequence,
    x0,
    rho: float,
    c_hat: float,
) -> MonitorReport:
    """max |A|^2 over the final lift of B^n(x0_hat, rho) against
    c_hat ((s-s1)^-1 + rho^-2) sup_{[s1,s]} sup_{B^n(x0_hat, 2 rho)} (1+|Df|^2)^2,
    over the window from states[0] to states[-1] (`CurvatureWindowEH`)."""
    window = CurvatureWindowEH(x0, rho, c_hat)
    for state in states:
        window.add(state)
    return window.report()


# ---------------------------------------------------------------------------
# Integral flow identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestField:
    """C^2 ambient test field phi(t, x) with its derivatives.

    value/grad/dt/hess take (t, points) with points of shape (N, d) and
    return arrays of shape (N,), (N, d), (N,), (N, d, d).  A field on phi_rho
    names its (rho, t0, x0) in `base`; a check then passes that phi_rho, from
    the state's context, as every callable's third argument.
    """

    value: Callable
    grad: Callable
    dt: Callable
    hess: Callable
    base: tuple | None = None


def phi_rho_cubed_field(rho: float, t0: float, x0) -> TestField:
    """phi_rho^3 as a C^2 test field (cubing smooths the truncation kink)."""
    if rho <= 0:
        raise ConfigError("rho must be > 0")
    x0 = np.asarray(x0, dtype=float)

    def base(t, pts, u):
        return phi_rho(rho, t0, x0, t, pts) if u is None else u

    def value(t, pts, u=None):
        return base(t, pts, u) ** 3

    def dt(t, pts, u=None):
        n = np.shape(pts)[-1] - 1
        return 3.0 * base(t, pts, u) ** 2 * (-2.0 * n / rho**2)

    def grad(t, pts, u=None):  # a column at a time: an (N, 2) broadcast goes row by row
        pts = np.asarray(pts, dtype=float)
        s = 3.0 * base(t, pts, u) ** 2 * (-2.0 / rho**2)
        return np.stack([s * (pts[:, k] - x0[k]) for k in range(pts.shape[1])], axis=1)

    def hess(t, pts, u=None):
        pts = np.asarray(pts, dtype=float)
        u = base(t, pts, u)
        d = pts.shape[1]
        offset = pts - x0
        outer = offset[:, :, None] * offset[:, None, :]
        h = 6.0 * u[:, None, None] * (4.0 / rho**4) * outer
        h += (3.0 * u**2 * (-2.0 / rho**2))[:, None, None] * np.eye(d)
        return h

    return TestField(value, grad, dt, hess, base=(rho, t0, tuple(x0.tolist())))


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

    def terms(ctx):
        """None if phi's support exits, else the integrals (side, part, mass)."""
        base = () if test_field.base is None else (_phi_rho_at(ctx, *test_field.base),)
        args = (ctx.t, ctx.points, *base)
        phi = np.asarray(test_field.value(*args), dtype=float)
        if ctx.exits(phi):
            return None
        w, nu, h_scalar = ctx.sample.weights, ctx.sample.normals, ctx.mean_curvature
        dphi = np.asarray(test_field.dt(*args), dtype=float)
        if form == "divergence":
            hess = np.asarray(test_field.hess(*args), dtype=float)
            trace_h = np.einsum("...ii->...", hess)
            nhn = np.einsum("...i,...ij,...j->...", nu, hess, nu)
            middle = nhn - trace_h
        else:
            grad = np.asarray(test_field.grad(*args), dtype=float)
            middle = h_scalar * np.einsum("...i,...i->...", nu, grad)
        integrand = dphi + middle - h_scalar**2 * phi
        return (
            float(np.sum(w * integrand)),
            float(np.sum(w * (np.abs(dphi) + np.abs(middle) + np.abs(h_scalar**2 * phi)))),
            float(np.sum(w * phi)),
        )

    key = ("brakke", test_field, form)
    a = geometry._context(state_a.surface).once(key, terms)
    b = None if a is None else geometry._context(state_b.surface).once(key, terms)
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
