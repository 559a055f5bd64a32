import base64
import dataclasses
import itertools
import json
import math
import pickle
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcflab import geometry
from mcflab._util import ValidationError, canonical_dumps
from mcflab.flow import _CurveStepper
from mcflab.geometry import (
    SIMPLE_PAIR_CHUNK,
    ClosedCurve,
    CurveKernel,
    Cylinder,
    GeometryError,
    GraphPatch,
    curve_point_distance,
    curve_quantities_all,
    curve_segments,
    dumps_surface,
    edge_lengths,
    enclosed_area,
    gradient_field,
    graph_normal,
    hessian_field,
    integrate_over_graph,
    is_simple,
    loads_surface,
    mean_curvature_graph,
    sample_surface,
    second_fundamental_norm,
    sum_squares,
    tilt,
    total_length,
)

from conftest import count_kernels, curves_intersect, fitted_order, make_circle


# ---------------------------------------------------------------------------
# Finite-difference fields against analytic derivatives
# ---------------------------------------------------------------------------


def _smooth_fn(pts):
    x, y = pts[..., 0], pts[..., 1]
    return np.sin(x) * np.cos(y) + 0.3 * x * y


def _smooth_grad(pts):
    x, y = pts[..., 0], pts[..., 1]
    gx = np.cos(x) * np.cos(y) + 0.3 * y
    gy = -np.sin(x) * np.sin(y) + 0.3 * x
    return np.stack([gx, gy], axis=-1)


def _smooth_hess(pts):
    x, y = pts[..., 0], pts[..., 1]
    hxx = -np.sin(x) * np.cos(y)
    hxy = -np.cos(x) * np.sin(y) + 0.3
    hyy = -np.sin(x) * np.cos(y)
    row_x = np.stack([hxx, hxy], axis=-1)
    row_y = np.stack([hxy, hyy], axis=-1)
    return np.stack([row_x, row_y], axis=-2)


def _field_errors(m):
    patch = GraphPatch.from_function(_smooth_fn, center=(0.2, -0.1), radius=1.0,
                                     nodes_per_axis=m)
    mesh = np.stack(np.meshgrid(*patch.axes, indexing="ij"), axis=-1)
    eg = np.abs(gradient_field(patch) - _smooth_grad(mesh)).max()
    eh = np.abs(hessian_field(patch) - _smooth_hess(mesh)).max()
    return patch.spacing, eg, eh


def test_gradient_hessian_second_order():
    h1, eg1, eh1 = _field_errors(41)
    h2, eg2, eh2 = _field_errors(81)
    assert eg2 < 2e-4 and eh2 < 2e-2
    assert fitted_order([h1, h2], [eg1, eg2]) > 1.8
    assert fitted_order([h1, h2], [eh1, eh2]) > 1.8


# ---------------------------------------------------------------------------
# Pointwise graph quantities: normal, tilt, sandwich
# ---------------------------------------------------------------------------


finite_floats = st.floats(min_value=-20.0, max_value=20.0,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=1, max_size=3))
def test_graph_normal_unit_and_orientation(df_list):
    df = np.asarray(df_list)
    nu = graph_normal(df)
    assert nu.shape == (df.size + 1,)
    assert math.isclose(float(np.linalg.norm(nu)), 1.0, rel_tol=1e-12)
    v = math.sqrt(1.0 + float(df @ df))
    assert math.isclose(float(nu[-1]), 1.0 / v, rel_tol=1e-12)
    assert np.allclose(nu[:-1], -df / v, rtol=1e-12, atol=1e-15)


@given(st.lists(finite_floats, min_size=1, max_size=3))
def test_tilt_closed_form(df_list):
    df = np.asarray(df_list)
    g2 = float(df @ df)
    expected = g2 / (1.0 + g2)
    got = float(tilt(df))
    assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-15)
    assert 0.0 <= got < 1.0


def curvature_sandwich_bounds(df: np.ndarray, d2f: np.ndarray) -> tuple:
    """Explicit two-sided bounds |D2f|^2/(1+|Df|^2)^3 <= |A|^2 <= |D2f|^2,
    returned as (lower, upper) so the inequality can be asserted with its
    constants (both 1 in codimension 1) in the open."""
    d2f = np.asarray(d2f, dtype=float)
    w = 1.0 + np.sum(np.asarray(df, dtype=float) ** 2, axis=-1)
    h2 = np.sum(d2f * d2f, axis=(-2, -1))
    return h2 / w**3, h2


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_curvature_sandwich_random(n, seed):
    """|D2f|^2/(1+|Df|^2)^3 <= |A|^2 <= |D2f|^2/(1+|Df|^2), up to rounding."""
    rng = np.random.default_rng(seed)
    df = rng.normal(scale=3.0, size=n)
    m = rng.normal(scale=2.0, size=(n, n))
    d2f = (m + m.T) / 2.0
    a2 = float(second_fundamental_norm(df, d2f)) ** 2
    lo, hi = curvature_sandwich_bounds(df, d2f)
    slack = 4 * np.finfo(float).eps * max(1.0, a2)
    assert lo <= a2 + slack
    assert a2 <= hi + slack


def test_mean_curvature_plane_zero():
    df = np.array([0.7, -0.3])
    d2f = np.zeros((2, 2))
    assert mean_curvature_graph(df, d2f) == 0.0
    assert second_fundamental_norm(df, d2f) == 0.0


# ---------------------------------------------------------------------------
# Hemisphere oracle: |H| = n/R, |A|^2 = n/R^2 for the sphere graph
# ---------------------------------------------------------------------------


def _hemisphere_errors(R, m):
    def cap(pts):
        r2 = np.sum(pts * pts, axis=-1)
        return np.sqrt(R * R - r2)

    patch = GraphPatch.from_function(cap, center=(0.0, 0.0), radius=0.6 * R,
                                     nodes_per_axis=m)
    interior = patch.active.copy()
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    df = gradient_field(patch)[interior]
    d2f = hessian_field(patch)[interior]
    H = mean_curvature_graph(df, d2f)
    A = second_fundamental_norm(df, d2f)
    err_h = np.abs(np.abs(H) - 2.0 / R).max() * R / 2.0
    err_a = np.abs(A - math.sqrt(2.0) / R).max() * R / math.sqrt(2.0)
    return patch.spacing, float(err_h), float(err_a)


def test_hemisphere_curvatures_converge():
    R = 1.3
    h1, eh1, ea1 = _hemisphere_errors(R, 61)
    h2, eh2, ea2 = _hemisphere_errors(R, 121)
    assert eh2 < 5e-3 and ea2 < 5e-3
    assert fitted_order([h1, h2], [eh1, eh2]) > 1.8
    assert fitted_order([h1, h2], [ea1, ea2]) > 1.8


def test_hemisphere_analytic_inputs_exact():
    """With exact Df, D2f the curvature formulas are algebraic identities."""
    R = 2.0
    x = np.array([0.4, -0.7])
    f = math.sqrt(R * R - float(x @ x))
    df = -x / f
    d2f = -(np.eye(2) / f + np.outer(x, x) / f**3)
    assert math.isclose(abs(float(mean_curvature_graph(df, d2f))), 2.0 / R,
                        rel_tol=1e-12)
    assert math.isclose(float(second_fundamental_norm(df, d2f)),
                        math.sqrt(2.0) / R, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Closed curves: exact polygon identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [8, 64, 257])
def test_regular_polygon_length_and_area(m):
    R = 1.7
    curve = make_circle(radius=R, m=m)
    exact_len = 2.0 * m * R * math.sin(math.pi / m)
    exact_area = 0.5 * m * R * R * math.sin(2.0 * math.pi / m)
    assert math.isclose(total_length(curve), exact_len, rel_tol=1e-12)
    assert math.isclose(enclosed_area(curve), exact_area, rel_tol=1e-12)
    assert edge_lengths(curve).shape == (m,)


def _kernel_bytes(stepper):
    """Everything a curve stepper's kernel gives, as bytes and floats, then
    a resample of it and one step."""
    kernel = stepper.kernel
    kap, nor = kernel.menger()
    out = [kernel.edges.tobytes(), kernel.e_min, kernel.e_max, kernel.length,
           kap.tobytes(), nor.tobytes(), kernel.lc_min]
    if kernel.closed:
        out.append(kernel.area())
    out.append(kernel.resample(31).tobytes())
    out.append(stepper.advance(1e-3).tobytes())
    return out


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_curve_kernel_load_matches_fresh_kernel(closed):
    """A kernel refilled by load gives, bit for bit, what a fresh kernel
    gives, across loads and with one stepper per vertex count as run_flow
    keeps its kernel; a vertex array of another count does not load."""
    rng = np.random.default_rng(11)
    steppers = {}
    for m in (24, 24, 40, 24, 40, 40, 24):
        th = np.sort(rng.uniform(0.0, 2.0 * np.pi, m)) if closed else np.linspace(0.0, np.pi, m)
        r = rng.uniform(0.5, 1.5, m)
        v = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        if m in steppers:
            steppers[m].kernel.load(v)
        else:
            steppers[m] = _CurveStepper(v, closed)
        assert _kernel_bytes(steppers[m]) == _kernel_bytes(_CurveStepper(v.copy(), closed))
    with pytest.raises(ValueError):
        steppers[40].kernel.load(v)  # v has 24 vertices


def _exact_signed_area(v) -> Fraction:
    x = [Fraction(float(a)) for a in v[:, 0]]
    y = [Fraction(float(b)) for b in v[:, 1]]
    m = len(x)
    return sum(x[i] * y[(i + 1) % m] - x[(i + 1) % m] * y[i] for i in range(m)) / 2


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-9, max_value=2.0),
    st.booleans(),
)
def test_area_change_bound(m, seed, scale, star):
    """For P' = P + u with every |u_i| <= delta, |A(P') - A(P)| <= delta L +
    m delta^2 / 2 (L the perimeter of P), for simple star polygons and for
    random, mostly self-intersecting point sequences; areas are exact."""
    rng = np.random.default_rng(seed)
    if star:
        th = 2.0 * np.pi * np.arange(m) / m
        r = rng.uniform(0.2, 2.0, m)
        p = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    else:
        p = rng.normal(size=(m, 2))
    u = rng.normal(size=(m, 2))
    u *= scale * rng.uniform(0.0, 1.0, (m, 1)) / np.hypot(u[:, 0], u[:, 1])[:, None]
    q = p + u
    # the displacement that really happened is q - p, exactly
    du2 = max((Fraction(float(a)) - Fraction(float(b))) ** 2 + (Fraction(float(c)) - Fraction(float(d))) ** 2
              for (a, c), (b, d) in zip(q, p))
    delta = math.sqrt(float(du2)) * (1 + 1e-12)
    perimeter = sum(math.hypot(*(p[(i + 1) % m] - p[i])) for i in range(m)) * (1 + 1e-12)
    change = abs(_exact_signed_area(q) - _exact_signed_area(p))
    assert float(change) <= delta * perimeter + m * delta * delta / 2


def test_circle_curvature_exact():
    """Circumscribed-circle curvature is exact on co-circular samples."""
    R = 0.8
    curve = make_circle(radius=R, m=48, center=(0.3, -0.5))
    normals, kappa = curve_quantities_all(curve)
    for vertex in (0, 11, 47):
        nor, kap = normals[vertex], float(kappa[vertex])
        tan = np.array([nor[1], -nor[0]])
        assert math.isclose(kap, 1.0 / R, rel_tol=1e-12)
        assert math.isclose(float(np.linalg.norm(tan)), 1.0, rel_tol=1e-12)
        # curvature vector kappa*N points toward the center
        p = curve.vertices[vertex]
        to_center = np.array([0.3, -0.5]) - p
        assert float(nor @ to_center) > 0.0


def test_open_polyline_quantities():
    x = np.linspace(-1.0, 1.0, 33)
    curve = ClosedCurve(np.stack([x, 0.2 * x], axis=1), closed=False)
    normals, kappa = curve_quantities_all(curve)
    tan = np.array([normals[16, 1], -normals[16, 0]])
    assert math.isclose(float(kappa[16]), 0.0, abs_tol=1e-14)
    assert math.isclose(float(np.linalg.norm(tan)), 1.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Simplicity and intersection predicates
# ---------------------------------------------------------------------------


def test_is_simple_circle_true():
    assert is_simple(make_circle(m=512))


def test_is_simple_bowtie_false():
    # quad [0,0]-[1,1]-[1,0]-[0,1] crosses itself at (1/2, 1/2); sampling
    # three points per side keeps the crossing interior to both segments
    corners = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    pts = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        for s in (0.0, 1.0 / 3.0, 2.0 / 3.0):
            pts.append(a + s * (b - a))
    assert not is_simple(ClosedCurve(np.asarray(pts)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=8, max_value=48),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_star_shaped_curves_are_simple(m, seed):
    rng = np.random.default_rng(seed)
    radii = 1.0 + 0.45 * rng.uniform(-1.0, 1.0, size=m)
    th = 2.0 * np.pi * np.arange(m) / m
    verts = np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1)
    assert is_simple(ClosedCurve(verts))


def _is_simple_pairwise(curve):
    """Reference: every segment pair, swept in row blocks of the O(m^2)
    pair matrix.  Same filters and crossing arithmetic as is_simple."""
    v = curve.vertices
    if curve.closed:
        starts, ends = v, np.roll(v, -1, axis=0)
    else:
        starts, ends = v[:-1], v[1:]
    n_edges = starts.shape[0]
    if n_edges < 3:
        return True
    d = ends - starts
    lox = np.minimum(starts[:, 0], ends[:, 0])
    hix = np.maximum(starts[:, 0], ends[:, 0])
    loy = np.minimum(starts[:, 1], ends[:, 1])
    hiy = np.maximum(starts[:, 1], ends[:, 1])
    jj = np.arange(n_edges)[None, :]
    block = max(1, 500_000 // n_edges)
    for i0 in range(0, n_edges - 2, block):
        ii = np.arange(i0, min(i0 + block, n_edges - 2))
        cand = lox[ii, None] <= hix[jj]
        cand &= hix[ii, None] >= lox[jj]
        cand &= loy[ii, None] <= hiy[jj]
        cand &= hiy[ii, None] >= loy[jj]
        cand &= jj >= ii[:, None] + 2
        if curve.closed:
            cand &= ~((ii[:, None] == 0) & (jj == n_edges - 1))
        bi, bj = np.nonzero(cand)
        pi = ii[bi]
        r = d[pi]
        s = d[bj]
        qp = starts[bj] - starts[pi]
        denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
        t_num = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
        u_num = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]
        safe = np.where(denom != 0, denom, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(denom != 0, t_num / safe, np.inf)
            u = np.where(denom != 0, u_num / safe, np.inf)
        if bool(np.any((t > 0) & (t < 1) & (u > 0) & (u < 1))):
            return False
    return True


def _polyline(points, closed):
    """Curve through points with consecutive repeats dropped, or reject."""
    pts = [p for k, p in enumerate(points) if k == 0 or p != points[k - 1]]
    if closed and len(pts) > 1 and pts[-1] == pts[0]:
        pts.pop()
    assume(len(pts) >= 8)
    try:
        return ClosedCurve(np.asarray(pts, dtype=float), closed=closed)
    except GeometryError:  # an edge too short for its length to be nonzero
        assume(False)


def _assert_matches_pairwise(curve):
    expected = _is_simple_pairwise(curve)
    assert is_simple(curve) == expected
    # a tiny chunk splits the candidate runs at arbitrary points
    with mock.patch.object(geometry, "SIMPLE_PAIR_CHUNK", 7):
        assert is_simple(curve) == expected


_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
# a 5x5 grid forces tied left ends, vertical and collinear overlapping
# segments, and crossings through vertices (endpoint touches)
_grid = st.integers(min_value=0, max_value=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_unit, _unit), min_size=8, max_size=40), st.booleans())
def test_is_simple_matches_pairwise_random(points, closed):
    _assert_matches_pairwise(_polyline(points, closed))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_grid, _grid), min_size=8, max_size=40), st.booleans())
def test_is_simple_matches_pairwise_grid(points, closed):
    _assert_matches_pairwise(_polyline(points, closed))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=8, max_value=64),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.sampled_from([0.0, 0.25]),
)
def test_is_simple_matches_pairwise_star(m, seed, closed, snap):
    # mostly simple star-shaped polygons; snapping to a grid adds ties
    rng = np.random.default_rng(seed)
    radii = 1.0 + 0.9 * rng.uniform(-1.0, 1.0, size=m)
    th = 2.0 * np.pi * np.arange(m) / m
    verts = np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1)
    if snap:
        verts = np.round(verts / snap) * snap
    _assert_matches_pairwise(_polyline([tuple(p) for p in verts], closed))


def _serpentine(rows):
    """Open comb of horizontal teeth across [0, 1], joined alternately at
    x = 1 and x = 0: every tooth's x-extent overlaps every other's."""
    pts = []
    for k in range(rows):
        y = float(k)
        pts += [(0.0, y), (1.0, y)] if k % 2 == 0 else [(1.0, y), (0.0, y)]
    return pts


def test_is_simple_chunked_comb_crossing_in_last_chunk():
    comb = _serpentine(1001)  # ends at (1, 1000)
    # tail right of the comb: segments (2, 1001)-(3, 1002) and
    # (3, 1001)-(2, 1002) cross properly at (2.5, 1001.5)
    tail = [(2.0, 1001.0), (3.0, 1002.0), (3.0, 1001.0), (2.0, 1002.0)]
    curve = ClosedCurve(np.asarray(comb + tail), closed=False)
    starts, ends = curve.vertices[:-1], curve.vertices[1:]
    lox = np.minimum(starts[:, 0], ends[:, 0])
    hix = np.maximum(starts[:, 0], ends[:, 0])
    overlaps = (lox[:, None] <= hix[None, :]) & (hix[:, None] >= lox[None, :])
    n_pairs = (int(overlaps.sum()) - lox.size) // 2
    assert n_pairs > 3 * SIMPLE_PAIR_CHUNK
    # the three tail segments have the largest left ends, so they sort last
    # and their three mutual pairs are the sweep's last, inside its last chunk
    assert lox[-3:].min() > lox[:-3].max()
    assert n_pairs % SIMPLE_PAIR_CHUNK >= 3
    assert not _is_simple_pairwise(curve)
    assert not is_simple(curve)
    no_cross = ClosedCurve(np.asarray(comb + tail[:3]), closed=False)
    assert _is_simple_pairwise(no_cross)
    assert is_simple(no_cross)


@pytest.mark.parametrize("closed", [True, False])
def test_is_simple_scales_to_16k_vertices(closed):
    # the O(m^2) pair sweep takes about 1.7 s here; the sweep about 5 ms
    m = 16_000
    sweep = 2.0 * np.pi if closed else 1.8 * np.pi
    th = sweep * np.arange(m) / m
    curve = ClosedCurve(np.stack([np.cos(th), np.sin(th)], axis=1), closed=closed)
    t0 = time.perf_counter()
    assert is_simple(curve)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("closed", [True, False])
def test_curve_segments_take_both_ends_from_vertices(closed):
    # coordinates where v[i] + (v[i+1] - v[i]) rounds away from v[i+1]
    v = np.array([[0.1, 0.7], [0.7, 0.1], [1.3, 0.30000000000000004], [2.9, 1.1],
                  [2.3, 2.7], [1.1, 3.3], [0.3, 2.9], [-0.7, 1.3]])
    assert not np.array_equal(v[:-1] + (v[1:] - v[:-1]), v[1:])
    starts, ends = curve_segments(ClosedCurve(v, closed=closed))
    if closed:
        assert np.array_equal(starts, v) and np.array_equal(ends, np.roll(v, -1, axis=0))
    else:
        assert np.array_equal(starts, v[:-1]) and np.array_equal(ends, v[1:])


def test_curves_intersect_predicates():
    a = make_circle(radius=1.0, m=64)
    b = make_circle(radius=0.4, m=64)
    far = make_circle(radius=1.0, m=64, center=(5.0, 0.0))
    crossing = make_circle(radius=1.0, m=64, center=(1.0, 0.0))
    assert not curves_intersect(a, b)
    assert not curves_intersect(a, far)
    assert curves_intersect(a, crossing)


def test_curve_point_distance_circle():
    curve = make_circle(radius=2.0, m=4096)
    # chordal polygon sits slightly inside the circle
    assert math.isclose(curve_point_distance(curve, (0.0, 0.0)), 2.0,
                        rel_tol=1e-6)
    assert math.isclose(curve_point_distance(curve, (5.0, 0.0)), 3.0,
                        rel_tol=1e-6)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def test_resample_preserves_shape():
    curve = make_circle(radius=1.0, m=100)
    out = CurveKernel(curve.vertices, True).resample(140)
    assert out.shape == (140, 2)
    re = ClosedCurve(out)
    assert math.isclose(total_length(re), total_length(curve), rel_tol=1e-3)
    assert is_simple(re)
    r = np.linalg.norm(out, axis=1)
    assert np.all(np.abs(r - 1.0) < 5e-3)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_integrate_flat_disk_area():
    patch = GraphPatch.from_function(lambda p: np.zeros(p.shape[:-1]),
                                     center=(0.0, 0.0), radius=1.0,
                                     nodes_per_axis=201)
    area = integrate_over_graph(patch, lambda t, pts: np.ones(pts.shape[0]))
    assert math.isclose(area, math.pi, rel_tol=2e-2)


def test_integrate_spherical_cap_area():
    R, frac, m = 1.0, 0.6, 201

    def cap(pts):
        return np.sqrt(R * R - np.sum(pts * pts, axis=-1))

    patch = GraphPatch.from_function(cap, center=(0.0, 0.0), radius=frac * R,
                                     nodes_per_axis=m)
    area = integrate_over_graph(patch, lambda t, pts: np.ones(pts.shape[0]))
    exact = 2.0 * math.pi * R * (R - math.sqrt(R * R - (frac * R) ** 2))
    assert math.isclose(area, exact, rel_tol=2e-2)


def test_sample_surface_weights():
    curve = make_circle(radius=1.0, m=128)
    samp = sample_surface(curve)
    assert samp.points.shape == (128, 2)
    assert samp.points is curve.vertices  # no second copy of the vertices
    assert math.isclose(float(samp.weights.sum()), total_length(curve),
                        rel_tol=1e-12)

    patch = GraphPatch.from_function(lambda p: 0.1 * p[..., 0],
                                     center=(0.0,), radius=1.0,
                                     nodes_per_axis=101)
    samp = sample_surface(patch)
    exact = 2.0 * math.sqrt(1.01)  # segment length of the tilted line
    assert math.isclose(float(samp.weights.sum()), exact, rel_tol=2e-2)


@pytest.mark.parametrize("n, m", [(1, 256), (2, 33)], ids=["256", "33x33"])
def test_sample_surface_computes_no_hessian(n, m, monkeypatch):
    """A graph's sample reads its lift and Df: sampling a fresh patch
    computes no D^2f and leaves no timeseries row in its one cache entry."""
    hessians = []
    hessian_raw = geometry.hessian_raw

    def counted(*args):
        hessians.append(None)
        return hessian_raw(*args)

    monkeypatch.setattr(geometry, "hessian_raw", counted)
    patch = GraphPatch.from_function(lambda p: 0.1 * np.sin(p.sum(axis=-1)),
                                     center=(0.0,) * n, radius=1.0, nodes_per_axis=m)
    sample_surface(patch)
    assert hessians == []
    assert patch._cache.keys() == {"context"}
    assert not {"hess", "row"} & vars(patch._cache["context"]).keys()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_surface_roundtrip_curve():
    curve = make_circle(radius=1.3, m=64, time=0.25)
    back = loads_surface(dumps_surface(curve))
    assert isinstance(back, ClosedCurve)
    assert back.closed == curve.closed
    assert back.time == curve.time
    assert np.array_equal(back.vertices, curve.vertices)


def test_surface_roundtrip_patch():
    patch = GraphPatch.from_function(_smooth_fn, center=(0.1, 0.2), radius=0.9,
                                     nodes_per_axis=21, time=0.5)
    back = loads_surface(dumps_surface(patch))
    assert isinstance(back, GraphPatch)
    assert back.time == patch.time
    assert back.spacing == patch.spacing
    assert np.array_equal(back.values, patch.values)
    assert np.array_equal(back.center, patch.center)


def test_surface_serialization_canonical_fixed_point():
    """serialize -> parse -> serialize is byte-identical."""
    for surface in (make_circle(m=32, time=0.125),
                    GraphPatch.from_function(_smooth_fn, center=(0.0, 0.0),
                                             radius=1.0, nodes_per_axis=17)):
        text = dumps_surface(surface)
        assert dumps_surface(loads_surface(text)) == text


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 0.1, 1.5e-323]


def _bits(array):
    """The float64 bit patterns, so that -0.0 and the subnormals count."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def test_snapshot_roundtrip_is_bitwise():
    verts = make_circle(m=32, time=0.375).vertices.copy()
    verts.reshape(-1)[: len(_EDGE_FLOATS)] = _EDGE_FLOATS
    with np.errstate(over="ignore"):  # the edge to 1e300 has length inf
        surfaces = [ClosedCurve(verts, time=0.375), ClosedCurve(verts[:12], closed=False)]
    for n, nodes in ((1, 33), (2, 17)):
        patch = GraphPatch.from_function(lambda p: np.sin(3.0 * p.sum(axis=-1)),
                                         center=(0.0,) * n, radius=1.0,
                                         nodes_per_axis=nodes, time=0.5)
        values = patch.values.copy()
        values.reshape(-1)[: len(_EDGE_FLOATS)] = _EDGE_FLOATS
        surfaces.append(GraphPatch(center=patch.center, radius=1.0,
                                   spacing=patch.spacing, values=values, time=0.5))
    for surface in surfaces:
        with np.errstate(over="ignore"):
            back = loads_surface(dumps_surface(surface))
        field = "vertices" if isinstance(surface, ClosedCurve) else "values"
        got, want = getattr(back, field), getattr(surface, field)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
        assert back.time == surface.time
    assert [s.closed for s in surfaces[:2]] == [True, False]


def test_dumps_surface_golden_literal():
    """Pins the key set, the little-endian byte order and the C order (x, y
    interleaved) of a schema-2 snapshot on any host."""
    verts = np.arange(16.0).reshape(8, 2)
    verts[0, 0] = -0.0
    text = dumps_surface(ClosedCurve(verts, closed=False, time=0.125))
    assert text == (
        '{"closed":false,"kind":"closed_curve","schema_version":2,"time":0.125,'
        '"vertices":"AAAAAAAAAIAAAAAAAADwPwAAAAAAAABAAAAAAAAACEAAAAAAAAAQQAAAAAAAABRA'
        'AAAAAAAAGEAAAAAAAAAcQAAAAAAAACBAAAAAAAAAIkAAAAAAAAAkQAAAAAAAACZAAAAAAAAAKEAA'
        'AAAAAAAqQAAAAAAAACxAAAAAAAAALkA="}')


def _snapshot_docs():
    """A curve and a 2-D patch snapshot, as parsed JSON documents."""
    patch = GraphPatch.from_function(_smooth_fn, center=(0.0, 0.0), radius=1.0,
                                     nodes_per_axis=17)
    return [json.loads(dumps_surface(s)) for s in (make_circle(m=16), patch)]


def _reader_error(doc):
    with pytest.raises(ValidationError) as err:
        loads_surface(json.dumps(doc))
    return err.value.path


# 2.0 is not the JSON integer 2, though it compares equal in Python
@pytest.mark.parametrize("version", [1, 3, 99, None, "2", 2.0])
def test_loads_surface_rejects_other_schema_versions(version):
    for doc in _snapshot_docs():
        assert _reader_error(dict(doc, schema_version=version)) == "$.schema_version"
    assert _reader_error({"kind": "closed_curve", "time": 0.0, "vertices": []}) \
        == "$.schema_version"


def test_loads_surface_rejects_a_payload_that_is_not_a_string():
    curve, patch = _snapshot_docs()
    assert _reader_error(dict(curve, vertices=[[0.0, 1.0]] * 16)) == "$.vertices"
    assert _reader_error(dict(patch, values=[0.0] * 289)) == "$.values"


def test_loads_surface_rejects_invalid_base64():
    curve, patch = _snapshot_docs()
    for bad in (curve["vertices"][:-1], "AAAA AAAA", "AA*A", "\u00e9AAA"):
        assert _reader_error(dict(curve, vertices=bad)) == "$.vertices"
    assert _reader_error(dict(patch, values=patch["values"] + "A")) == "$.values"


def test_loads_surface_rejects_a_partial_vertex_or_grid():
    curve, patch = _snapshot_docs()
    raw = base64.b64decode(curve["vertices"])
    for cut in (8, 1):  # half a vertex, then a partial float
        bad = base64.b64encode(raw[:-cut]).decode()
        assert _reader_error(dict(curve, vertices=bad)) == "$.vertices"
    raw = base64.b64decode(patch["values"])
    for cut in (8, 17 * 8, 3):  # 288 and 272 floats are not 17^2, nor a partial float
        bad = base64.b64encode(raw[:-cut]).decode()
        assert _reader_error(dict(patch, values=bad)) == "$.values"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loads_surface_rejects_decoded_non_finite(bad):
    curve, patch = _snapshot_docs()
    for doc, field in ((curve, "vertices"), (patch, "values")):
        flat = np.frombuffer(base64.b64decode(doc[field]), dtype="<f8").copy()
        flat[3] = bad
        payload = base64.b64encode(flat.astype("<f8").tobytes()).decode()
        assert _reader_error(dict(doc, **{field: payload})) == f"$.{field}"


def test_dumps_surface_rejects_non_finite_with_path():
    curve = make_circle(m=16)
    curve.vertices[3, 1] = np.nan  # past construction-time validation
    with pytest.raises(ValidationError) as err:
        dumps_surface(curve)
    assert err.value.path == "$.vertices"
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((17, 17))
        values[0, 0] = bad  # a corner node is inactive, so the patch builds
        patch = GraphPatch(center=np.zeros(2), radius=1.0, spacing=2.0 / 16,
                           values=values)
        with pytest.raises(ValidationError) as err:
            dumps_surface(patch)
        assert err.value.path == "$.values"


def test_canonical_dumps_reports_non_finite_path():
    with pytest.raises(ValidationError) as err:
        canonical_dumps({"a": [1.0, float("inf")]})
    assert err.value.path == "$.a[1]"
    with pytest.raises(ValidationError) as err:
        canonical_dumps({"b": {"c": 0.5}, "a": {"x": float("nan")}})
    assert err.value.path == "$.a.x"
    assert canonical_dumps({"b": [1.0, -0.0], "a": 2}) == '{"a":2,"b":[1.0,-0.0]}'


def test_loads_surface_rejects_garbage():
    with pytest.raises(ValidationError):
        loads_surface(json.dumps({"kind": "torus"}))
    with pytest.raises(ValidationError):
        loads_surface("not json")
    curve, patch = _snapshot_docs()
    for center in ([], [[0.0, 0.0]]):  # no base dimension, or not a flat list
        assert _reader_error(dict(patch, center=center)) == "$.center"
    # header fields: finite non-bool numbers, and a real bool for `closed`
    for center, where in ((["a"], 0), ([0.0, None], 1), ([np.inf, 0.0], 0), ([True], 0)):
        assert _reader_error(dict(patch, center=center)) == f"$.center[{where}]"
    for key, bad in (("time", None), ("time", "x"), ("time", np.inf), ("spacing", "a"),
                     ("spacing", -np.inf), ("radius", True), ("radius", 10**400)):
        assert _reader_error(dict(patch, **{key: bad})) == f"$.{key}"
    for key, bad in (("time", None), ("time", np.nan), ("closed", "no"), ("closed", 0)):
        assert _reader_error(dict(curve, **{key: bad})) == f"$.{key}"
    # header ranges, and a surface the header and payload cannot build
    for key, bad, where in (("radius", -1, "radius"), ("spacing", 0, "spacing"),
                            ("spacing", 0.5, "values")):  # 17 nodes span 8 > 2 radius
        assert _reader_error(dict(patch, **{key: bad})) == f"$.{where}"
    for verts in (np.zeros((16, 2)), make_circle(m=16).vertices[:3]):
        payload = base64.b64encode(verts.astype("<f8").tobytes()).decode()
        assert _reader_error(dict(curve, vertices=payload)) == "$.vertices"


def test_loads_surface_rejects_other_codimensions():
    patch = GraphPatch.from_function(_smooth_fn, center=(0.0, 0.0), radius=1.0,
                                     nodes_per_axis=17)
    doc = json.loads(dumps_surface(patch))
    assert doc["codim"] == 1
    for codim in (0, 2):
        with pytest.raises(ValidationError) as err:
            loads_surface(json.dumps(dict(doc, codim=codim)))
        assert err.value.path == "$.codim"


def test_surfaces_compare_by_identity():
    """A surface equals itself only: comparing it with a pickled copy gives
    False rather than raising on the ambiguous truth value of an array."""
    from mcflab.flow import FlowState

    curve = make_circle(m=32)
    patch = GraphPatch.from_function(_smooth_fn, center=(0.0, 0.0), radius=1.0,
                                     nodes_per_axis=17)
    for obj in (curve, patch, FlowState(surface=curve)):
        copy = pickle.loads(pickle.dumps(obj))
        assert obj == obj
        assert (obj == copy) is False
        assert (obj != copy) is True


def test_replaced_surface_gets_a_fresh_cache():
    """No constructor takes a cache, so a surface built by
    dataclasses.replace starts with an empty one of its own and reads its
    own values, not the cached quantities of the surface it came from."""
    curve = make_circle(m=16)
    length, area = total_length(curve), enclosed_area(curve)
    assert curve._cache
    doubled = dataclasses.replace(curve, vertices=2.0 * curve.vertices)
    assert doubled._cache == {} and doubled._cache is not curve._cache
    # doubling is exact in binary, so length and area scale exactly
    assert total_length(doubled) == 2.0 * length
    assert enclosed_area(doubled) == 4.0 * area
    assert total_length(curve) == length

    patch = GraphPatch.from_function(lambda p: 0.5 * p[..., 0], center=(0.0,), radius=1.0,
                                     nodes_per_axis=33)
    measure = integrate_over_graph(patch, lambda t, pts: 1.0)
    assert patch._cache
    steeper = dataclasses.replace(patch, values=2.0 * patch.values)
    assert steeper._cache == {} and steeper._cache is not patch._cache
    # the Jacobian sqrt(1 + |Df|^2) goes from sqrt(1.25) to sqrt(2) at every node
    assert math.isclose(integrate_over_graph(steeper, lambda t, pts: 1.0),
                        measure * math.sqrt(2.0 / 1.25), rel_tol=1e-12)
    assert integrate_over_graph(patch, lambda t, pts: 1.0) == measure
    with pytest.raises(ValueError):
        dataclasses.replace(curve, _cache={})


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_cylinder_validation():
    cyl = Cylinder(center=(0.0, 0.0, 1.0), radius=1.0, height=0.5)
    assert cyl.base_dim == 2
    assert list(cyl.base_center) == [0.0, 0.0]
    assert list(cyl.height_center) == [1.0]
    with pytest.raises(GeometryError):
        Cylinder(center=(0.0, 0.0), radius=-1.0, height=1.0)
    with pytest.raises(GeometryError):
        Cylinder(center=(0.0,), radius=1.0, height=1.0)


def test_closed_curve_validation():
    with pytest.raises(GeometryError):
        ClosedCurve(np.zeros((4, 2)))
    verts = make_circle(m=16).vertices.copy()
    verts[3] = verts[2]
    with pytest.raises(GeometryError):
        ClosedCurve(verts)
    with pytest.raises(GeometryError):
        ClosedCurve(np.full((16, 2), np.nan))
    # the closing edge of a closed curve counts; an open curve has none
    ring = make_circle(m=16).vertices
    loop = np.concatenate([ring, ring[:1]])
    with pytest.raises(GeometryError):
        ClosedCurve(loop)
    arc = np.stack([np.linspace(0.0, 1.0, 16), np.zeros(16)], axis=1)
    arc[5] = arc[4]
    with pytest.raises(GeometryError):
        ClosedCurve(arc, closed=False)
    assert ClosedCurve(loop, closed=False).m == 17


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_curve_queries_build_one_kernel(closed, monkeypatch):
    """Constructing a curve builds no CurveKernel; its edge lengths, normals,
    kappa, sample, length and native resolution come from one."""
    from mcflab.graphicality import native_resolution

    vertices = make_circle(m=64).vertices
    built = count_kernels(monkeypatch)
    curve = ClosedCurve(vertices, closed=closed)
    assert built == []
    sample_surface(curve)
    edge_lengths(curve)
    geometry.curve_quantities_all(curve)
    native_resolution(curve)
    total_length(curve)
    assert len(built) == 1


def _boundary_oracle(active):
    """Active nodes with an inactive or missing neighbour, node by node."""
    out = np.zeros_like(active)
    for idx in zip(*np.nonzero(active)):
        for axis in range(active.ndim):
            for off in (-1, 1):
                nb = list(idx)
                nb[axis] += off
                if not 0 <= nb[axis] < active.shape[axis] or not active[tuple(nb)]:
                    out[idx] = True
    return out[active]


@pytest.mark.parametrize("center,m", [((0.3,), 40), ((0.0, 0.0), 33), ((0.2, -0.1), 20)])
def test_patches_on_one_grid_share_read_only_grid_arrays(center, m):
    a = GraphPatch.from_function(lambda p: np.zeros(p.shape[:-1]), center=center,
                                 radius=1.0, nodes_per_axis=m)
    b = GraphPatch.from_function(lambda p: p[..., 0] ** 2, center=center,
                                 radius=1.0, nodes_per_axis=m, time=0.5)
    assert a.grid is b.grid
    assert a.nodes is b.nodes and a.active is b.active
    assert all(x is y for x, y in zip(a.axes, b.axes))
    for arr in (*a.axes, a.nodes, a.active, a.grid.boundary):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0
    assert np.array_equal(a.grid.boundary, _boundary_oracle(a.active))
    assert a.grid.boundary.shape == (int(a.active.sum()),)


def test_graph_patch_validation():
    with pytest.raises(GeometryError):
        GraphPatch(center=np.zeros(2), radius=1.0, spacing=-0.1,
                   values=np.zeros((16, 16)))
    with pytest.raises(GeometryError):
        GraphPatch(center=np.zeros(2), radius=1.0, spacing=0.5,
                   values=np.zeros((4, 4)))
    bad = np.zeros((16, 16))
    bad[8, 8] = np.inf
    with pytest.raises(GeometryError):
        GraphPatch(center=np.zeros(2), radius=1.0, spacing=2.0 / 15,
                   values=bad)


# ±0, subnormals, 1e±154 (whose squares sit at the ends of the float range),
# ±inf and NaN, besides ordinary values
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-154, -1e-154, 1e154, -1e154,
            1.5e154, np.inf, -np.inf, np.nan, -np.nan, 1.0, -3.25, 0.1]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _squares_operands(width):
    """Every width-tuple of the special values, then random rows across the
    exponent range; also as a (rows, 2, width) stack for graph-shaped arrays."""
    rng = np.random.default_rng(width)
    special = np.array(list(itertools.product(_SPECIAL, repeat=width)))
    random = rng.standard_normal((1000, width)) * 10.0 ** rng.integers(-160, 160, (1000, width))
    v = np.concatenate([special, random])
    return v, rng.permutation(v), v[: 2 * (len(v) // 2)].reshape(-1, 2, width)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_sum_squares_is_numpy_reduce_bitwise(width):
    """sum_squares equals numpy's reductions bit for bit, NaN payloads
    included: sum(v * v), the norm as its sqrt and sum((x - c) ** 2) for a
    point and for a whole array c."""
    v, c, stacked = _squares_operands(width)
    with np.errstate(all="ignore"):
        for arr in (v, stacked, v[::-1], v.T.copy().T):
            assert _same_bits(sum_squares(arr), np.sum(arr * arr, axis=-1))
            assert _same_bits(np.sqrt(sum_squares(arr)), np.linalg.norm(arr, axis=-1))
        for centre in (c, c[0], c[7], np.array(_SPECIAL[:width])):
            assert _same_bits(sum_squares(v, centre), np.sum((v - centre) ** 2, axis=-1))
        assert _same_bits(sum_squares(v[0], tuple(c[1])), np.sum((v[0] - c[1]) ** 2))


def test_sum_squares_oracle_rejects_right_association():
    """Adding the last two columns first is a different rounding at width 3,
    and the oracle above tells it apart."""
    v, _, _ = _squares_operands(3)
    with np.errstate(all="ignore"):
        right = v[:, 0] * v[:, 0] + (v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])
        assert not _same_bits(right, np.sum(v * v, axis=-1))
