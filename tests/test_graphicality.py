import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcflab._util import ConfigError
from mcflab.flow import FlowConfig, run_flow
from mcflab.geometry import (
    ClosedCurve,
    Cylinder,
    GraphPatch,
    curve_point_distance,
    curve_segments,
    sample_surface,
)
from mcflab.graphicality import (
    _covered_columns,
    _probe_index_ranges,
    _probe_step,
    first_graphical_time,
    first_nongraphical_time,
    is_graphical,
    native_resolution,
    record_probe,
    vertical_crossings,
)

from conftest import make_circle


def curve_probe_parity_violations(curve, cyl):
    """Probes whose full-line crossing count is odd; 0 for any closed curve."""
    step, count = _probe_step(cyl, native_resolution(curve) / 2)
    lo = float(cyl.base_center[0]) - cyl.radius
    p1, p2 = curve_segments(curve)
    _, cols = _covered_columns(*_probe_index_ranges(p1[:, 0], p2[:, 0], lo, step, count))
    return int(np.count_nonzero(np.bincount(cols, minlength=count) % 2))


def _sine_patch(amp=0.3, freq=2.0, radius=2.0, m=513):
    return GraphPatch.from_function(
        lambda p: amp * np.sin(freq * p[..., 0]),
        center=(0.0,), radius=radius, nodes_per_axis=m,
    )


# ---------------------------------------------------------------------------
# Closed-curve probing
# ---------------------------------------------------------------------------


def test_flat_edge_is_exactly_graphical():
    verts = [(-5.0, 0.0), (-2.5, 0.0), (0.0, 0.0), (2.5, 0.0), (5.0, 0.0),
             (5.0, 4.0), (0.0, 4.0), (-5.0, 4.0)]
    curve = ClosedCurve(vertices=np.asarray(verts))
    rep = is_graphical(curve, Cylinder((0.0, 0.0), 1.0, 1.0))
    assert rep.graphical and rep.sheet_count == 1
    assert rep.sup_height == 0.0 and rep.sup_grad == 0.0
    assert rep.witness is None


def test_circle_band_miss_gives_gap_witness():
    curve = make_circle(radius=2.0, m=2048)
    rep = is_graphical(curve, Cylinder((0.0, 0.0), 1.0, 1.0))
    # both arcs clear the band |y| <= 1 over the base, so every column is empty
    assert not rep.graphical and rep.sheet_count == 0
    assert rep.witness["kind"] == "gap"


def test_circle_lower_arc_sups_match_closed_forms():
    curve = make_circle(radius=2.0, m=2048)
    rep = is_graphical(curve, Cylinder((0.0, -2.0), 1.0, 1.0))
    assert rep.graphical and rep.sheet_count == 1
    # arc height over the band center and slope at the base edge
    assert rep.sup_height == pytest.approx(2.0 - math.sqrt(3.0), rel=1.5e-2)
    assert rep.sup_grad == pytest.approx(1.0 / math.sqrt(3.0), rel=1.5e-2)


def test_small_circle_double_cover_witness():
    curve = make_circle(radius=0.5, m=512)
    rep = is_graphical(curve, Cylinder((0.0, 0.0), 1.0, 1.0))
    assert not rep.graphical and rep.sheet_count == 2
    w = rep.witness
    assert w["kind"] == "multi" and w["count"] == 2
    assert len(w["heights"]) == w["count"]
    p = w["base_point"][0]
    expect = math.sqrt(0.25 - p * p)
    assert w["heights"] == pytest.approx([-expect, expect], abs=1e-4)


def test_vertical_jog_gives_tangency_witness():
    verts = [(-1.0, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.0, 0.4), (0.5, 0.4),
             (1.0, 0.4), (1.0, 5.0), (-1.0, 5.0)]
    curve = ClosedCurve(vertices=np.asarray(verts))
    rep = is_graphical(curve, Cylinder((0.0, 0.2), 1.0, 0.5))
    assert not rep.graphical
    assert rep.witness["kind"] == "tangency"


def test_extracted_graph_lies_on_the_curve():
    curve = make_circle(radius=2.0, m=2048)
    rep = is_graphical(curve, Cylinder((0.0, -2.0), 1.0, 1.0))
    # the lower arc rises 2 - sqrt(3) over the base edge; the column heights
    # miss it by at most the chord sag of the 2048-gon
    assert abs(rep.sup_height - (2.0 - math.sqrt(3.0))) < 1e-5


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=8, max_value=128),
    st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    st.floats(min_value=0.1, max_value=2.5, allow_nan=False),
)
def test_closed_curve_parity_is_even(m, r, cx, cy, cr):
    curve = make_circle(radius=r, m=m)
    assert curve_probe_parity_violations(
        curve, Cylinder((cx, cy), cr, 1.0)) == 0


def _winding_number(vertices, p):
    """Signed turns of the closed polygon around p, from the angles each
    edge subtends there."""
    d = vertices - np.asarray(p, dtype=float)
    ang = np.arctan2(d[:, 1], d[:, 0])
    turn = (np.roll(ang, -1) - ang + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(float(turn.sum()) / (2.0 * np.pi)))


@st.composite
def _star_and_point(draw):
    """A star polygon (one vertex per angular sector, random radius) and a
    probe point; half the points sit on the vertical line of a vertex, where
    the crossing convention decides."""
    m = draw(st.integers(min_value=8, max_value=40))
    jitter = draw(st.lists(st.floats(min_value=0.0, max_value=0.9),
                           min_size=m, max_size=m))
    r = np.array(draw(st.lists(st.floats(min_value=0.2, max_value=2.0),
                               min_size=m, max_size=m)))
    th = 2.0 * np.pi * (np.arange(m) + np.array(jitter)) / m
    verts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    coord = st.floats(min_value=-2.5, max_value=2.5)
    if draw(st.booleans()):
        px = float(verts[draw(st.integers(min_value=0, max_value=m - 1)), 0])
    else:
        px = draw(coord)
    return verts, (px, draw(coord))


@settings(max_examples=200, deadline=None)
@given(_star_and_point())
def test_crossing_parity_matches_winding_number(case):
    verts, p = case
    curve = ClosedCurve(verts)
    assume(curve_point_distance(curve, p) > 1e-9)
    inside = np.count_nonzero(vertical_crossings(curve, p[0]) > p[1]) % 2 == 1
    assert inside == (_winding_number(verts, p) != 0)


# ---------------------------------------------------------------------------
# Graph-patch probing
# ---------------------------------------------------------------------------


def test_patch_probe_recovers_amplitude_and_slope():
    patch = _sine_patch()
    rep = is_graphical(patch, Cylinder((0.0, 0.0), 1.5, 1.0))
    assert rep.graphical and rep.sheet_count == 1
    assert rep.sup_height == pytest.approx(0.3, rel=1e-2)
    assert rep.sup_grad == pytest.approx(0.6, rel=1e-2)


@pytest.mark.parametrize("nodes", [
    pytest.param(128, id="128"),
    pytest.param(129, id="129", marks=pytest.mark.xfail(strict=True, reason=(
        "the probe takes second differences of linearly interpolated column "
        "heights at half the native spacing, so the kinks between nodes count: "
        "sup_hess reads 1.9993 for |f''| <= 1"))),
])
def test_probe_sup_hess_is_the_graph_second_derivative(nodes):
    """f = sin^2(x) / 2 on [-2, 2] has |f''| = |cos 2x| <= 1, reached at x = 0,
    so in C(0, 1, 1) sup_hess should read 1 up to the grid error."""
    patch = GraphPatch.from_function(lambda p: 0.5 * np.sin(p[..., 0]) ** 2,
                                     center=(0.0,), radius=2.0, nodes_per_axis=nodes)
    rep = is_graphical(patch, Cylinder((0.0, 0.0), 1.0, 1.0))
    assert rep.graphical
    assert rep.sup_hess == pytest.approx(1.0, abs=1e-2)


def test_patch_probe_gap_outside_coverage():
    patch = _sine_patch(radius=1.0, m=257)
    rep = is_graphical(patch, Cylinder((0.0, 0.0), 1.5, 1.0))
    assert not rep.graphical and rep.witness["kind"] == "gap"
    # the uncovered column sits beyond the patch footprint
    assert abs(rep.witness["base_point"][0]) > 1.0


def test_patch_probe_height_exit_is_gap():
    patch = _sine_patch(amp=1.0, freq=1.0, radius=2.0)
    rep = is_graphical(patch, Cylinder((0.0, 0.0), 1.8, 0.5))
    assert not rep.graphical and rep.witness["kind"] == "gap"


def test_delta_defaults_and_validation():
    patch = _sine_patch()
    native = native_resolution(patch)
    assert native == patch.spacing
    rep = is_graphical(patch, Cylinder((0.0, 0.0), 1.0, 1.0))
    assert rep.delta <= native / 2 * (1 + 1e-12)


def test_empty_cylinder_reports_nongraphical():
    rep = is_graphical(_sine_patch(), Cylinder((0.0, 0.0), 0.0, 1.0))
    assert not rep.graphical and rep.witness["kind"] == "gap"


def test_probe_rejects_point_samples():
    with pytest.raises(ConfigError):
        is_graphical(sample_surface(make_circle()), Cylinder((0.0, 0.0), 1.0, 1.0))


def test_probe_rejects_2d_patch():
    patch = GraphPatch.from_function(
        lambda p: 0.1 * p[..., 0], center=(0.0, 0.0), radius=1.0, nodes_per_axis=17,
    )
    with pytest.raises(ConfigError):
        is_graphical(patch, Cylinder((0.0, 0.0, 0.0), 0.5, 1.0))


# ---------------------------------------------------------------------------
# First-crossing times over probe lists
# ---------------------------------------------------------------------------


def _fake_probes(flags, cyl):
    """A probe list, [(t, report)], graphical where the flag is set, at
    times 0, 0.1, 0.2, ..."""
    good = make_circle(radius=2.0, m=256, center=(0.0, 2.0))
    bad = make_circle(radius=0.5, m=256)
    good_rep, bad_rep = is_graphical(good, cyl), is_graphical(bad, cyl)
    assert good_rep.graphical and not bad_rep.graphical
    return [(0.1 * i, good_rep if f else bad_rep) for i, f in enumerate(flags)]


def test_record_probe_keeps_times_not_states():
    """A probe list holds each record's time and report, and no state, so it
    keeps no surface of the flow alive; until_lost stops it after the first
    non-graphical report."""
    cyl = Cylinder((0.0, 0.0), 1.0, 1.0)
    probes, held = [], []
    trace = run_flow(make_circle(radius=0.5, m=64), FlowConfig(t_end=0.01, record_stride=5),
                     monitors=[record_probe(cyl, probes),
                               record_probe(cyl, held, until_lost=True)])
    assert len(trace.records) > 2
    assert [t for t, _ in probes] == [row[0] for row in trace.records]
    assert all(type(t) is float and not rep.graphical for t, rep in probes)
    assert held == probes[:1]


def test_first_nongraphical_time():
    cyl = Cylinder((0.0, 0.0), 1.0, 1.0)
    probes = _fake_probes([True, True, False, True], cyl)
    assert first_nongraphical_time(probes) == pytest.approx(0.2)
    always = _fake_probes([True, True], cyl)
    assert first_nongraphical_time(always) is None


def test_first_graphical_time_hold_semantics():
    cyl = Cylinder((0.0, 0.0), 1.0, 1.0)
    # nine good records followed by a relapse do not count as settled; ten do
    probes = _fake_probes([False] + [True] * 9 + [False] + [True] * 10 + [False], cyl)
    assert first_graphical_time(probes) == pytest.approx(1.1)
    # a good tail shorter than the hold still settles when it reaches the end
    tail = _fake_probes([False, True], cyl)
    assert first_graphical_time(tail) == pytest.approx(0.1)
    never = _fake_probes([False, False], cyl)
    assert first_graphical_time(never) is None
