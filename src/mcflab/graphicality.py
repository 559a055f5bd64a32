"""Graphicality predicate: probe a surface with vertical lines over a
cylinder's 1-D base, count sheets, and report the sup statistics of the
column heights; plus the first-crossing times over a probe list.

Probing is resolution-limited.  The probe grid spacing is half the
surface's native resolution, snapped so that probes hit both base
endpoints; every report records the spacing used as its delta.  No claim is
made about features below the probe scale.

A probe column fails graphicality three ways: no sheet in the height range
(gap), more than one sheet (multi), or a near-vertical crossing where graph
extraction is ill-posed (tangency).  A report is graphical exactly when it
carries no witness.

`record_probe` builds a probe list, [(t, GraphReport)], as run_flow
records each state; `first_nongraphical_time` and `first_graphical_time`
read it and probe nothing again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ConfigError
from .geometry import (
    ClosedCurve,
    Cylinder,
    GraphPatch,
    curve_segments,
    edge_lengths,
    gradient_raw,
    hessian_raw,
    sum_squares,
)

TANGENCY_TOL = 1e-6
HOLD_RECORDS = 10


@dataclass(frozen=True)
class GraphReport:
    """Outcome of probing one surface against one cylinder: the sup
    statistics of the column heights if graphical, else the witness."""

    cylinder: Cylinder
    delta: float
    sheet_count: int
    sup_height: float | None = None
    sup_grad: float | None = None
    sup_hess: float | None = None
    witness: dict | None = None

    @property
    def graphical(self) -> bool:
        return self.witness is None


def native_resolution(surface) -> float:
    if isinstance(surface, GraphPatch):
        return surface.spacing
    if isinstance(surface, ClosedCurve):
        return float(edge_lengths(surface).max())
    raise ConfigError(f"cannot probe {type(surface).__name__}")


def _probe_step(cyl: Cylinder, delta: float) -> tuple[float, int]:
    """Snap delta to an axis step hitting both base endpoints, >= 8 nodes."""
    intervals = max(int(math.ceil(2 * cyl.radius / delta)), 7)
    return 2 * cyl.radius / intervals, intervals + 1


def _report_from_grid(
    cyl: Cylinder, step: float, m0: int, witness: dict | None, values: np.ndarray
) -> GraphReport:
    """The report of one probe: the witness, or the sup statistics of the
    column heights `values` (spacing `step`) about the cylinder's center."""
    if witness is not None:
        return GraphReport(cylinder=cyl, delta=step, sheet_count=m0, witness=witness)
    df = gradient_raw(values, step)
    d2f = hessian_raw(values, df, step)
    return GraphReport(
        cylinder=cyl,
        delta=step,
        sheet_count=m0,
        sup_height=float(np.max(np.abs(values - float(cyl.height_center[0])))),
        sup_grad=float(np.max(np.sqrt(sum_squares(df)))),
        sup_hess=float(np.max(np.sqrt(sum_squares(d2f.reshape(len(d2f), -1))))),
    )


# ---------------------------------------------------------------------------
# Closed curves: exact segment-line crossings
# ---------------------------------------------------------------------------


def _probe_index_ranges(x1, x2, lo, step, count):
    """Half-open probe index range [start, end) covered by each segment.

    A segment covers probe p iff p lies in [min(x1,x2), max(x1,x2)); at a
    shared vertex exactly one of the adjacent segments covers the probe, and
    a local x-extremum covers it zero times, so crossing parity is exact.
    """
    xlo = np.minimum(x1, x2)
    xhi = np.maximum(x1, x2)
    starts = np.ceil((xlo - lo) / step - 1e-12).astype(np.int64)
    ends = np.ceil((xhi - lo) / step - 1e-12).astype(np.int64)
    return np.clip(starts, 0, count), np.clip(ends, 0, count)


def _covered_columns(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment, column) for every probe column in each segment's [start, end)."""
    reps = ends - starts
    seg = np.repeat(np.arange(reps.size), reps)
    cols = np.repeat(starts - (np.cumsum(reps) - reps), reps) + np.arange(seg.size)
    return seg, cols


def _crossing_heights(x1, y1, x2, y2, x) -> np.ndarray:
    """Height at x of each segment's line, y1 + (x - x1) * slope: the one
    crossing formula (a vertical segment gets slope 0)."""
    dx = x2 - x1
    return y1 + (x - x1) * np.divide(y2 - y1, dx, out=np.zeros_like(dx), where=dx != 0)


def vertical_crossings(curve: ClosedCurve, x: float) -> np.ndarray:
    """Heights at which the polyline crosses the vertical line through x, in
    segment order.  A segment crosses iff x lies in [min(x1,x2), max(x1,x2)),
    so the line through a shared vertex crosses exactly one of its segments
    and a local x-extremum is crossed zero times or twice: the parity of the
    crossings above a point tells whether a closed curve encloses it."""
    p1, p2 = curve_segments(curve)
    (x1, y1), (x2, y2) = p1.T, p2.T
    hit = ((x1 <= x) & (x < x2)) | ((x2 <= x) & (x < x1))
    return _crossing_heights(x1[hit], y1[hit], x2[hit], y2[hit], x)


def _probe_curve(curve: ClosedCurve, cyl: Cylinder, delta: float) -> GraphReport:
    a_hat = float(cyl.base_center[0])
    a_til = float(cyl.height_center[0])
    step, count = _probe_step(cyl, delta)
    lo = a_hat - cyl.radius
    probes = lo + step * np.arange(count)
    p1, p2 = curve_segments(curve)
    (x1, y1), (x2, y2) = p1.T, p2.T
    starts, ends = _probe_index_ranges(x1, x2, lo, step, count)

    band_lo, band_hi = a_til - cyl.height, a_til + cyl.height
    ylo = np.minimum(y1, y2)
    yhi = np.maximum(y1, y2)
    fully_in = (ylo >= band_lo) & (yhi <= band_hi)
    meets_band = (yhi >= band_lo) & (ylo <= band_hi)

    # each column a band-meeting segment covers, with its crossing height;
    # a segment straddling the band edge counts only where it is in band
    seg, cols = _covered_columns(starts, np.where(meets_band, ends, starts))
    ycross = _crossing_heights(x1[seg], y1[seg], x2[seg], y2[seg], probes[cols])
    inband = fully_in[seg] | (np.abs(ycross - a_til) <= cyl.height)
    cols, ycross = cols[inband], ycross[inband]
    counts = np.bincount(cols, minlength=count)
    m0 = int(counts.max())

    # near-vertical segments inside the cylinder: graph extraction ill-posed
    near_vert = np.abs(x2 - x1) / edge_lengths(curve) < TANGENCY_TOL
    in_x = (np.minimum(x1, x2) <= a_hat + cyl.radius) & (
        np.maximum(x1, x2) >= a_hat - cyl.radius
    )
    tangent_segs = np.flatnonzero(near_vert & in_x & meets_band)

    witness = None
    if m0 > 1:
        col = int(np.argmax(counts > 1))
        heights = ycross[cols == col]  # the crossings counted: one per sheet
        witness = {
            "kind": "multi",
            "base_point": [float(probes[col])],
            "count": int(counts[col]),
            "heights": sorted(float(h) for h in heights),
        }
    elif tangent_segs.size:
        s = int(tangent_segs[0])
        witness = {
            "kind": "tangency",
            "base_point": [(float(x1[s]) + float(x2[s])) / 2],
            "height": (float(y1[s]) + float(y2[s])) / 2,
        }
    elif np.any(counts == 0):
        col = int(np.argmax(counts == 0))
        witness = {"kind": "gap", "base_point": [float(probes[col])], "count": 0}

    # where graphical, each column holds its one in-band crossing
    values = np.full(count, a_til)
    values[cols] = ycross
    return _report_from_grid(cyl, step, m0, witness, values)


# ---------------------------------------------------------------------------
# Graph patches: direct interpolation
# ---------------------------------------------------------------------------


def _probe_graph_patch(patch: GraphPatch, cyl: Cylinder, delta: float) -> GraphReport:
    """Interpolate f linearly at each probe column; a column fails (gap)
    where no two active nodes bracket it or its height leaves the band."""
    if patch.n != 1 or cyl.base_dim != 1:
        raise ConfigError(
            f"probing needs a 1-D patch and cylinder base, got {patch.n} and {cyl.base_dim}"
        )
    a_til = float(cyl.height_center[0])
    step, count = _probe_step(cyl, delta)
    probes = float(cyl.base_center[0]) - cyl.radius + step * np.arange(count)
    pos = (probes - (patch.center[0] - patch.radius)) / patch.spacing
    m = patch.shape[0]
    i0 = np.clip(np.floor(pos).astype(int), 0, m - 2)
    frac = np.clip(pos - i0, 0.0, 1.0)
    act = patch.active
    covered = (pos >= -1e-9) & (pos <= m - 1 + 1e-9) & act[i0] & act[i0 + 1]
    values = (1 - frac) * patch.values[i0] + frac * patch.values[i0 + 1]
    ok = covered & (np.abs(values - a_til) <= cyl.height)

    witness = None
    if not ok.all():
        col = int(np.argmax(~ok))
        witness = {"kind": "gap", "base_point": [float(probes[col])], "count": 0}
    return _report_from_grid(cyl, step, int(ok.any()), witness, values)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def is_graphical(surface, cyl: Cylinder) -> GraphReport:
    """Probe the surface (a ClosedCurve or GraphPatch) over the cylinder
    base at half its native resolution and report graphicality."""
    delta = native_resolution(surface) / 2
    if cyl.radius <= 0 or cyl.height <= 0:
        return GraphReport(
            cylinder=cyl, delta=delta, sheet_count=0,
            witness={"kind": "gap", "base_point": [], "count": 0},
        )
    if isinstance(surface, ClosedCurve):
        return _probe_curve(surface, cyl, delta)
    return _probe_graph_patch(surface, cyl, delta)


def record_probe(cyl: Cylinder, probes: list, until_lost: bool = False):
    """A run_flow monitor that appends (t, the state's report in `cyl`) to
    the probe list `probes` as each state is recorded and returns no report;
    with `until_lost`, none after the first non-graphical report.  The list
    holds no state, so it keeps no surface alive."""

    def probe(trace, state):
        if until_lost and probes and not probes[-1][1].graphical:
            return
        probes.append((state.t, is_graphical(state.surface, cyl)))

    return probe


def first_nongraphical_time(probes) -> float | None:
    """Earliest time in the probe list whose report is not graphical; None
    if never."""
    return next((t for t, rep in probes if not rep.graphical), None)


def first_graphical_time(probes) -> float | None:
    """Earliest time in the probe list from which reports stay graphical for
    HOLD_RECORDS consecutive records (or through the end of the list); None
    if never."""
    first = None
    run = 0
    for i in range(len(probes) - 1, -1, -1):
        run = run + 1 if probes[i][1].graphical else 0
        if run >= HOLD_RECORDS or run == len(probes) - i:
            first = i
    return None if first is None else probes[first][0]
