"""Discrete graphs and curves with their differential-geometric quantities.

A hypersurface given as graph(f) over a ball is sampled on a uniform tensor
grid (GraphPatch); a plane curve is a polyline (ClosedCurve).  All graph
derivative quantities use second-order stencils: central in the interior,
one-sided at the grid boundary.  Every surface has codimension 1: a graph
is one height over its base, a curve lies in the plane.  Integrals use the
graph Jacobian sqrt(1 + |Df|^2) on active nodes only.  `CurveKernel` is the
one polyline kernel: edge lengths, length, shoelace area, the Menger
curvature and normal, and the arclength resample; the curve stepper in
`flow` and the cached curve quantities here both read it.  `load` refills a kernel's arrays, so
the step reuses one kernel per vertex count; a curve's cached edges, normals
and kappa come from one fresh kernel.  Construction checks edges without one.

A surface has one cache entry, its private context (`_Context` says what
it builds, each array on first read), so a surface holds only what some
reader read.  Neither caches tangents or |A|: a curve's unit tangent is
(N_1, -N_0), and |A| is computed where it is read.  Each surface owns its
`_cache`: no constructor takes one, and every surface built, by
`dataclasses.replace` too, starts with an empty dict of its own, so a cache
always describes the values and the time of the surface that holds it.
The helpers below read the context, as `flow.run_flow`'s timeseries row,
the monitor checks and the curvature window do.
"""

from __future__ import annotations

import base64
import functools
import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._util import GeometryError, ValidationError, canonical_dumps, finite_float

SCHEMA_VERSION = 2

# Round-off budget of a sample's unit normals.
NORMAL_WEIGHT_TOL = 1e-12

# Most candidate segment pairs is_simple evaluates at once (bounds memory).
SIMPLE_PAIR_CHUNK = 500_000


def sum_squares(v: np.ndarray, c=None) -> np.ndarray:
    """sum((v - c) ** 2, axis=-1), or sum(v * v, axis=-1) without c, bit for
    bit, for a trailing axis of width <= 3 and c one point or of v's shape.
    The squares are added a whole column at a time, left to right,
    ((d0^2 + d1^2) + d2^2), the order of numpy's reduce (right association
    differs at width 3), which goes row by row and is several times slower."""
    c = None if c is None else np.asarray(c, dtype=float)
    cols = [v[..., k] if c is None else v[..., k] - c[..., k] for k in range(v.shape[-1])]
    out = cols[0] * cols[0]
    for d in cols[1:]:
        out += d * d
    return out


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """C(a, r, h) = B^n(a_hat, r) x B^1(a_tilde, h) in R^{n+1}.

    The last coordinate of `center` is the height a_tilde.
    r = 0 or h = 0 gives the empty cylinder.
    """

    center: tuple
    radius: float
    height: float

    def __post_init__(self):
        if self.radius < 0 or self.height < 0:
            raise GeometryError("cylinder radius and height must be >= 0")
        if len(self.center) < 2:
            raise GeometryError("cylinder center needs a base and a height coordinate")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def base_center(self) -> np.ndarray:
        return np.asarray(self.center[:-1], dtype=float)

    @property
    def height_center(self) -> np.ndarray:
        return np.asarray(self.center[-1:], dtype=float)

    @property
    def base_dim(self) -> int:
        return len(self.center) - 1


class _CachedSurface:
    """Pickles without its `_cache`: a cache is a pure function of the values,
    so a loaded surface recomputes what a reader asks for."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_cache"}

    def __setstate__(self, state):
        self.__dict__.update(state, _cache={})


@dataclass(frozen=True, eq=False)
class GraphPatch(_CachedSurface):
    """Scalar field f sampled on the uniform grid covering B^n(center, radius).

    node(i) = center - radius*1 + spacing*i componentwise.  Nodes of the
    bounding box outside the closed ball are inactive: they carry values (so
    stencils stay uniform) but are excluded from integrals and samples.
    """

    center: np.ndarray
    radius: float
    spacing: float
    values: np.ndarray
    time: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "values", values)
        if self.spacing <= 0:
            raise GeometryError("spacing must be > 0")
        if self.radius <= 0:
            raise GeometryError("radius must be > 0")
        n = center.size
        if values.ndim != n:
            raise GeometryError(f"values must be {n}-dimensional, got {values.ndim}")
        m = values.shape[0]
        if any(s != m for s in values.shape):
            raise GeometryError("grid must have the same node count per axis")
        span = (m - 1) * self.spacing
        # grid must cover the ball's bounding box to within one spacing
        if span > 2 * self.radius * (1 + 1e-12) + 1e-15:
            raise GeometryError("grid extends beyond the bounding box")
        if 2 * self.radius - span > self.spacing * (1 + 1e-12):
            raise GeometryError("grid does not cover the ball")
        act = self.active
        for axis in range(n):
            counts = act.any(axis=tuple(a for a in range(n) if a != axis))
            if int(np.count_nonzero(counts)) < 8:
                raise GeometryError("need at least 8 active nodes per axis")
        if not np.isfinite(values[act]).all():
            raise GeometryError("active nodes must carry finite values")

    @property
    def n(self) -> int:
        return self.center.size

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def grid(self) -> "Grid":
        """Base-grid arrays shared by every patch on the same grid."""
        return patch_grid(tuple(self.center.tolist()), self.radius, self.spacing, self.shape)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis node coordinates."""
        return self.grid.axes

    @property
    def nodes(self) -> np.ndarray:
        """Base-space node coordinates, shape grid + (n,)."""
        return self.grid.nodes

    @property
    def active(self) -> np.ndarray:
        """Mask of nodes inside the closed ball B^n(center, radius)."""
        return self.grid.active

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        center: Sequence[float],
        radius: float,
        nodes_per_axis: int,
        time: float = 0.0,
    ) -> "GraphPatch":
        """Sample fn(points) on the grid whose end nodes lie on the faces of
        the ball's bounding box."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        m = int(nodes_per_axis)
        h = 2 * radius / (m - 1)
        mesh = patch_grid(tuple(center.tolist()), radius, h, (m,) * center.size).nodes
        vals = np.asarray(fn(mesh), dtype=float)
        return cls(center=center, radius=radius, spacing=h, values=vals, time=time)


class Grid(NamedTuple):
    """Read-only arrays of one patch grid (see patch_grid)."""

    axes: tuple
    nodes: np.ndarray
    active: np.ndarray
    boundary: np.ndarray


@functools.lru_cache(maxsize=32)
def patch_grid(center: tuple, radius: float, spacing: float, shape: tuple) -> Grid:
    """Axes, nodes and active mask of the grid node(i) = center - radius +
    spacing * i, and `boundary`: which active nodes, in C order (the order of
    the lifted sample), lack an active neighbour.  Once per grid; read-only."""
    n = len(center)
    axes = tuple(center[i] - radius + spacing * np.arange(shape[i]) for i in range(n))
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    active = np.sqrt(sum_squares(nodes, center)) <= radius * (1 + 1e-12)
    padded = np.pad(active, 1, constant_values=False)
    interior = active.copy()
    for axis in range(n):
        for off in (0, 2):
            interior &= padded[tuple(
                slice(off, off + shape[a]) if a == axis else slice(1, -1)
                for a in range(n)
            )]
    boundary = (active & ~interior)[active]
    for arr in (*axes, nodes, active, boundary):
        arr.flags.writeable = False
    return Grid(axes, nodes, active, boundary)


@dataclass(frozen=True, eq=False)
class ClosedCurve(_CachedSurface):
    """Polyline in R^2; closed joins the last vertex back to the first.

    Simplicity (no self-intersections) is not checked at construction;
    is_simple() tests it, and run_flow records a non_simple event for any
    recorded closed curve that fails it.
    """

    vertices: np.ndarray
    closed: bool = True
    time: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError("vertices must have shape (m, 2)")
        if v.shape[0] < 8:
            raise GeometryError("need at least 8 vertices")
        if not np.isfinite(v).all():
            raise GeometryError("vertices must be finite")
        starts, ends = curve_segments(self)
        if np.any(sum_squares(ends, starts) == 0.0):  # a zero edge length
            raise GeometryError("consecutive vertices must be distinct")

    @property
    def m(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class SurfaceSample:
    """Quadrature view of a surface: points, unit normals, weights."""

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        nrm = np.asarray(self.normals, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        for name, arr in (("points", pts), ("normals", nrm), ("weights", w)):
            object.__setattr__(self, name, arr)
        if pts.shape != nrm.shape or w.shape != pts.shape[:1]:
            raise GeometryError("sample arrays must have matching lengths")
        lengths = np.sqrt(sum_squares(nrm))
        if np.any(np.abs(lengths - 1.0) > NORMAL_WEIGHT_TOL):
            raise GeometryError("normals must be unit length within 1e-12")
        if np.any(w <= 0):
            raise GeometryError("weights must be > 0")


# ---------------------------------------------------------------------------
# Stencils on graph patches
# ---------------------------------------------------------------------------


def _d1(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    return np.gradient(values, h, axis=axis, edge_order=2)


def _d2(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = np.empty_like(values)
    fwd = [slice(None)] * values.ndim

    def sl(*idx):
        s = list(fwd)
        s[axis] = idx[0] if len(idx) == 1 else slice(*idx)
        return tuple(s)

    out[sl(1, -1)] = (
        values[sl(2, None)] - 2 * values[sl(1, -1)] + values[sl(0, -2)]
    ) / h**2
    out[sl(0)] = (
        2 * values[sl(0)] - 5 * values[sl(1)] + 4 * values[sl(2)] - values[sl(3)]
    ) / h**2
    out[sl(-1)] = (
        2 * values[sl(-1)] - 5 * values[sl(-2)] + 4 * values[sl(-3)] - values[sl(-4)]
    ) / h**2
    return out


def gradient_raw(values: np.ndarray, h: float) -> np.ndarray:
    return np.stack([_d1(values, h, a) for a in range(values.ndim)], axis=-1)


def hessian_raw(values: np.ndarray, df: np.ndarray, h: float) -> np.ndarray:
    """D^2 f from f and its gradient df = gradient_raw(values, h); mixed
    partials difference df."""
    n = values.ndim
    out = np.empty(values.shape + (n, n))
    for i in range(n):
        out[..., i, i] = _d2(values, h, i)
        for j in range(i + 1, n):
            mixed = _d1(df[..., i], h, j)
            out[..., i, j] = mixed
            out[..., j, i] = mixed
    return out


def gradient_field(patch: GraphPatch) -> np.ndarray:
    """Df on all nodes, shape grid + (n,); the context's."""
    return _context(patch).grad


def hessian_field(patch: GraphPatch) -> np.ndarray:
    """D^2 f on all nodes, shape grid + (n, n), symmetric; the context's."""
    return _context(patch).hess


# ---------------------------------------------------------------------------
# Pointwise graph quantities (vectorized over leading axes)
# ---------------------------------------------------------------------------


def graph_normal(df: np.ndarray) -> np.ndarray:
    """Upward unit normal (-Df, 1)/sqrt(1+|Df|^2) of graph(f)."""
    df = np.asarray(df, dtype=float)
    if not np.isfinite(df).all():
        raise GeometryError("Df must be finite")
    scalar = df.ndim == 1
    d = np.atleast_2d(df)
    denom = np.sqrt(1.0 + sum_squares(d))[..., None]
    out = np.concatenate([-d, np.ones(d.shape[:-1] + (1,))], axis=-1) / denom
    return out[0] if scalar else out.reshape(df.shape[:-1] + (df.shape[-1] + 1,))


def tilt(df: np.ndarray) -> np.ndarray:
    """|Df|^2/(1+|Df|^2) = 1 - (nu . e_{n+1})^2, in [0, 1)."""
    df = np.asarray(df, dtype=float)
    if not np.isfinite(df).all():
        raise GeometryError("Df must be finite")
    s = sum_squares(df)
    return s / (1.0 + s)


def metric_inverse(df: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g^{-1}, 1+|Df|^2) for the induced metric g = I + Df Df^T."""
    df = np.asarray(df, dtype=float)
    w = 1.0 + sum_squares(df)
    n = df.shape[-1]
    eye = np.eye(n)
    ginv = eye - df[..., :, None] * df[..., None, :] / w[..., None, None]
    return ginv, w


def second_fundamental_norm(df: np.ndarray, d2f: np.ndarray) -> np.ndarray:
    """Exact |A| of graph(f): |A|^2 = tr((g^{-1} D^2f)^2) / (1+|Df|^2)."""
    d2f = np.asarray(d2f, dtype=float)
    if not (np.isfinite(np.asarray(df)).all() and np.isfinite(d2f).all()):
        raise GeometryError("inputs must be finite")
    ginv, w = metric_inverse(df)
    b = np.einsum("...ij,...jk->...ik", ginv, d2f)
    a2 = np.einsum("...ij,...ji->...", b, b) / w
    return np.sqrt(np.maximum(a2, 0.0))


def mean_curvature_graph(df: np.ndarray, d2f: np.ndarray) -> np.ndarray:
    """Scalar mean curvature of graph(f); the curvature vector is H * nu."""
    d2f = np.asarray(d2f, dtype=float)
    if not (np.isfinite(np.asarray(df)).all() and np.isfinite(d2f).all()):
        raise GeometryError("inputs must be finite")
    ginv, w = metric_inverse(df)
    return np.einsum("...ij,...ij->...", ginv, d2f) / np.sqrt(w)


# ---------------------------------------------------------------------------
# Curve quantities
# ---------------------------------------------------------------------------


class CurveKernel:
    """The one polyline kernel: edge lengths and their statistics, the
    shoelace area and the guarded Menger curvature of a vertex array.

    A closed curve is padded with its last vertex in front and its first at
    the back, so for closed and open curves alike the stencil of the i-th
    curved vertex (every vertex if closed, the interior ones if open) is the
    edges d[i], d[i+1] and the chord ext[i+2] - ext[i].  `edges` are the
    polyline's edge lengths: m wrapping ones if closed, m - 1 if open.
    `load` and `menger` overwrite the kernel's own arrays (`ext`, `d`,
    `edges`, and the kappa and normal `menger` returns); the first `menger`
    allocates the Menger buffers, so a reader of edges alone allocates none.
    """

    def __init__(self, vertices: np.ndarray, closed: bool):
        self.closed = closed
        m = vertices.shape[0]
        n = m + 1 if closed else m - 1
        self.d, sq, self._lengths = np.empty((n, 2)), np.empty((n, 2)), np.empty(n)
        self._sq = (sq, sq[:, 0], sq[:, 1])
        self.edges = self._lengths[1:] if closed else self._lengths
        if closed:
            self.ext = ext = np.empty((m + 2, 2))
            self._pad = (ext[1:-1], ext[0], ext[-1], ext[1:], ext[:-1])
        self._menger = None
        self.load(vertices)

    def load(self, vertices: np.ndarray) -> None:
        """Refill the edge arrays and statistics from `vertices`, which has
        the vertex count the kernel was built for."""
        self.vertices = vertices
        if self.closed:
            inner, first, last, hi, lo = self._pad
            inner[...], first[...], last[...] = vertices, vertices[-1], vertices[0]
        else:
            self.ext = vertices
            hi, lo = vertices[1:], vertices[:-1]
        d, (sq, sq0, sq1), lengths = self.d, self._sq, self._lengths
        np.multiply(np.subtract(hi, lo, out=d), d, out=sq)
        np.sqrt(np.add(sq0, sq1, out=lengths), out=lengths)
        edges = self.edges
        self.e_min, self.e_max = float(edges.min()), float(edges.max())
        self.length = float(edges.sum())

    def area(self) -> float:
        """Unsigned shoelace area of a closed curve."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        nxt = self.ext[2:]
        return abs(float(np.sum(x * nxt[:, 1] - nxt[:, 0] * y))) / 2.0

    def resample(self, count: int) -> np.ndarray:
        """Uniform-arclength linear resample of the loaded polyline to count
        vertices, into a fresh array; vertex 0 (and open endpoints) kept."""
        loop = self.ext[1:] if self.closed else self.ext
        s = np.concatenate([[0.0], np.cumsum(self.edges)])
        total = s[-1]
        if total <= 0:
            raise GeometryError("cannot resample a zero-length curve")
        if self.closed:
            targets = total * np.arange(count) / count
        else:
            targets = np.linspace(0.0, total, count)
        x = np.interp(targets, s, loop[:, 0])
        y = np.interp(targets, s, loop[:, 1])
        return np.stack([x, y], axis=-1)

    def menger(self) -> tuple[np.ndarray, np.ndarray]:
        """(kappa, left unit normal) per vertex from the circumscribed circle
        of each stencil; a degenerate chord (lc = 0) gives kappa = 0, and
        open endpoints get kappa = 0 and a zero normal.  Sets `lc_min`, the
        shortest chord, so |kappa| <= 2 / lc_min when it is > 0."""
        if self.e_min == 0.0:
            raise GeometryError("repeated vertex in curvature stencil")
        if self._menger is None:  # the buffers and their views, once
            m = self.vertices.shape[0]
            k, curved = (m, slice(None)) if self.closed else (m - 2, slice(1, -1))
            chord, chord_sq = np.empty((k, 2)), np.empty((k, 2))
            kappa, normal = np.zeros(m), np.zeros((m, 2))
            a, b, lengths = self.d[:-1], self.d[1:], self._lengths
            self._menger = (
                kappa, normal, kappa[curved], normal[curved, 0], normal[curved, 1],
                chord, chord[:, 0], chord[:, 1], chord_sq, chord_sq[:, 0], chord_sq[:, 1],
                np.empty(k), np.empty(k), np.empty(k),
                a[:, 0], a[:, 1], b[:, 0], b[:, 1], lengths[:-1], lengths[1:],
            )
        (kappa, normal, kap, nor_x, nor_y, chord, chord_x, chord_y, chord_sq, sq_x, sq_y,
         lc, cross, tmp, a_x, a_y, b_x, b_y, len_a, len_b) = self._menger
        np.subtract(self.ext[2:], self.ext[:-2], out=chord)
        np.subtract(np.multiply(a_x, b_y, out=cross), np.multiply(a_y, b_x, out=tmp), out=cross)
        np.multiply(chord, chord, out=chord_sq)
        np.sqrt(np.add(sq_x, sq_y, out=lc), out=lc)
        self.lc_min = float(lc.min())
        if self.lc_min > 0:  # 2 cross / ((L0 L1) lc) and (-(chord_y / lc), chord_x / lc)
            np.multiply(np.multiply(len_a, len_b, out=tmp), lc, out=tmp)
            np.divide(np.multiply(cross, 2.0, out=cross), tmp, out=kap)
            np.negative(np.divide(chord_y, lc, out=nor_x), out=nor_x)
            np.divide(chord_x, lc, out=nor_y)
        else:
            pos = lc > 0
            lc_safe = np.where(pos, lc, 1.0)
            kap[:] = 0.0
            np.divide(2.0 * cross, len_a * len_b * lc_safe, out=kap, where=pos)
            nor_x[:], nor_y[:] = -(chord_y / lc_safe), chord_x / lc_safe
        return kappa, normal


def edge_lengths(curve: ClosedCurve) -> np.ndarray:
    """Edge lengths; m edges if closed (wrapping), m-1 if open.

    The context's, from its kernel; treat as read-only.
    """
    return _context(curve).curve[0]


def total_length(curve: ClosedCurve) -> float:
    return float(edge_lengths(curve).sum())


def enclosed_area(curve: ClosedCurve) -> float:
    """Unsigned shoelace area (closed curves)."""
    if not curve.closed:
        raise GeometryError("area is defined for closed curves only")
    return CurveKernel(curve.vertices, True).area()


def curve_quantities_all(curve: ClosedCurve):
    """(left unit normals, signed Menger curvature) per vertex.

    kappa > 0 where the curve turns left; for a positively oriented convex
    curve the left normal points inward, so the curvature vector kappa*N is
    the inward curve-shortening velocity either way.  Open-curve endpoints get
    the left normal of their one-sided tangent and kappa = 0 (the flow holds
    them fixed).  The unit tangent is (N_1, -N_0).

    The context's, from the kernel of its edge lengths; treat as read-only.
    """
    _, normals, kappa = _context(curve).curve
    return normals, kappa


def curve_segments(curve: ClosedCurve) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the polyline's segments, both taken from the
    vertices; a closed curve's last segment ends at vertex 0."""
    v = curve.vertices
    if curve.closed:
        return v, np.roll(v, -1, axis=0)
    return v[:-1], v[1:]


def is_simple(curve: ClosedCurve) -> bool:
    """Segment-pair intersection test by sort-and-sweep on x-extents.

    Segments are sorted by their left end x; a binary search finds, for each,
    the run of later segments that start at or before its right end.  The
    candidate pairs are exactly those whose x-extents overlap (Shamos-Hoey,
    FOCS 1976), so the cost is O(m log m + k) for k such pairs, not O(m^2).
    Candidates are evaluated in chunks of at most SIMPLE_PAIR_CHUNK pairs to
    bound peak memory.  Adjacent pairs (shared endpoint) are excluded.
    Proper crossings only (strict interior on both segments); endpoint
    touches and collinear overlaps do not count.
    """
    starts, ends = curve_segments(curve)
    n_edges = starts.shape[0]
    if n_edges < 3:
        return True
    d = ends - starts
    lox = np.minimum(starts[:, 0], ends[:, 0])
    hix = np.maximum(starts[:, 0], ends[:, 0])
    loy = np.minimum(starts[:, 1], ends[:, 1])
    hiy = np.maximum(starts[:, 1], ends[:, 1])
    order = np.argsort(lox, kind="stable")
    # sorted position k pairs with positions k+1 .. stop[k]-1
    stop = np.searchsorted(lox[order], hix[order], side="right")
    counts = stop - np.arange(n_edges) - 1
    cum = np.cumsum(counts)
    first = cum - counts
    total = int(cum[-1])
    for c0 in range(0, total, SIMPLE_PAIR_CHUNK):
        c1 = min(c0 + SIMPLE_PAIR_CHUNK, total)
        # runs that meet the flat pair range [c0, c1), clipped to it
        k0 = int(np.searchsorted(cum, c0, side="right"))
        k1 = int(np.searchsorted(cum, c1 - 1, side="right")) + 1
        run = np.minimum(cum[k0:k1], c1) - np.maximum(first[k0:k1], c0)
        a = order[np.repeat(np.arange(k0, k1), run)]
        b = order[np.arange(c0, c1) + np.repeat(stop[k0:k1] - cum[k0:k1], run)]
        i = np.minimum(a, b)
        j = np.maximum(a, b)
        # inclusive y-overlap keeps every proper crossing; skip adjacent
        # edges (shared endpoint), and the wrap adjacency if closed
        keep = (loy[i] <= hiy[j]) & (hiy[i] >= loy[j]) & (j >= i + 2)
        if curve.closed:
            keep &= ~((i == 0) & (j == n_edges - 1))
        i = i[keep]
        j = j[keep]
        r = d[i]
        s = d[j]
        qp = starts[j] - starts[i]
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


def curve_point_distance(curve: ClosedCurve, point) -> float:
    """Min distance from an ambient point to the polyline (segment-exact)."""
    p = np.asarray(point, dtype=float)
    starts, ends = curve_segments(curve)
    d = ends - starts
    ll = sum_squares(d)
    t = np.clip(np.einsum("ij,ij->i", p - starts, d) / np.where(ll > 0, ll, 1.0), 0, 1)
    closest = starts + t[:, None] * d
    return float(np.sqrt(np.min(sum_squares(closest, p))))


# ---------------------------------------------------------------------------
# Integration and sampling
# ---------------------------------------------------------------------------


def integrate_over_graph(patch: GraphPatch, phi) -> float:
    """Sum of phi(t, lifted point) * sqrt(1+|Df|^2) * h^n over active nodes.

    phi(t, points) must accept a stacked array of ambient points (N, n+1).
    """
    ctx = _context(patch)
    return ctx.integrate(np.asarray(phi(patch.time, ctx.points), dtype=float))


def sample_surface(surface) -> SurfaceSample:
    """Lift a patch or curve to ambient points with unit normals and weights.

    The context's; treat the sample arrays as read-only.
    """
    if not isinstance(surface, (GraphPatch, ClosedCurve)):
        raise GeometryError(f"cannot sample {type(surface).__name__}")
    return _context(surface).sample


# ---------------------------------------------------------------------------
# The one cache of a surface
# ---------------------------------------------------------------------------


class _Context:
    """A surface's derived arrays, each built on first read.  It holds the
    arrays it derives from (a graph's `values`, `spacing` and grid arrays, a
    curve's `vertices` and `closed`), never the surface, so the two form no
    cycle.  A graph derives `grad` and `hess` (Df, D^2f), the lift `points`
    and `jac` = sqrt(1+|Df|^2) on active nodes; a curve derives `curve`
    (edge lengths, left unit normals, kappa) from one `CurveKernel`, its
    vertex weights `jac` (half of each edge a vertex ends), and its points
    are its vertices.  Either derives the signed mean curvature H (H nu is
    the curvature vector; a curve's H is kappa), the sample, and the
    timeseries row (measure, max|Df| or None, max|A|), which reads only a
    graph's `grad`, `hess` and `jac` or a curve's `curve`.  `edge` are the
    boundary rows; `integrate` is the one quadrature, sum(vals * jac) *
    scale, with scale h^n or 1.  The memo, keyed by parameters alone (a
    state's time is its surface's), holds |x - c|^2 per centre, each ball
    measure, and what a reader computes through `once`."""

    def __init__(self, surface):
        self.t = surface.time
        self.memo = {}
        self.graph = isinstance(surface, GraphPatch)
        if self.graph:
            grid = surface.grid
            self.values, self.spacing = surface.values, surface.spacing
            self.nodes, self.active, self.edge = grid.nodes, grid.active, grid.boundary
            self.scale = surface.spacing**surface.n
        else:
            self.vertices, self.closed = surface.vertices, surface.closed
            self.scale = 1.0
            self.edge = [] if surface.closed else [0, -1]

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return gradient_raw(self.values, self.spacing)

    @functools.cached_property
    def hess(self) -> np.ndarray:
        return hessian_raw(self.values, self.grad, self.spacing)

    @functools.cached_property
    def curve(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        kernel = CurveKernel(self.vertices, self.closed)
        kappa, normals = kernel.menger()
        if not self.closed:
            # one-sided tangents at the fixed endpoints, where menger gives N = 0
            tan_ends = kernel.d[[0, -1]] / kernel.edges[[0, -1], None]
            normals[[0, -1], 0] = -tan_ends[:, 1]
            normals[[0, -1], 1] = tan_ends[:, 0]
        return kernel.edges, normals, kappa

    @functools.cached_property
    def points(self) -> np.ndarray:
        if not self.graph:
            return self.vertices
        return np.concatenate([self.nodes[self.active], self.values[self.active][:, None]], axis=1)

    @functools.cached_property
    def jac(self) -> np.ndarray:
        if self.graph:
            return np.sqrt(1.0 + sum_squares(self.grad[self.active]))
        # a closed curve's first vertex ends its last edge
        el = self.curve[0]
        ends = np.concatenate([el[-1:], el] if self.closed else [[0.0], el, [0.0]])
        return (ends[:-1] + ends[1:]) / 2.0

    @functools.cached_property
    def mean_curvature(self) -> np.ndarray:
        if not self.graph:
            return self.curve[2]
        return mean_curvature_graph(self.grad[self.active], self.hess[self.active])

    @functools.cached_property
    def sample(self) -> SurfaceSample:
        if not self.graph:
            return SurfaceSample(self.points, self.curve[1], self.jac)
        normals = graph_normal(self.grad[self.active])
        return SurfaceSample(self.points, normals, self.jac * self.scale)

    @functools.cached_property
    def row(self) -> tuple:
        if not self.graph:
            edges, _, kappa = self.curve
            return float(edges.sum()), None, float(np.max(np.abs(kappa)))
        df = self.grad[self.active]
        return (self.integrate(1.0), float(np.max(np.sqrt(sum_squares(df)))),
                float(np.max(second_fundamental_norm(df, self.hess[self.active]))))

    def integrate(self, vals) -> float:
        """The quadrature of vals, given at every point."""
        return float(np.sum(vals * self.jac) * self.scale)

    def exits(self, vals: np.ndarray) -> bool:
        """Whether a test function's support reaches the boundary."""
        return bool(np.any(vals[self.edge] > 0.0))

    def once(self, key, compute):
        """compute(self), once per key."""
        if key not in self.memo:
            self.memo[key] = compute(self)
        return self.memo[key]

    def dist2(self, center) -> np.ndarray:
        """|x - center|^2 at every point."""
        center = np.asarray(center, dtype=float)
        return self.once(("dist2", *center.tolist()),
                         lambda ctx: sum_squares(ctx.points, center))

    def ball_measure(self, center, radius: float) -> float:
        """The measure of the surface inside B(center, radius), on dist2."""
        center = np.asarray(center, dtype=float)
        return self.once(("ball_measure", radius, *center.tolist()), lambda ctx: float(
            np.sum(ctx.sample.weights[np.sqrt(ctx.dist2(center)) <= radius])))


def _context(surface) -> _Context:
    """The surface's context, its one cache entry, built on first use."""
    if "context" not in surface._cache:
        surface._cache["context"] = _Context(surface)
    return surface._cache["context"]


# ---------------------------------------------------------------------------
# JSON serialization (snapshot schema 2)
# ---------------------------------------------------------------------------


def _encode(array: np.ndarray, path: str) -> str:
    """Base64 of the array's little-endian float64 bytes, in C order."""
    if not np.isfinite(array).all():
        raise ValidationError(path, "NaN/Inf forbidden")
    return base64.b64encode(array.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode(doc: dict, key: str, item: int) -> np.ndarray:
    """doc[key] decoded to a flat float64 array, checked: valid base64, a
    byte count that is a multiple of `item` (a vertex or a float), finite."""
    path, text = f"$.{key}", doc[key]
    if not isinstance(text, str):
        raise ValidationError(path, "must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValidationError(path, f"invalid base64: {exc}")
    if len(raw) % item:
        raise ValidationError(path, f"{len(raw)} bytes is not a whole number of {item}-byte items")
    flat = np.frombuffer(raw, dtype="<f8").astype(float)
    if not np.isfinite(flat).all():
        raise ValidationError(path, "NaN/Inf forbidden")
    return flat


def to_json_dict(surface) -> dict:
    """Schema 2: a canonical JSON header, with the one array field as base64
    of little-endian float64 in C order (`_encode`); its shape follows from
    the header."""
    if isinstance(surface, GraphPatch):
        return {
            "kind": "graph_patch",
            "schema_version": SCHEMA_VERSION,
            "codim": 1,
            "center": [float(c) for c in surface.center],
            "radius": float(surface.radius),
            "spacing": float(surface.spacing),
            "time": float(surface.time),
            "values": _encode(surface.values, "$.values"),
        }
    if isinstance(surface, ClosedCurve):
        return {
            "kind": "closed_curve",
            "schema_version": SCHEMA_VERSION,
            "closed": bool(surface.closed),
            "time": float(surface.time),
            "vertices": _encode(surface.vertices, "$.vertices"),
        }
    raise ValidationError("$", f"cannot serialize {type(surface).__name__}")


def from_json_dict(doc: dict):
    if not isinstance(doc, dict):
        raise ValidationError("$", "surface document must be an object")
    # a JSON integer: neither true nor 2.0 equals the version
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError("$.schema_version", f"must be {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if kind == "graph_patch":
        for key in ("center", "radius", "spacing", "time", "values"):
            if key not in doc:
                raise ValidationError(f"$.{key}", "missing field")
        if doc.get("codim", 1) != 1:
            raise ValidationError("$.codim", "only codimension 1 is supported")
        center = doc["center"]
        if not isinstance(center, list) or not center or any(isinstance(c, list) for c in center):
            raise ValidationError("$.center", "must be a non-empty list of numbers")
        center = np.array([finite_float(c, f"$.center[{i}]") for i, c in enumerate(center)])
        flat = _decode(doc, "values", 8)
        n = center.size
        m = round(flat.size ** (1.0 / n))
        if m**n != flat.size:
            raise ValidationError("$.values", f"length {flat.size} is not a grid^{n}")
        radius = finite_float(doc["radius"], "$.radius")
        spacing = finite_float(doc["spacing"], "$.spacing")
        for key, value in (("radius", radius), ("spacing", spacing)):
            if value <= 0:
                raise ValidationError(f"$.{key}", f"must be > 0, got {value!r}")
        time = finite_float(doc["time"], "$.time")
        try:  # the grid does not fit the ball, or too few active nodes
            return GraphPatch(center=center, radius=radius, spacing=spacing,
                              values=flat.reshape((m,) * n), time=time)
        except GeometryError as exc:
            raise ValidationError("$.values", str(exc)) from None
    if kind == "closed_curve":
        for key in ("time", "vertices"):
            if key not in doc:
                raise ValidationError(f"$.{key}", "missing field")
        closed = doc.get("closed", True)
        if not isinstance(closed, bool):
            raise ValidationError("$.closed", "must be true or false")
        vertices = _decode(doc, "vertices", 16).reshape(-1, 2)
        time = finite_float(doc["time"], "$.time")
        try:  # too few vertices, or a zero edge
            return ClosedCurve(vertices=vertices, closed=closed, time=time)
        except GeometryError as exc:
            raise ValidationError("$.vertices", str(exc)) from None
    raise ValidationError("$.kind", f"unknown kind {kind!r}")


def dumps_surface(surface) -> str:
    return canonical_dumps(to_json_dict(surface))


def loads_surface(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("$", f"invalid JSON: {exc}")
    return from_json_dict(doc)
