"""Directed polygonal lines: convexification, hull areas, signed areas.

All functions are pure and operate on immutable vertex arrays, so they are
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolygonalLine",
    "convex_hull_vertices",
    "convexification_order",
    "convexify",
    "hull_area",
    "signed_area_integral",
    "winding_signed_area",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PolygonalLine:
    """Directed polygonal line through ``vertices`` (consecutive points distinct).

    A line is *closed* when its first and last vertices coincide exactly.  The
    edge multiset is the invariant that convexification preserves; a line
    built from an explicit edge sequence (as convexification does) keeps that
    exact array, since recovering it from the accumulated vertices would
    reintroduce rounding.
    """

    vertices: np.ndarray
    exact_edges: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("a polygonal line needs at least two planar vertices")
        steps = self.exact_edges if self.exact_edges is not None else np.diff(v, axis=0)
        if np.any(np.all(steps == 0.0, axis=1)):
            raise ValueError("consecutive vertices must be distinct")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def edges(self) -> np.ndarray:
        if self.exact_edges is not None:
            return self.exact_edges
        return np.diff(self.vertices, axis=0)

    @property
    def closed(self) -> bool:
        return bool(np.all(self.vertices[0] == self.vertices[-1]))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _perp(v: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter-turn of each planar vector."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def convex_hull_vertices(points) -> np.ndarray:
    """Convex hull of a point set by Andrew's monotone chain, counterclockwise.

    Returns the hull vertices without repeating the first one.  Collinear
    interior points are dropped; degenerate inputs yield fewer than three
    vertices.  The scan runs on Python scalars: it is called per sample in
    Monte Carlo loops, where small-array overhead dominates.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) <= 2:
        return np.asarray(uniq, dtype=float).reshape(-1, 2)

    def half(chain_pts):
        out = []
        for x, y in chain_pts:
            while len(out) >= 2:
                bx, by = out[-1]
                ax, ay = out[-2]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0:
                    break
                out.pop()
            out.append((x, y))
        return out

    lower = half(uniq)
    upper = half(reversed(uniq))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return np.asarray(uniq[:2], dtype=float)
    return np.array(hull)


def _polygon_area(vertices: np.ndarray) -> float:
    # Shoelace over the implicitly closed vertex cycle.  Summing the cross
    # products pairwise keeps the rounding well below that of two dot
    # products, which the level solves would see as slope noise.
    return 0.5 * float(np.sum(_cross(vertices, np.roll(vertices, -1, axis=0))))


def hull_area(line) -> float:
    """Area of the convex hull of a polygonal line's vertices (0 if collinear)."""
    pts = line.vertices if isinstance(line, PolygonalLine) else np.asarray(line, float)
    hull = convex_hull_vertices(pts)
    if len(hull) < 3:
        return 0.0
    return abs(_polygon_area(hull))


def convexification_order(edges: np.ndarray, reference: np.ndarray, orientation: str) -> np.ndarray:
    """Permutation that sorts edge vectors into convex position.

    Edges are keyed by the angle from ``reference``, measured in the requested
    rotation direction and reduced to [0, 2*pi); ties break by increasing norm,
    then by original index.  A zero edge gets angle 0 by convention.
    """
    if orientation not in ("clockwise", "counterclockwise"):
        raise ValueError(f"unknown orientation {orientation!r}")
    e = np.asarray(edges, dtype=float).reshape(-1, 2)
    ref = np.asarray(reference, dtype=float)
    ang = np.arctan2(_cross(ref, e), e @ ref)  # ccw angle in (-pi, pi]
    if orientation == "clockwise":
        ang = -ang
    ang = np.mod(ang, _TWO_PI)
    norms = np.hypot(e[:, 0], e[:, 1])
    idx = np.arange(len(e))
    return np.lexsort((idx, norms, ang))


def convexify(line: PolygonalLine, orientation: str = "counterclockwise") -> PolygonalLine:
    """Convex polygonal line from the same start with the edge multiset re-sorted.

    The reference direction is ``first - last`` vertex for open lines and
    (1, 0) for closed ones; the two orientations give the reverse pair of
    convexifications.  Single-edge lines are returned unchanged.
    """
    verts = line.vertices
    edges = line.edges
    if len(edges) == 1:
        return line
    if np.all(verts[0] == verts[-1]):
        reference = np.array([1.0, 0.0])
    else:
        reference = verts[0] - verts[-1]
    order = convexification_order(edges, reference, orientation)
    sorted_edges = edges[order]
    out = np.empty_like(verts)
    out[0] = verts[0]
    np.cumsum(sorted_edges, axis=0, out=out[1:])
    out[1:] += verts[0]
    if np.all(verts[0] == verts[-1]):
        out[-1] = verts[0]  # reordering the sum must not unclose the loop
    return PolygonalLine(out, exact_edges=sorted_edges)


def signed_area_integral(curve) -> float:
    """Signed area 0.5 * integral of (h1 h2' - h1' h2) dt enclosed by a curve.

    Accepts a :class:`PolygonalLine` (evaluated exactly, independent of the
    traversal speed) or any object with ``times``/``points``/``derivs`` sample
    arrays, which is integrated by the trapezoid rule.
    """
    if isinstance(curve, PolygonalLine):
        v = curve.vertices
        return 0.5 * float(np.sum(_cross(v[:-1], v[1:])))
    integrand = _cross(curve.points, curve.derivs)
    return 0.5 * float(np.trapezoid(integrand, curve.times))


def winding_signed_area(line: PolygonalLine) -> float:
    """Signed area of a closed polygonal line weighted by winding number.

    Computed by fanning triangles out of the first vertex and summing their
    signed areas, which reproduces the winding-number integral exactly.
    """
    if not isinstance(line, PolygonalLine) or not line.closed:
        raise ValueError("winding_signed_area needs a closed polygonal line")
    v = line.vertices
    rel = v[1:-1] - v[0]
    return 0.5 * float(np.sum(_cross(rel[:-1], rel[1:])))
