import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldp_hull as lh
from ldp_hull import montecarlo as mc
from ldp_hull import polyline
from ldp_hull.polyline import PolygonalLine, _hull_area_bounds, _hull_areas_reach

from conftest import brute_force_hull_area


def random_line(rng, max_edges=9, closed=False):
    n = rng.integers(2, max_edges + 1)
    pts = rng.uniform(-1, 1, size=(n + 1, 2))
    if closed:
        pts[-1] = pts[0]
    steps = np.diff(pts, axis=0)
    keep = [pts[0]]
    for p, s in zip(pts[1:], steps):
        if np.any(s != 0.0):
            keep.append(p)
    if len(keep) < 3 and closed:
        return random_line(rng, max_edges, closed)
    return PolygonalLine(np.array(keep))


def perm_hull_areas(line):
    edges = list(map(tuple, np.diff(line.vertices, axis=0).tolist()))
    start = line.vertices[0]
    best = -1.0
    for perm in itertools.permutations(edges):
        pts = np.vstack([start, start + np.cumsum(np.array(perm), axis=0)])
        best = max(best, lh.hull_area(pts))
    return best


def test_hull_area_examples():
    assert lh.hull_area(np.array([[0, 0], [1, 0], [0, 1]])) == pytest.approx(0.5, abs=1e-15)
    assert lh.hull_area(np.array([[0, 0], [1, 1], [2, 2]])) == 0.0


def test_hull_area_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = rng.uniform(-1, 1, size=(8, 2))
        assert lh.hull_area(pts) == pytest.approx(brute_force_hull_area(pts), abs=1e-12)


def test_hull_area_is_deterministic_on_nan_input():
    # deduplicating through a set hashed each NaN by identity, so this point
    # set gave areas 0.0 and 70.178 (and others) across calls
    pts = np.random.default_rng(3).normal(size=(10, 2)) * 10
    pts[0, 0] = math.nan
    assert len({lh.hull_area(pts) for _ in range(200)}) == 1


def test_convexify_triangle_preserves_area():
    tri = PolygonalLine(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
    out = lh.convexify(tri, "clockwise")
    assert lh.hull_area(out) == pytest.approx(0.5, abs=1e-15)
    assert out.closed


def test_convexify_zigzag_matches_permutation_maximum():
    zig = PolygonalLine(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    best = perm_hull_areas(zig)
    for orientation in ("clockwise", "counterclockwise"):
        out = lh.convexify(zig, orientation)
        assert lh.hull_area(out) == pytest.approx(best, abs=1e-12)


def test_convexify_single_edge_identity():
    line = PolygonalLine(np.array([[0.0, 0.0], [2.0, 3.0]]))
    out = lh.convexify(line)
    np.testing.assert_array_equal(out.vertices, line.vertices)


def test_convexify_preserves_edge_multiset():
    rng = np.random.default_rng(12)
    for _ in range(300):
        line = random_line(rng)
        out = lh.convexify(line, "clockwise" if rng.random() < 0.5 else "counterclockwise")
        before = sorted(map(tuple, line.edges.tolist()))
        after = sorted(map(tuple, out.edges.tolist()))
        assert before == after
        assert np.array_equal(out.vertices[0], line.vertices[0])


def test_convexify_never_decreases_hull_area():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        line = random_line(rng)
        out = lh.convexify(line)
        assert lh.hull_area(line) <= lh.hull_area(out) + 1e-12


def test_convexify_never_decreases_winding_area():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        line = random_line(rng, closed=True)
        out = lh.convexify(line)
        assert abs(lh.winding_signed_area(line)) <= abs(lh.winding_signed_area(out)) + 1e-12


def test_convexify_maximality_small_cases():
    rng = np.random.default_rng(15)
    for _ in range(120):
        line = random_line(rng, max_edges=6)
        out = lh.convexify(line)
        assert lh.hull_area(out) == pytest.approx(perm_hull_areas(line), abs=1e-12)


def test_energy_conserved_under_convexification(iso):
    # equal time per edge: the energy is a mean of per-edge rates, and the
    # exactly-rounded mean is invariant under reordering
    rng = np.random.default_rng(16)
    from ldp_hull.legendre import rate_batch

    for _ in range(50):
        line = random_line(rng)
        n = len(line.vertices) - 1
        out = lh.convexify(line)
        before = math.fsum(rate_batch(iso, np.diff(line.vertices, axis=0) * n)) / n
        after = math.fsum(rate_batch(iso, np.diff(out.vertices, axis=0) * n)) / n
        assert before == pytest.approx(after, abs=1e-12)


def test_signed_area_square_loops():
    ccw = PolygonalLine(np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float))
    cw = PolygonalLine(ccw.vertices[::-1])
    assert lh.signed_area_integral(ccw) == pytest.approx(1.0, abs=1e-15)
    assert lh.signed_area_integral(cw) == pytest.approx(-1.0, abs=1e-15)


def test_signed_area_speed_invariance():
    rng = np.random.default_rng(17)
    line = random_line(rng, closed=True)
    # re-parametrize by repeating vertices with unequal spacing: same value
    v = line.vertices
    dense = []
    for a, b in zip(v[:-1], v[1:]):
        for s in (0.0, 0.3, 0.7):
            dense.append(a + s * (b - a))
    dense.append(v[-1])
    assert lh.signed_area_integral(PolygonalLine(np.array(dense))) == pytest.approx(
        lh.signed_area_integral(line), abs=1e-12
    )


def test_signed_area_quarter_circle_matches_hull():
    # quarter circle from the origin to (1,1) around (1,0); its convex hull is
    # the circular segment of area pi/4 - 1/2
    n = 10000
    t = np.linspace(0.0, 1.0, n + 1)
    ang = math.pi * t / 2.0
    pts = np.column_stack([1.0 - np.cos(ang), np.sin(ang)])
    pts[0] = 0.0
    der = (math.pi / 2.0) * np.column_stack([np.sin(ang), np.cos(ang)])
    traj = lh.Trajectory(t, pts, der)
    segment = math.pi / 4.0 - 0.5
    assert abs(lh.signed_area_integral(traj)) == pytest.approx(segment, abs=1e-4)
    assert lh.hull_area(pts) == pytest.approx(segment, abs=1e-4)


def test_winding_signed_area_triangle_and_figure_eight():
    tri = PolygonalLine(np.array([[0, 0], [1, 0], [0, 1], [0, 0]], float))
    assert lh.winding_signed_area(tri) == pytest.approx(0.5, abs=1e-15)
    eight = PolygonalLine(
        np.array([[0, 0], [1, 0], [1, 1], [0, 0], [-1, -1], [-1, 0], [0, 0]], float)
    )
    # the second lobe is the first one reflected through the origin and run
    # with opposite orientation, so the windings cancel
    assert lh.winding_signed_area(eight) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        lh.winding_signed_area(PolygonalLine(np.array([[0, 0], [1, 0]], float)))


def test_winding_equals_integral_signed_area():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        line = random_line(rng, closed=True)
        assert lh.winding_signed_area(line) == pytest.approx(
            lh.signed_area_integral(line), abs=1e-12
        )


def grid_winding_area(line, res=200):
    v = line.vertices
    lo = v.min(axis=0) - 0.05
    hi = v.max(axis=0) + 0.05
    xs = np.linspace(lo[0], hi[0], res)
    ys = np.linspace(lo[1], hi[1], res)
    X, Y = np.meshgrid(xs, ys)
    total = np.zeros_like(X)
    for a, b in zip(v[:-1], v[1:]):
        a0, a1 = a[0] - X, a[1] - Y
        b0, b1 = b[0] - X, b[1] - Y
        total += np.arctan2(a0 * b1 - a1 * b0, a0 * b0 + a1 * b1)
    wind = total / (2 * math.pi)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return float(np.sum(np.round(wind) * cell))


def test_winding_signed_area_against_grid_oracle():
    rng = np.random.default_rng(19)
    done = 0
    while done < 5:
        line = random_line(rng, max_edges=7, closed=True)
        exact = lh.winding_signed_area(line)
        if abs(exact) < 0.2:  # grid oracle needs some enclosed mass
            continue
        done += 1
        assert grid_winding_area(line) == pytest.approx(exact, rel=0.02)


def test_convexify_degenerate_collinear_line():
    # all edges parallel: the output is a two-leg out-and-back line of zero
    # hull area, with the co-directional edges merged into contiguous runs
    line = PolygonalLine(np.array([[0, 0], [1, 0], [0.5, 0], [2.0, 0], [1.5, 0]]))
    out = lh.convexify(line)
    assert lh.hull_area(out) == 0.0
    signs = np.sign(out.edges[:, 0])
    flips = int(np.sum(signs[1:] != signs[:-1]))
    assert flips == 1


def test_polyline_validation():
    with pytest.raises(ValueError):
        PolygonalLine(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        PolygonalLine(np.array([[0.0, 0.0], [0.0, 0.0]]))


@st.composite
def point_stacks(draw):
    """A (B, m, 2) stack of point sets of one shape: scattered, collinear,
    repeated, single points or +-1 lattice walks, scaled and shifted far
    from the origin."""
    kind = draw(st.sampled_from(["scatter", "collinear", "repeated", "single", "lattice"]))
    B = draw(st.integers(1, 5))
    m = 1 if kind == "single" else draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e3, 1e7])) * rng.normal(size=2)
    if kind == "lattice":
        steps = np.stack([np.ones((B, m - 1)), rng.choice([-1.0, 1.0], size=(B, m - 1))], axis=2)
        walk = np.concatenate([np.zeros((B, 1, 2)), np.cumsum(steps, axis=1)], axis=1)
        return walk + np.round(offset)
    if kind == "collinear":
        pts = rng.normal(size=(B, m, 1)) * rng.normal(size=2)
    elif kind == "repeated":
        pts = rng.normal(size=(B, 3, 2))[:, rng.integers(0, 3, size=m)]
    else:
        pts = rng.normal(size=(B, m, 2))
    return 10.0 ** draw(st.integers(-3, 3)) * pts + offset


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=point_stacks())
def test_hull_area_bounds_bracket_the_exact_hull(pts):
    for k in (32, 128):
        lower, upper = _hull_area_bounds(pts, k)
        for b in range(len(pts)):
            assert lower[b] <= mc.hull_area_points(pts[b]) <= upper[b]


def test_hull_area_bounds_are_tight_on_round_sets():
    # the inscribed and circumscribed 32-gons of the unit circle: -0.64%, +0.32%
    t = np.linspace(0.0, 2 * math.pi, 400, endpoint=False) + 0.1
    circle = np.column_stack([np.cos(t), np.sin(t)])
    lower, upper = _hull_area_bounds(np.stack([circle, 3.0 * circle + 5.0]))
    assert lower / np.array([1.0, 9.0]) == pytest.approx(math.pi * (1 - 0.0064), rel=1e-3)
    assert upper / np.array([1.0, 9.0]) == pytest.approx(math.pi * (1 + 0.0032), rel=1e-3)
    # a circle sampled at every tenth of the 128 directions: its extreme points
    # span the inscribed 128-gon (-0.040%), its support lines the circumscribed
    # one (+0.020%)
    t = np.linspace(0.0, 2 * math.pi, 1280, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    lower, upper = _hull_area_bounds(np.stack([circle, 3.0 * circle + 5.0]), 128)
    assert lower / np.array([1.0, 9.0]) == pytest.approx(64 * math.sin(math.pi / 64), rel=1e-9)
    assert upper / np.array([1.0, 9.0]) == pytest.approx(128 * math.tan(math.pi / 128), rel=1e-9)


@st.composite
def reach_cases(draw):
    """A point stack and a threshold at a row's exact hull area, or the next
    float above it, or with one row turned to NaN (whose hull area is 0)."""
    pts = draw(point_stacks()).copy()
    b = draw(st.integers(0, len(pts) - 1))
    threshold = mc.hull_area_points(pts[b])
    kind = draw(st.sampled_from(["exact", "above", "nan"]))
    if kind == "above":
        threshold = np.nextafter(threshold, math.inf)
    elif kind == "nan":
        pts[draw(st.integers(0, len(pts) - 1))] = math.nan
    return pts, threshold


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=reach_cases())
def test_hull_areas_reach_is_the_exact_comparison(case):
    pts, threshold = case
    expected = [mc.hull_area_points(p) >= threshold for p in pts]
    assert _hull_areas_reach(pts, threshold).tolist() == expected


def test_each_tier_decides_some_rows(monkeypatch):
    # dense circles with areas 1/2, 2, 1.002, 0.999 and 1 times the threshold:
    # the 32-gons decide the first two, the 128-gons the next two (their
    # relative gaps are 4.0e-4 and 2.0e-4), the exact hull the last
    t = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False) + 0.1
    circle = np.column_stack([np.cos(t), np.sin(t)])
    scales = np.sqrt([0.5, 2.0, 1.002, 0.999, 1.0])
    pts = scales[:, None, None] * circle
    threshold = polyline.hull_area(circle)
    seen, exact = {}, []
    bounds, hull_area = polyline._hull_area_bounds, polyline.hull_area

    def counted_bounds(points, k):
        seen[k] = len(points)
        return bounds(points, k)

    def counted_hull_area(points):
        exact.append(points)
        return hull_area(points)

    monkeypatch.setattr(polyline, "_hull_area_bounds", counted_bounds)
    monkeypatch.setattr(polyline, "hull_area", counted_hull_area)
    assert _hull_areas_reach(pts, threshold).tolist() == [False, True, True, False, True]
    assert seen == {32: 5, 128: 3} and len(exact) == 1
