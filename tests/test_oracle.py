import math

import numpy as np
import pytest

import ldp_hull as lh
from ldp_hull import oracle
from ldp_hull.errors import NotFullPlaneError

from test_solver import drift_rate_reference


def test_discrete_area_gradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    V = rng.normal(size=(12, 2))
    base, G = oracle._area_terms(V)
    assert base == oracle.signed_area(V)
    h = 1e-7
    for k in range(12):
        for c in range(2):
            W = V.copy()
            W[k, c] += h
            fd = (oracle.signed_area(W) - base) / h
            assert fd == pytest.approx(G[k, c], abs=1e-6)


def test_minimize_matches_isotropic_value(iso):
    curve = lh.minimize_discrete(iso, 1.0, 64)
    assert abs(abs(curve.area) - 1.0) <= 1e-6
    assert curve.energy == pytest.approx(math.pi, rel=0.02)
    assert curve.energy >= math.pi - 1e-3


def test_minimize_matches_drifted_value(drift):
    curve = lh.minimize_discrete(drift, 1.0, 64)
    ref = drift_rate_reference(1.0)
    assert curve.energy == pytest.approx(ref, rel=0.02)
    assert curve.energy >= ref - 1e-3


def test_minimize_small_area_returns_drift(drift):
    curve = lh.minimize_discrete(drift, 1e-3, 16)
    assert curve.energy <= 5e-3
    assert np.max(np.linalg.norm(curve.velocities - lh.drift(drift), axis=1)) <= 0.25


@pytest.mark.parametrize("law, area", [("iso", 1.0), ("drift", 1.0), ("square", 0.2)])
def test_descent_inverts_only_its_start(law, area, request, monkeypatch):
    # the descent carries dual points u and reads v = grad K(u), from the
    # linearized duals of the half circle: the rate's gradient inverse never runs
    if law == "square":
        model = lh.regularize(request.getfixturevalue("square_atoms"), 1e-2)
    else:
        model = request.getfixturevalue(law)
    calls = []
    real = lh.legendre.rate_batch
    monkeypatch.setattr(lh.legendre, "rate_batch", lambda *a, **k: calls.append(1) or real(*a, **k))
    curve = lh.minimize_discrete(model, area, 16)
    assert abs(abs(curve.area) - area) <= 1e-6
    assert calls == []


def test_minimize_refinement_trend(iso):
    energies = [lh.minimize_discrete(iso, 1.0, n).energy for n in (16, 32, 64, 128)]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-6


def test_minimize_rejects_bad_input(iso, graph_pm1):
    with pytest.raises(ValueError):
        lh.minimize_discrete(iso, -1.0, 32)
    with pytest.raises(ValueError):
        lh.minimize_discrete(iso, 1.0, 4)
    with pytest.raises(NotFullPlaneError):
        lh.minimize_discrete(graph_pm1, 0.1, 32)


def test_recomputed_fields_match_definitions(iso):
    curve = lh.minimize_discrete(iso, 0.5, 32)
    vals = lh.legendre.rate_batch(iso, curve.velocities)
    assert math.fsum(vals) / curve.n == pytest.approx(curve.energy, abs=1e-12)
    assert oracle.signed_area(curve.velocities) == pytest.approx(curve.area, abs=1e-12)


def test_convexify_curve_properties(iso):
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(4, 24))
        V = rng.normal(size=(n, 2))
        vals = lh.legendre.rate_batch(iso, V)
        curve = oracle.DiscreteCurve(n, V, math.fsum(vals) / n, oracle.signed_area(V))
        out = lh.convexify_curve(curve)
        # energy exactly preserved: the exactly-rounded mean of the same values
        recomputed = math.fsum(lh.legendre.rate_batch(iso, out.velocities)) / n
        assert recomputed == curve.energy
        assert sorted(map(tuple, V.tolist())) == sorted(map(tuple, out.velocities.tolist()))
        assert lh.hull_area(oracle.curve_points(out)) >= lh.hull_area(oracle.curve_points(curve)) - 1e-12
        assert abs(out.area) >= abs(curve.area) - 1e-12
        again = lh.convexify_curve(out)
        assert np.array_equal(again.velocities, out.velocities)


def test_convexify_curve_keeps_equal_velocity_runs_contiguous():
    rng = np.random.default_rng(32)
    v = rng.normal(size=(10, 2))
    v[3] = v[7] = v[0]  # a repeated velocity scattered through the curve
    curve = oracle.DiscreteCurve(10, v, 0.0, oracle.signed_area(v))
    out = lh.convexify_curve(curve)
    where = [i for i, w in enumerate(out.velocities.tolist()) if tuple(w) == tuple(v[0])]
    assert len(where) == 3
    assert where == list(range(where[0], where[0] + 3))


def test_convexify_curve_agrees_with_polyline_zigzag():
    zig_edges = np.array([[1.0, 0.0], [-1.0, 1.0], [1.0, 1.0]])
    curve = oracle.DiscreteCurve(3, zig_edges * 3, 0.0, oracle.signed_area(zig_edges * 3))
    out = lh.convexify_curve(curve)
    line = lh.PolygonalLine(np.vstack([[0, 0], np.cumsum(zig_edges, axis=0)]))
    poly = lh.convexify(line)
    assert lh.hull_area(oracle.curve_points(out)) == pytest.approx(lh.hull_area(poly), abs=1e-12)


def test_convex_input_unchanged_up_to_ties(iso):
    # velocities already in convex position: re-sorting keeps the sequence
    ang = np.linspace(0.2, 2.6, 9)
    V = np.column_stack([np.cos(ang), np.sin(ang)])
    curve = oracle.DiscreteCurve(9, V, 0.0, oracle.signed_area(V))
    out = lh.convexify_curve(curve, "counterclockwise")
    assert np.array_equal(out.velocities, V)
