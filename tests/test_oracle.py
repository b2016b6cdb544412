import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldp_hull as lh
from ldp_hull import oracle
from ldp_hull.errors import NotFullPlaneError

from test_metamorphic import FIVE_ATOMS, rotation
from test_solver import drift_rate_reference

# laws with no mirror symmetry y -> -y: the two signs of the area constraint
# are no longer mirror images of each other
SKEWED = [
    pytest.param(FIVE_ATOMS, 0.05, id="five-atoms"),
    pytest.param(lh.gaussian([1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]]), 0.5, id="skewed-drift"),
]


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


@pytest.mark.parametrize("model, area", SKEWED)
def test_reversed_velocities_solve_the_negative_sign(model, area):
    # v_i -> v_{n+1-i} keeps every per-velocity rate and negates the discrete
    # signed area, so solving the positive sign alone loses nothing
    curve = lh.minimize_discrete(model, area, 32)
    assert curve.area > 0
    back = curve.velocities[::-1]
    assert oracle.signed_area(back) == pytest.approx(-curve.area, rel=1e-15, abs=0)
    rates = lh.legendre.rate_batch(model, curve.velocities)
    assert oracle._mean_energy(lh.legendre.rate_batch(model, back)) == oracle._mean_energy(rates)


@pytest.mark.parametrize("model, area", SKEWED)
def test_one_kernel_call_per_evaluation(model, area, monkeypatch):
    # each trial point takes K, grad K and Hess K from one order-2 call; the
    # accepted trial's Hessian is the next Armijo slope's, so nothing else runs
    calls, evaluations = [], []
    real_kernel, real_area = lh.increments._derivatives, oracle._area_terms

    def kernel(model, u, order):
        calls.append((np.shape(u), order))
        return real_kernel(model, u, order)

    def area_terms(v):
        evaluations.append(1)
        return real_area(v)

    monkeypatch.setattr(lh.increments, "_derivatives", kernel)
    monkeypatch.setattr(oracle, "_area_terms", area_terms)
    monkeypatch.setattr(lh.increments, "cumulant_hessian", lambda *a: pytest.fail("cumulant_hessian ran"))
    lh.minimize_discrete(model, area, 16)
    # the start's one call at u = 0 (the linearized duals), then one per evaluation
    assert calls[0] == ((2,), 2)
    assert calls[1:] == [((16, 2), 2)] * len(evaluations)
    assert len(evaluations) > 1


@pytest.mark.parametrize(
    "model, area, n, energy, signed, digest",
    [
        pytest.param(lh.gaussian([0.0, 0.0], np.eye(2)), 1.0, 128, 3.1417482041118125,
                     0.9999993108754993,
                     "6264e43b6af67beca7635e5a1d32288555be93647625e03d5c8f65612c3a3e67", id="iso"),
        pytest.param(lh.gaussian([1.0, 0.0], np.eye(2)), 1.0, 128, 1.8317037622229102,
                     1.0000001098293225,
                     "75b99188ff4fead341c2006191304d484579768c9c2ea4a5aee946f6316cdcfd", id="drift"),
        pytest.param(lh.atoms([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [1 / 3] * 3), 0.2, 64,
                     0.6517534041758386, 0.19999978946473818,
                     "960d8c91d08c0803c499ec6e64f3c72e26e7849f4607039fe6b968795b852512",
                     id="triangle"),
    ],
)
def test_mirror_symmetric_outputs_pinned(model, area, n, energy, signed, digest):
    # on laws symmetric under y -> -y both signs gave the same bits and the
    # positive one was kept; solving that sign alone keeps every byte
    curve = lh.minimize_discrete(model, area, n)
    assert curve.energy == energy
    assert curve.area == signed
    assert hashlib.sha256(curve.velocities.tobytes()).hexdigest() == digest


@settings(max_examples=6, deadline=None, derandomize=True)
@given(s1=st.floats(0.75, 1.33), s2=st.floats(0.75, 1.33), phi=st.floats(0.0, 2 * math.pi),
       psi=st.floats(0.0, 2 * math.pi), u=st.floats(0.5, 1.2))
def test_linear_image_of_drift_bounded_by_its_rate(s1, s2, phi, psi, u):
    # J_{TX}(|det T| u) = J_X(u): the 32-segment curve is admissible, so its
    # energy lies above J (up to the area tolerance) and within 3% of it
    T = rotation(phi) @ np.diag([s1, s2]) @ rotation(psi)
    det = abs(np.linalg.det(T))
    model = lh.gaussian(T @ [1.0, 0.0], T @ T.T)
    area = det * u
    energy = lh.minimize_discrete(model, area, 32).energy
    j = drift_rate_reference(area / det)
    assert j <= energy * (1 + 1e-5)
    assert energy <= 1.03 * j


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
