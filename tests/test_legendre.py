import math

import numpy as np
import pytest

import ldp_hull as lh
from ldp_hull import increments as inc
from ldp_hull import legendre
from ldp_hull.errors import NotFullPlaneError, OutsideDomainError


def half_circle_trajectory(speed: float, n: int = 512) -> lh.Trajectory:
    # constant-speed half circle from the origin, radius speed/pi
    t = np.linspace(0.0, 1.0, n + 1)
    r = speed / math.pi
    pts = r * np.column_stack([np.sin(math.pi * t), 1.0 - np.cos(math.pi * t)])
    pts[0] = 0.0
    der = speed * np.column_stack([np.cos(math.pi * t), np.sin(math.pi * t)])
    return lh.Trajectory(t, pts, der)


def test_rate_gaussian_self_conjugate(iso):
    assert lh.rate(iso, [1.0, 0.0]) == pytest.approx(0.5, rel=1e-12)


def test_rate_zero_at_drift(iso, drift, triangle_atoms):
    for m in (iso, drift, triangle_atoms):
        assert lh.rate(m, lh.drift(m)) == 0.0
        np.testing.assert_array_equal(lh.rate_gradient(m, lh.drift(m)), [0.0, 0.0])


def test_rate_gradient_inverts_shifted_gaussian(drift):
    np.testing.assert_allclose(lh.rate_gradient(drift, [2.0, 1.0]), [1.0, 1.0], atol=1e-12)


def test_rate_needs_full_plane(graph_pm1, two_atoms):
    for m in (graph_pm1, two_atoms):
        with pytest.raises(NotFullPlaneError):
            lh.rate(m, [0.5, 0.5])


def test_rate_infinite_outside_atom_hull(triangle_atoms):
    assert lh.rate(triangle_atoms, [5.0, 0.0]) == math.inf
    with pytest.raises(OutsideDomainError):
        lh.rate_gradient(triangle_atoms, [5.0, 0.0])


def test_rate_1d_gaussian(graph_gauss):
    assert lh.rate_1d(graph_gauss, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert lh.rate_1d(graph_gauss, 0.0) == 0.0


def test_rate_1d_binary_closed_form(graph_pm1):
    v = 0.5
    closed = 0.5 * ((1 + v) * math.log(1 + v) + (1 - v) * math.log(1 - v))
    got = lh.rate_1d(graph_pm1, v)
    assert got == pytest.approx(closed, rel=1e-10)
    assert got == pytest.approx(0.130812, abs=5e-7)
    # independent grid supremum of u*v - log cosh(u)
    u = np.linspace(-10, 10, 200001)
    sup = np.max(u * v - np.logaddexp(u, -u) + math.log(2.0))
    assert got == pytest.approx(float(sup), abs=1e-6)


def test_rate_1d_boundary_and_outside(graph_pm1):
    assert lh.rate_1d(graph_pm1, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert lh.rate_1d(graph_pm1, -1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    with pytest.raises(OutsideDomainError):
        lh.rate_1d(graph_pm1, 1.0 + 1e-6)
    with pytest.raises(OutsideDomainError):
        lh.rate_1d_gradient(graph_pm1, 1.0)


def test_rate_1d_gradient_inverts(graph_pm1, graph_gauss):
    for m, vs in ((graph_pm1, [-0.9, -0.3, 0.4, 0.99]), (graph_gauss, [-2.0, 0.3, 4.0])):
        y = m.kind.y_model
        for v in vs:
            w = lh.rate_1d_gradient(m, v)
            from ldp_hull.increments import y_cumulant_d1

            assert float(y_cumulant_d1(y, np.array([w]))[0]) == pytest.approx(v, abs=1e-11)


def scalar_y_gradient(y, v: float) -> float:
    """Reference: the one-entry Newton/bisection solve of K_y'(w) = v."""
    d1 = lambda w: float(inc.y_cumulant_d1(y, np.array([w]))[0])
    lo, hi = -1.0, 1.0
    while d1(lo) >= v:
        lo *= 2.0
    while d1(hi) <= v:
        hi *= 2.0
    w = 0.5 * (lo + hi)
    for _ in range(200):
        d = d1(w)
        if d > v:
            hi = w
        else:
            lo = w
        cand = w + (v - d) / max(float(inc.y_cumulant_d2(y, np.array([w]))[0]), 1e-300)
        w = cand if lo < cand < hi else 0.5 * (lo + hi)
        if abs(d - v) <= 1e-14 * (1.0 + abs(v)) and hi - lo <= 1e-12 * (1.0 + abs(w)):
            break
    return w


def scalar_rate_1d(y, v: float) -> float:
    """Reference: one rate value per call, endpoint atoms by their log-mass."""
    tol = 1e-12 * max(1.0, float(np.abs(y.points).max()))
    for end in (y.points.min(), y.points.max()):
        if abs(v - end) <= tol:
            return -math.log(float(y.probs[y.points == end][0]))
    w = scalar_y_gradient(y, v)
    return max(0.0, w * v - float(inc.y_cumulant(y, np.array([w]))[0]))


def test_batched_rate_1d_matches_scalar_loop(graph_pm1):
    skewed = lh.graph1d(1.0, lh.atoms1d([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]))
    for model, a in ((graph_pm1, 0.2), (graph_pm1, 0.249), (skewed, 0.3)):
        y = model.kind.y_model
        v = lh.graph_trajectory(model, a).plus.derivs[::8, 1]  # ends included
        i_ref = np.array([scalar_rate_1d(y, float(x)) for x in v])
        np.testing.assert_allclose(lh.rate_1d(model, v), i_ref, rtol=0, atol=1e-12)
        inner = v[(v > y.points.min() + 1e-9) & (v < y.points.max() - 1e-9)]
        w_ref = np.array([scalar_y_gradient(y, float(x)) for x in inner])
        np.testing.assert_allclose(lh.rate_1d_gradient(model, inner), w_ref, rtol=1e-12, atol=1e-12)


def test_fenchel_young(iso, drift, square_atoms):
    rng = np.random.default_rng(3)
    for model in (iso, drift, square_atoms):
        mu = lh.drift(model)
        # stay inside the effective domain for the bounded-support law
        radius = 1.5 if model is square_atoms else 3.0
        for _ in range(200):
            u = rng.uniform(-3, 3, size=2)
            v = mu + rng.uniform(-1, 1, size=2) * radius / math.sqrt(2.0)
            iv = lh.rate(model, v)
            ku = lh.cumulant(model, u)
            assert iv + ku >= float(u @ v) - 1e-10
            ustar = lh.rate_gradient(model, v)
            gap = iv + lh.cumulant(model, ustar) - float(ustar @ v)
            assert abs(gap) <= 1e-8


def test_gradient_inverse_identity(iso, drift, square_atoms):
    rng = np.random.default_rng(4)
    for model in (iso, drift, square_atoms):
        mu = lh.drift(model)
        radius = 1.5 if model is square_atoms else 3.0
        for _ in range(200):
            v = mu + rng.uniform(-1, 1, size=2) * radius / math.sqrt(2.0)
            u = lh.rate_gradient(model, v)
            np.testing.assert_allclose(lh.cumulant_gradient(model, u), v, atol=1e-8)


def test_strict_convexity_margin(iso, drift, square_atoms):
    # midpoint gap >= |v1-v2|^2 / (16 * Lambda), Lambda sampled along the
    # segment as the largest cumulant-Hessian eigenvalue at the pulled-back
    # dual points (rate Hessian = inverse cumulant Hessian, halved for safety)
    rng = np.random.default_rng(5)
    for model in (iso, drift, square_atoms):
        mu = lh.drift(model)
        radius = 1.5 if model is square_atoms else 3.0
        count = 0
        while count < 50:
            v1, v2 = mu + rng.uniform(-1, 1, size=(2, 2)) * radius / math.sqrt(2.0)
            if np.linalg.norm(v1 - v2) < 0.1:
                continue
            count += 1
            seg = np.linspace(0, 1, 9)[:, None]
            vs = v1 + seg * (v2 - v1)
            lam = 0.0
            for v in vs:
                u = lh.rate_gradient(model, v)
                lam = max(lam, float(np.linalg.eigvalsh(lh.cumulant_hessian(model, u)).max()))
            delta = float(np.sum((v1 - v2) ** 2)) / (16.0 * lam)
            gap = 0.5 * lh.rate(model, v1) + 0.5 * lh.rate(model, v2) - lh.rate(
                model, 0.5 * (v1 + v2)
            )
            assert gap >= delta > 0.0


def test_energy_drift_line_is_zero(drift):
    t = np.linspace(0, 1, 257)
    mu = lh.drift(drift)
    traj = lh.Trajectory(t, np.outer(t, mu), np.tile(mu, (len(t), 1)))
    assert lh.energy(drift, traj) <= 1e-12


def test_energy_half_circle(iso):
    c = 1.7
    traj = half_circle_trajectory(c)
    assert lh.energy(iso, traj) == pytest.approx(c * c / 2.0, rel=1e-12)
    assert traj.energy == pytest.approx(c * c / 2.0, rel=1e-12)


def test_energy_two_speed_piecewise(drift):
    # first half at rest, second half at twice the drift:
    # analytic two-piece value 0.5*I(0) + 0.5*I(2 mu) = |mu|^2 / 2
    mu = lh.drift(drift)
    n = 4096
    t = np.linspace(0, 1, n + 1)
    der = np.where(t[:, None] < 0.5, 0.0, 2.0 * mu)
    pts = np.vstack([np.zeros(2), np.cumsum(0.5 * (der[1:] + der[:-1]) * np.diff(t)[:, None], axis=0)])
    traj = lh.Trajectory(t, pts, der)
    expected = 0.5 * lh.rate(drift, [0.0, 0.0]) + 0.5 * lh.rate(drift, 2.0 * mu)
    assert expected == pytest.approx(float(mu @ mu) / 2.0, rel=1e-12)
    # the jump in the derivative limits the quadrature to first order
    assert lh.energy(drift, traj) == pytest.approx(expected, rel=1e-2)


def test_energy_jensen_lower_bound(iso, drift):
    rng = np.random.default_rng(6)
    t = np.linspace(0, 1, 513)
    for model in (iso, drift):
        for _ in range(20):
            a, b, w = rng.uniform(-1.5, 1.5, size=(3, 2))
            pts = np.outer(t, a) + np.outer(t * t, b) + 0.3 * np.outer(np.sin(2 * np.pi * t), w)
            der = a + 2.0 * np.outer(t, b) + 0.6 * np.pi * np.outer(np.cos(2 * np.pi * t), w)
            traj = lh.Trajectory(t, pts, der)
            assert lh.energy(model, traj) >= lh.rate(model, traj.endpoint) - 1e-8


def test_trajectory_midpoint_consistency():
    traj = half_circle_trajectory(2.0, n=256)
    dt = np.diff(traj.times)[:, None]
    gap = traj.points[1:] - traj.points[:-1] - 0.5 * (traj.derivs[1:] + traj.derivs[:-1]) * dt
    # second-order consistency of the derivative samples
    assert np.max(np.linalg.norm(gap, axis=1)) <= 5.0 * float(dt[0, 0]) ** 2


def test_trajectory_validation():
    t = np.linspace(0, 1, 5)
    pts = np.zeros((5, 2))
    with pytest.raises(ValueError):
        lh.Trajectory(t, pts + 1.0, pts)  # does not start at the origin
    with pytest.raises(ValueError):
        lh.Trajectory(t[::-1], pts, pts)  # decreasing times
