import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldp_hull as lh
from ldp_hull import increments as inc
from ldp_hull import levelset, solver
from ldp_hull.errors import NoConvergenceError, NotFullPlaneError


@pytest.fixture(scope="module")
def wide():
    # K(u) = |u|^2 for covariance 2*I
    return lh.gaussian([0.0, 0.0], 2.0 * np.eye(2))


def test_level_radius_examples(iso, drift, wide):
    assert lh.level_radius(iso, 0.5, [0.3, -0.8]) == pytest.approx(1.0, abs=1e-12)
    assert lh.level_radius(drift, 1.5, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert lh.level_radius(iso, 2.0, [0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)


def test_level_radius_residual_and_errors(iso, graph_pm1):
    r = lh.level_radius(iso, 0.7, [0.6, 0.8])
    assert abs(lh.cumulant(iso, r * np.array([0.6, 0.8])) - 0.7) <= 1e-12
    with pytest.raises(ValueError):
        lh.level_radius(iso, 0.0, [1.0, 0.0])
    with pytest.raises(NotFullPlaneError):
        lh.level_radius(graph_pm1, 0.5, [1.0, 0.0])


def test_trace_level_octagon(iso):
    poly = lh.trace_level(iso, 0.5, m=8)
    assert poly.closed and len(poly.vertices) == 9
    np.testing.assert_allclose(np.linalg.norm(poly.vertices, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        lh.trace_level(iso, 0.5, m=7)


def test_trace_level_area_and_convexity(iso):
    poly = lh.trace_level(iso, 0.5, m=4096)
    assert lh.hull_area(poly) == pytest.approx(math.pi, abs=1e-5)
    # every traced vertex lies on its own hull
    hull = lh.convex_hull_vertices(poly.vertices)
    assert len(hull) == 4096
    residual = np.abs(lh.cumulant(iso, poly.vertices) - 0.5)
    assert residual.max() <= 1e-12


def test_sublevel_and_half_areas(iso, drift):
    assert lh.sublevel_area(iso, 0.5) == pytest.approx(math.pi, abs=1e-5)
    for ell in ([1.0, 0.0], [0.3, 0.9]):
        for tau in (+1, -1):
            assert lh.half_area(iso, 0.5, ell, tau) == pytest.approx(math.pi / 2, abs=1e-6)
    full = lh.sublevel_area(drift, 1.5)
    plus = lh.half_area(drift, 1.5, [0.0, 1.0], +1)
    minus = lh.half_area(drift, 1.5, [0.0, 1.0], -1)
    assert plus + minus == pytest.approx(full, rel=1e-6)


def test_arc_mass_analytic(iso, wide):
    assert lh.arc_mass(iso, 0.5, [1.0, 0.0], +1) == pytest.approx(math.pi, rel=1e-7)
    # |grad K| = 2 on the radius-1 circle of K(u) = |u|^2 at level 1
    assert lh.arc_mass(wide, 1.0, [0.0, 1.0], -1) == pytest.approx(math.pi / 2, rel=1e-7)


def test_arc_mass_symmetry(square_atoms):
    for ell in ([1.0, 0.0], [0.6, -0.8]):
        lp = lh.arc_mass(square_atoms, 0.7, ell, +1)
        lm = lh.arc_mass(square_atoms, 0.7, ell, -1)
        assert lp == pytest.approx(lm, abs=1e-8 * lp)


def test_coarea_identity_against_finite_differences(iso, drift):
    rng = np.random.default_rng(21)
    for _ in range(20):
        model = iso if rng.random() < 0.5 else drift
        alpha = rng.uniform(0.4, 2.5)
        theta = rng.uniform(0, 2 * math.pi)
        ell = np.array([math.cos(theta), math.sin(theta)])
        tau = +1 if rng.random() < 0.5 else -1
        lam = lh.half_area_derivative(model, alpha, ell, tau)
        d = 1e-4
        fd = (
            lh.half_area(model, alpha + d, ell, tau, rtol=1e-9)
            - lh.half_area(model, alpha - d, ell, tau, rtol=1e-9)
        ) / (2 * d)
        assert fd == pytest.approx(lam, rel=1e-3)


def test_full_level_coarea(iso):
    # E(alpha) = 2 pi alpha for the standard Gaussian: dE/dalpha = 2 pi
    for alpha in (0.5, 1.0, 2.0):
        lam_full = lh.arc_mass(iso, alpha, [1.0, 0.0], +1) + lh.arc_mass(
            iso, alpha, [1.0, 0.0], -1
        )
        assert lam_full == pytest.approx(2 * math.pi, rel=1e-7)


_unit_interval = st.floats(-1.0, 1.0)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    eigs=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    phi=st.floats(0.0, math.pi),
    mean=st.tuples(_unit_interval, _unit_interval),
    alpha=st.floats(0.2, 3.0),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_gaussian_level_set_closed_forms(eigs, phi, mean, alpha, theta):
    # K(u) = mu.u + u.Cu/2: {K <= alpha} is an ellipse of area
    # 2 pi (alpha + mu.C^-1.mu/2)/sqrt(det C), so its coarea mass is 2 pi/sqrt(det C)
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    cov = rot @ np.diag(eigs) @ rot.T
    mu = np.array(mean)
    model = lh.gaussian(mu, cov)
    root_det = math.sqrt(np.linalg.det(cov))
    area = 2 * math.pi * (alpha + 0.5 * mu @ np.linalg.solve(cov, mu)) / root_det
    ell = [math.cos(theta), math.sin(theta)]
    assert lh.sublevel_area(model, alpha) == pytest.approx(area, rel=1e-6)
    halves = [lh.half_area(model, alpha, ell, tau) for tau in (+1, -1)]
    assert sum(halves) == pytest.approx(area, rel=1e-6)
    masses = [lh.arc_mass(model, alpha, ell, tau) for tau in (+1, -1)]
    assert sum(masses) == pytest.approx(2 * math.pi / root_det, rel=1e-6)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(alpha=st.floats(0.3, 4.0), theta=st.floats(0.0, 2 * math.pi), tau=st.sampled_from([1, -1]))
def test_ring_slope_is_root_two_arc_slopes_on_square_law(square_atoms, alpha, theta, tau):
    # central symmetry: the ring has twice the area and twice the mass of each half
    ell = np.array([math.cos(theta), math.sin(theta)])
    ring = solver._LevelSlope(square_atoms, levelset._ring_angles, solver._FULL_M)
    arc = solver._LevelSlope(
        square_atoms, lambda m: levelset._arc_angles(ell, tau, m), solver._ARC_M
    )
    assert ring(alpha) == pytest.approx(math.sqrt(2) * arc(alpha), rel=1e-10)


def test_refinement_cap_raises(iso, monkeypatch):
    monkeypatch.setattr(levelset, "_M_CAP", 1024)
    with pytest.raises(NoConvergenceError):
        lh.sublevel_area(iso, 0.5, rtol=1e-15)
    with pytest.raises(NoConvergenceError):
        lh.half_area(iso, 0.5, [1.0, 0.0], +1, rtol=1e-15)
    with pytest.raises(NoConvergenceError):
        lh.arc_mass(iso, 0.5, [1.0, 0.0], -1, rtol=1e-15)
    with pytest.raises(NoConvergenceError):
        lh.arc_parametrization(iso, 0.5, [1.0, 0.0], +1, n=64)
    # below the cap the same calls settle
    assert lh.sublevel_area(iso, 0.5, rtol=1e-4) == pytest.approx(math.pi, rel=1e-4)


def test_arc_parametrization_circle(iso):
    arc = lh.arc_parametrization(iso, 0.5, [1.0, 0.0], +1, n=256)
    np.testing.assert_allclose(arc.samples[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(arc.samples[-1], [-1.0, 0.0], atol=1e-12)
    mid = arc.samples[len(arc.samples) // 2]
    np.testing.assert_allclose(mid, [0.0, 1.0], atol=1e-9)
    assert arc.mass == pytest.approx(math.pi, rel=1e-6)
    speeds = np.linalg.norm(arc.derivs, axis=1)
    np.testing.assert_allclose(speeds, math.pi, atol=1e-4)


def test_arc_parametrization_invariants(drift):
    alpha, ell, tau = 1.5, np.array([0.0, 1.0]), -1
    arc = lh.arc_parametrization(drift, alpha, ell, tau, n=512)
    # on-level residual at every sample
    assert np.max(np.abs(lh.cumulant(drift, arc.samples) - alpha)) <= 1e-12 * max(1, alpha)
    # orientation of g x g'
    crosses = arc.samples[:, 0] * arc.derivs[:, 1] - arc.samples[:, 1] * arc.derivs[:, 0]
    assert np.all(np.sign(crosses) == tau)
    # derivative samples consistent with finite differences (second order)
    dt = arc.times[1] - arc.times[0]
    fd = (arc.samples[1:] - arc.samples[:-1]) / dt
    mid = 0.5 * (arc.derivs[1:] + arc.derivs[:-1])
    assert np.max(np.linalg.norm(fd - mid, axis=1)) <= 20.0 * dt * dt * arc.mass
    # speed law |g'| = mass * |grad K(g)| holds by construction; check against
    # the finite-difference speeds to validate the parametrization itself
    gn = np.linalg.norm(inc.cumulant_gradient(drift, arc.samples), axis=1)
    fd_speed = np.linalg.norm(fd, axis=1)
    law = arc.mass * 0.5 * (gn[1:] + gn[:-1])
    assert np.max(np.abs(fd_speed / law - 1.0)) <= 1e-4


def test_cumulative_mass_is_linear(drift):
    arc = lh.arc_parametrization(drift, 1.0, [0.0, 1.0], +1, n=128)
    # measure the mass of each block [g(t_i), g(t_{i+1})] by refined quadrature
    theta = np.arctan2(arc.samples[:, 1], arc.samples[:, 0])
    theta = np.unwrap(theta)
    total = 0.0
    masses = []
    for a, b in zip(theta[:-1], theta[1:]):
        angles = np.linspace(a, b, 33)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        radii = levelset._ray_radii(drift, 1.0, dirs)
        pts = dirs * radii[:, None]
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        f = 1.0 / np.linalg.norm(inc.cumulant_gradient(drift, pts), axis=1)
        masses.append(float(np.sum(0.5 * (f[:-1] + f[1:]) * seg)))
    masses = np.array(masses)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    straight = np.linspace(0.0, cum[-1], len(cum))
    assert np.max(np.abs(cum - straight)) <= 1e-6 * arc.mass


def test_sqrt_area_strictly_concave(iso, square_atoms):
    for model in (iso, square_atoms):
        alphas = np.linspace(0.5, 3.0, 11)
        roots = np.array([math.sqrt(lh.sublevel_area(model, a)) for a in alphas])
        slopes = np.diff(roots) / np.diff(alphas)
        assert np.all(np.diff(slopes) < -1e-8)
