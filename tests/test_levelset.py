import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.optimize import brentq

import ldp_hull as lh
from ldp_hull import increments as inc
from ldp_hull import levelset
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
    def slope(rule):
        area, mass = levelset._quadrature(square_atoms, alpha, rule)[:2]
        return mass / (2.0 * math.sqrt(area))

    ring = slope(levelset._ring_rule(square_atoms, 256))
    arc = slope(levelset._arc_rule(square_atoms, ell, tau, 256))
    assert ring == pytest.approx(math.sqrt(2) * arc, rel=1e-10)


def test_refinement_cap_raises(triangle_atoms, monkeypatch):
    # an atom law's polar integrands are not trigonometric polynomials, so 64
    # nodes cannot meet rtol = 1e-15; on a Gaussian the ring rule is exact at
    # every even node count (the circle) or to rounding (a drifted law)
    ref = lh.sublevel_area(triangle_atoms, 0.5)
    monkeypatch.setattr(levelset, "_N_CAP", 64)
    with pytest.raises(NoConvergenceError):
        lh.sublevel_area(triangle_atoms, 0.5, rtol=1e-15)
    with pytest.raises(NoConvergenceError):
        lh.half_area(triangle_atoms, 0.5, [1.0, 0.0], +1, rtol=1e-15)
    with pytest.raises(NoConvergenceError):
        lh.arc_mass(triangle_atoms, 0.5, [1.0, 0.0], -1, rtol=1e-15)
    with pytest.raises(NoConvergenceError):
        lh.arc_parametrization(triangle_atoms, 0.5, [1.0, 0.0], +1, n=64, rtol=1e-15)
    # below the cap the same calls settle
    assert lh.sublevel_area(triangle_atoms, 0.5, rtol=1e-4) == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize("kind", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 32, 33, 1024, 8192])
def test_dct_matches_scipy(n, kind):
    # unnormalized DCT-II and DCT-III in scipy's convention, odd n included;
    # inputs are Gaussian noise and the Fejer moments the rule transforms
    moments = np.zeros(n)
    moments[::2] = 2.0 / (1.0 - np.arange(0, n, 2) ** 2.0)
    for x in (np.random.default_rng(n).standard_normal(n), moments):
        ref = dct(x, type=kind)
        assert np.max(np.abs(levelset._dct(x, kind) - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 7, 32, 8192])
def test_fejer_rule_integrates_chebyshev_polynomials(n):
    # Fejer's first rule is interpolatory on the n Chebyshev points: exact for
    # every T_j with j < n, whose integral is 2/(1 - j^2) for even j, 0 for odd j
    x, w = levelset._fejer(n)
    assert np.all(w > 0.0)
    assert w.sum() == pytest.approx(2.0, abs=1e-14)
    odd = 2 * np.arange(n) + 1
    np.testing.assert_allclose(x, np.cos(np.pi * odd / (2 * n)), rtol=0, atol=1e-15)
    for j0 in range(0, n, 512):
        j = np.arange(j0, min(n, j0 + 512))
        exact = np.zeros(len(j))
        even = j % 2 == 0
        exact[even] = 2.0 / (1.0 - j[even] ** 2.0)
        # T_j(x_k) = cos(pi j (2k + 1)/(2n)), the angle reduced exactly mod 2 pi
        T = np.cos(np.pi / (2 * n) * (np.outer(j, odd) % (4 * n)))
        np.testing.assert_allclose(T @ w, exact, rtol=0, atol=1e-14)


def test_arc_parametrization_carries_the_settled_area_and_mass(drift):
    # the arc's mass and area are those of arc_mass and half_area at its rtol
    ell, tau = [0.0, 1.0], -1
    arc = lh.arc_parametrization(drift, 1.5, ell, tau, n=64, rtol=1e-12)
    assert arc.mass == lh.arc_mass(drift, 1.5, ell, tau, rtol=1e-12)
    assert arc.area == lh.half_area(drift, 1.5, ell, tau, rtol=1e-12)


def test_arc_parametrization_solves_each_ray_once(drift, monkeypatch):
    # the settle's doubling rules, then the n + 1 samples: the mass series comes
    # from the settled rule's density, with no second solve of its rays
    sizes, ray_radii = [], levelset._ray_radii
    monkeypatch.setattr(
        levelset, "_ray_radii", lambda m, a, d, r0=None: sizes.append(len(d)) or ray_radii(m, a, d, r0)
    )
    lh.arc_parametrization(drift, 1.5, [0.0, 1.0], -1, n=64)
    assert sizes[:-1] == [32 * 2 ** k for k in range(len(sizes) - 1)] and len(sizes) >= 3
    assert sizes[-1] == 65


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
        radii, _ = levelset._ray_radii(drift, 1.0, dirs)
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


@st.composite
def _full_plane_laws(draw):
    """A Gaussian with drift, or atoms at one point per angular sector of width
    2 pi/k with k >= 4, offset by less than half a sector: every gap between
    neighbouring atoms stays below pi, so the origin is interior to their hull."""
    if draw(st.booleans()):
        phi = draw(st.floats(0.0, math.pi))
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        cov = rot @ np.diag([draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))]) @ rot.T
        rho, psi = draw(st.floats(0.2, 1.5)), draw(st.floats(0.0, 2 * math.pi))
        return lh.gaussian([rho * math.cos(psi), rho * math.sin(psi)], cov)
    k = draw(st.integers(4, 6))
    angles = [2 * math.pi * i / k + draw(st.floats(0.0, 0.99 * math.pi / k)) for i in range(k)]
    radii = [draw(st.floats(0.5, 2.5)) for _ in range(k)]
    weights = np.array([draw(st.floats(0.1, 1.0)) for _ in range(k)])
    points = [[r * math.cos(t), r * math.sin(t)] for r, t in zip(radii, angles)]
    return lh.atoms(points, weights / weights.sum())


@settings(max_examples=12, deadline=None, derandomize=True)
@given(model=_full_plane_laws(), alpha=st.floats(0.05, 20.0), shift=st.integers(0, 24))
def test_ray_radii_cold_and_warm(model, alpha, shift):
    assert lh.support_class(model).tag == "full_plane"
    thetas = np.linspace(0.0, 2 * math.pi, 24, endpoint=False) + 0.1
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    mu = lh.drift(model)
    if np.any(mu):
        dirs = np.vstack([dirs, -mu / np.linalg.norm(mu)])  # the anti-drift ray
    tol = levelset._RAY_TOL * max(1.0, alpha)
    cold, _ = levelset._ray_radii(model, alpha, dirs)
    assert np.all(np.abs(lh.cumulant(model, dirs * cold[:, None]) - alpha) <= tol)
    factors = np.roll(np.geomspace(0.1, 10.0, len(dirs)), shift)
    warm, _ = levelset._ray_radii(model, alpha, dirs, r0=factors * cold)
    assert np.all(np.abs(lh.cumulant(model, dirs * warm[:, None]) - alpha) <= tol)
    np.testing.assert_allclose(warm, cold, rtol=1e-9)
    # an exhausted round budget must raise, not return
    with patch.object(inc, "_ROOT_ROUNDS", 3), pytest.raises(NoConvergenceError):
        levelset._ray_radii(model, alpha, dirs)



@pytest.mark.parametrize(
    "model",
    [
        lh.gaussian([1.0, 0.3], [[1.0, 0.4], [0.4, 0.6]]),
        lh.atoms([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [1 / 3] * 3),
        lh.atoms([[2.0, 2.0], [-2.0, 2.0], [2.0, -2.0], [-2.0, -2.0]], [0.25] * 4, 1e-2),
    ],
    ids=["gauss", "triangle", "square-eps1e-2"],
)
def test_mass_density_reuses_the_last_ray_slope(model):
    # the last Newton round evaluates every ray at the radius it returns, so the
    # slope it leaves is d . grad K(r d) at the returned radii, bit for bit
    rule = levelset._ring_rule(model, 64)
    dirs, jac = rule[:2]
    cold = levelset._quadrature(model, 0.7, rule)[2]
    for r0 in (None, 1.3 * cold, np.roll(cold, 5)):
        _, _, r, density, _ = levelset._quadrature(model, 0.7, rule, r0)
        g = inc.cumulant_gradient(model, dirs * r[:, None])
        assert density.tobytes() == (jac * (r / np.einsum("ij,ij->i", dirs, g))).tobytes()

def test_ray_roots_pinned_between_adjacent_floats():
    # N((1, 0), 0.01 I): K = u1 + |u|^2/200; on some rays the residual at the
    # two floats around the root is one ulp of the cancelling terms, above
    # the ray tolerance
    model = lh.gaussian([1.0, 0.0], 0.01 * np.eye(2))
    v = levelset.trace_level(model, 1.0, 64).vertices[:-1]
    r = np.linalg.norm(v, axis=1)
    d1 = v[:, 0] / r
    np.testing.assert_allclose(r, (np.sqrt(d1 * d1 + 0.02) - d1) / 0.01, rtol=1e-13)


def test_ray_radius_against_the_drift(drift):
    # K(-r, 0) = r^2/2 - r: the slope vanishes at r = 1, the cold start
    for alpha in (0.1, 1.0, 10.0):
        root = 1.0 + math.sqrt(1.0 + 2.0 * alpha)
        for r0 in (None, np.full(1, 0.5 * root)):
            r, _ = levelset._ray_radii(drift, alpha, np.array([[-1.0, 0.0]]), r0=r0)
            assert r[0] == pytest.approx(root, rel=1e-12)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), gaussian=st.booleans(), alpha=st.floats(0.2, 3.0))
def test_chord_refinement_matches_brentq(seed, gaussian, alpha):
    # a drawn law that is full-plane and not centrally symmetric: 4-6 atoms, or
    # a drifted Gaussian; the batched Newton refinement of the 256-angle scan
    # finds the chords brentq finds on the same radius gap
    rng = np.random.default_rng(seed)
    if gaussian:
        m = rng.normal(size=(2, 2))
        model = lh.gaussian(rng.normal(size=2), m @ m.T + 0.2 * np.eye(2))
    else:
        k = rng.integers(4, 7)
        model = lh.atoms(rng.normal(size=(k, 2)) * 1.5, rng.dirichlet(2.0 * np.ones(k)))
    assume(lh.support_class(model).tag == "full_plane" and not lh.is_centrally_symmetric(model))
    thetas = np.linspace(0.0, np.pi, 256, endpoint=False)
    gaps = levelset._radius_gap(model, alpha, thetas)[0]
    scale = 1e-12 * max(1.0, float(np.max(np.abs(gaps))))
    gap = lambda t: levelset._radius_gap(model, alpha, np.array([t]))[0][0]
    ref = [t for t, g in zip(thetas, gaps) if abs(g) <= scale]
    for lo, hi, g_lo, g_hi in zip(thetas, np.append(thetas[1:], np.pi), gaps, np.append(gaps[1:], -gaps[0])):
        if abs(g_lo) > scale and g_lo * g_hi < 0.0:
            ref.append(brentq(gap, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps))
    found = lh.candidate_directions(model, alpha, 256)
    got = levelset._dedup_angles([math.atan2(e[1], e[0]) for e, tau in found if tau == +1])
    ref = levelset._dedup_angles(ref)
    assert len(got) == len(ref) >= 1
    for g, r in zip(got, ref):
        assert abs(math.remainder(g - r, math.pi)) <= 1e-12, (got, ref)
