import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import ldp_hull as lh
from ldp_hull import cli, levelset, solver
from ldp_hull import increments as inc
from ldp_hull.errors import (
    NoCandidateError,
    NoConvergenceError,
    NotFullPlaneError,
    NotSymmetricError,
    OutOfRangeError,
)


def drift_phi(a: float) -> float:
    """Independent scalar bisection of (2 phi - sin 2 phi) / (8 phi^2 cos^2 phi) = a."""
    f = lambda p: (2 * p - math.sin(2 * p)) / (8 * p * p * math.cos(p) ** 2) - a
    lo, hi = 1e-9, math.pi / 2 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def drift_rate_reference(a: float) -> float:
    phi = drift_phi(a)
    return 4 * a * phi - 0.5 * math.tan(phi) ** 2


def test_symmetric_level_isotropic(iso):
    # E(alpha) = 2 pi alpha, so the level equation gives alpha = pi * a
    for a in (0.3, 1.0, 2.0):
        assert lh.symmetric_level(iso, a) == pytest.approx(math.pi * a, rel=1e-6)


def test_symmetric_level_wide_gaussian():
    # K(u) = |u|^2: E(alpha) = pi * alpha, alpha = pi * a / 2
    wide = lh.gaussian([0, 0], 2.0 * np.eye(2))
    assert lh.symmetric_level(wide, 1.0) == pytest.approx(math.pi / 2, rel=1e-6)


def test_symmetric_level_monotone_in_area(iso):
    grid = [lh.symmetric_level(iso, a) for a in (0.01, 0.1, 0.5, 1.0)]
    assert all(x < y for x, y in zip(grid, grid[1:]))
    assert grid[0] < 0.1


def test_symmetric_level_errors(drift, square_atoms):
    with pytest.raises(NotSymmetricError):
        lh.symmetric_level(drift, 1.0)
    # bounded support: hull of {max_i u.p_i <= 1} is the diamond |x|+|y| <= 1/2
    # of area 1/2, so the attainable range ends at a_max = 1/(2 * 1/2) = 1;
    # the carried value is a quadrature-limited estimate (near-polygonal level
    # sets bias the arc mass at first order in the angular step)
    with pytest.raises(OutOfRangeError) as exc:
        lh.symmetric_level(square_atoms, 2.0)
    assert exc.value.a_max == pytest.approx(1.0, rel=1e-2)


def test_candidate_directions_symmetric_sentinel(iso, square_atoms):
    assert lh.candidate_directions(iso, 1.0) is lh.ALL_DIRECTIONS
    assert lh.candidate_directions(square_atoms, 1.0) is lh.ALL_DIRECTIONS


def test_candidate_directions_drifted(drift):
    found = lh.candidate_directions(drift, 1.0, k=256)
    assert len(found) == 4
    for ell, tau in found:
        assert abs(ell[0]) <= 1e-9 and abs(abs(ell[1]) - 1.0) <= 1e-9
        assert tau in (+1, -1)
    ells = sorted(round(e[1], 6) for e, _ in found)
    assert ells == [-1.0, -1.0, 1.0, 1.0]


def test_candidate_directions_resolution_stable(drift):
    a = lh.candidate_directions(drift, 0.8, k=64)
    b = lh.candidate_directions(drift, 0.8, k=512)
    ta = sorted(math.atan2(e[1], e[0]) % math.pi for e, _ in a)
    tb = sorted(math.atan2(e[1], e[0]) % math.pi for e, _ in b)
    assert len(ta) == len(tb)
    assert np.allclose(ta, tb, atol=1e-6)


def test_build_trajectory_geometry(iso):
    alpha = math.pi  # the level for a = 1
    traj = lh.build_trajectory(iso, alpha, [1.0, 0.0], +1, n=512)
    np.testing.assert_array_equal(traj.points[0], [0.0, 0.0])
    # h' is grad K on the arc, perpendicular to the arc tangent
    arc = lh.arc_parametrization(iso, alpha, [1.0, 0.0], +1, n=512)
    dots = np.einsum("ij,ij->i", traj.derivs, arc.derivs)
    scale = np.linalg.norm(traj.derivs, axis=1) * np.linalg.norm(arc.derivs, axis=1)
    assert np.max(np.abs(dots) / scale) <= 1e-12
    assert lh.hull_area(traj.points) == pytest.approx(1.0, rel=1e-4)


def test_rate_of_area_isotropic_scaling(iso):
    for a in (0.25, 2.0):
        res = lh.rate_of_area(iso, a)
        assert res.rate == pytest.approx(math.pi * a, rel=1e-4)
        assert res.rate == min(c.energy for c in res.candidates)


def test_rate_of_area_orientation_symmetry(iso, square_atoms):
    for model, a in ((iso, 1.0), (square_atoms, 0.2)):
        res = lh.rate_of_area(model, a)
        taus = sorted(c.tau for c in res.candidates)
        assert taus == [-1, 1]
        e = [c.energy for c in res.candidates]
        assert abs(e[0] - e[1]) <= 1e-8 * max(e)


def test_rate_of_area_drifted_candidates(drift):
    res = lh.rate_of_area(drift, 1.0)
    assert res.rate == pytest.approx(drift_rate_reference(1.0), rel=1e-3)
    winners = [c for c in res.candidates if c.energy <= res.rate * (1 + 1e-9)]
    assert len(winners) == 2
    # the winning candidates use the smaller of the two arcs
    for c in winners:
        small = lh.half_area(res.model, c.alpha, c.ell, c.tau)
        assert small < 0.5 * lh.sublevel_area(res.model, c.alpha)
    # every trajectory meets the area constraint
    for c in res.candidates:
        assert lh.hull_area(c.trajectory.points) == pytest.approx(res.area, rel=1e-4)


@pytest.mark.parametrize(
    "law, a, rel",
    [("drift", 1e-5, 1e-5), ("drift", 1e-6, 1e-3), ("triangle_atoms", 1e-6, 1e-3)],
    ids=["drift-a1e-5", "drift-a1e-6", "triangle-a1e-6"],
)
def test_rate_of_area_at_tiny_areas(request, law, a, rel):
    # J(a) ~ 6 a^2/(|mu|^2 var_perp) as a -> 0: 6 a^2 for N((1, 0), I), and 81 a^2
    # for the triangle law (mu = (1/3, 0), var_perp = 2/3); the drifted law also
    # has its closed form.  The ray tolerance, absolute in the level, bounds the
    # accuracy here
    model = request.getfixturevalue(law)
    ref = drift_rate_reference(a) if law == "drift" else 81.0 * a * a
    assert lh.rate_of_area(model, a).rate == pytest.approx(ref, rel=rel)


@pytest.mark.parametrize("law, a", [("drift", 1.0), ("triangle_atoms", 0.2), ("iso", 1.0)])
def test_one_mass_per_solved_arc(request, law, a):
    # the multiplier, the trajectory scale and the energy 2A/M - alpha come from
    # one settle of the arc's area A and mass M; a derived candidate carries its
    # solved partner's values (ell in the lower half-plane, or the tau = -1 arc
    # of a centrally symmetric law, are the solved ones)
    model = request.getfixturevalue(law)
    res = lh.rate_of_area(model, a)
    symmetric = lh.is_centrally_symmetric(model)
    solved = [c for c in res.candidates if (c.tau == -1 if symmetric else c.ell[1] < 0.0)]
    assert solved
    for c in solved:
        rtol = levelset._settle_rtol(c.alpha)
        mass = lh.arc_mass(model, c.alpha, c.ell, c.tau, rtol=rtol)
        area = lh.half_area(model, c.alpha, c.ell, c.tau, rtol=rtol)
        assert c.multiplier == c.tau * mass
        assert c.energy == 2.0 * area / mass - c.alpha


@pytest.mark.parametrize("law, a, eps", [("iso", 1.0, None), ("square_atoms", 0.2, 1e-2)])
def test_centrally_symmetric_law_solves_one_arc(request, monkeypatch, law, a, eps):
    # the (ell, +1) half is the point reflection of the solved (ell, -1) arc
    arcs, parametrize = [], solver.arc_parametrization
    monkeypatch.setattr(
        solver, "arc_parametrization", lambda *args, **kw: arcs.append(args[3]) or parametrize(*args, **kw)
    )
    res = lh.rate_of_area(request.getfixturevalue(law), a, eps=eps)
    assert arcs == [-1]
    assert [c.tau for c in res.candidates] == [-1, +1]


@pytest.mark.parametrize("law", ["drift", "triangle_atoms"])
def test_candidate_derivatives_are_the_ray_gradients(request, monkeypatch, law):
    # h' = grad K at the arc samples comes from their ray solve, bit for bit,
    # with no second kernel call on the samples
    model = request.getfixturevalue(law)
    ref = inc.cumulant_gradient
    monkeypatch.setattr(inc, "cumulant_gradient", lambda *args: pytest.fail("gradient taken again"))
    c = solver._candidate(model, 1.3, [0.3, -1.0], +1, 256)
    assert c.trajectory.derivs.tobytes() == ref(model, c.trajectory.duals).tobytes()


def test_rate_monotone_in_area(drift):
    rates = [lh.rate_of_area(drift, a).rate for a in (0.3, 0.6, 1.0, 1.5)]
    assert all(x < y for x, y in zip(rates, rates[1:]))


def test_green_formula_on_returned_trajectories(iso, drift):
    for model, a in ((iso, 1.0), (drift, 0.5)):
        res = lh.rate_of_area(model, a)
        for c in res.candidates:
            signed = lh.signed_area_integral(c.trajectory)
            assert abs(signed) == pytest.approx(lh.hull_area(c.trajectory.points), rel=1e-4)


def test_el_residual_small_on_candidates(iso, drift):
    for model, a in ((iso, 1.0), (drift, 1.0)):
        res = lh.rate_of_area(model, a)
        for c in res.candidates:
            assert lh.euler_lagrange_residual(res.model, c.trajectory, c.multiplier) <= 1e-5


def test_el_residual_detects_perturbation(iso):
    res = lh.rate_of_area(iso, 1.0)
    c = res.candidates[0]
    bumped = lh.Trajectory(c.trajectory.times, c.trajectory.points, c.trajectory.derivs.copy())
    bumped.derivs[len(bumped.derivs) // 2] += [0.1, 0.0]
    assert lh.euler_lagrange_residual(res.model, bumped, c.multiplier) > 0.05


def test_el_residual_drift_line(drift):
    # the constant-drift line satisfies the equation only with multiplier 0,
    # which never certifies a candidate (admissible multipliers are non-zero)
    t = np.linspace(0, 1, 65)
    mu = lh.drift(drift)
    line = lh.Trajectory(t, np.outer(t, mu), np.tile(mu, (65, 1)))
    assert lh.euler_lagrange_residual(drift, line, 0.0) <= 1e-10


def test_graph_trajectory_gaussian(graph_gauss):
    for a in (0.25, 1.0):
        sol = lh.graph_trajectory(graph_gauss, a)
        assert sol.rate == pytest.approx(6 * a * a, abs=1e-12)
        t = sol.plus.times
        np.testing.assert_allclose(sol.plus.points[:, 1], 6 * a * (t * t - t), atol=1e-12)
        np.testing.assert_allclose(sol.minus.points[:, 1], -6 * a * (t * t - t), atol=1e-12)
        assert sol.a_max == math.inf


def test_graph_trajectory_endpoint_and_area(graph_pm1):
    sol = lh.graph_trajectory(graph_pm1, 0.2, n=2048)
    np.testing.assert_allclose(sol.plus.points[-1], [1.0, 0.0], atol=1e-12)
    assert lh.hull_area(sol.plus.points) == pytest.approx(0.2, abs=1e-6)
    assert sol.plus.energy == pytest.approx(sol.minus.energy, rel=1e-12)


def test_graph_quadrature_matches_adaptive_reference(graph_pm1):
    # E'(u) and the energy by the fixed Gauss-Legendre rule against adaptive quadrature
    skewed = lh.graph1d(1.0, lh.atoms1d([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]))
    for model, a in ((graph_pm1, 0.05), (graph_pm1, 0.2), (graph_pm1, 0.2499), (skewed, 0.3)):
        y = model.kind.y_model
        d1 = lambda w: float(inc.y_cumulant_d1(y, np.array([w]))[0])
        k = lambda w: float(inc.y_cumulant(y, np.array([w]))[0])
        sol = lh.graph_trajectory(model, a)
        u = sol.u_star
        opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200, points=[0.0])
        slope, _ = quad(lambda s: s * d1(u * s), -1.0, 1.0, **opts)
        curve, _ = quad(lambda s: s * s * float(inc.y_cumulant_d2(y, np.array([u * s]))[0]), -1.0, 1.0, **opts)
        assert solver._area_slope(y, u) == pytest.approx((slope, curve), rel=1e-13)
        val, _ = quad(lambda w: w * d1(w) - k(w), -u, u, **opts)
        assert sol.rate == pytest.approx(val / (2.0 * u), rel=1e-13)


def test_graph_dual_parameter_matches_brentq(graph_pm1):
    # u* of |mu1| E'(u) = 4 a by the Newton level solve against brentq on the
    # same Gauss-Legendre E', up to the end of the +-1 law's range (a_max 0.25)
    skewed = lh.graph1d(1.0, lh.atoms1d([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]))
    for model, a in ((graph_pm1, 0.05), (graph_pm1, 0.2), (graph_pm1, 0.2499), (skewed, 0.1), (skewed, 0.3)):
        y, mu1 = model.kind.y_model, model.kind.mu1
        f = lambda u: abs(mu1) * solver._area_slope(y, u)[0] - 4.0 * a
        hi = 1.0
        while f(hi) < 0.0:
            hi *= 2.0
        ref = brentq(f, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        assert lh.graph_trajectory(model, a).u_star == pytest.approx(ref, rel=1e-13, abs=0.0), (model, a)


def test_graph_trajectory_out_of_range(graph_pm1):
    with pytest.raises(OutOfRangeError) as exc:
        lh.graph_trajectory(graph_pm1, 0.25)
    assert exc.value.a_max == 0.25
    with pytest.raises(OutOfRangeError):
        lh.graph_trajectory(graph_pm1, 0.3)


def test_graph_el_residual(graph_pm1, graph_gauss):
    for model, a in ((graph_pm1, 0.2), (graph_gauss, 0.7)):
        sol = lh.graph_trajectory(model, a)
        rp = lh.euler_lagrange_residual_1d(model, sol.plus, sol.multiplier_plus)
        rm = lh.euler_lagrange_residual_1d(model, sol.minus, sol.multiplier_minus)
        assert rp <= 1e-5 and rm <= 1e-5


def test_rate_of_area_dispatches_graph(graph_gauss):
    res = lh.rate_of_area(graph_gauss, 0.5)
    assert res.rate == pytest.approx(1.5, abs=1e-12)
    assert len(res.candidates) == 2
    assert res.candidates[0].alpha is None and res.candidates[0].ell is None


def test_rate_of_area_proper_subset_paths(two_atoms):
    # non-symmetric proper subset: explicit regularization required
    with pytest.raises(NotFullPlaneError):
        lh.rate_of_area(two_atoms, 0.1)
    res = lh.rate_of_area(two_atoms, 0.1, eps=0.05)
    assert res.eps_applied == 0.05
    assert res.rate > 0


def line_law_rate(eps: float, a: float) -> float:
    """J at area a for the atoms (+-1, 0) regularized by eps, K(u) = log cosh u1
    + eps |u|^2/2, from the Cartesian level curve u2^2 = q(u1), |u1| <= b.

    With u1 = b (1 - s^2) the ring area 4 int sqrt(q) du1 and coarea mass
    (4/eps) int du1/sqrt(q) have smooth integrands in s; the level solves
    2 area/mass^2 = a (each half arc has half of both), and J = 2 area/mass - alpha.
    """
    log_cosh = lambda u: u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))

    def ring(alpha):
        b = brentq(lambda u: alpha - log_cosh(u) - 0.5 * eps * u * u, 0.0, alpha + 1.0,
                   xtol=1e-300, rtol=1e-15)

        def q_over_s2(s):
            u = b * (1.0 - s * s)
            d = math.log1p(math.exp(-2.0 * b)) - math.log1p(math.exp(-2.0 * u))
            return (2.0 / eps) * (b + d / (s * s)) + b * b * (2.0 - s * s)

        opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)
        area = 8.0 * b * quad(lambda s: s * s * math.sqrt(q_over_s2(s)), 0.0, 1.0, **opts)[0]
        mass = 8.0 * b / eps * quad(lambda s: 1.0 / math.sqrt(q_over_s2(s)), 0.0, 1.0, **opts)[0]
        return area, mass

    def gap(alpha):
        area, mass = ring(alpha)
        return math.log(2.0 * area / mass ** 2 / a)

    alpha = brentq(gap, 1e-3, 1e3, xtol=1e-300, rtol=1e-15)
    area, mass = ring(alpha)
    return 2.0 * area / mass - alpha


def test_rate_of_area_symmetric_ladder(tmp_path, capsys):
    # a centrally symmetric law on a line through 0 (atoms on a segment, a
    # zero-mean singular Gaussian): every walk stays on the line and encloses
    # no area, so J = +inf and the attainable range is a_max = 0
    line = lh.atoms([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    for model in (line, lh.gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])):
        assert lh.support_class(model).tag == "proper_subset"
        with pytest.raises(OutOfRangeError) as exc:
            lh.rate_of_area(model, 0.05)
        assert exc.value.a_max == 0.0
        spec = tmp_path / "line.json"
        spec.write_text(json.dumps(lh.to_spec(model)))
        assert cli.main(["rate", "--dist", str(spec), "--area", "0.05"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "out_of_range" and error["a_max"] == 0.0
    # an explicit eps regularizes it: each eps against a level solved apart,
    # the elongated eps = 1e-3 one included
    for eps in (1e-1, 1e-2, 1e-3):
        res = lh.rate_of_area(line, 0.05, eps=eps)
        assert res.eps_applied == eps
        assert res.rate == pytest.approx(line_law_rate(eps, 0.05), rel=1e-10), eps


def polar_area_mass(model, alpha, ell, tau):
    """Half area and arc mass of one level-set arc by adaptive quadrature of
    the polar integrands r^2/2 and r/(d . grad K) in the ray angle, each ray
    radius solved by brentq."""

    def radius(theta):
        d = np.array([math.cos(theta), math.sin(theta)])
        hi = 1.0
        while lh.cumulant(model, hi * d) < alpha:
            hi *= 2.0
        r = brentq(lambda r: lh.cumulant(model, r * d) - alpha, 0.0, hi, xtol=1e-16, rtol=1e-15)
        return r, d

    def mass_density(theta):
        r, d = radius(theta)
        return r / float(d @ lh.cumulant_gradient(model, r * d))

    theta0 = math.atan2(ell[1], ell[0])
    lo, hi = sorted((theta0, theta0 + tau * math.pi))
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    area = quad(lambda t: 0.5 * radius(t)[0] ** 2, lo, hi, **opts)[0]
    return area, quad(mass_density, lo, hi, **opts)[0]


_LINE = lh.atoms([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
_SQUARE = lh.atoms([[2.0, 2.0], [-2.0, 2.0], [2.0, -2.0], [-2.0, -2.0]], [0.25] * 4)
AREA_CASES = {
    "iso": (lh.gaussian([0.0, 0.0], np.eye(2)), 1.0, None),
    "drift": (lh.gaussian([1.0, 0.0], np.eye(2)), 1.0, None),
    "correlated-drift": (lh.gaussian([0.3, 0.0], [[1.0, 0.2], [0.2, 1.0]]), 0.2, None),
    "triangle": (lh.atoms([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [1 / 3] * 3), 0.2, None),
    "square-eps1e-2": (_SQUARE, 0.2, 1e-2),
    "line-eps1e-1": (_LINE, 0.05, 1e-1),
    "line-eps1e-2": (_LINE, 0.05, 1e-2),
    "line-eps1e-3": (_LINE, 0.05, 1e-3),
}


@pytest.mark.parametrize("name", sorted(AREA_CASES))
def test_candidates_meet_the_area_and_energy_identities(name):
    # each candidate arc has A/M^2 = a (its trajectory's hull area) and energy
    # 2A/M - alpha, with A and M from a quadrature written here
    model, a, eps = AREA_CASES[name]
    res = lh.rate_of_area(model, a, eps=eps)
    for c in res.candidates:
        area, mass = polar_area_mass(res.model, c.alpha, c.ell, c.tau)
        assert area / mass ** 2 == pytest.approx(a, rel=1e-10)
        assert c.energy == pytest.approx(2.0 * area / mass - c.alpha, rel=1e-10)


SQUARE_ATOMS = ([[2, 2], [-2, 2], [2, -2], [-2, -2]], [0.25] * 4)
DUAL_PATH_LAWS = {
    "drift": (lh.gaussian([1, 0], np.eye(2)), 1.0),
    "triangle": (lh.atoms([[1, 1], [1, -1], [-1, 0]], [1 / 3] * 3), 0.2),
    "square-eps1e-2": (lh.atoms(*SQUARE_ATOMS, eps=1e-2), 0.2),
    "square-ladder": (lh.atoms(*SQUARE_ATOMS), 0.2),
    "graph-gauss": (lh.graph1d(1, lh.gaussian1d(0, 1)), 0.2),
    "graph-pm1": (lh.graph1d(1, lh.atoms1d([1, -1], [0.5, 0.5])), 0.2),
}


@pytest.mark.parametrize("name", sorted(DUAL_PATH_LAWS))
def test_trajectories_carry_their_dual_path(name):
    # h' = grad K(u) along the dual path to the last bit, derived reverses included
    model, a = DUAL_PATH_LAWS[name]
    res = lh.rate_of_area(model, a)
    for c in res.candidates:
        traj = c.trajectory
        assert traj.duals.shape == traj.derivs.shape
        assert inc.cumulant_gradient(res.model, traj.duals).tobytes() == traj.derivs.tobytes()


@pytest.mark.parametrize("var", [0.03, 0.01])
@pytest.mark.parametrize("a", [0.05, 0.5])
def test_small_variance_drift_matches_its_scaled_image(var, a):
    # X ~ N((1, 0), var I) scaled by 1/sqrt(var) is N((1/sqrt(var), 0), I), and
    # hull areas scale by 1/var; some of the first law's ray roots sit
    # between adjacent floats
    sd = math.sqrt(var)
    got = lh.rate_of_area(lh.gaussian([1, 0], var * np.eye(2)), a).rate
    ref = lh.rate_of_area(lh.gaussian([1 / sd, 0], np.eye(2)), a / var).rate
    assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("law", ["graph_pm1", "graph_gauss"])
def test_regularized_graph_rates_rise_to_the_graph_rate(law, request):
    # K_eps >= K, so J_eps <= J, and J_eps rises as eps falls
    model = request.getfixturevalue(law)
    rates = [lh.rate_of_area(model, 0.2, eps=e).rate for e in (0.1, 0.01, 0.001)]
    assert rates[0] < rates[1] < rates[2] <= lh.rate_of_area(model, 0.2).rate


def test_eps_is_checked_and_applied_once(graph_pm1, iso, two_atoms):
    res = lh.rate_of_area(graph_pm1, 0.2, eps=0.01)
    ref = lh.rate_of_area(lh.regularize(graph_pm1, 0.01), 0.2)
    assert res.eps_applied == 0.01 and res.model == ref.model
    assert res.rate == ref.rate
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            lh.rate_of_area(iso, 0.5, eps=bad)
    with pytest.raises(NotFullPlaneError):
        lh.rate_of_area(two_atoms, 0.1, eps=0.0)


def test_rate_of_area_no_candidate(triangle_atoms):
    # bounded support and a huge target area: no admissible level exists
    with pytest.raises((NoCandidateError, OutOfRangeError)):
        lh.rate_of_area(triangle_atoms, 50.0)


def test_no_candidate_in_range_does_not_claim_the_range(drift, triangle_atoms, monkeypatch):
    # the seed ring solve has a root at a = 0.5, so the range is not the reason
    with pytest.raises(NoCandidateError, match="at or beyond the attainable range"):
        lh.rate_of_area(triangle_atoms, 50.0)
    monkeypatch.setattr(solver, "_solve_candidate", lambda *args: None)
    with pytest.raises(NoCandidateError) as info:
        lh.rate_of_area(drift, 0.5)
    assert "attainable range" not in str(info.value)
    assert "no seeded arc" in str(info.value)


def test_rate_of_area_rejects_bad_area(iso):
    with pytest.raises(ValueError):
        lh.rate_of_area(iso, 0.0)


def bisect_decreasing(fn, target):
    """Reference level solve: doubling bracket, then one bisection step per evaluation."""
    lo = hi = 1.0
    if fn(1.0) > target:
        while True:
            hi *= 2.0
            if hi > 1e12:
                return None, fn(1e12)
            if fn(hi) <= target:
                break
        lo = hi / 2.0
    else:
        while True:
            lo *= 0.5
            if lo < 1e-14:
                return None, None
            if fn(lo) > target:
                break
        hi = lo * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * mid:
            break
    return 0.5 * (lo + hi), None


# each function with its analytic derivative
DECREASING = {
    "inv_sqrt": (lambda a: 1.0 / math.sqrt(a), lambda a: -0.5 / (a * math.sqrt(a)),
                 (1e-8, 0.05, 0.7, 1.0, 3.0, 1e4, 1e8)),
    "neg_log": (lambda a: -math.log(a), lambda a: -1.0 / a, (-30.0, -2.0, 0.0, 0.5, 25.0, 40.0)),
    "bounded": (lambda a: math.exp(-a) + 1.0 / (1.0 + a), lambda a: -math.exp(-a) - 1.0 / (1.0 + a) ** 2,
                (-1.0, 0.3, 1.2, 1.9, 2.5)),
    "steep": (lambda a: 1.0 / a + 1.0 / (a * a), lambda a: -1.0 / (a * a) - 2.0 / a ** 3,
              (1e-20, 1e-3, 2.0, 50.0, 1e30)),
}


@pytest.mark.parametrize("name", sorted(DECREASING))
def test_level_solve_matches_bisection(name):
    fn, dfn, targets = DECREASING[name]
    for target in targets:
        calls = []
        got, cap = inc._solve_decreasing(lambda a: calls.append(a) or (fn(a), dfn(a)), target)
        ref, ref_cap = bisect_decreasing(fn, target)
        assert (got is None) == (ref is None), target
        if ref is None:
            assert cap == ref_cap, target
            assert len(calls) <= 12, target
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=0), target


ROOT = Path(__file__).resolve().parent.parent
REPRO_OUT = ROOT / "repro" / "out"


@pytest.mark.parametrize("path", sorted(REPRO_OUT.glob("rate_*.json")), ids=lambda p: p.name)
def test_repro_rates_reproduced(path, tmp_path, monkeypatch):
    # rerun the recorded configuration on a copy of its distribution spec:
    # the JSON and its trajectory CSVs come out byte for byte
    payload = json.loads(path.read_text())
    cfg = payload["config"]
    (tmp_path / cfg["dist"]).parent.mkdir(parents=True)
    shutil.copyfile(ROOT / cfg["dist"], tmp_path / cfg["dist"])
    argv = [cfg["subcommand"], "--dist", cfg["dist"], "--area", repr(cfg["area"]),
            "--directions", str(cfg["directions"]), "--samples", str(cfg["samples"]),
            "--output", "out.json"]
    for flag, key in (("--eps", "eps"), ("--threads", "threads"), ("--csv-dir", "csv_dir")):
        if cfg.get(key) is not None:
            argv += [flag, str(cfg[key])]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert (tmp_path / "out.json").read_bytes() == path.read_bytes()
    for csv in payload.get("trajectory_csv", []):
        assert (tmp_path / csv).read_bytes() == (ROOT / csv).read_bytes(), csv


def _stub_candidate(energy, theta, tau):
    t = np.linspace(0.0, 1.0, 3)
    traj = lh.Trajectory(t, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)))
    return solver.Candidate(1.0, np.array([math.cos(theta), math.sin(theta)]), tau, traj, energy, tau)


def test_mirrored_candidates_lead_in_either_order():
    # (ell, +1) and (-ell, -1) are one arc; energies 1e-13 apart are rounding
    e = 0.4477172582287614
    plus = _stub_candidate(e, 0.3, +1)
    minus = _stub_candidate(e + 1e-13, 0.3 - math.pi, -1)
    other = _stub_candidate(1.2 * e, 0.3 + math.pi / 2, +1)
    for cands in ([plus, minus, other], [minus, plus, other], [other, minus, plus]):
        assert [c.tau for c in solver._ordered(cands)] == [-1, +1, +1]
        assert solver._ordered(cands)[2] is other


def test_unsettled_direction_fixed_point_raises(drift, monkeypatch):
    # a chord that moves by half a scan step every round never settles
    step = math.pi / 256
    theta = [math.pi / 2]

    def moving_chord(model, alpha, k=256):
        theta[0] += 0.5 * step
        e = np.array([math.cos(theta[0]), math.sin(theta[0])])
        return [(ell, tau) for ell in (e, -e) for tau in (+1, -1)]

    monkeypatch.setattr(inc, "_solve_decreasing", lambda fn, target, rtol, start: (1.0, None))
    monkeypatch.setattr(solver, "candidate_directions", moving_chord)
    with pytest.raises(NoConvergenceError):
        solver._solve_candidate(drift, math.pi / 2, +1, 1.0, 64, 256)


def test_seeds_settling_on_one_arc_list_it_once(drift, monkeypatch):
    # two scanned chords whose fixed points settle on the same arc give that
    # arc once, followed by its reverse traversal
    arc = _stub_candidate(0.5, -2.0, +1)
    seeds = [(np.array([math.cos(t), math.sin(t)]), +1) for t in (-2.0, -1.0)]
    monkeypatch.setattr(solver, "candidate_directions", lambda model, alpha, k=256: seeds)
    monkeypatch.setattr(solver, "_solve_candidate", lambda *args: arc)
    res = solver._solve_full_plane(drift, 0.5, 256, 64)
    assert [c.tau for c in res.candidates] == [+1, -1]
    assert res.candidates[0] is arc
    np.testing.assert_array_equal(res.candidates[1].ell, -arc.ell)
    assert res.candidates[1].multiplier == -arc.multiplier


def test_root_cap_raises_no_convergence(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(inc, "_ROOT_ROUNDS", 2)
    fn, dfn, _ = DECREASING["inv_sqrt"]
    with pytest.raises(NoConvergenceError):
        inc._solve_decreasing(lambda a: (fn(a), dfn(a)), 0.7)
    # through the CLI it is exit 2 with a JSON error, not a traceback
    spec = tmp_path / "gauss_iso.json"
    spec.write_text(json.dumps({"type": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]], "eps": 0}))
    assert cli.main(["rate", "--dist", str(spec), "--area", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "no_convergence"
