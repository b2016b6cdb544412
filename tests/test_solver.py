import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import ldp_hull as lh
from ldp_hull import increments as inc
from ldp_hull import solver
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
        assert solver._area_slope(y, u) == pytest.approx(slope, rel=1e-13)
        val, _ = quad(lambda w: w * d1(w) - k(w), -u, u, **opts)
        assert sol.rate == pytest.approx(val / (2.0 * u), rel=1e-13)


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
    assert res.rate > 0 and res.ladder is None


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


def test_rate_of_area_symmetric_ladder():
    # symmetric line-supported atoms: the built-in regularization ladder runs
    model = lh.atoms([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    assert lh.support_class(model).tag == "proper_subset"
    res = lh.rate_of_area(model, 0.05)
    assert res.ladder is not None and len(res.ladder) == 3
    assert [e for e, _ in res.ladder] == [1e-1, 1e-2, 1e-3]
    assert res.eps_applied == 1e-3
    assert res.rate == res.ladder[-1][1]
    # every rung against a level solved apart, the elongated eps = 1e-3 one included
    for eps, rate in res.ladder:
        assert rate == pytest.approx(line_law_rate(eps, 0.05), rel=1e-10), eps


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


def test_rate_of_area_no_candidate(triangle_atoms):
    # bounded support and a huge target area: no admissible level exists
    with pytest.raises((NoCandidateError, OutOfRangeError)):
        lh.rate_of_area(triangle_atoms, 50.0)


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


DECREASING = {
    "inv_sqrt": (lambda a: 1.0 / math.sqrt(a), (1e-8, 0.05, 0.7, 1.0, 3.0, 1e4, 1e8)),
    "neg_log": (lambda a: -math.log(a), (-30.0, -2.0, 0.0, 0.5, 25.0, 40.0)),
    "bounded": (lambda a: math.exp(-a) + 1.0 / (1.0 + a), (-1.0, 0.3, 1.2, 1.9, 2.5)),
    "steep": (lambda a: 1.0 / a + 1.0 / (a * a), (1e-20, 1e-3, 2.0, 50.0, 1e30)),
}


@pytest.mark.parametrize("name", sorted(DECREASING))
def test_level_solve_matches_bisection(name):
    fn, targets = DECREASING[name]
    for target in targets:
        calls = []
        got, cap = solver._solve_decreasing(lambda a: calls.append(a) or fn(a), target)
        ref, ref_cap = bisect_decreasing(fn, target)
        assert (got is None) == (ref is None), target
        if ref is None:
            assert cap == ref_cap, target
            assert len(calls) <= 12, target
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=0), target


REPRO_OUT = Path(__file__).resolve().parent.parent / "repro" / "out"


@pytest.mark.parametrize("path", sorted(REPRO_OUT.glob("rate_*.json")), ids=lambda p: p.name)
def test_repro_rates_reproduced(path):
    payload = json.loads(path.read_text())
    cfg = payload["config"]
    model = lh.from_spec(json.loads((REPRO_OUT.parent.parent / cfg["dist"]).read_text()))
    res = lh.rate_of_area(
        model, cfg["area"], eps=cfg["eps"], directions=cfg["directions"], samples=cfg["samples"]
    )
    assert res.rate == pytest.approx(payload["rate"], rel=1e-10, abs=0)


def _stub_candidate(energy, theta, tau):
    t = np.linspace(0.0, 1.0, 3)
    traj = lh.Trajectory(t, np.zeros((3, 2)), np.zeros((3, 2)))
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

    monkeypatch.setattr(solver, "_solve_decreasing", lambda fn, target: (1.0, None))
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
