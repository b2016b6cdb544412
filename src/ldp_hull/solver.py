"""Optimal trajectories and the minimal path cost for a target hull area.

For full-plane increment laws the optimal curves are rotated, scaled arcs of
a cumulant level set: the level ``alpha`` solves a scalar equation tying the
derivative of the square-rooted (half-)sub-level area to the target area, the
admissible cut directions ``ell`` are those where the level set meets the
line through the origin at a centrally symmetric point pair, and each arc is
traversed in either orientation.  Graph models (support on a vertical line)
have an explicit two-curve solution driven by the vertical cumulant.

Derivatives of sqrt(area) in the level value are always obtained through the
coarea identity (arc-mass quadrature), never by finite differences.  All
candidate evaluations are independent and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import increments as inc
from . import legendre
from .errors import (
    NoCandidateError,
    NoConvergenceError,
    NotFullPlaneError,
    NotSymmetricError,
    OutOfRangeError,
)
from .legendre import Trajectory
from .levelset import (
    _arc_angles,
    _check_args,
    _dirs_of,
    _extrapolated,
    _ray_radii,
    _ring_angles,
    _unit,
    arc_parametrization,
)
from .polyline import _perp

__all__ = [
    "ALL_DIRECTIONS",
    "Candidate",
    "RateResult",
    "GraphSolution",
    "symmetric_level",
    "candidate_directions",
    "build_trajectory",
    "rate_of_area",
    "graph_trajectory",
    "euler_lagrange_residual",
    "euler_lagrange_residual_1d",
]

_GROW = 16.0  # bracket expansion factor: a no-root exit costs about 12 evaluations
_ROOT_RTOL = 1e-13  # the level slopes are accurate to about 1e-12 relative
_ANGLE_XTOL = 1e-15
_ALPHA_HI_CAP = 1e12
_ALPHA_LO_CAP = 1e-14
_FULL_M = 2048
_ARC_M = 4096
_ENERGY_M = 8192
_LADDER = (1e-1, 1e-2, 1e-3)


class _AllDirections:
    """Sentinel: every direction qualifies (centrally symmetric law)."""

    def __repr__(self):  # pragma: no cover
        return "ALL_DIRECTIONS"


ALL_DIRECTIONS = _AllDirections()


@dataclass
class Candidate:
    """One admissible (level, direction, orientation) triple and its trajectory.

    ``multiplier`` is the Euler-Lagrange multiplier tau * arc mass; ``alpha``
    and ``ell`` are None for graph-model candidates, which are not built from
    planar level sets.
    """

    alpha: float | None
    ell: np.ndarray | None
    tau: int
    trajectory: Trajectory
    energy: float
    multiplier: float


@dataclass
class RateResult:
    """Solved rate of the hull-area deviation at target ``area``.

    ``rate`` is the minimum candidate energy.  ``model`` is the model the
    candidates refer to (after any regularization; ``eps_applied`` reports the
    added strength).  When the symmetric regularization ladder ran, ``ladder``
    lists its (eps, rate) rungs, last rung kept; the ladder is reported as
    observed, not extrapolated to a certified limit.
    """

    area: float
    candidates: list[Candidate]
    rate: float
    model: inc.IncrementModel
    eps_applied: float = 0.0
    ladder: list[tuple[float, float]] | None = None


@dataclass
class GraphSolution:
    """The two optimal curves of a graph model and their shared energy."""

    plus: Trajectory
    minus: Trajectory
    u_star: float
    rate: float
    a_max: float
    multiplier_plus: float
    multiplier_minus: float


# ---------------------------------------------------------------------------
# Monotone scalar solves in the level value

class _LevelSlope:
    """alpha -> d sqrt(area)/d alpha of the level set traced on ``angles_of(m)``.

    ``angles_of`` gives the whole level set (``_ring_angles``) or one arc.
    Fixed pair of angle grids (m and 2m) with warm-started radii across alpha
    values; one Richardson step removes the second-order polygon bias, so the
    level solve sees the slope at roughly quadrature-refined accuracy.
    """

    def __init__(self, model, angles_of, m):
        self.model = model
        self.grids = (angles_of(m), angles_of(2 * m))
        self._radii = [None, None]

    def __call__(self, alpha: float) -> float:
        area, mass, _ = _extrapolated(self.model, alpha, self.grids, self._radii)
        return mass / (2.0 * math.sqrt(max(area, 1e-300)))


def _root(fn, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float) -> float:
    """Root of fn on [lo, hi] to ``xtol`` + ``_ROOT_RTOL`` relative, by Brent's method (1973).

    ``f_lo`` and ``f_hi``, fn at the ends (opposite signs or zero), are not evaluated again.
    """
    known = {lo: f_lo, hi: f_hi}
    cached_fn = lambda x: known.pop(x) if x in known else fn(x)
    return brentq(cached_fn, lo, hi, xtol=xtol, rtol=_ROOT_RTOL)


def _solve_decreasing(fn, target: float):
    """Root of a strictly decreasing fn(alpha) = target on (0, inf).

    The bracket grows from alpha = 1 by the factor ``_GROW`` until it holds a
    sign change, then :func:`_root` solves in it.  Returns (alpha, None) on
    success.  (None, slope_at_cap) means the target undershoots the attainable
    range (the area is too large); (None, None) means it overshoots on the
    small-alpha side, so this branch has no root.
    """
    lo = hi = 1.0
    f_lo = f_hi = fn(1.0)
    if f_lo > target:
        while f_hi > target:
            if hi >= _ALPHA_HI_CAP:
                return None, f_hi
            lo, f_lo = hi, f_hi
            hi = min(hi * _GROW, _ALPHA_HI_CAP)
            f_hi = fn(hi)
    else:
        while f_lo <= target:
            hi, f_hi = lo, f_lo
            lo /= _GROW
            if lo < _ALPHA_LO_CAP:
                return None, None
            f_lo = fn(lo)
    g = lambda a: fn(a) - target
    return _root(g, lo, hi, f_lo - target, f_hi - target, _ROOT_RTOL * lo), None


def symmetric_level(model: inc.IncrementModel, area: float) -> float:
    """Level alpha with d sqrt(E(alpha))/d alpha = 1/sqrt(2 * area).

    Only for centrally symmetric full-plane models; the square-rooted
    sub-level area is strictly concave, so the slope is strictly decreasing
    and a bracketed root finder applies.  The slope is evaluated through the
    coarea identity (full-level arc mass over twice the root area).
    """
    if not (area > 0.0):
        raise ValueError("target area must be positive")
    _check_args(model, 1.0, "symmetric_level")
    if not inc.is_centrally_symmetric(model):
        raise NotSymmetricError("symmetric_level needs a centrally symmetric law")
    target = 1.0 / math.sqrt(2.0 * area)
    alpha, cap_slope = _solve_decreasing(_LevelSlope(model, _ring_angles, _FULL_M), target)
    if alpha is None:
        if cap_slope is None:
            raise NoConvergenceError("level solve found no root on the small-alpha side")
        raise OutOfRangeError(
            "target area at or beyond the attainable range",
            a_max=1.0 / (2.0 * cap_slope ** 2),
        )
    return float(alpha)


# ---------------------------------------------------------------------------
# Candidate directions: centrally symmetric chord pairs of one level set

def _radius_gap(model, alpha, thetas, r0=None):
    """r(theta) - r(theta + pi) for each angle, plus the radii for warm starts."""
    thetas = np.atleast_1d(thetas)
    dirs = _dirs_of(np.concatenate([thetas, thetas + np.pi]))
    r = _ray_radii(model, alpha, dirs, r0=r0)
    k = len(thetas)
    return r[:k] - r[k:], r


def candidate_directions(model: inc.IncrementModel, alpha: float, k: int = 256):
    """Directions where the level set meets the line through 0 symmetrically.

    Scans k angles on the half-circle for sign changes of the radius gap and
    refines each with :func:`_root`.  Centrally symmetric models return the
    ALL_DIRECTIONS sentinel (every direction qualifies).  Each root direction
    is returned with both signs and both orientations.  Roots of even
    multiplicity between grid nodes can be missed; raise k to refine.
    """
    _check_args(model, alpha, "candidate_directions")
    if k < 4:
        raise ValueError("need at least 4 scan directions")
    if inc.is_centrally_symmetric(model):
        return ALL_DIRECTIONS
    thetas = np.linspace(0.0, np.pi, k, endpoint=False)
    gaps, _ = _radius_gap(model, alpha, thetas)
    scale = 1e-12 * max(1.0, float(np.max(np.abs(gaps))))
    roots: list[float] = []
    for i in range(k):
        gi = gaps[i]
        gj = gaps[i + 1] if i + 1 < k else -gaps[0]  # the gap is anti-periodic
        ti = thetas[i]
        tj = thetas[i + 1] if i + 1 < k else np.pi
        if abs(gi) <= scale:
            roots.append(float(ti))
            continue
        if gi * gj < 0.0:
            roots.append(_direction_root(model, alpha, ti, tj, gi, gj))
    out = []
    for theta in _dedup_angles(roots):
        e = np.array([math.cos(theta), math.sin(theta)])
        for ell in (e, -e):
            for tau in (+1, -1):
                out.append((ell, tau))
    return out


def _direction_root(model, alpha, lo, hi, g_lo, g_hi) -> float:
    """Angle in [lo, hi] where the radius gap changes sign; ray solves warm-started."""
    r = None

    def gap(theta):
        nonlocal r
        g, r = _radius_gap(model, alpha, np.array([theta]), r0=r)
        return g[0]

    return float(_root(gap, lo, hi, g_lo, g_hi, _ANGLE_XTOL))


def _dedup_angles(roots, tol=1e-9):
    out: list[float] = []
    for t in sorted(r % math.pi for r in roots):
        if all(min(abs(t - s), math.pi - abs(t - s)) > tol for s in out):
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Trajectories

def _build(model, alpha, ell, tau, n) -> tuple[Trajectory, float]:
    arc = arc_parametrization(model, alpha, ell, tau, n)
    pts = -(1.0 / (arc.tau * arc.mass)) * _perp(arc.samples - arc.samples[0])
    pts[0] = 0.0
    derivs = inc.cumulant_gradient(model, arc.samples)
    grids = [_arc_angles(arc.ell, arc.tau, m) for m in (_ENERGY_M, 2 * _ENERGY_M)]
    _, lam_r, eint = _extrapolated(model, arc.alpha, grids, [None, None])
    return Trajectory(arc.times, pts, derivs, energy=eint / lam_r), arc.mass


def build_trajectory(
    model: inc.IncrementModel, alpha: float, ell, tau: int, n: int = 1024
) -> Trajectory:
    """Optimal-form trajectory: the level arc rotated by -tau * 90 degrees and
    scaled by the reciprocal arc mass.

    h(0) = 0, h'(t) = grad K(g(t)) exactly (a quarter-turn of the arc
    tangent), and the hull area equals half_area/mass^2.  The stored energy is
    the arc-length quadrature of the conjugate identity
    (u . grad K(u) - alpha) along the arc, divided by the mass.
    """
    return _build(model, alpha, _unit(ell), tau, n)[0]


def _candidate(model, alpha, ell, tau, n) -> Candidate:
    traj, lam = _build(model, alpha, _unit(ell), tau, n)
    return Candidate(float(alpha), _unit(ell), int(tau), traj, float(traj.energy), tau * lam)


def _solve_candidate(model, theta, tau, area, n, scan_step):
    """Fixed-point resolution of the coupled (direction, level) conditions.

    The level equation is solved at a fixed direction; when the
    symmetric-chord directions drift with the level (they do not for
    quadratic cumulants), the two solves alternate until both stabilize.
    """
    target = 1.0 / (2.0 * math.sqrt(area))
    alpha = None
    for _ in range(30):
        ell = np.array([math.cos(theta), math.sin(theta)])
        arc_slope = _LevelSlope(model, lambda m: _arc_angles(ell, tau, m), _ARC_M)
        alpha, _cap = _solve_decreasing(arc_slope, target)
        if alpha is None:
            return None
        gaps, _ = _radius_gap(model, alpha, np.array([theta - scan_step, theta, theta + scan_step]))
        g_lo, g_mid, g_hi = gaps
        scale = 1e-12 * max(1.0, abs(g_lo), abs(g_hi))
        if abs(g_mid) <= scale:
            break
        if g_lo * g_mid < 0.0:
            new_theta = _direction_root(model, alpha, theta - scan_step, theta, g_lo, g_mid)
        elif g_mid * g_hi < 0.0:
            new_theta = _direction_root(model, alpha, theta, theta + scan_step, g_mid, g_hi)
        else:
            return None  # symmetric chord lost at this level
        if abs(new_theta - theta) <= 1e-12:
            theta = new_theta
            break
        theta = new_theta
    ell = np.array([math.cos(theta), math.sin(theta)])
    return _candidate(model, alpha, ell, tau, n)


def _solve_full_plane(model, area, directions, n) -> RateResult:
    if inc.is_centrally_symmetric(model):
        alpha = symmetric_level(model, area)
        ell = np.array([1.0, 0.0])
        cands = [_candidate(model, alpha, ell, tau, n) for tau in (+1, -1)]
    else:
        seed_alpha, cap = _solve_decreasing(
            _LevelSlope(model, _ring_angles, _FULL_M), 1.0 / math.sqrt(2.0 * area)
        )
        if seed_alpha is None:
            seed_alpha = 1.0
        found = candidate_directions(model, seed_alpha, directions)
        cands = []
        scan_step = math.pi / directions
        for ell, tau in found:
            theta = math.atan2(ell[1], ell[0])
            cand = _solve_candidate(model, theta, tau, area, n, scan_step)
            if cand is not None:
                cands.append(cand)
        if not cands:
            raise NoCandidateError(
                "no admissible (level, direction, orientation) triple: "
                "the target area is at or beyond the attainable range"
            )
    cands.sort(key=lambda c: (c.energy, math.atan2(c.ell[1], c.ell[0]), c.tau))
    return RateResult(float(area), cands, cands[0].energy, model)


def rate_of_area(
    model: inc.IncrementModel,
    area: float,
    *,
    eps: float | None = None,
    directions: int = 256,
    samples: int = 1024,
) -> RateResult:
    """Minimal path energy over trajectories whose hull area equals ``area``.

    Full-plane models are solved directly.  Proper-subset models are
    regularized first: by ``eps`` when given, otherwise (centrally symmetric
    laws only) through the built-in ladder eps in {1e-1, 1e-2, 1e-3}, whose
    rungs are reported on the result.  Graph models take the explicit
    two-curve route.
    """
    if not (area > 0.0):
        raise ValueError("target area must be positive")
    sc = inc.support_class(model)
    if sc.tag == "vertical_line":
        sol = graph_trajectory(model, area, n=samples)
        cands = [
            Candidate(None, None, +1, sol.plus, sol.rate, sol.multiplier_plus),
            Candidate(None, None, -1, sol.minus, sol.rate, sol.multiplier_minus),
        ]
        if cands[0].multiplier < 0:
            cands.reverse()
        return RateResult(float(area), cands, sol.rate, model)
    if sc.tag == "proper_subset":
        if eps is not None:
            if eps <= 0.0:
                raise NotFullPlaneError("a proper-subset model needs eps > 0")
            reg = inc.regularize(model, eps)
            res = _solve_full_plane(reg, area, directions, samples)
            return replace(res, eps_applied=float(eps))
        if inc.is_centrally_symmetric(model):
            ladder = []
            res = None
            for rung in _LADDER:
                res = _solve_full_plane(inc.regularize(model, rung), area, directions, samples)
                ladder.append((rung, res.rate))
            return replace(res, eps_applied=_LADDER[-1], ladder=ladder)
        raise NotFullPlaneError(
            "proper-subset support: pass eps > 0 to regularize (no symmetric ladder applies)"
        )
    if eps is not None and eps > 0.0:
        res = _solve_full_plane(inc.regularize(model, eps), area, directions, samples)
        return replace(res, eps_applied=float(eps))
    return _solve_full_plane(model, area, directions, samples)


# ---------------------------------------------------------------------------
# Graph models: support on a vertical line

def _vertical_cumulant_funcs(model):
    if not isinstance(model.kind, inc.Graph1D) or model.epsilon != 0.0:
        raise NotFullPlaneError("graph_trajectory needs an unregularized graph model")
    return model.kind.mu1, model.kind.y_model


def _area_slope(y, u: float) -> float:
    """E'(u) for E(u) = integral of K_y(u s) over s in [-1, 1]."""
    if isinstance(y, inc.Gaussian1D):
        return (2.0 / 3.0) * y.var * u  # the mean term integrates out
    val, _ = quad(
        lambda s: s * float(inc.y_cumulant_d1(y, np.array([u * s]))[0]),
        -1.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
        points=[0.0],
    )
    return val


def _graph_a_max(mu1: float, y) -> float:
    if isinstance(y, inc.Gaussian1D):
        return math.inf
    spread = float(y.points.max() - y.points.min())
    return abs(mu1) * spread / 8.0  # limit of E' is half the support spread


def graph_trajectory(model: inc.IncrementModel, area: float, n: int = 1024) -> GraphSolution:
    """The two optimal curves for a graph model, their dual parameter and energy.

    Solves |mu1| E'(u) = 4 * area for the unique positive u (E' is strictly
    increasing, so the decreasing -E' goes through the level-value solver),
    builds the curve pair from the vertical cumulant, and evaluates the
    shared energy by exact quadrature of the conjugate identity
    w K_y'(w) - K_y(w) over w in [-u, u].
    """
    if not (area > 0.0):
        raise ValueError("target area must be positive")
    mu1, y = _vertical_cumulant_funcs(model)
    a_max = _graph_a_max(mu1, y)
    if area >= a_max:
        raise OutOfRangeError("target area at or beyond the graph-model range", a_max=a_max)
    u, _ = _solve_decreasing(lambda v: -_area_slope(y, v), -4.0 * area / abs(mu1))
    if u is None:
        raise NoConvergenceError("dual-parameter solve found no bracket")

    val, _err = quad(
        lambda w: w * float(inc.y_cumulant_d1(y, np.array([w]))[0])
        - float(inc.y_cumulant(y, np.array([w]))[0]),
        -u,
        u,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
        points=[0.0],
    )
    energy = val / (2.0 * u)

    times = np.linspace(0.0, 1.0, n + 1)
    w = u * (2.0 * times - 1.0)

    def curve(sign: int) -> Trajectory:
        h2 = (inc.y_cumulant(y, sign * w) - float(inc.y_cumulant(y, np.array([-sign * u]))[0])) / (
            2.0 * sign * u
        )
        pts = np.column_stack([mu1 * times, h2])
        pts[0] = 0.0
        derivs = np.column_stack([np.full_like(times, mu1), inc.y_cumulant_d1(y, sign * w)])
        return Trajectory(times, pts, derivs, energy=energy)

    return GraphSolution(
        plus=curve(+1),
        minus=curve(-1),
        u_star=float(u),
        rate=float(energy),
        a_max=a_max,
        multiplier_plus=2.0 * u / mu1,
        multiplier_minus=-2.0 * u / mu1,
    )


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals

def euler_lagrange_residual(model: inc.IncrementModel, traj: Trajectory, multiplier: float) -> float:
    """Max deviation from multiplier * perp(h) = grad I(h') - grad I(h'(0)),
    plus the free-endpoint defect |grad I(h'(1)) + grad I(h'(0))|.

    A zero multiplier never certifies a candidate: the multiplier of any
    admissible trajectory is non-zero.
    """
    _, U = legendre.rate_batch(model, traj.derivs, return_maximizers=True)
    lhs = multiplier * _perp(traj.points)
    rhs = U - U[0]
    res = float(np.max(np.linalg.norm(lhs - rhs, axis=1)))
    defect = float(np.linalg.norm(U[-1] + U[0]))
    return res + defect


def euler_lagrange_residual_1d(model: inc.IncrementModel, traj: Trajectory, multiplier: float) -> float:
    """Graph-model analogue on the vertical coordinate:
    multiplier * mu1 * t = I_y'(h2'(t)) - I_y'(h2'(0)), plus the endpoint defect."""
    mu1, _y = _vertical_cumulant_funcs(model)
    w = legendre.rate_1d_gradient(model, traj.derivs[:, 1])
    res = float(np.max(np.abs(multiplier * mu1 * traj.times - (w - w[0]))))
    defect = float(abs(w[-1] + w[0]))
    return res + defect
