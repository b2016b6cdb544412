"""Optimal trajectories and the minimal path cost for a target hull area.

For full-plane increment laws the optimal curves are rotated, scaled arcs of
a cumulant level set: the level ``alpha`` solves a scalar equation tying the
derivative of the square-rooted (half-)sub-level area to the target area, the
admissible cut directions ``ell`` are those where the level set meets the
line through the origin at a centrally symmetric point pair, and each arc is
traversed in either orientation.  One routine finds those chords
(:func:`candidate_directions`): it seeds the directions and settles each
arc's direction/level fixed point.  Each arc is solved once; its reverse
traversal (-ell, -tau) is derived from it, so mirror energies tie exactly.
Graph models (support on a vertical line) have an explicit two-curve
solution driven by the vertical cumulant.

Derivatives of sqrt(area) in the level value are always obtained through the
coarea identity (arc-mass quadrature), never by finite differences.  A level
solve runs on one fixed polar rule (whitened nodes, see ``levelset``), then
settles area and mass at the root by doubling the node count until n and n/2
nodes agree, up to a cap, and solves again on more nodes when needed.  A
candidate's energy is 2A/M - alpha from its arc's half area A and mass M.
All candidate evaluations are independent and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
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
    _N0,
    _N_CAP,
    _arc_rule,
    _check_args,
    _dirs_of,
    _quadrature,
    _RAY_TOL,
    _ray_radii,
    _ring_rule,
    _settled,
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
_ROOT_RTOL = 1e-13
_SETTLE_RTOL = 1e-12
_ANGLE_XTOL = 1e-15
_ALPHA_HI_CAP = 1e12
_ALPHA_LO_CAP = 1e-14
_LADDER = (1e-1, 1e-2, 1e-3)
_FIXED_POINT_ROUNDS = 30
_TIE_RTOL = 1e-9  # candidate energies this close are ordered by (angle, tau)
_GRAPH_NODES = 64


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
    """alpha -> d sqrt(area)/d alpha on one polar rule, fixed for a whole level
    solve so that the slope is one function of alpha.  Ray radii are
    warm-started across alpha values; ``last`` is the last level evaluated."""

    def __init__(self, model, rule):
        self.model, self.rule, self.last, self._radii = model, rule, None, None

    def __call__(self, alpha: float) -> float:
        area, mass, self._radii = _quadrature(self.model, alpha, self.rule, self._radii)
        self.last = alpha
        return mass / (2.0 * math.sqrt(max(area, 1e-300)))


def _settle_rtol(alpha: float) -> float:
    """N-vs-2N gap of area and mass that counts as settled: ``_SETTLE_RTOL``,
    or four times the relative ray-radius noise where that is larger."""
    return max(_SETTLE_RTOL, 4.0 * _RAY_TOL * max(1.0, alpha) / alpha)


def _solve_level(model, rule_of, target: float):
    """:func:`_solve_decreasing` of the slope on ``rule_of(n)`` nodes, solved
    again on more nodes until n reaches the count at which the area and mass
    settle (:func:`levelset._settled` at :func:`_settle_rtol`) at the root,
    or, without a root, at the smallest level tried: too few nodes
    underestimate the slope of a short arc near the origin."""
    n = _N0
    while True:
        slope = _LevelSlope(model, rule_of(n))
        alpha, cap = _solve_decreasing(slope, target)
        if cap is not None:
            return alpha, cap
        at = alpha if alpha is not None else slope.last
        settled_n = _settled(model, at, rule_of, _settle_rtol(at))[2]
        if settled_n <= n:
            return alpha, cap
        n = settled_n


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
    alpha, cap_slope = _solve_level(model, lambda n: _ring_rule(model, n), target)
    if alpha is None:
        if cap_slope is None:
            raise NoConvergenceError("level solve found no root on the small-alpha side")
        # the area reached at the cap level (A/M^2 of each half), on the finest rule
        full, mass, _ = _quadrature(model, _ALPHA_HI_CAP, _ring_rule(model, _N_CAP))
        raise OutOfRangeError(
            "target area at or beyond the attainable range", a_max=2.0 * full / mass ** 2
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
    # scan intervals [thetas[i], ends[i]]; the gap is anti-periodic
    ends, end_gaps = np.append(thetas[1:], np.pi), np.append(gaps[1:], -gaps[0])
    roots: list[float] = []
    for lo, hi, g_lo, g_hi in zip(thetas, ends, gaps, end_gaps):
        if abs(g_lo) <= scale:
            roots.append(float(lo))
        elif g_lo * g_hi < 0.0:
            roots.append(_direction_root(model, alpha, lo, hi, g_lo, g_hi))
    units = [np.array([math.cos(t), math.sin(t)]) for t in _dedup_angles(roots)]
    return [(ell, tau) for e in units for ell in (e, -e) for tau in (+1, -1)]


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
    # the energy integral of (u . grad K - alpha)/|grad K| in arc length is
    # 2 area - alpha mass (u . grad K/|grad K| is the support function)
    rule_of = lambda m: _arc_rule(model, arc.ell, arc.tau, m)
    area, mass, _ = _settled(model, alpha, rule_of, _settle_rtol(alpha))
    return Trajectory(arc.times, pts, derivs, energy=2.0 * area / mass - alpha), arc.mass


def build_trajectory(
    model: inc.IncrementModel, alpha: float, ell, tau: int, n: int = 1024
) -> Trajectory:
    """Optimal-form trajectory: the level arc rotated by -tau * 90 degrees and
    scaled by the reciprocal arc mass.

    h(0) = 0, h'(t) = grad K(g(t)) exactly (a quarter-turn of the arc
    tangent), and the hull area equals half_area/mass^2.  The stored energy is
    2 half_area/mass - alpha, with both settled on doubling Gauss-Legendre
    rules: the arc-length integral of the conjugate identity
    (u . grad K(u) - alpha) along the arc, divided by the mass.
    """
    return _build(model, alpha, _unit(ell), tau, n)[0]


def _candidate(model, alpha, ell, tau, n) -> Candidate:
    traj, lam = _build(model, alpha, _unit(ell), tau, n)
    return Candidate(float(alpha), _unit(ell), int(tau), traj, float(traj.energy), tau * lam)


def _reversed(c: Candidate) -> Candidate:
    """The arc of ``c`` traversed from its other end: (-ell, -tau), with
    trajectory h(1) - h(1 - t), reversed derivatives, the same energy and the
    negated multiplier."""
    t = c.trajectory
    traj = Trajectory(t.times, t.points[-1] - t.points[::-1], t.derivs[::-1].copy(), energy=t.energy)
    return Candidate(c.alpha, -c.ell, -c.tau, traj, c.energy, -c.multiplier)


def _solve_candidate(model, theta, tau, area, n, k):
    """Fixed-point resolution of the coupled (direction, level) conditions.

    The level equation is solved at the direction ``theta``; the level set's
    chords (:func:`candidate_directions` with ``k`` scan angles) are found at
    that level, and ``theta`` moves to the nearest chord direction with the
    same ``tau``, until it moves by at most 1e-12 (chord directions do not
    drift with the level for quadratic cumulants).  None when the arc has no
    level root or the level set has no chord;
    :class:`NoConvergenceError` after ``_FIXED_POINT_ROUNDS`` rounds.
    """
    target = 1.0 / (2.0 * math.sqrt(area))
    for _ in range(_FIXED_POINT_ROUNDS):
        ell = np.array([math.cos(theta), math.sin(theta)])
        alpha, _cap = _solve_level(model, lambda n: _arc_rule(model, ell, tau, n), target)
        if alpha is None:
            return None
        chords = [math.atan2(e[1], e[0]) for e, t in candidate_directions(model, alpha, k) if t == tau]
        if not chords:
            return None
        gap = lambda c: abs(math.remainder(c - theta, 2.0 * math.pi))  # angle mod 2 pi
        new_theta = min(chords, key=gap)
        if gap(new_theta) <= 1e-12:
            return _candidate(model, alpha, ell, tau, n)
        theta = new_theta
    raise NoConvergenceError(
        f"direction/level fixed point unsettled after {_FIXED_POINT_ROUNDS} rounds"
    )


def _ordered(cands: list[Candidate]) -> list[Candidate]:
    """Candidates by energy; those within ``_TIE_RTOL`` of the lowest energy
    left are ordered by (angle of ell, tau).  The arcs (ell, tau) and
    (-ell, -tau) are one arc traversed from opposite ends, with one energy,
    so the angle decides which of them leads."""
    rest = sorted(cands, key=lambda c: c.energy)
    out: list[Candidate] = []
    while rest:
        lead = rest[0].energy
        tied = [c for c in rest if c.energy <= lead + _TIE_RTOL * abs(lead)]
        out += sorted(tied, key=lambda c: (math.atan2(c.ell[1], c.ell[0]), c.tau))
        rest = rest[len(tied):]
    return out


def _solve_full_plane(model, area, directions, n) -> RateResult:
    if inc.is_centrally_symmetric(model):
        alpha = symmetric_level(model, area)
        ell = np.array([1.0, 0.0])
        cands = [_candidate(model, alpha, ell, tau, n) for tau in (+1, -1)]
    else:
        seed_alpha, _cap = _solve_level(
            model, lambda n: _ring_rule(model, n), 1.0 / math.sqrt(2.0 * area)
        )
        if seed_alpha is None:
            seed_alpha = 1.0
        cands = []
        for ell, tau in candidate_directions(model, seed_alpha, directions):
            theta = math.atan2(ell[1], ell[0])
            if theta >= 0.0:
                continue  # the reverse of the arc (-ell, -tau), derived from it below
            cand = _solve_candidate(model, theta, tau, area, n, directions)
            if cand is not None and not any(
                d.tau == cand.tau and np.linalg.norm(d.ell - cand.ell) <= 1e-9 for d in cands
            ):
                cands += [cand, _reversed(cand)]
        if not cands:
            raise NoCandidateError(
                "no admissible (level, direction, orientation) triple: "
                "the target area is at or beyond the attainable range"
            )
    return RateResult(float(area), _ordered(cands), min(c.energy for c in cands), model)


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

# Gauss-Legendre nodes and weights on [-1, 1], _GRAPH_NODES on each side of 0:
# the integrands below bend sharply at s = 0 when u is large.
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GRAPH_NODES)
_GL_NODES = np.concatenate([0.5 * (_gl_x - 1.0), 0.5 * (_gl_x + 1.0)])
_GL_WEIGHTS = 0.5 * np.concatenate([_gl_w, _gl_w])


def _area_slope(y, u: float) -> float:
    """E'(u) for E(u) = integral of K_y(u s) over s in [-1, 1]."""
    if isinstance(y, inc.Gaussian1D):
        return (2.0 / 3.0) * y.var * u  # the mean term integrates out
    return float(_GL_WEIGHTS @ (_GL_NODES * inc.y_cumulant_d1(y, u * _GL_NODES)))


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
    shared energy by Gauss-Legendre quadrature of the conjugate identity
    w K_y'(w) - K_y(w) over w in [-u, u].
    """
    if not (area > 0.0):
        raise ValueError("target area must be positive")
    y = legendre._y_model(model)
    mu1 = model.kind.mu1
    a_max = _graph_a_max(mu1, y)
    if area >= a_max:
        raise OutOfRangeError("target area at or beyond the graph-model range", a_max=a_max)
    u, _ = _solve_decreasing(lambda v: -_area_slope(y, v), -4.0 * area / abs(mu1))
    if u is None:
        raise NoConvergenceError("dual-parameter solve found no bracket")

    w = u * _GL_NODES
    energy = 0.5 * float(_GL_WEIGHTS @ (w * inc.y_cumulant_d1(y, w) - inc.y_cumulant(y, w)))

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
    w = legendre.rate_1d_gradient(model, traj.derivs[:, 1])
    mu1 = model.kind.mu1
    res = float(np.max(np.abs(multiplier * mu1 * traj.times - (w - w[0]))))
    defect = float(abs(w[-1] + w[0]))
    return res + defect
