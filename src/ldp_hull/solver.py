"""Optimal trajectories and the minimal path cost for a target hull area.

For full-plane increment laws the optimal curves are rotated, scaled arcs of
a cumulant level set; ``levelset`` solves for their level and for the cut
directions ``ell`` (centrally symmetric chords of the level set).  This
module composes the candidates: it seeds the directions, solves each arc's
chord angle as a root on its level and traverses the arc in either orientation.
Each distinct arc is solved once; its reverse traversal (-ell, -tau) and, for
a centrally symmetric law, its point reflection (ell, -tau) are derived from
it, so their energies tie exactly.  A candidate's energy is 2A/M - alpha
from its arc's half area A and mass M.  Graph models (support on a vertical
line) have an explicit two-curve solution driven by the vertical cumulant.
All candidate evaluations are independent and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import increments as inc
from . import legendre
from .errors import (
    NoCandidateError,
    NoConvergenceError,
    NotFullPlaneError,
    OutOfRangeError,
)
from .legendre import Trajectory
from .levelset import (
    ALL_DIRECTIONS,
    _equal_mass_arc,
    _radius_gap,
    _ray_noise,
    _settle_rtol,
    _solve_level,
    _symmetric_level,
    _unit,
    arc_parametrization,
    candidate_directions,
    symmetric_level,
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

_TIE_RTOL = 1e-9  # candidate energies this close are ordered by (angle, tau)
_GRAPH_NODES = 64


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
    added strength).
    """

    area: float
    candidates: list[Candidate]
    rate: float
    model: inc.IncrementModel
    eps_applied: float = 0.0


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
# Trajectories

def _candidate(arc) -> Candidate:
    pts = -(1.0 / (arc.tau * arc.mass)) * _perp(arc.samples - arc.samples[0])
    pts[0] = 0.0
    # energy integral 2 area - alpha mass: u . grad K/|grad K| is the support function
    energy = 2.0 * arc.area / arc.mass - arc.alpha
    traj = Trajectory(arc.times, pts, arc.grads, arc.samples, energy=energy)
    return Candidate(arc.alpha, arc.ell, arc.tau, traj, float(energy), arc.tau * arc.mass)


def build_trajectory(
    model: inc.IncrementModel, alpha: float, ell, tau: int, n: int = 1024
) -> Trajectory:
    """Optimal-form trajectory: the level arc rotated by -tau * 90 degrees and
    scaled by the reciprocal arc mass.

    h(0) = 0, h'(t) = grad K(g(t)) exactly (a quarter-turn of the arc
    tangent), and the hull area equals half_area/mass^2.  The stored energy is
    2 half_area/mass - alpha, from the one settle of the arc parametrization:
    the arc-length integral of the conjugate identity (u . grad K(u) - alpha)
    along the arc, divided by the mass.
    """
    return _candidate(arc_parametrization(model, alpha, ell, tau, n, rtol=_settle_rtol(alpha))).trajectory


def _derived(model, c: Candidate, reflect: bool) -> Candidate:
    """The dual arc g of ``c`` run from its other end: the arc (-ell, -tau) with
    trajectory h(1) - h(1 - t), or, reflected, -g(1 - t), the other half (ell, -tau)
    of a centrally symmetric level set, with h(1 - t) - h(1).  Same energy, negated
    multiplier, derivatives grad K(duals) (not -grad K(g) bit for bit on atom laws)."""
    t, sign = c.trajectory, (-1.0 if reflect else 1.0)
    pts = t.points[::-1] - t.points[-1] if reflect else t.points[-1] - t.points[::-1]
    duals = sign * t.duals[::-1]
    traj = Trajectory(t.times, pts, inc.cumulant_gradient(model, duals), duals, energy=t.energy)
    return Candidate(c.alpha, -sign * c.ell, -c.tau, traj, c.energy, -c.multiplier)


def _solve_candidate(model, theta, tau, area, n):
    """The arc (ell, tau) at the chord nearest ``theta``: the root of G(theta) =
    r(theta) - r(theta + pi) on the level alpha(theta) of the target area.

    G' is dG/dtheta at fixed alpha plus (1/(d . g)(theta) - 1/(d . g)(theta +
    pi)) alpha', with alpha' = -F_theta/F_alpha for the level slope F =
    M/(2 sqrt A), A_theta = tau (r(theta + pi)^2 - r(theta)^2)/2 and M_theta =
    tau (rho(theta + pi) - rho(theta)), rho = r/(d . g).  G is taken over its
    ray noise.  Within it, ``theta`` is the chord (every Gaussian and every
    mirror-symmetric law); otherwise a sign-change bracket grows from 1.25
    times the first Newton step (at most pi/8), doubling within a quarter
    turn, and :func:`increments._increasing_root` solves it.  None where an
    arc has no level root or no bracket is found.
    """
    target, last = 1.0 / (2.0 * math.sqrt(area)), None

    def gap(t: float):  # (G, G') over the noise at angle t, or None without a level root
        nonlocal last
        ell = _unit([math.cos(t), math.sin(t)])
        alpha, _, settled, f_alpha = _solve_level(model, target, ell, tau)
        if alpha is None:
            return None
        g, dg, r, s = _radius_gap(model, alpha, np.array([t]))
        rho, root, mass = r / s, math.sqrt(settled[0]), settled[1]
        f_theta = tau * ((rho[1] - rho[0]) / (2.0 * root) - mass * (r[1] ** 2 - r[0] ** 2) / (8.0 * root ** 3))
        tol, last = _ray_noise(alpha) * (r[0] + r[1]), (alpha, ell, settled)
        return float(g[0] / tol), float((dg[0] - (1.0 / s[0] - 1.0 / s[1]) * f_theta / f_alpha) / tol)

    lo = hi = theta
    f_lo = f_hi = gap(theta)
    if f_lo is not None and abs(f_lo[0]) > 1.0:  # a bracket along the Newton step
        step = -f_lo[0] / f_lo[1] if f_lo[1] else math.inf
        width = math.copysign(min(math.pi / 8, 1.25 * abs(step)), step)
        while f_hi is not None and f_hi[0] * f_lo[0] > 0.0:
            lo, f_lo, hi = hi, f_hi, theta + width
            f_hi, width = (gap(hi) if abs(width) <= math.pi / 2 else None), 2.0 * width
        if f_hi is not None:
            a, b = sorted((lo, hi))
            x0 = theta + step if a < theta + step < b else 0.5 * (a + b)
            sign = -math.copysign(1.0, f_lo[0] * (hi - lo))  # sign * G increases from a to b
            inc._increasing_root(lambda t: tuple(sign * v for v in gap(float(t))), x0, a, b, 1.0)
    if f_hi is None:
        return None
    alpha, ell, settled = last  # at the returned angle, the last one evaluated
    return _candidate(_equal_mass_arc(model, alpha, ell, tau, *settled, n))


def _ordered(cands: list[Candidate]) -> list[Candidate]:
    """Candidates by energy; those within ``_TIE_RTOL`` of the lowest energy
    left are ordered by (angle of ell, tau).  A derived candidate has its
    solved arc's energy, so the angle decides between an arc's two traversals
    and tau between the two halves of a centrally symmetric level set."""
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
        cand = _candidate(_equal_mass_arc(model, *_symmetric_level(model, area), n))
        cands = [cand, _derived(model, cand, reflect=True)]
    else:
        seed_alpha, cap, _, _ = _solve_level(model, 1.0 / math.sqrt(2.0 * area))
        cands = []
        for ell, tau in candidate_directions(model, 1.0 if seed_alpha is None else seed_alpha, directions):
            theta = math.atan2(ell[1], ell[0])
            if theta >= 0.0:
                continue  # the reverse of the arc (-ell, -tau), derived from it below
            cand = _solve_candidate(model, theta, tau, area, n)
            if cand is not None and not any(
                d.tau == cand.tau and np.linalg.norm(d.ell - cand.ell) <= 1e-9 for d in cands
            ):
                cands += [cand, _derived(model, cand, reflect=False)]
        if not cands:
            raise NoCandidateError("no admissible (level, direction, orientation) triple: " + (
                "no seeded arc has a level root with a chord at the target area" if cap is None
                else "the whole level set reaches the target area at no level: it may be at or "
                "beyond the attainable range"))
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

    Any model is regularized by a positive ``eps`` (a negative or non-finite
    one is rejected).  Otherwise full-plane models are solved directly and
    graph models take the explicit two-curve route.  A centrally symmetric
    proper-subset model lives on a line through 0, where walks enclose no
    area: :class:`OutOfRangeError` with a_max = 0.
    """
    inc._check_area(area)
    if eps is not None and inc._check_eps(eps) > 0.0:
        res = _solve_full_plane(inc.regularize(model, eps), area, directions, samples)
        return replace(res, eps_applied=float(eps))
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
            raise NotFullPlaneError("a proper-subset model needs eps > 0")
        if inc.is_centrally_symmetric(model):
            raise OutOfRangeError("support on a line through 0: the walks enclose no area", a_max=0.0)
        raise NotFullPlaneError("proper-subset support: pass eps > 0 to regularize")
    return _solve_full_plane(model, area, directions, samples)


# ---------------------------------------------------------------------------
# Graph models: support on a vertical line

# Gauss-Legendre nodes and weights on [-1, 1], _GRAPH_NODES on each side of 0:
# the integrands below bend sharply at s = 0 when u is large.
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GRAPH_NODES)
_GL_NODES = np.concatenate([0.5 * (_gl_x - 1.0), 0.5 * (_gl_x + 1.0)])
_GL_WEIGHTS = 0.5 * np.concatenate([_gl_w, _gl_w])


def _area_slope(y, u: float) -> tuple[float, float]:
    """E'(u) and E''(u) for E(u) = integral of K_y(u s) over s in [-1, 1]."""
    if isinstance(y, inc.Gaussian1D):
        return (2.0 / 3.0) * y.var * u, (2.0 / 3.0) * y.var  # the mean term integrates out
    _, d1, d2 = inc._y_derivatives(y, u * _GL_NODES, 2)
    return float(_GL_WEIGHTS @ (_GL_NODES * d1)), float(_GL_WEIGHTS @ (_GL_NODES ** 2 * d2))


def _graph_a_max(mu1: float, y) -> float:
    if isinstance(y, inc.Gaussian1D):
        return math.inf
    spread = float(y.points.max() - y.points.min())
    return abs(mu1) * spread / 8.0  # limit of E' is half the support spread


def graph_trajectory(model: inc.IncrementModel, area: float, n: int = 1024) -> GraphSolution:
    """The two optimal curves for a graph model, their dual parameter and energy.

    Solves |mu1| E'(u) = 4 * area for the unique positive u (E' is strictly
    increasing, so the decreasing -E', with its derivative -E'', goes through
    the level-value solver),
    builds the curve pair on the dual paths (0, +-u (2t - 1)), and evaluates
    the shared energy by Gauss-Legendre quadrature of the conjugate identity
    w K_y'(w) - K_y(w) over w in [-u, u].
    """
    inc._check_area(area)
    y = legendre._y_model(model)
    mu1 = model.kind.mu1
    a_max = _graph_a_max(mu1, y)
    if area >= a_max:
        raise OutOfRangeError("target area at or beyond the graph-model range", a_max=a_max)
    u, _ = inc._solve_decreasing(lambda v: tuple(-e for e in _area_slope(y, v)), -4.0 * area / abs(mu1))
    if u is None:
        raise NoConvergenceError("dual-parameter solve found no bracket")

    w = u * _GL_NODES
    k, d1 = inc._y_derivatives(y, w, 1)
    energy = 0.5 * float(_GL_WEIGHTS @ (w * d1 - k))

    times = np.linspace(0.0, 1.0, n + 1)
    w = u * (2.0 * times - 1.0)

    def curve(sign: int) -> Trajectory:
        h2 = (inc.y_cumulant(y, sign * w) - float(inc.y_cumulant(y, np.array([-sign * u]))[0])) / (
            2.0 * sign * u
        )
        pts = np.column_stack([mu1 * times, h2])
        pts[0] = 0.0
        duals = np.column_stack([np.zeros_like(times), sign * w])
        return Trajectory(times, pts, inc.cumulant_gradient(model, duals), duals, energy=energy)

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
