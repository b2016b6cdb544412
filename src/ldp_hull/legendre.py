"""Rate functions as convex conjugates of the cumulant, and curve energies.

``rate(model, v)`` evaluates sup_u (u.v - K(u)) by inverting the cumulant
gradient with a damped Newton method; ``energy`` integrates the rate of a
trajectory's derivative by the composite trapezoid rule on the trajectory's
own grid (the grid is the caller's accuracy knob: these curves are C^1, so
the rule is second order).

Values of the rate outside its effective domain are reported as ``math.inf``
rather than raised.  Newton state is local to each call; everything here is
pure and thread-safe.  Convergence slows near the boundary of the effective
domain for atom models, where the gradient inverse is ill-conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import increments as inc
from .errors import NoConvergenceError, NotFullPlaneError, OutsideDomainError
from .polyline import convex_hull_vertices

__all__ = [
    "Trajectory",
    "rate",
    "rate_gradient",
    "rate_batch",
    "rate_1d",
    "rate_1d_gradient",
    "energy",
]

_NEWTON_TOL = 1e-10
_MAX_ITER = 100


@dataclass
class Trajectory:
    """Sampled planar curve on [0, 1] starting at the origin.

    ``derivs`` holds derivative samples (one-sided at the endpoints) and
    ``energy``, when set, the trapezoid quadrature of the rate along them.
    The solver's curves carry their dual path u(t) as ``duals``, with
    ``derivs = grad K(duals)``, so their rate u.v - K(u) needs no inversion.
    """

    times: np.ndarray   # strictly increasing, times[0] = 0, times[-1] = 1
    points: np.ndarray  # (n+1, 2), points[0] = (0, 0)
    derivs: np.ndarray  # (n+1, 2)
    duals: np.ndarray | None = None  # (n+1, 2) when set
    energy: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, float)
        if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must increase strictly from 0 to 1")
        p = np.asarray(self.points, float)
        if p.shape != (len(t), 2) or np.any(p[0] != 0.0):
            raise ValueError("points must start at the origin, one per time")
        self.times, self.points = t, p
        self.derivs = np.asarray(self.derivs, float)

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def _require_full_plane(model: inc.IncrementModel, what: str) -> None:
    if inc.support_class(model).tag != "full_plane":
        raise NotFullPlaneError(
            f"{what} needs a full-plane support class; regularize the model first"
        )


def _domain_mask(model: inc.IncrementModel, V: np.ndarray) -> np.ndarray:
    """True where the rate is finite and the gradient inverse exists.

    For Gaussian kinds and any regularized model that is the whole plane; for
    bare atoms it is the strict interior of the convex hull of the atoms.
    """
    if model.epsilon > 0.0 or isinstance(model.kind, inc.Gaussian):
        return np.ones(len(V), dtype=bool)
    return inc._strictly_inside(convex_hull_vertices(model.kind.points), V)


def _solve2x2(H: np.ndarray, r: np.ndarray) -> np.ndarray:
    a, b, c = H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]
    det = a * c - b * b
    det = np.where(det <= 0.0, np.finfo(float).tiny, det)
    out = np.empty_like(r)
    out[:, 0] = (c * r[:, 0] - b * r[:, 1]) / det
    out[:, 1] = (a * r[:, 1] - b * r[:, 0]) / det
    return out


def _linear_duals(model: inc.IncrementModel, V: np.ndarray) -> np.ndarray:
    """Hess K(0)^{-1} (v - mu) per row: the duals of the quadratic model of K
    at 0, exact for Gaussian laws."""
    _, mu, H0 = inc._derivatives(model, np.zeros(2), 2)
    return _solve2x2(np.broadcast_to(H0[None], (len(V), 2, 2)), V - mu)


def _dual_rates(U: np.ndarray, V: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Rate u.v - K per row from K = K(u), clipped at 0: the rate at v = grad K(u)."""
    return np.maximum(np.einsum("ij,ij->i", U, V) - K, 0.0)


def _conjugate_maximizer(
    model: inc.IncrementModel, V: np.ndarray, feasible: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched solve of grad K(u) = v on the rows ``feasible`` (the domain mask).

    Damped Newton with Armijo halving, falling back to a residual-direction
    step (gradient descent on the dual objective K(u) - u.v) whenever the
    Newton step fails to produce decrease.  Initial guess is the linearization
    Hess K(0)^{-1} (v - mu).  Returns (U, converged); rows outside the
    effective domain come back unconverged.
    """
    U = _linear_duals(model, V)
    if model.epsilon > 0.0 and isinstance(model.kind, inc.Atoms):
        # far outside the atom hull the quadratic term dominates:
        # grad K(u) ~ p + eps*u for the leading atom p, so (v - p)/eps is a
        # much better start there; keep whichever has the lower dual value
        best = inc.cumulant(model, U) - np.einsum("ij,ij->i", U, V)
        for p in model.kind.points:
            cand = (V - p) / model.epsilon
            val = inc.cumulant(model, cand) - np.einsum("ij,ij->i", cand, V)
            better = val < best
            U[better] = cand[better]
            best = np.minimum(best, val)
    U[~feasible] = 0.0
    exact = np.all(V == inc.drift(model), axis=1)  # rate minimizer: u* = 0 exactly
    U[exact] = 0.0

    # Globalize on the residual merit 0.5 * |grad K(u) - v|^2: with an SPD
    # Hessian both the Newton direction and the fallback -residual direction
    # descend it, and its rounding floor sits quadratically below the target
    # tolerance (Armijo on the dual value K(u) - u.v stalls in float noise
    # once the remaining decrease drops under the value's ulp).
    tol = _NEWTON_TOL * (1.0 + np.linalg.norm(V, axis=1))
    converged = np.zeros(len(V), dtype=bool)
    converged[exact] = True

    def line_search(rows, step, slope, Ua, Va, ga, m_a):
        """Armijo halving on the merit for the given rows; returns accepted rows."""
        alpha = np.ones(len(rows))
        live = np.arange(len(rows))
        for _ in range(60):
            r = rows[live]
            trial = Ua[r] + alpha[live, None] * step[live]
            gnew = inc.cumulant_gradient(model, trial) - Va[r]
            mnew = 0.5 * np.einsum("ij,ij->i", gnew, gnew)
            ok = mnew <= m_a[r] + 1e-4 * alpha[live] * slope[live]
            acc = r[ok]
            Ua[acc] = trial[ok]
            m_a[acc] = mnew[ok]
            ga[acc] = gnew[ok]
            live = live[~ok]
            if len(live) == 0:
                break
            alpha[live] *= 0.5
        return np.setdiff1d(rows, rows[live] if len(live) else [], assume_unique=True)

    for _ in range(_MAX_ITER):
        grad = inc.cumulant_gradient(model, U) - V
        res2 = np.einsum("ij,ij->i", grad, grad)
        converged |= np.sqrt(res2) <= tol
        active = feasible & ~converged
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        Ua, Va, ga, m_a = U[idx].copy(), V[idx], grad[idx].copy(), 0.5 * res2[idx]
        H = inc.cumulant_hessian(model, Ua)
        rows = np.arange(len(idx))
        newton = -_solve2x2(H, ga)
        accepted = line_search(rows, newton, -2.0 * m_a, Ua, Va, ga, m_a)
        left = np.setdiff1d(rows, accepted, assume_unique=True)
        if len(left):
            slope = -np.einsum("ij,ijk,ik->i", ga[left], H[left], ga[left])
            line_search(left, -ga[left], slope, Ua, Va, ga, m_a)
        U[idx] = Ua
    else:
        grad = inc.cumulant_gradient(model, U) - V
        converged |= np.linalg.norm(grad, axis=1) <= tol
    converged &= feasible
    return U, converged


def rate_batch(model: inc.IncrementModel, V, return_maximizers: bool = False):
    """Rate values u.v - K(u) on rows of ``V``; ``math.inf`` outside the effective domain.

    Each u solves grad K(u) = v from the linearized start.  A caller that
    carries u and reads v = grad K(u) needs no inversion.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    feasible = _domain_mask(model, V)
    U, ok = _conjugate_maximizer(model, V, feasible)
    if np.any(feasible & ~ok):
        raise NoConvergenceError(
            f"gradient inversion failed for {int(np.sum(feasible & ~ok))} points "
            f"after {_MAX_ITER} iterations"
        )
    vals = _dual_rates(U, V, inc.cumulant(model, U))
    vals[~feasible] = math.inf
    if return_maximizers:
        return vals, U
    return vals


def rate(model: inc.IncrementModel, v) -> float:
    """Convex conjugate of the cumulant at velocity ``v``; >= 0, zero at the drift."""
    _require_full_plane(model, "rate")
    return float(rate_batch(model, np.reshape(np.asarray(v, float), (1, 2)))[0])


def rate_gradient(model: inc.IncrementModel, v) -> np.ndarray:
    """Maximizer u* of the conjugate problem: the inverse of the cumulant gradient."""
    _require_full_plane(model, "rate_gradient")
    V = np.reshape(np.asarray(v, float), (1, 2))
    feasible = _domain_mask(model, V)
    if not feasible[0]:
        raise OutsideDomainError("v lies outside the effective domain of the rate")
    U, ok = _conjugate_maximizer(model, V, feasible)
    if not ok[0]:
        raise NoConvergenceError(f"gradient inversion failed after {_MAX_ITER} iterations")
    return U[0]


# ---------------------------------------------------------------------------
# One-dimensional rate of the vertical component of a Graph1D model

def _y_model(model: inc.IncrementModel) -> "inc.Gaussian1D | inc.Atoms1D":
    """The vertical law of a graph model; the graph routes need it unregularized."""
    if not isinstance(model.kind, inc.Graph1D) or model.epsilon != 0.0:
        raise NotFullPlaneError("expected an unregularized graph model")
    return model.kind.y_model


def _solve_y_gradient(y, v: np.ndarray) -> np.ndarray:
    """Solve K_y'(w) = v per entry of a 1-D array v interior to the support hull.

    K_y' is increasing: per entry, a bracket doubled out from [-1, 1], then
    the batched safeguarded Newton of :func:`increments._increasing_root` from
    its midpoint until residual and bracket are at rounding level.
    """
    if isinstance(y, inc.Gaussian1D):
        return (v - y.mean) / y.var
    lo, hi = np.full(len(v), -1.0), np.ones(len(v))
    for _ in range(200):
        grow_lo = inc.y_cumulant_d1(y, lo) >= v
        grow_hi = inc.y_cumulant_d1(y, hi) <= v
        if not (grow_lo.any() or grow_hi.any()):
            break
        lo[grow_lo] *= 2.0
        hi[grow_hi] *= 2.0
    else:
        raise NoConvergenceError("no bracket for K_y'(w) = v; is v interior to the support?")

    def residual(w):
        _, d1, d2 = inc._y_derivatives(y, w, 2)
        return d1 - v, d2

    ftol = 1e-14 * (1.0 + np.abs(v))
    return inc._increasing_root(residual, 0.5 * (lo + hi), lo, hi, ftol, xtol=1e-12)


def _y_query(model: inc.IncrementModel, v):
    """(y model, v as a 1-D array, support ends, tolerance at the ends)."""
    y = _y_model(model)
    if isinstance(y, inc.Gaussian1D):
        lo, hi = -math.inf, math.inf
    else:
        lo, hi = float(y.points.min()), float(y.points.max())
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    return y, np.atleast_1d(np.asarray(v, dtype=float)), lo, hi, tol


def rate_1d(model: inc.IncrementModel, v):
    """Rate of the vertical component of a graph model at velocity ``v``.

    ``v`` is a scalar (float result) or a 1-D array (array result).  Finite on
    the closed support hull of the vertical law: at an endpoint atom the value
    is the negative log-mass of that atom (the supremum is attained only in
    the limit there); outside the closed hull the query is rejected.
    """
    y, V, lo, hi, tol = _y_query(model, v)
    if np.any((V < lo - tol) | (V > hi + tol)):
        raise OutsideDomainError("v lies outside the closed support hull")
    out = np.empty_like(V)
    inner = np.ones(len(V), dtype=bool)
    if isinstance(y, inc.Atoms1D):
        for end, atom in ((lo, np.argmin(y.points)), (hi, np.argmax(y.points))):
            at_end = inner & (np.abs(V - end) <= tol)
            out[at_end] = -math.log(float(y.probs[atom]))
            inner &= ~at_end
    w = _solve_y_gradient(y, V[inner])
    out[inner] = np.maximum(0.0, w * V[inner] - inc.y_cumulant(y, w))
    return float(out[0]) if np.ndim(v) == 0 else out


def rate_1d_gradient(model: inc.IncrementModel, v):
    """Derivative of :func:`rate_1d` (scalar or 1-D array ``v``): the inverse of K_y'."""
    y, V, lo, hi, tol = _y_query(model, v)
    if np.any((V <= lo + tol) | (V >= hi - tol)):
        raise OutsideDomainError("rate_1d_gradient needs v interior to the support hull")
    w = _solve_y_gradient(y, V)
    return float(w[0]) if np.ndim(v) == 0 else w


def energy(model: inc.IncrementModel, traj: Trajectory) -> float:
    """Trapezoid quadrature of the rate along the trajectory's derivative samples.

    Stores the result on ``traj.energy``.  Infinite rate at any sample makes
    the energy infinite.
    """
    _require_full_plane(model, "energy")
    vals = rate_batch(model, traj.derivs)
    if np.any(np.isinf(vals)):
        traj.energy = math.inf
        return math.inf
    out = float(np.trapezoid(vals, traj.times))
    traj.energy = out
    return out
