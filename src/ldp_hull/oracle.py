"""Independent discretized variational check on the solved rate values.

Minimizes the mean increment rate of a piecewise-linear curve subject to a
signed-area constraint, by a safeguarded augmented-Lagrangian loop whose
inner problems run gradient descent with backtracking.  The signed area is
used as the constraint (smooth in the velocities, unlike the hull area, and
with the same optimum over this class); hull area is verified a posteriori on
the convexified output.  Both constraint signs are solved and the better
energy reported.

The descent runs in the dual variables (mirror descent in the geometry of K):
each segment carries u, with velocity v = grad K(u) and rate u.v - K(u),
from the linearized duals Hess K(0)^{-1} (v - mu) of a half circle, so
nothing is inverted.  A step moves u along minus the gradient G in v, with
Armijo slope G.Hess K(u).G.

This is a consistency check, not a certificate: the discrete constraint set
is nonconvex, so global optimality of the inner solve is not guaranteed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import increments as inc
from . import legendre
from .errors import NoConvergenceError, NotFullPlaneError
from .polyline import _perp, convexification_order

__all__ = ["DiscreteCurve", "minimize_discrete", "convexify_curve", "curve_points"]

_MAX_OUTER = 60  # augmented-Lagrangian rounds
_MAX_INNER = 4000  # gradient steps per round


@dataclass
class DiscreteCurve:
    """Piecewise-linear curve as n velocity rows; h(t_i) = sum(v_1..v_i)/n."""

    n: int
    velocities: np.ndarray  # (n, 2)
    energy: float           # exactly-rounded mean of the per-velocity rates
    area: float             # discrete signed area


def curve_points(curve: "DiscreteCurve | np.ndarray") -> np.ndarray:
    v = curve.velocities if isinstance(curve, DiscreteCurve) else np.asarray(curve, float)
    pts = np.vstack([np.zeros(2), np.cumsum(v, axis=0) / len(v)])
    return pts


def _area_terms(v: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed area and its gradient in the velocities, from one partial-sum pass."""
    n = len(v)
    H = np.cumsum(v, axis=0) / n
    Hprev = np.vstack([np.zeros(2), H[:-1]])
    area = float(np.sum(Hprev[:, 0] * v[:, 1] - Hprev[:, 1] * v[:, 0])) / (2.0 * n)
    return area, _perp(Hprev + H - H[-1]) / (2.0 * n)


def signed_area(velocities: np.ndarray) -> float:
    """Discrete signed area 1/(2n) * sum of cross(h(t_{i-1}), v_i)."""
    return _area_terms(np.asarray(velocities, float))[0]


def _mean_energy(vals: np.ndarray) -> float:
    # fsum keeps the mean exactly rounded, hence invariant under reordering.
    return math.fsum(vals) / len(vals)


def _half_circle_init(model, area: float, n: int, sign: int) -> np.ndarray:
    # linearized duals of the half circle (exact for Gaussians): all valid starts
    radius = math.sqrt(2.0 * area / math.pi)
    t = np.linspace(0.0, 1.0, n + 1)
    pts = radius * np.column_stack([np.sin(math.pi * t), sign * (1.0 - np.cos(math.pi * t))])
    return legendre._linear_duals(model, np.diff(pts, axis=0) * n)


def _solve_sign(model, area, n, sign, feas_tol, stat_tol):
    U = _half_circle_init(model, area, n, sign)
    target = sign * area
    omega, rho = 0.0, 10.0
    c_prev = math.inf

    def evaluate(U):
        # every dual point is in the domain: v = grad K(u), I(v) = u.v - K(u)
        K, V = inc._derivatives(model, U, 1)
        vals = legendre._dual_rates(U, V, K)
        a, dA = _area_terms(V)
        c = a - target
        L = _mean_energy(vals) + omega * c + 0.5 * rho * c * c
        G = U / n + (omega + rho * c) * dA
        return L, G, V, vals, a, c

    c = gnorm = math.inf
    for _outer in range(_MAX_OUTER):
        gtol = max(0.5 * stat_tol, min(0.1, 10.0 * abs(c) if math.isfinite(c) else 0.1))
        L, G, V, vals, a, c = evaluate(U)
        step = 1.0
        for _inner in range(_MAX_INNER):
            gnorm = n * float(np.max(np.linalg.norm(G, axis=1)))
            if gnorm <= gtol:
                break
            # a step -G in u moves v along -Hess K(u) G, a descent direction in v
            D = -G
            slope = float(np.einsum("ij,ijk,ik->", G, inc.cumulant_hessian(model, U), G))
            t = step
            for _ in range(60):
                trial = evaluate(U + t * D)
                if trial[0] <= L - 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            s = t * D
            y = trial[1] - G
            sy = float(np.sum(s * y))
            step = min(max(float(np.sum(s * s)) / sy, 1e-12), 1e3) if sy > 0 else t * 2.0
            U = U + s
            L, G, V, vals, a, c = trial
        if abs(c) <= feas_tol and gnorm <= stat_tol:
            return DiscreteCurve(n, V, _mean_energy(vals), a)
        omega += rho * c
        if abs(c) > 0.25 * abs(c_prev):
            rho = min(2.0 * rho, 1e9)
        c_prev = c
    raise NoConvergenceError(
        f"augmented Lagrangian stalled: |constraint|={abs(c):.3e}, stationarity={gnorm:.3e} "
        f"after {_MAX_OUTER} outer rounds"
    )


def minimize_discrete(
    model: inc.IncrementModel,
    area: float,
    n: int,
    *,
    feas_tol: float = 1e-6,
    stat_tol: float = 1e-4,
) -> DiscreteCurve:
    """Best piecewise-linear curve with |signed area| = ``area`` (n segments).

    Initialization is the linearized duals of a scaled half circle matching
    the target area (near the basin for every benchmark law, whose optimal
    curves are convex arcs); the descent moves them, velocities grad K(u).
    Both constraint signs are solved and the lower energy returned.  The
    penalty doubles from 10 whenever feasibility stalls.  Feasibility is
    |signed area - target| <= ``feas_tol``; stationarity is the max row norm
    of the augmented-Lagrangian gradient in v scaled by n.  Both tolerances
    must be positive and finite.
    """
    if inc.support_class(model).tag != "full_plane":
        raise NotFullPlaneError("minimize_discrete needs a full-plane support class")
    inc._check_area(area)
    if n < 8:
        raise ValueError("need at least 8 segments")
    for name, tol in (("feas_tol", feas_tol), ("stat_tol", stat_tol)):
        if not (0.0 < tol < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {tol}")
    best = None
    first_error = None
    for sign in (+1, -1):
        try:
            cand = _solve_sign(model, area, n, sign, feas_tol, stat_tol)
        except NoConvergenceError as exc:
            first_error = first_error or exc
            continue
        if best is None or cand.energy < best.energy:
            best = cand
    if best is None:
        raise first_error
    return best


def convexify_curve(curve: DiscreteCurve, orientation: str = "counterclockwise") -> DiscreteCurve:
    """Reorder the velocity sequence into convex position.

    Same angular sort and tie-break as polygonal-line convexification, with
    the reference direction start-minus-end.  The energy is exactly preserved
    (the mean is an exactly-rounded sum of the same per-velocity values);
    hull area and |signed area| never decrease.
    """
    v = curve.velocities
    endpoint = np.sum(v, axis=0) / curve.n
    reference = -endpoint if np.any(endpoint != 0.0) else np.array([1.0, 0.0])
    order = convexification_order(v, reference, orientation)
    w = v[order]
    return DiscreteCurve(curve.n, w, curve.energy, signed_area(w))
