"""Independent discretized variational check on the solved rate values.

Minimizes the mean increment rate of a piecewise-linear curve subject to a
signed-area constraint, by a safeguarded augmented-Lagrangian loop whose
inner problems run gradient descent with backtracking.  The signed area is
used as the constraint (smooth in the velocities, unlike the hull area, and
with the same optimum over this class); hull area is verified a posteriori on
the convexified output.  Both constraint signs are solved and the better
energy reported.

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


def signed_area(velocities: np.ndarray) -> float:
    """Discrete signed area 1/(2n) * sum of cross(h(t_{i-1}), v_i)."""
    v = np.asarray(velocities, float)
    n = len(v)
    H = np.cumsum(v, axis=0) / n
    Hprev = np.vstack([np.zeros(2), H[:-1]])
    return float(np.sum(Hprev[:, 0] * v[:, 1] - Hprev[:, 1] * v[:, 0])) / (2.0 * n)


def _area_gradient(velocities: np.ndarray) -> np.ndarray:
    v = velocities
    n = len(v)
    H = np.cumsum(v, axis=0) / n
    Hprev = np.vstack([np.zeros(2), H[:-1]])
    return _perp(Hprev + H - H[-1]) / (2.0 * n)


def _mean_energy(vals: np.ndarray) -> float:
    # fsum keeps the mean exactly rounded, hence invariant under reordering.
    return math.fsum(vals) / len(vals)


def _half_circle_init(model, area: float, n: int, sign: int) -> np.ndarray:
    radius = math.sqrt(2.0 * area / math.pi)
    t = np.linspace(0.0, 1.0, n + 1)
    pts = radius * np.column_stack([np.sin(math.pi * t), sign * (1.0 - np.cos(math.pi * t))])
    V = np.diff(pts, axis=0) * n
    # keep the start strictly inside the rate's effective domain
    mu = inc.drift(model)
    for _ in range(60):
        if np.all(np.isfinite(legendre.rate_batch(model, V))):
            return V
        V = mu + 0.5 * (V - mu)
    raise NoConvergenceError("could not find a finite-energy starting curve")


def _solve_sign(model, area, n, sign, feas_tol, stat_tol):
    V = _half_circle_init(model, area, n, sign)
    target = sign * area
    omega, rho = 0.0, 10.0
    U = None
    c_prev = math.inf

    def evaluate(V, U_init):
        try:
            vals, U = legendre.rate_batch(model, V, init=U_init, return_maximizers=True)
        except NoConvergenceError:
            # a wild line-search trial point; report infinite so it is rejected
            return math.inf, None, U_init, None
        if np.any(np.isinf(vals)):
            return math.inf, None, U, None
        c = signed_area(V) - target
        L = _mean_energy(vals) + omega * c + 0.5 * rho * c * c
        G = U / n + (omega + rho * c) * _area_gradient(V)
        return L, G, U, c

    c = gnorm = math.inf
    for _outer in range(_MAX_OUTER):
        gtol = max(0.5 * stat_tol, min(0.1, 10.0 * abs(c) if math.isfinite(c) else 0.1))
        L, G, U, c = evaluate(V, U)
        step = 1.0
        for _inner in range(_MAX_INNER):
            gnorm = n * float(np.max(np.linalg.norm(G, axis=1)))
            if gnorm <= gtol:
                break
            D = -G
            gg = float(np.sum(G * G))
            t = step
            accepted = False
            for _ in range(60):
                Lt, Gt, Ut, ct = evaluate(V + t * D, U)
                if Lt <= L - 1e-4 * t * gg:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
            s = t * D
            y = Gt - G
            sy = float(np.sum(s * y))
            step = min(max(float(np.sum(s * s)) / sy, 1e-12), 1e3) if sy > 0 else t * 2.0
            V, L, G, U, c = V + s, Lt, Gt, Ut, ct
        if abs(c) <= feas_tol and gnorm <= stat_tol:
            vals = legendre.rate_batch(model, V, init=U)
            return DiscreteCurve(n, V, _mean_energy(vals), signed_area(V))
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

    Initialization is a scaled half circle matching the target area (near the
    basin for every benchmark law, whose optimal curves are convex arcs);
    both constraint signs are solved and the lower energy returned.  The
    penalty doubles from 10 whenever feasibility stalls.  Feasibility is
    |signed area - target| <= ``feas_tol``; stationarity is the max row norm
    of the augmented-Lagrangian gradient scaled by n.
    """
    if inc.support_class(model).tag != "full_plane":
        raise NotFullPlaneError("minimize_discrete needs a full-plane support class")
    if not (area > 0.0):
        raise ValueError("target area must be positive")
    if n < 8:
        raise ValueError("need at least 8 segments")
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
