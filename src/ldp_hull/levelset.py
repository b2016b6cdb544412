"""Level sets of the cumulant: tracing, areas, arc masses, arc parametrization.

A level set K^{-1}(alpha) with alpha > 0 is a closed convex curve around the
origin (K(0) = 0 and K grows in every direction for full-plane models), so it
is traced by shooting rays from the origin.  The line through the origin in
direction ``ell`` cuts it into two arcs, selected by the orientation flag
``tau`` (+1 keeps the counterclockwise side ``u . perp(ell) >= 0``).

Every level-set quantity comes from one quadrature, :func:`_quadrature`: ray
solves at given angles, then the chord-closed shoelace area and the
per-segment trapezoid increments of 1/|grad K| (the coarea mass) and of
(u . grad K - alpha)/|grad K| (the energy) along the traced polygon.  The
whole level set is the arc over [0, 2 pi], its last ray repeating the first.
The public functions double a uniform angle grid until the quadrature settles
to a relative tolerance (:func:`_refine`, which raises
:class:`NoConvergenceError` at the grid cap); the solver instead takes a
fixed pair of grids and one Richardson step (:func:`_extrapolated`).  Ray
solves within one trace are independent scalar root finds evaluated as a
vectorized batch; results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import increments as inc
from .errors import NoConvergenceError, NotFullPlaneError
from .polyline import PolygonalLine, _perp, _polygon_area

__all__ = [
    "LevelArc",
    "level_radius",
    "trace_level",
    "sublevel_area",
    "half_area",
    "arc_mass",
    "half_area_derivative",
    "arc_parametrization",
]

_RAY_TOL = 1e-12
_REFINE_RTOL = 1e-7
_M_CAP = 2 ** 20


@dataclass
class LevelArc:
    """Canonical parametrization g of one arc of a cumulant level set.

    The samples satisfy K(g(t)) = alpha, run from the ray intersection on
    ``ell * R_+`` (t = 0) to the one on ``ell * R_-`` (t = 1), and carry the
    equal-mass parametrization: the accumulated integral of 1/|grad K| in arc
    length up to g(t) equals t * mass, equivalently |g'(t)| equals
    mass * |grad K(g(t))| with orientation ``tau``.
    """

    alpha: float
    ell: np.ndarray
    tau: int
    times: np.ndarray
    samples: np.ndarray
    derivs: np.ndarray
    mass: float


def _check_args(model: inc.IncrementModel, alpha: float, what: str) -> None:
    if inc.support_class(model).tag != "full_plane":
        raise NotFullPlaneError(f"{what} needs a full-plane support class")
    if not (alpha > 0.0):
        raise ValueError(f"{what} needs alpha > 0")


def _unit(vec) -> np.ndarray:
    v = np.reshape(np.asarray(vec, dtype=float), 2)
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        raise ValueError("direction must be non-zero")
    return v / n


def _check_tau(tau) -> int:
    if tau in (+1, -1):
        return int(tau)
    if tau in ("+", "-"):
        return +1 if tau == "+" else -1
    raise ValueError("tau must be +1/-1 (or '+'/'-')")


def _ray_radii(
    model: inc.IncrementModel,
    alpha: float,
    dirs: np.ndarray,
    r0: np.ndarray | None = None,
) -> np.ndarray:
    """Radii r > 0 with K(r * dir) = alpha for each unit row of ``dirs``.

    Unique because K is convex with K(0) = 0 < alpha and grows to infinity
    along every ray, so K(r * dir) - alpha is negative below the root and
    positive above it (it may dip first, on rays against the drift).  One
    safeguarded Newton solve on the bracket (0, inf), started from ``r0`` (the
    radii of a nearby solve) or from 1, until every residual is at most
    ``_RAY_TOL * max(1, alpha)``; raises :class:`NoConvergenceError` otherwise.
    """

    def residual(r):
        u = dirs * r[:, None]
        slope = np.einsum("ij,ij->i", dirs, inc.cumulant_gradient(model, u))
        return inc.cumulant(model, u) - alpha, slope

    x0 = np.ones(len(dirs)) if r0 is None else r0
    return inc._increasing_root(residual, x0, 0.0, math.inf, _RAY_TOL * max(1.0, alpha))


def level_radius(model: inc.IncrementModel, alpha: float, direction) -> float:
    """The unique r > 0 with K(r * direction) = alpha along a unit direction."""
    _check_args(model, alpha, "level_radius")
    d = _unit(direction)
    return float(_ray_radii(model, alpha, d[None, :])[0])


def _dirs_of(angles: np.ndarray) -> np.ndarray:
    return np.column_stack([np.cos(angles), np.sin(angles)])


def trace_level(model: inc.IncrementModel, alpha: float, m: int = 2048) -> PolygonalLine:
    """Closed convex polygon inscribed in K^{-1}(alpha): m uniform-angle ray solves."""
    _check_args(model, alpha, "trace_level")
    if m < 8:
        raise ValueError("trace_level needs at least 8 samples")
    angles = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    dirs = _dirs_of(angles)
    pts = dirs * _ray_radii(model, alpha, dirs)[:, None]
    return PolygonalLine(np.vstack([pts, pts[:1]]))


def _ring_angles(m: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, m + 1)


def _arc_angles(ell: np.ndarray, tau: int, m: int) -> np.ndarray:
    theta0 = math.atan2(ell[1], ell[0])
    return theta0 + tau * np.pi * np.linspace(0.0, 1.0, m + 1)


def _quadrature(model, alpha, angles, r0=None):
    """Trapezoid quadrature along the level set traced at ``angles``.

    Returns (area, mass, energy, radii): the shoelace area of the traced
    points closed by the chord from last to first (for an arc, along
    ``ell * R``), the per-segment increments of the arc-length integrals of
    1/|grad K| and of (u . grad K(u) - alpha)/|grad K|, and the ray radii for
    warm starts.  The solver divides the energy integral by the mass to get a
    trajectory energy.
    """
    dirs = _dirs_of(angles)
    r = _ray_radii(model, alpha, dirs, r0=r0)
    pts = dirs * r[:, None]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    grads = inc.cumulant_gradient(model, pts)
    gn = np.linalg.norm(grads, axis=1)
    f = 1.0 / gn
    e = (np.einsum("ij,ij->i", pts, grads) - alpha) / gn
    mass = 0.5 * (f[:-1] + f[1:]) * seg
    energy = 0.5 * (e[:-1] + e[1:]) * seg
    return abs(_polygon_area(pts)), mass, energy, r


def _extrapolated(model, alpha, grids, radii) -> np.ndarray:
    """(area, mass, energy) from a coarse and a fine grid and one Richardson step.

    ``grids`` holds the coarse angles and the fine ones at twice the count;
    ``radii`` holds a warm start per grid (or None) and receives the new radii.
    The step removes the second-order polygon-inscription bias.
    """
    vals = []
    for i, angles in enumerate(grids):
        area, mass, energy, radii[i] = _quadrature(model, alpha, angles, radii[i])
        vals.append(np.array([area, np.sum(mass), np.sum(energy)]))
    return (4.0 * vals[1] - vals[0]) / 3.0


def _refine(model, alpha, angles_of, m0: int, rtol: float, settle):
    """Angles and :func:`_quadrature` of the first grid, doubling from ``m0``
    segments, on which ``settle(area, mass)`` has changed by at most ``rtol``
    relative since the grid before.  Raises at ``_M_CAP`` segments."""
    m, prev = m0, None
    while True:
        angles = angles_of(m)
        quad = _quadrature(model, alpha, angles)
        vals = settle(quad[0], float(np.sum(quad[1])))
        if prev is not None and all(
            abs(v - p) <= rtol * max(abs(p), 1e-300) for v, p in zip(vals, prev)
        ):
            return angles, quad
        if m >= _M_CAP:
            raise NoConvergenceError(
                f"level-set quadrature did not settle to rtol={rtol:g} by {m} segments"
            )
        prev, m = vals, 2 * m


def _area_mass(model, alpha, angles_of, m0: int, rtol: float) -> tuple[float, float]:
    """Area and mass, refined until both settle."""
    both = lambda area, mass: (area, mass)
    _, (area, mass, _, _) = _refine(model, alpha, angles_of, m0, rtol, both)
    return area, float(np.sum(mass))


def sublevel_area(model: inc.IncrementModel, alpha: float, rtol: float = _REFINE_RTOL) -> float:
    """Area of the sub-level set {K <= alpha}."""
    _check_args(model, alpha, "sublevel_area")
    return _area_mass(model, alpha, _ring_angles, 256, rtol)[0]


def half_area(model, alpha: float, ell, tau, rtol: float = _REFINE_RTOL) -> float:
    """Area of the part of {K <= alpha} on side ``tau`` of the line through ``ell``."""
    _check_args(model, alpha, "half_area")
    ell, tau = _unit(ell), _check_tau(tau)
    return _area_mass(model, alpha, lambda m: _arc_angles(ell, tau, m), 512, rtol)[0]


def arc_mass(model, alpha: float, ell, tau, rtol: float = _REFINE_RTOL) -> float:
    """Integral of 1/|grad K| in arc length over the selected level-set arc."""
    _check_args(model, alpha, "arc_mass")
    ell, tau = _unit(ell), _check_tau(tau)
    return _area_mass(model, alpha, lambda m: _arc_angles(ell, tau, m), 512, rtol)[1]


def half_area_derivative(model, alpha: float, ell, tau, rtol: float = _REFINE_RTOL) -> float:
    """d(half_area)/d(alpha) via the coarea identity: equals the arc mass.

    Using the identity instead of numerical differentiation removes a noise
    source; central finite differences of :func:`half_area` recover it to
    about 1e-3 relative.
    """
    return arc_mass(model, alpha, ell, tau, rtol)


def arc_parametrization(
    model: inc.IncrementModel,
    alpha: float,
    ell,
    tau,
    n: int = 1024,
    rtol: float = _REFINE_RTOL,
) -> LevelArc:
    """Equal-mass arc parametrization with n + 1 samples.

    The cumulative 1/|grad K| mass is accumulated along a fine trace and
    inverted by its monotone piecewise-linear interpolant; each inverted angle
    is then re-solved exactly on the level set, so K(g(t)) = alpha holds to
    ray-solve accuracy at every sample.  Derivatives are the exact tangents
    tau * mass * perp(grad K).
    """
    _check_args(model, alpha, "arc_parametrization")
    ell, tau = _unit(ell), _check_tau(tau)
    if n < 2:
        raise ValueError("need at least 2 segments")

    # double the grid until the mass alone settles
    mass_only = lambda area, mass: (mass,)
    angles_of = lambda m: _arc_angles(ell, tau, m)
    angles, (_, incr, _, _) = _refine(model, alpha, angles_of, max(4096, 4 * n), rtol, mass_only)
    m = len(incr)
    mass = float(np.sum(incr))
    cum = np.concatenate([[0.0], np.cumsum(incr)])
    cum[-1] = mass  # guard cumsum roundoff at the far endpoint
    targets = np.linspace(0.0, mass, n + 1)
    j = np.clip(np.searchsorted(cum, targets[1:-1], side="right"), 1, m)
    frac = (targets[1:-1] - cum[j - 1]) / (cum[j] - cum[j - 1])
    inner = angles[j - 1] + frac * (angles[j] - angles[j - 1])
    sample_angles = np.concatenate([[angles[0]], inner, [angles[-1]]])
    sdirs = _dirs_of(sample_angles)
    samples = sdirs * _ray_radii(model, alpha, sdirs)[:, None]
    derivs = tau * mass * _perp(inc.cumulant_gradient(model, samples))
    times = np.linspace(0.0, 1.0, n + 1)
    return LevelArc(float(alpha), ell, tau, times, samples, derivs, mass)
