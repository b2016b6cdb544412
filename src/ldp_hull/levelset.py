"""Level sets of the cumulant: tracing, areas, arc masses, arc parametrization.

A level set K^{-1}(alpha) with alpha > 0 is a closed convex curve around the
origin (K(0) = 0 and K grows in every direction for full-plane models), so it
is traced by shooting rays from the origin.  The line through the origin in
direction ``ell`` cuts it into two arcs, selected by the orientation flag
``tau`` (+1 keeps the counterclockwise side ``u . perp(ell) >= 0``).

Every level-set quantity is a polar integral in the ray angle theta.  With
r(theta) the ray radius, d the direction and g = grad K(r d), the area is
(1/2) int r^2 d theta and the coarea mass (the integral of 1/|grad K| in arc
length, d area/d alpha) is int r/(d . g) d theta, as dr/d alpha = 1/(d . g).
The integrands are smooth, so :func:`_quadrature` takes them on spectral
rules: the periodic trapezoid rule on the whole level set, Fejer's first rule
(Chebyshev points, which also carry the equal-mass parametrization) on an
arc.  Nodes are uniform in the whitened angle phi, d proportional to
S (cos phi, sin phi) with S = Hess K(0)^{-1/2}, which spreads them evenly
over an elongated level set.  The public functions double the node count
until the values on n and 2n nodes agree to a relative tolerance and raise
:class:`NoConvergenceError` past ``_N_CAP`` nodes.  Ray solves within one
rule are one batch, which gives area, mass and mass density (g from the last
Newton round), so the density takes no second solve.  Each ray starts at the root
of K's second-order model along it: about the origin for a cold solve, about
the previous level's radii within a level solve.  For a quadratic K (every
Gaussian law) that start is the root, and the solve ends after the
evaluation that checks it.

The level equations of the optimal trajectories are solved here as well, by
Newton steps with exact derivatives.  The level of a target area matches
d sqrt(area)/d alpha, taken from the coarea identity (mass over twice the
root area, never finite differences, with d mass/d alpha from one Hessian
per ray), to the target on one fixed polar rule, and solves again, from that
root, on more nodes until area and mass settle at the root.  The
cut directions ``ell`` are those where the level set meets the line through
0 at a centrally symmetric pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import increments as inc
from .errors import NoConvergenceError, NotFullPlaneError, NotSymmetricError, OutOfRangeError
from .polyline import PolygonalLine, _perp

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

_RAY_TOL = 1e-14
_REFINE_RTOL = 1e-7
_N0 = 32  # first node count of a settling sequence
_N_CAP = 2 ** 13
_INVERSE_TOL = 1e-12  # cumulative-mass residual of an inverted sample, relative to the mass
_SETTLE_RTOL = 1e-12


class _AllDirections:
    """Sentinel: every direction qualifies (centrally symmetric law)."""

    def __repr__(self):  # pragma: no cover
        return "ALL_DIRECTIONS"


ALL_DIRECTIONS = _AllDirections()


@dataclass
class LevelArc:
    """Canonical parametrization g of one arc of a cumulant level set.

    The samples satisfy K(g(t)) = alpha, run from the ray intersection on
    ``ell * R_+`` (t = 0) to the one on ``ell * R_-`` (t = 1), and carry the
    equal-mass parametrization: the accumulated integral of 1/|grad K| in arc
    length up to g(t) equals t * mass, equivalently |g'(t)| equals
    mass * |grad K(g(t))| with orientation ``tau``; ``grads`` holds grad K(g(t))
    from the samples' ray solve.  ``area`` is the half
    area of {K <= alpha} on the arc's side, settled with ``mass`` on one rule.
    """

    alpha: float
    ell: np.ndarray
    tau: int
    times: np.ndarray
    samples: np.ndarray
    derivs: np.ndarray
    grads: np.ndarray
    mass: float
    area: float


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


def _ray_radii(model, alpha: float, dirs: np.ndarray, r0=None) -> tuple[np.ndarray, np.ndarray]:
    """Radii r > 0 with K(r * dir) = alpha for each unit row of ``dirs``, and
    the gradients grad K(r * dir) there.

    Unique because K is convex with K(0) = 0 < alpha and grows to infinity
    along every ray, so K(r * dir) - alpha is negative below the root and
    positive above it (it may dip first, on rays against the drift).  One
    safeguarded Newton solve on the bracket (0, inf) runs until every residual
    is at most ``_RAY_TOL * max(1, alpha)`` or its bracket has no float
    inside, and raises :class:`NoConvergenceError` otherwise.  It starts from
    ``r0`` (the radii of a nearby solve) or else at the root of K's
    second-order model along each ray, (d . grad K(0)) r + (d . Hess K(0) d)
    r^2/2 = alpha, which is the root itself when K is quadratic.  The
    gradients are those of the last Newton round, which evaluates every entry
    at the radius it returns.
    """
    grad = None

    def residual(r):
        nonlocal grad
        K, grad = inc._derivatives(model, dirs * r[:, None], 1)
        return K - alpha, np.einsum("ij,ij->i", dirs, grad)

    if r0 is None:
        _, g0, h0 = inc._derivatives(model, np.zeros(2), 2)
        r0 = _quadratic_root(dirs @ g0, np.einsum("ij,jk,ik->i", dirs, h0, dirs), alpha)
    return inc._increasing_root(residual, r0, 0.0, math.inf, _RAY_TOL * max(1.0, alpha)), grad


def _quadratic_root(b, c, a):
    """The root of b x + c x^2/2 = a that is 0 at a = 0 (the positive one for
    a, c > 0), free of cancellation: 2a/(b + sqrt(D)) for b >= 0, else
    (sqrt(D) - b)/c, with D = b^2 + 2ca; NaN where D < 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(b * b + 2.0 * c * a)
        return np.where(b >= 0.0, 2.0 * a / (b + root), (root - b) / c)


def level_radius(model: inc.IncrementModel, alpha: float, direction) -> float:
    """The unique r > 0 with K(r * direction) = alpha along a unit direction."""
    _check_args(model, alpha, "level_radius")
    d = _unit(direction)
    return float(_ray_radii(model, alpha, d[None, :])[0][0])


def _dirs_of(angles: np.ndarray) -> np.ndarray:
    return np.column_stack([np.cos(angles), np.sin(angles)])


def trace_level(model: inc.IncrementModel, alpha: float, m: int = 2048) -> PolygonalLine:
    """Closed convex polygon inscribed in K^{-1}(alpha): m uniform-angle ray solves."""
    _check_args(model, alpha, "trace_level")
    if m < 8:
        raise ValueError("trace_level needs at least 8 samples")
    angles = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    dirs = _dirs_of(angles)
    pts = dirs * _ray_radii(model, alpha, dirs)[0][:, None]
    return PolygonalLine(np.vstack([pts, pts[:1]]))


def _whitened(S: np.ndarray, phi: np.ndarray):
    """Unit ray directions S e(phi)/|S e(phi)| and d theta/d phi = det S/|S e(phi)|^2."""
    v = _dirs_of(phi) @ S  # S is symmetric
    vv = np.einsum("ij,ij->i", v, v)
    return v / np.sqrt(vv)[:, None], np.linalg.det(S) / vv


def _whitener(model) -> np.ndarray:
    """S = Hess K(0)^{-1/2}, which makes the quadratic part of K round."""
    w, v = np.linalg.eigh(inc.cumulant_hessian(model, np.zeros(2)))
    return (v / np.sqrt(w)) @ v.T


def _ring_rule(model, n: int):
    """Periodic trapezoid rule, n nodes in phi on the level set: (directions, d theta/d phi, weights)."""
    dirs, jac = _whitened(_whitener(model), 2.0 * np.pi / n * np.arange(n))
    return dirs, jac, 2.0 * np.pi / n


def _arc_dirs(model, ell: np.ndarray, tau: int, x: np.ndarray):
    """Directions and d theta/dx at x in [-1, 1] on the arc from ``ell`` (x = -1)
    to ``-ell`` (x = 1) on side ``tau``, uniform in the whitened angle."""
    S = _whitener(model)
    e0 = np.linalg.solve(S, ell)
    dirs, jac = _whitened(S, math.atan2(e0[1], e0[0]) + tau * 0.5 * np.pi * (x + 1.0))
    return dirs, 0.5 * np.pi * jac


def _dct(x: np.ndarray, type: int) -> np.ndarray:
    """Unnormalized DCT-II or DCT-III (``type`` 2 or 3, as ``scipy.fft.dct``) by one real
    FFT of the even/odd reordered vector and a quarter-wave twiddle (Makhoul, 1980)."""
    n = len(x)
    k = np.arange(n // 2 + 1)
    twiddle = np.exp(-0.5j * np.pi * k / n)
    y = np.empty(n)
    if type == 2:
        z = twiddle * np.fft.rfft(np.concatenate([x[::2], x[1::2][::-1]]))
        y[: len(k)], y[n - k[1:]] = 2.0 * z.real, -2.0 * z.imag[1:]
        return y
    z = x[k] - 1j * np.where(k > 0, x[-k], 0.0)
    v = np.fft.irfft(twiddle.conj() * z, n, norm="forward")
    y[::2], y[1::2] = v[: (n + 1) // 2], v[(n + 1) // 2 :][::-1]
    return y


@functools.lru_cache(maxsize=32)
def _fejer(n: int):
    """Read-only Fejer (first rule) nodes and weights on [-1, 1]: the n
    Chebyshev points of the first kind cos(pi (k + 1/2)/n), and the weights
    that integrate T_j exactly for every j < n, one DCT-III of the moments
    int T_j = 2/(1 - j^2) (even j; zero for odd j) (Waldvogel, BIT 46, 2006)."""
    x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    moments = np.zeros(n)
    moments[::2] = 2.0 / (1.0 - np.arange(0, n, 2) ** 2.0)
    w = _dct(moments, 3) / n
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _arc_rule(model, ell: np.ndarray, tau: int, n: int):
    """Fejer rule, n nodes on one arc in x: (directions, d theta/dx, x weights)."""
    x, w = _fejer(n)
    return _arc_dirs(model, ell, tau, x) + (w,)


def _quadrature(model, alpha, rule, r0=None):
    """(area, mass, radii, mass per unit of the rule's parameter, ray slopes d . g)
    on one polar rule."""
    dirs, jac, w = rule
    r, grad = _ray_radii(model, alpha, dirs, r0=r0)
    slope = np.einsum("ij,ij->i", dirs, grad)
    weights, density = w * jac, r / slope
    return 0.5 * float(weights @ (r * r)), float(weights @ density), r, jac * density, slope


def _settled(model, alpha, rule_of, rtol: float):
    """(area, mass, n, density) on ``rule_of(n)`` for the first n, doubling from
    ``_N0``, at which area and mass agree with those on n/2 nodes to ``rtol``."""
    n, prev = _N0, None
    while True:
        area, mass, _, density, _ = _quadrature(model, alpha, rule_of(n))
        if prev is not None and np.allclose((area, mass), prev, rtol=rtol, atol=0.0):
            return area, mass, n, density
        if 2 * n > _N_CAP:
            raise NoConvergenceError(f"level-set quadrature unsettled at rtol={rtol:g}, {n} nodes")
        prev, n = (area, mass), 2 * n


def sublevel_area(model: inc.IncrementModel, alpha: float, rtol: float = _REFINE_RTOL) -> float:
    """Area of the sub-level set {K <= alpha}."""
    _check_args(model, alpha, "sublevel_area")
    return _settled(model, alpha, lambda n: _ring_rule(model, n), rtol)[0]


def _arc_settled(model, alpha, ell, tau, rtol, what):
    """(unit ell, tau, area, mass, n, density): :func:`_settled` on the arc's rules."""
    _check_args(model, alpha, what)
    ell, tau = _unit(ell), _check_tau(tau)
    return (ell, tau) + _settled(model, alpha, lambda n: _arc_rule(model, ell, tau, n), rtol)


def half_area(model, alpha: float, ell, tau, rtol: float = _REFINE_RTOL) -> float:
    """Area of the part of {K <= alpha} on side ``tau`` of the line through ``ell``."""
    return _arc_settled(model, alpha, ell, tau, rtol, "half_area")[2]


def arc_mass(model, alpha: float, ell, tau, rtol: float = _REFINE_RTOL) -> float:
    """Integral of 1/|grad K| in arc length over the selected level-set arc."""
    return _arc_settled(model, alpha, ell, tau, rtol, "arc_mass")[3]


# d(half_area)/d(alpha) by the coarea identity is the arc mass itself, free of
# the noise of finite differences (central ones recover it to about 1e-3)
half_area_derivative = arc_mass


def arc_parametrization(
    model: inc.IncrementModel,
    alpha: float,
    ell,
    tau,
    n: int = 1024,
    rtol: float = _REFINE_RTOL,
) -> LevelArc:
    """Equal-mass arc parametrization with n + 1 samples.

    Area and mass settle to ``rtol`` as in :func:`half_area` and
    :func:`arc_mass`.  The settled rule's mass density at its Chebyshev
    points gives, by a DCT, the cumulative-mass series, inverted at the
    equal-mass targets by safeguarded Newton; each inverted angle is re-solved
    on the level set, so K(g(t)) = alpha holds to ray-solve accuracy at every
    sample.  Derivatives are the exact tangents tau mass perp(grad K).
    """
    if n < 2:
        raise ValueError("need at least 2 segments")
    ell, tau, area, mass, deg, density = _arc_settled(model, alpha, ell, tau, rtol, "arc_parametrization")
    cheb = np.polynomial.chebyshev
    coef = _dct(density, 2) / deg
    coef[0] *= 0.5
    # a tail below 1e-14 mass moves no sample (the inversion stops at 1e-12 mass)
    tail = np.cumsum(np.abs(coef[::-1]))[::-1]
    coef = coef[: np.count_nonzero(tail > 1e-2 * _INVERSE_TOL * mass)]
    cum = cheb.chebint(coef, lbnd=-1.0)
    times = np.linspace(0.0, 1.0, n + 1)
    inner = inc._increasing_root(
        lambda x: (cheb.chebval(x, cum) - mass * times[1:-1], cheb.chebval(x, coef)),
        2.0 * times[1:-1] - 1.0, -1.0, 1.0, _INVERSE_TOL * mass,
    )
    sdirs = _arc_dirs(model, ell, tau, np.concatenate([[-1.0], inner, [1.0]]))[0]
    radii, grads = _ray_radii(model, alpha, sdirs)
    samples = sdirs * radii[:, None]
    return LevelArc(float(alpha), ell, tau, times, samples, tau * mass * _perp(grads), grads, mass, area)


# ---------------------------------------------------------------------------
# Level equations: the level of a target area and the chord directions

def _ray_noise(alpha: float) -> float:
    """Four times the relative ray-radius noise at level alpha: a radius is off by
    at most _RAY_TOL max(1, alpha)/(d . g), and r (d . g) >= alpha by convexity."""
    return 4.0 * _RAY_TOL * max(1.0, alpha) / alpha


def _settle_rtol(alpha: float) -> float:
    """N-vs-2N gap of area and mass that counts as settled: ``_SETTLE_RTOL``,
    or the ray noise where that is larger."""
    return max(_SETTLE_RTOL, _ray_noise(alpha))


def _solve_level(model, target: float, ell=None, tau: int = +1):
    """:func:`increments._solve_decreasing` of alpha -> d sqrt(area)/d alpha on
    one polar rule of n nodes (the ring, or the arc of ``ell`` and ``tau``), so
    the slope M/(2 sqrt A) is one function of alpha and its derivative
    M'/(2 sqrt A) - M^2/(4 A^(3/2)) is exact, with
    d(r/(d . g))/d alpha = (1 - r q/(d . g))/(d . g)^2 and q = d . Hess K d.
    Each evaluation starts its rays at the root of K's second-order model
    along them about the previous evaluation's radii, alpha' + (d . g) delta
    + q delta^2/2 = alpha (at the previous radii where the model has none).
    Solved to the ray noise relative to the target, and again, its bracket
    grown from the last root, on more nodes until n reaches the count at which
    the area and mass settle (:func:`_settled` at :func:`_settle_rtol`) at the
    root, or, without a root, at the smallest level tried: too few nodes
    underestimate the slope of a short arc near the origin."""
    rule_of = lambda n: _ring_rule(model, n) if ell is None else _arc_rule(model, ell, tau, n)
    n, at = _N0, 1.0
    while True:
        rule, last = rule_of(n), None
        dirs, jac, w = rule

        def slope(alpha: float) -> tuple[float, float]:
            nonlocal last
            r0 = None
            if last is not None:
                prev, r, s, q = last
                start = r + _quadratic_root(s, q, alpha - prev)
                r0 = np.where(start > 0.0, start, r)  # NaN where the model has no root
            area, mass, r, _, s = _quadrature(model, alpha, rule, r0)
            q = np.einsum("ij,ijk,ik->i", dirs, inc._derivatives(model, dirs * r[:, None], 2)[2], dirs)
            last = alpha, r, s, q
            dmass = float((w * jac) @ ((1.0 - r / s * q) / (s * s)))
            root = math.sqrt(max(area, 1e-300))
            return mass / (2.0 * root), dmass / (2.0 * root) - mass * mass / (4.0 * root ** 3)

        alpha, cap = inc._solve_decreasing(slope, target, _ray_noise, at)
        if cap is not None:
            return alpha, cap
        at = alpha if alpha is not None else last[0]
        settled_n = _settled(model, at, rule_of, _settle_rtol(at))[2]
        if settled_n <= n:
            return alpha, cap
        n = settled_n


def symmetric_level(model: inc.IncrementModel, area: float) -> float:
    """Level alpha with d sqrt(E(alpha))/d alpha = 1/sqrt(2 * area).

    Only for centrally symmetric full-plane models; the square-rooted
    sub-level area is strictly concave, so the slope is strictly decreasing
    and a bracketed root finder applies.  The slope is evaluated through the
    coarea identity (full-level arc mass over twice the root area).
    """
    inc._check_area(area)
    _check_args(model, 1.0, "symmetric_level")
    if not inc.is_centrally_symmetric(model):
        raise NotSymmetricError("symmetric_level needs a centrally symmetric law")
    target = 1.0 / math.sqrt(2.0 * area)
    alpha, cap_slope = _solve_level(model, target)
    if alpha is None:
        if cap_slope is None:
            raise NoConvergenceError("level solve found no root on the small-alpha side")
        # the area reached at the cap level (A/M^2 of each half), on the finest rule
        full, mass = _quadrature(model, inc._ALPHA_HI_CAP, _ring_rule(model, _N_CAP))[:2]
        raise OutOfRangeError(
            "target area at or beyond the attainable range", a_max=2.0 * full / mass ** 2
        )
    return float(alpha)


def _radius_gap(model, alpha, thetas, r0=None):
    """r(theta) - r(theta + pi) for each angle, its derivative by r'(theta) =
    -r (perp(d) . g)/(d . g), and the radii for warm starts."""
    dirs = _dirs_of(np.concatenate([thetas, thetas + np.pi]))
    r, grad = _ray_radii(model, alpha, dirs, r0=r0)
    dr = -r * np.einsum("ij,ij->i", _perp(dirs), grad) / np.einsum("ij,ij->i", dirs, grad)
    k = len(thetas)
    return r[:k] - r[k:], dr[:k] - dr[k:], r


def candidate_directions(model: inc.IncrementModel, alpha: float, k: int = 256):
    """Directions where the level set meets the line through 0 symmetrically.

    Scans k angles on the half-circle for sign changes of the radius gap and
    refines them in one Newton batch from the midpoints, each oriented by its
    left end's sign.  Centrally symmetric models return the ALL_DIRECTIONS
    sentinel (every direction qualifies).  Each root direction is returned
    with both signs and both orientations.  Roots of even multiplicity between
    grid nodes can be missed; raise k to refine.
    """
    _check_args(model, alpha, "candidate_directions")
    if k < 4:
        raise ValueError("need at least 4 scan directions")
    if inc.is_centrally_symmetric(model):
        return ALL_DIRECTIONS
    thetas = np.linspace(0.0, np.pi, k, endpoint=False)
    gaps, _, r = _radius_gap(model, alpha, thetas)
    scale = 1e-12 * max(1.0, float(np.max(np.abs(gaps))))
    # scan intervals [thetas[i], ends[i]]; the gap is anti-periodic
    ends, end_gaps = np.append(thetas[1:], np.pi), np.append(gaps[1:], -gaps[0])
    at_node = np.abs(gaps) <= scale
    i = np.flatnonzero(~at_node & (gaps * end_gaps < 0.0))
    sign, lo, hi = -np.sign(gaps[i]), thetas[i], ends[i]
    radii = np.concatenate([r[i], r[k + i]])

    def gap(theta):
        nonlocal radii
        g, dg, radii = _radius_gap(model, alpha, theta, r0=radii)
        return sign * g, sign * dg

    roots = list(thetas[at_node])
    if len(i):
        ftol = _ray_noise(alpha) * (r[i] + r[k + i])  # of both radii
        roots += list(inc._increasing_root(gap, 0.5 * (lo + hi), lo, hi, ftol))
    units = [np.array([math.cos(t), math.sin(t)]) for t in _dedup_angles(roots)]
    return [(ell, tau) for e in units for ell in (e, -e) for tau in (+1, -1)]


def _dedup_angles(roots, tol=1e-9):
    out: list[float] = []
    for t in sorted(r % math.pi for r in roots):
        if all(min(abs(t - s), math.pi - abs(t - s)) > tol for s in out):
            out.append(t)
    return out
