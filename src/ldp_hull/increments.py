"""Planar increment distributions and their cumulant generating functions.

An :class:`IncrementModel` bundles one of three distribution kinds with a
Gaussian regularization strength ``epsilon``; adding ``epsilon`` corresponds
to adding independent N(0, eps*I) noise to every increment, which lifts the
cumulant by ``eps/2 * |u|^2``.  Models are immutable and every operation is a
pure function, so concurrent use is safe.

The Laplace transform of every representable kind is finite on the whole
plane by construction; heavier-tailed laws are not representable.

Each law's K, grad K and Hess K come from one kernel, :func:`_derivatives`
(:func:`_y_derivatives` for a graph's vertical law): one kind dispatch, one
softmax for atoms, one eps lift and only the orders asked for; the public
cumulant functions and :func:`drift` select from it.

Every monotone scalar equation of the package is solved by one root finder,
the batched safeguarded Newton :func:`_increasing_root`, with the exact
derivative its caller has at hand; :func:`_solve_decreasing` grows its
bracket on (0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergenceError
from .polyline import convex_hull_vertices

__all__ = [
    "Gaussian",
    "Atoms",
    "Graph1D",
    "Gaussian1D",
    "Atoms1D",
    "IncrementModel",
    "SupportClass",
    "gaussian",
    "atoms",
    "graph1d",
    "cumulant",
    "cumulant_gradient",
    "cumulant_hessian",
    "drift",
    "support_class",
    "regularize",
    "is_centrally_symmetric",
    "from_spec",
    "to_spec",
]

_PROB_TOL = 1e-12
_COLLINEAR_TOL = 1e-12
_ROOT_ROUNDS = 200
_SYMMETRY_TOL = 1e-10  # relative gap of K(u) and K(-u) on the probe grid
_GROW = 16.0  # bracket expansion factor: a no-root exit costs about 12 evaluations
_ALPHA_HI_CAP = 1e12
_ALPHA_LO_CAP = 1e-14


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Gaussian:
    """Planar Gaussian law N(mean, cov) with symmetric positive semidefinite cov."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class Atoms:
    """Finitely supported planar law on pairwise distinct points."""

    points: np.ndarray  # (k, 2)
    probs: np.ndarray   # (k,), positive, sums to 1


@dataclass(frozen=True)
class Gaussian1D:
    mean: float
    var: float


@dataclass(frozen=True)
class Atoms1D:
    points: np.ndarray  # (k,)
    probs: np.ndarray


@dataclass(frozen=True)
class Graph1D:
    """Law of (mu1, Y): deterministic horizontal step, random vertical step."""

    mu1: float
    y_model: "Gaussian1D | Atoms1D"


@dataclass(frozen=True)
class IncrementModel:
    kind: "Gaussian | Atoms | Graph1D"
    epsilon: float = 0.0


@dataclass(frozen=True)
class SupportClass:
    """Geometry of the convex hull of the increment support.

    ``full_plane`` means the origin is interior to that hull, so the cumulant
    grows to infinity in every direction and all sub-level sets are bounded.
    ``vertical_line`` is reserved for :class:`Graph1D` models; any singular
    Gaussian is classified ``proper_subset`` (construct a :class:`Graph1D`
    explicitly to use the one-dimensional machinery).
    """

    tag: str  # "full_plane" | "proper_subset" | "vertical_line"
    mu1: float | None = None


FULL_PLANE = SupportClass("full_plane")
PROPER_SUBSET = SupportClass("proper_subset")


def _check_finite(what: str, *params) -> None:
    if not all(np.all(np.isfinite(p)) for p in params):
        raise ValueError(f"{what} parameters must be finite")


def gaussian(mean, cov, eps: float = 0.0) -> IncrementModel:
    mean = _frozen(np.reshape(np.asarray(mean, float), 2))
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
    _check_finite("gaussian", mean, cov)
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() < -1e-12 * max(1.0, eigs.max()):
        raise ValueError("covariance must be positive semidefinite")
    return IncrementModel(Gaussian(mean, _frozen(cov)), _check_eps(eps))


def atoms(points, probs, eps: float = 0.0) -> IncrementModel:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    p = np.asarray(probs, dtype=float).reshape(-1)
    if len(pts) != len(p) or len(pts) == 0:
        raise ValueError("points and probs must be non-empty and equally long")
    _check_finite("atoms", pts, p)
    if abs(p.sum() - 1.0) > _PROB_TOL:
        raise ValueError("probabilities must sum to 1")
    if np.any(p <= 0.0):
        raise ValueError("probabilities must be positive")
    if len(np.unique(pts, axis=0)) != len(pts):
        raise ValueError("atom points must be pairwise distinct")
    return IncrementModel(Atoms(_frozen(pts), _frozen(p)), _check_eps(eps))


def gaussian1d(mean: float, var: float) -> Gaussian1D:
    _check_finite("gaussian1d", mean, var)
    if var <= 0.0:
        raise ValueError("a one-dimensional Gaussian sub-model needs variance > 0")
    return Gaussian1D(float(mean), float(var))


def atoms1d(points, probs) -> Atoms1D:
    pts = np.asarray(points, dtype=float).reshape(-1)
    p = np.asarray(probs, dtype=float).reshape(-1)
    if len(pts) != len(p) or len(pts) < 2:
        raise ValueError("a one-dimensional atom sub-model needs >= 2 atoms")
    _check_finite("atoms1d", pts, p)
    if abs(p.sum() - 1.0) > _PROB_TOL or np.any(p <= 0.0):
        raise ValueError("probabilities must be positive and sum to 1")
    if len(np.unique(pts)) != len(pts):
        raise ValueError("atom points must be pairwise distinct")
    return Atoms1D(_frozen(pts), _frozen(p))


def graph1d(mu1: float, y_model: "Gaussian1D | Atoms1D", eps: float = 0.0) -> IncrementModel:
    _check_finite("graph1d", mu1)
    if mu1 == 0.0:
        raise ValueError("mu1 must be non-zero")
    if not isinstance(y_model, (Gaussian1D, Atoms1D)):
        raise ValueError("y_model must be Gaussian1D or Atoms1D")
    return IncrementModel(Graph1D(float(mu1), y_model), _check_eps(eps))


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if eps < 0.0 or not math.isfinite(eps):
        raise ValueError("regularization strength must be a finite nonnegative real")
    return eps


def _check_area(area: float) -> None:
    if not (0.0 < area < math.inf):
        raise ValueError(f"target area must be positive and finite, got {area}")


def _logsumexp(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp over the last axis and the softmax weights, by max shift:
    finite scores of any size neither overflow nor underflow to an empty sum."""
    top = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - top)
    total = e.sum(axis=-1, keepdims=True)
    return np.log(total[..., 0]) + top[..., 0], e / total


def _increasing_root(fn, x0, lo, hi, ftol, xtol=math.inf) -> np.ndarray:
    """Per-entry root of f on the bracket (lo, hi), where f < 0 below the root
    and f > 0 above it, by one batched safeguarded Newton iteration.

    ``fn(x)`` returns (f, f') at every entry of ``x``.  Each evaluation narrows
    the entry's bracket by the sign of f; the next iterate is the Newton step
    when it lies strictly inside the bracket, else the bracket midpoint.  While
    ``hi`` is infinite the upper end is capped at 2 lo + 1, so a near-flat f
    cannot throw the iterate far past the root.  An entry is done, and frozen
    at the point just evaluated, once |f| <= ftol and the bracket is at most
    xtol (1 + |x|) wide, or once no float lies inside its capped bracket (its
    midpoint rounds to an end); every entry is evaluated on every round.
    """
    x = np.array(x0, dtype=float)
    lo, hi = np.broadcast_to(lo, x.shape), np.broadcast_to(hi, x.shape)
    done = np.zeros(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ROOT_ROUNDS):
            f, df = fn(x)
            above = f > 0.0
            lo, hi = np.where(above, lo, x), np.where(above, x, hi)
            top = np.where(np.isinf(hi), 2.0 * lo + 1.0, hi)
            mid = 0.5 * (lo + top)
            settled = np.abs(f) <= ftol
            if xtol < math.inf:
                settled &= hi - lo <= xtol * (1.0 + np.abs(x))
            done |= settled | (mid == lo) | (mid == top)
            if done.all():
                return x
            step = x - f / df
            step = np.where((lo < step) & (step < top), step, mid)
            x = np.where(done, x, step)
    raise NoConvergenceError(
        f"root solve: {int(np.sum(~done))} of {done.size} entries unsettled "
        f"after {_ROOT_ROUNDS} rounds"
    )


def _solve_decreasing(fn, target: float, rtol=lambda alpha: 1e-14, start: float = 1.0):
    """Root of a strictly decreasing fn(alpha) = target on (0, inf), where
    ``fn`` returns the value and the derivative.

    The bracket grows from alpha = ``start`` (a nearby root, or 1) by the
    factor ``_GROW`` until it holds a sign change; then
    :func:`_increasing_root` solves in log alpha, from the larger Newton step
    off the bracket's ends, to |fn - target| <= rtol(alpha) |target|
    (absolute at target 0).  Returns (alpha, None) on success.
    (None, value at cap) means the target undershoots the attainable range
    (the area is too large); (None, None) means it overshoots on the
    small-alpha side, so this branch has no root.
    """
    lo = hi = start
    f_lo = f_hi = fn(start)
    if f_lo[0] > target:
        while f_hi[0] > target:
            if hi >= _ALPHA_HI_CAP:
                return None, f_hi[0]
            lo, f_lo = hi, f_hi
            hi = min(hi * _GROW, _ALPHA_HI_CAP)
            f_hi = fn(hi)
    else:
        while f_lo[0] <= target:
            hi, f_hi = lo, f_lo
            lo /= _GROW
            if lo < _ALPHA_LO_CAP:
                return None, None
            f_lo = fn(lo)
    if f_hi[0] == target:
        return hi, None

    def g(x):  # over the tolerance at alpha: the Newton step stays, the stop test is |g| <= 1
        alpha = math.exp(x)
        value, slope = fn(alpha)
        tol = np.float64(rtol(alpha) * (abs(target) or 1.0))  # a zero slope then steps to inf
        return (target - value) / tol, -alpha * slope / tol

    x_lo, x_hi = math.log(lo), math.log(hi)
    # Newton steps off either end fall short of the root where target - fn is concave in log alpha
    steps = [math.log(a) + (target - f[0]) / (a * f[1]) for a, f in ((lo, f_lo), (hi, f_hi)) if a * f[1] < 0.0]
    x0 = max([x for x in steps if x_lo < x < x_hi], default=0.5 * (x_lo + x_hi))
    return math.exp(float(_increasing_root(g, x0, x_lo, x_hi, 1.0))), None


# ---------------------------------------------------------------------------
# The cumulant kernel.  Every law's K, grad K and Hess K are written once, here.

def _y_derivatives(y, w, order: int) -> list:
    """[K_y, K_y', K_y''][:order + 1] of a one-dimensional sub-model at w; atoms take
    every order from one softmax, with K_y(0) = 0 and K_y'(0) = E Y exactly."""
    if isinstance(y, Gaussian1D):
        derivs = [y.mean * w + 0.5 * y.var * w * w]
        if order >= 1:
            derivs.append(y.mean + y.var * w)
        if order >= 2:
            derivs.append(np.full_like(np.asarray(w, float), y.var))
        return derivs
    lse, weights = _logsumexp(np.multiply.outer(w, y.points) + np.log(y.probs))
    derivs = [np.where(w == 0.0, 0.0, lse)]
    if order >= 1:
        m1 = weights @ y.points
        derivs.append(np.where(w == 0.0, float(y.probs @ y.points), m1))
    if order >= 2:
        derivs.append(weights @ (y.points * y.points) - m1 * m1)
    return derivs


def _derivatives(model: IncrementModel, u, order: int) -> tuple:
    """(K, grad K, Hess K)[:order + 1] at u of shape (2,) or (m, 2), computing only
    the orders asked for; a scalar u gives a float, a (2,) and a (2, 2) array.

    Closed forms per kind, plus the eps/2 |u|^2 lift.  Atoms take every order
    from one max-shifted log-sum-exp and its softmax, so |u| up to ~700 is
    safe, and K(0) = 0, grad K(0) = E X exactly.
    """
    U = np.asarray(u, dtype=float)
    if U.shape[-1] != 2:
        raise ValueError("u must have trailing dimension 2")
    scalar, U, kind = U.ndim == 1, np.atleast_2d(U), model.kind
    if isinstance(kind, Gaussian):
        UC = U @ kind.cov
        derivs = [U @ kind.mean + 0.5 * np.einsum("ij,ij->i", U, UC)]
        if order >= 1:
            derivs.append(kind.mean + UC)
        if order >= 2:
            derivs.append(np.broadcast_to(kind.cov, (len(U), 2, 2)).copy())
    elif isinstance(kind, Atoms):
        lse, weights = _logsumexp(U @ kind.points.T + np.log(kind.probs))
        zero = np.all(U == 0.0, axis=1)
        derivs = [np.where(zero, 0.0, lse)]
        if order >= 1:
            grad = weights @ kind.points
            grad[zero] = kind.probs @ kind.points
            derivs.append(grad)
        if order >= 2:
            weights[zero] = kind.probs
            m1 = weights @ kind.points
            m2 = np.einsum("mk,ki,kj->mij", weights, kind.points, kind.points)
            derivs.append(m2 - np.einsum("mi,mj->mij", m1, m1))
    else:
        ky = _y_derivatives(kind.y_model, U[:, 1], order)
        derivs = [kind.mu1 * U[:, 0] + ky[0]]
        if order >= 1:
            derivs.append(np.column_stack([np.full(len(U), kind.mu1), ky[1]]))
        if order >= 2:
            hess = np.zeros((len(U), 2, 2))
            hess[:, 1, 1] = ky[2]
            derivs.append(hess)
    if model.epsilon:
        eps = model.epsilon
        lifts = (lambda: 0.5 * eps * np.einsum("ij,ij->i", U, U), lambda: eps * U,
                 lambda: eps * np.eye(2))
        derivs = [d + lift() for d, lift in zip(derivs, lifts)]
    if scalar:
        return (float(derivs[0][0]), *(d[0] for d in derivs[1:]))
    return tuple(derivs)


def y_cumulant(y, w: np.ndarray) -> np.ndarray:
    return _y_derivatives(y, w, 0)[0]


def y_cumulant_d1(y, w: np.ndarray) -> np.ndarray:
    return _y_derivatives(y, w, 1)[1]


def y_cumulant_d2(y, w: np.ndarray) -> np.ndarray:
    return _y_derivatives(y, w, 2)[2]


def cumulant(model: IncrementModel, u) -> "float | np.ndarray":
    """log E exp(u . X) plus the eps/2 * |u|^2 regularization term; K(0) = 0."""
    return _derivatives(model, u, 0)[0]


def cumulant_gradient(model: IncrementModel, u) -> np.ndarray:
    """Gradient of :func:`cumulant`; equals the drift at u = 0."""
    return _derivatives(model, u, 1)[1]


def cumulant_hessian(model: IncrementModel, u) -> np.ndarray:
    """Hessian of :func:`cumulant`: PSD, and SPD if full-plane or epsilon > 0."""
    return _derivatives(model, u, 2)[2]


def drift(model: IncrementModel) -> np.ndarray:
    """Mean increment: the cumulant gradient at the origin."""
    return cumulant_gradient(model, np.zeros(2))


def _strictly_inside(hull: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Which rows of ``V`` lie strictly inside the ccw convex polygon ``hull``?

    Orientation predicates with a fixed collinearity tolerance; degenerate
    hulls (fewer than three vertices) contain no point.
    """
    edge = np.roll(hull, -1, axis=0) - hull  # interior: positive turn against each edge
    rel = V[:, None, :] - hull[None, :, :]
    turn = edge[None, :, 0] * rel[..., 1] - edge[None, :, 1] * rel[..., 0]
    scale = max(1.0, float(np.abs(hull).max()))
    return np.all(turn > _COLLINEAR_TOL * scale, axis=1)


def support_class(model: IncrementModel) -> SupportClass:
    """Classify the convex hull of the support after regularization.

    Any epsilon > 0 promotes to full-plane (the regularized increment carries
    additive Gaussian noise).  A Gaussian with singular covariance and an atom
    set whose hull misses the origin both classify as proper subset, in which
    case the solvers require regularization first.
    """
    if model.epsilon > 0.0:
        return FULL_PLANE
    kind = model.kind
    if isinstance(kind, Gaussian):
        eigs = np.linalg.eigvalsh(kind.cov)
        if eigs.min() > 1e-12 * max(1.0, eigs.max()):
            return FULL_PLANE
        return PROPER_SUBSET
    if isinstance(kind, Atoms):
        inside = _strictly_inside(convex_hull_vertices(kind.points), np.zeros((1, 2)))[0]
        return FULL_PLANE if inside else PROPER_SUBSET
    return SupportClass("vertical_line", mu1=kind.mu1)


def regularize(model: IncrementModel, eps: float) -> IncrementModel:
    """Model with Gaussian regularization increased by ``eps`` (>= 0)."""
    eps = _check_eps(eps)
    if eps == 0.0:
        return model
    return replace(model, epsilon=model.epsilon + eps)


def is_centrally_symmetric(model: IncrementModel) -> bool:
    """Probe-grid test of K(u) == K(-u) on |u| <= 3."""
    angles = np.linspace(0.0, np.pi, 37)[:-1]
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    U = np.concatenate([r * dirs for r in (0.5, 1.0, 2.0, 3.0)])
    kp = cumulant(model, U)
    km = cumulant(model, -U)
    return bool(np.all(np.abs(kp - km) <= _SYMMETRY_TOL * np.maximum(1.0, np.abs(kp))))


# ---------------------------------------------------------------------------
# JSON distribution specs

def _holds_bool(x) -> bool:
    items = x.values() if isinstance(x, dict) else x if isinstance(x, list) else ()
    return isinstance(x, bool) or any(map(_holds_bool, items))


def from_spec(spec: dict) -> IncrementModel:
    """Build a model from its JSON dict form (see :func:`to_spec`); a missing
    field, a JSON boolean anywhere, or a field of the wrong type (``null`` for
    a number, a number for a sub-spec) is a ValueError that names the spec type."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("distribution spec must be a dict with a 'type' key")
    t = spec["type"]
    if _holds_bool(spec):
        raise ValueError(f"{t!r} distribution spec holds a boolean where a number belongs")
    eps, where = spec.get("eps", 0.0), ""
    try:
        if t == "gaussian":
            return gaussian(spec["mean"], spec["cov"], eps)
        if t == "atoms":
            return atoms(spec["points"], spec["probs"], eps)
        if t == "graph1d":
            mu1, y, where = spec["mu1"], spec["y"], "y."
            if y["type"] == "gaussian1d":
                sub = gaussian1d(y.get("mean", 0.0), y["var"])
            elif y["type"] == "atoms1d":
                sub = atoms1d(y["points"], y["probs"])
            else:
                raise ValueError(f"unknown y-model type {y['type']!r}")
            return graph1d(mu1, sub, eps)
    except KeyError as exc:
        raise ValueError(f"{t!r} distribution spec lacks the field {where + exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed {t!r} distribution spec: {exc}") from None
    raise ValueError(f"unknown distribution type {t!r}")


def to_spec(model: IncrementModel) -> dict:
    kind = model.kind
    if isinstance(kind, Gaussian):
        return {
            "type": "gaussian",
            "mean": kind.mean.tolist(),
            "cov": kind.cov.tolist(),
            "eps": model.epsilon,
        }
    if isinstance(kind, Atoms):
        return {
            "type": "atoms",
            "points": kind.points.tolist(),
            "probs": kind.probs.tolist(),
            "eps": model.epsilon,
        }
    y = kind.y_model
    if isinstance(y, Gaussian1D):
        ydict = {"type": "gaussian1d", "mean": y.mean, "var": y.var}
    else:
        ydict = {"type": "atoms1d", "points": y.points.tolist(), "probs": y.probs.tolist()}
    return {"type": "graph1d", "mu1": kind.mu1, "y": ydict, "eps": model.epsilon}
