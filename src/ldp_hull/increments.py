"""Planar increment distributions and their cumulant generating functions.

An :class:`IncrementModel` bundles one of three distribution kinds with a
Gaussian regularization strength ``epsilon``; adding ``epsilon`` corresponds
to adding independent N(0, eps*I) noise to every increment, which lifts the
cumulant by ``eps/2 * |u|^2``.  Models are immutable and every operation is a
pure function, so concurrent use is safe.

The Laplace transform of every representable kind is finite on the whole
plane by construction; heavier-tailed laws are not representable.
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


def gaussian(mean, cov, eps: float = 0.0) -> IncrementModel:
    mean = _frozen(np.reshape(np.asarray(mean, float), 2))
    cov = np.asarray(cov, dtype=float).reshape(2, 2)
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
    if abs(p.sum() - 1.0) > _PROB_TOL:
        raise ValueError("probabilities must sum to 1")
    if np.any(p <= 0.0):
        raise ValueError("probabilities must be positive")
    if len(np.unique(pts, axis=0)) != len(pts):
        raise ValueError("atom points must be pairwise distinct")
    return IncrementModel(Atoms(_frozen(pts), _frozen(p)), _check_eps(eps))


def gaussian1d(mean: float, var: float) -> Gaussian1D:
    if var <= 0.0:
        raise ValueError("a one-dimensional Gaussian sub-model needs variance > 0")
    return Gaussian1D(float(mean), float(var))


def atoms1d(points, probs) -> Atoms1D:
    pts = np.asarray(points, dtype=float).reshape(-1)
    p = np.asarray(probs, dtype=float).reshape(-1)
    if len(pts) != len(p) or len(pts) < 2:
        raise ValueError("a one-dimensional atom sub-model needs >= 2 atoms")
    if abs(p.sum() - 1.0) > _PROB_TOL or np.any(p <= 0.0):
        raise ValueError("probabilities must be positive and sum to 1")
    if len(np.unique(pts)) != len(pts):
        raise ValueError("atom points must be pairwise distinct")
    return Atoms1D(_frozen(pts), _frozen(p))


def graph1d(mu1: float, y_model: "Gaussian1D | Atoms1D", eps: float = 0.0) -> IncrementModel:
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


def _prepare(u):
    arr = np.asarray(u, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("u must have trailing dimension 2")
    scalar = arr.ndim == 1
    return np.atleast_2d(arr), scalar


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
    xtol (1 + |x|) wide; every entry is evaluated on every round.
    """
    x = np.array(x0, dtype=float)
    lo, hi = np.broadcast_to(lo, x.shape), np.broadcast_to(hi, x.shape)
    done = np.zeros(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ROOT_ROUNDS):
            f, df = fn(x)
            above = f > 0.0
            lo, hi = np.where(above, lo, x), np.where(above, x, hi)
            done |= (np.abs(f) <= ftol) & (hi - lo <= xtol * (1.0 + np.abs(x)))
            if done.all():
                return x
            top = np.where(np.isinf(hi), 2.0 * lo + 1.0, hi)
            step = x - f / df
            step = np.where((lo < step) & (step < top), step, 0.5 * (lo + top))
            x = np.where(done, x, step)
    raise NoConvergenceError(
        f"root solve: {int(np.sum(~done))} of {done.size} entries unsettled "
        f"after {_ROOT_ROUNDS} rounds"
    )


# ---------------------------------------------------------------------------
# One-dimensional sub-model cumulants (used by Graph1D and by legendre.rate_1d)

def y_cumulant(y, w: np.ndarray) -> np.ndarray:
    if isinstance(y, Gaussian1D):
        return y.mean * w + 0.5 * y.var * w * w
    out, _ = _logsumexp(np.multiply.outer(w, y.points) + np.log(y.probs))
    return np.where(w == 0.0, 0.0, out)


def y_cumulant_d1(y, w: np.ndarray) -> np.ndarray:
    if isinstance(y, Gaussian1D):
        return y.mean + y.var * w
    _, weights = _logsumexp(np.multiply.outer(w, y.points) + np.log(y.probs))
    out = weights @ y.points
    return np.where(w == 0.0, float(y.probs @ y.points), out)


def y_cumulant_d2(y, w: np.ndarray) -> np.ndarray:
    if isinstance(y, Gaussian1D):
        return np.full_like(np.asarray(w, float), y.var)
    _, weights = _logsumexp(np.multiply.outer(w, y.points) + np.log(y.probs))
    m1 = weights @ y.points
    m2 = weights @ (y.points * y.points)
    return m2 - m1 * m1


def y_mean(y) -> float:
    if isinstance(y, Gaussian1D):
        return y.mean
    return float(y.probs @ y.points)


# ---------------------------------------------------------------------------
# Planar cumulant and derivatives.  All accept u of shape (2,) or (m, 2).

def cumulant(model: IncrementModel, u) -> "float | np.ndarray":
    """log E exp(u . X) plus the eps/2 * |u|^2 regularization term.

    Exact closed forms per kind; the atom kind uses log-sum-exp with max
    subtraction, so |u| up to ~700 is safe.  K(0) = 0 exactly.
    """
    U, scalar = _prepare(u)
    kind = model.kind
    if isinstance(kind, Gaussian):
        vals = U @ kind.mean + 0.5 * np.einsum("ij,ij->i", U, U @ kind.cov)
    elif isinstance(kind, Atoms):
        vals, _ = _logsumexp(U @ kind.points.T + np.log(kind.probs))
        vals = np.where(np.all(U == 0.0, axis=1), 0.0, vals)
    else:
        vals = kind.mu1 * U[:, 0] + y_cumulant(kind.y_model, U[:, 1])
    if model.epsilon:
        vals = vals + 0.5 * model.epsilon * np.einsum("ij,ij->i", U, U)
    return float(vals[0]) if scalar else vals


def cumulant_gradient(model: IncrementModel, u) -> np.ndarray:
    """Analytic gradient of :func:`cumulant`; equals the drift at u = 0."""
    U, scalar = _prepare(u)
    kind = model.kind
    if isinstance(kind, Gaussian):
        grad = kind.mean + U @ kind.cov
    elif isinstance(kind, Atoms):
        _, weights = _logsumexp(U @ kind.points.T + np.log(kind.probs))
        grad = weights @ kind.points
        zero = np.all(U == 0.0, axis=1)
        if zero.any():
            grad[zero] = kind.probs @ kind.points
    else:
        grad = np.empty_like(U)
        grad[:, 0] = kind.mu1
        grad[:, 1] = y_cumulant_d1(kind.y_model, U[:, 1])
    if model.epsilon:
        grad = grad + model.epsilon * U
    return grad[0] if scalar else grad


def cumulant_hessian(model: IncrementModel, u) -> np.ndarray:
    """Analytic Hessian of :func:`cumulant`: symmetric PSD, and SPD whenever
    the support class is full-plane or epsilon > 0."""
    U, scalar = _prepare(u)
    kind = model.kind
    if isinstance(kind, Gaussian):
        hess = np.broadcast_to(kind.cov, (len(U), 2, 2)).copy()
    elif isinstance(kind, Atoms):
        _, weights = _logsumexp(U @ kind.points.T + np.log(kind.probs))
        zero = np.all(U == 0.0, axis=1)
        if zero.any():
            weights[zero] = kind.probs
        m1 = weights @ kind.points
        m2 = np.einsum("mk,ki,kj->mij", weights, kind.points, kind.points)
        hess = m2 - np.einsum("mi,mj->mij", m1, m1)
    else:
        hess = np.zeros((len(U), 2, 2))
        hess[:, 1, 1] = y_cumulant_d2(kind.y_model, U[:, 1])
    if model.epsilon:
        hess = hess + model.epsilon * np.eye(2)
    return hess[0] if scalar else hess


def drift(model: IncrementModel) -> np.ndarray:
    """Mean increment, which equals the cumulant gradient at the origin."""
    kind = model.kind
    if isinstance(kind, Gaussian):
        return np.array(kind.mean)
    if isinstance(kind, Atoms):
        return np.asarray(kind.probs @ kind.points, float)
    return np.array([kind.mu1, y_mean(kind.y_model)])


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

def from_spec(spec: dict) -> IncrementModel:
    """Build a model from its JSON dict form (see :func:`to_spec`)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("distribution spec must be a dict with a 'type' key")
    eps = spec.get("eps", 0.0)
    t = spec["type"]
    if t == "gaussian":
        return gaussian(spec["mean"], spec["cov"], eps)
    if t == "atoms":
        return atoms(spec["points"], spec["probs"], eps)
    if t == "graph1d":
        y = spec["y"]
        if y["type"] == "gaussian1d":
            sub = gaussian1d(y.get("mean", 0.0), y["var"])
        elif y["type"] == "atoms1d":
            sub = atoms1d(y["points"], y["probs"])
        else:
            raise ValueError(f"unknown y-model type {y['type']!r}")
        return graph1d(spec["mu1"], sub, eps)
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
