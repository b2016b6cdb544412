"""Random-walk simulation and decay-rate estimation for large hull areas.

Estimates -(1/n) log P(A_n >= a n^2) either naively (empirical frequency) or
by importance sampling under per-step exponential tilting along the solved
optimal trajectory.  The finite-n estimate is not expected to attain the
limiting rate; checks are trend- and enumeration-based.  When the optimal
trajectory is non-unique (two curves for graph models, a whole family for
centrally symmetric laws) the single-mode tilt misses the probability mass
near the other optimizers, biasing the estimated rate upward by roughly
log(mode count)/n; this vanishes in the limit but is visible at moderate n.

Randomness is counter-based: sample j of a run draws from a Philox stream
keyed by (seed, j), and step i consumes the i-th draw of that stream, so
results are reproducible and independent of the order walks run in.  Estimator
reductions use exactly-rounded summation, hence are order-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import increments as inc
from . import legendre
from . import solver
from .polyline import _polygon_area, convex_hull_vertices

__all__ = ["WalkSample", "LdpEstimate", "simulate_walk", "hull_area_points", "estimate_ldp"]


@dataclass
class WalkSample:
    """One simulated walk: partial sums from the origin and its hull area.

    ``log_weight`` is 0 for naive sampling; under tilting it is the
    log Radon-Nikodym derivative sum of (K(u_i) - u_i . X_i) over steps.
    """

    n: int
    points: np.ndarray  # (n+1, 2), points[0] = origin
    hull_area: float
    log_weight: float


@dataclass
class LdpEstimate:
    """``prob`` underflows to 0.0 once n * rate passes about 745; ``log_prob``
    (-inf without hits) does not."""

    rate: float | None
    stderr: float | None
    hits: int
    samples: int
    mode: str
    zero_hits: bool
    prob: float
    log_prob: float


def _generator(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed % 2 ** 64, index % 2 ** 64]))


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    # eigen square root: works for singular covariances too
    w, v = np.linalg.eigh(cov)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _categorical(gen, cum_probs: np.ndarray, n: int) -> np.ndarray:
    # cum_probs: (n, k) per-step cumulative masses; one uniform per step
    v = gen.random(n)
    return np.sum(cum_probs < v[:, None], axis=1)


def _increment_sampler(model: inc.IncrementModel, tilts: np.ndarray):
    """Draw function gen -> (n, 2) increments, one tilted law per row of ``tilts``.

    Zero rows give the base law.  Tilting is exact per kind: atom masses are
    reweighted by exp(u . x - K(u)); Gaussian parts shift their mean by
    cov @ u.  What depends only on the tilts is computed once, here.  The
    draw pattern does not depend on the tilt values, so zero tilts reproduce
    the naive sampler stream for stream.
    """
    n = len(tilts)
    kind = model.kind
    eps = model.epsilon
    if isinstance(kind, inc.Gaussian):
        cov = kind.cov + eps * np.eye(2)
        mean = kind.mean + tilts @ cov
        factor = _cov_factor(cov).T
        return lambda gen: mean + gen.standard_normal((n, 2)) @ factor
    if isinstance(kind, inc.Atoms):
        _, probs = inc._logsumexp(np.log(kind.probs) + tilts @ kind.points.T)
        cum = np.cumsum(probs, axis=1)
        base = lambda gen: kind.points[_categorical(gen, cum, n)]
    else:
        y = kind.y_model
        w = tilts[:, 1]
        if isinstance(y, inc.Gaussian1D):
            y_mean, y_sd = y.mean + y.var * w, math.sqrt(y.var)
            draw_y = lambda gen: y_mean + y_sd * gen.standard_normal(n)
        else:
            _, probs = inc._logsumexp(np.log(y.probs) + np.multiply.outer(w, y.points))
            cum = np.cumsum(probs, axis=1)
            draw_y = lambda gen: y.points[_categorical(gen, cum, n)]
        base = lambda gen: np.column_stack([np.full(n, kind.mu1), draw_y(gen)])
    if not eps:
        return base
    shift, sd = eps * tilts, math.sqrt(eps)
    return lambda gen: base(gen) + shift + sd * gen.standard_normal((n, 2))


def hull_area_points(points) -> float:
    """Convex-hull area of a point set (monotone chain + shoelace); 0 if collinear."""
    hull = convex_hull_vertices(points)
    if len(hull) < 3:
        return 0.0
    return abs(_polygon_area(hull))


def simulate_walk(
    model: inc.IncrementModel, n: int, seed: int = 0, tilts: np.ndarray | None = None
) -> WalkSample:
    """One walk of n steps, deterministic given the seed.

    With per-step ``tilts`` (an (n, 2) array), increments are drawn from the
    exponentially tilted laws and ``log_weight`` carries the change-of-measure
    sum of (K(u_i) - u_i . X_i); otherwise the untilted law with weight 0.
    """
    if n == 0:
        return WalkSample(0, np.zeros((1, 2)), 0.0, 0.0)
    gen = _generator(seed, 0)
    if tilts is None:
        X = _increment_sampler(model, np.zeros((n, 2)))(gen)
        log_w = 0.0
    else:
        tilts = np.asarray(tilts, float).reshape(n, 2)
        X = _increment_sampler(model, tilts)(gen)
        log_w = math.fsum(inc.cumulant(model, tilts)) - float(np.einsum("ij,ij->", tilts, X))
    pts = np.vstack([np.zeros(2), np.cumsum(X, axis=0)])
    return WalkSample(n, pts, hull_area_points(pts), log_w)


def _optimal_tilts(model: inc.IncrementModel, area: float, n: int) -> np.ndarray:
    """Per-step tilts: the rate gradient of the optimal trajectory's velocity
    at the left endpoint of each step."""
    result = solver.rate_of_area(model, area, samples=n)
    traj = result.candidates[0].trajectory
    derivs = traj.derivs[:-1]
    if inc.support_class(result.model).tag == "full_plane":
        _, U = legendre.rate_batch(result.model, derivs, return_maximizers=True)
        return U
    return np.column_stack([np.zeros(n), legendre.rate_1d_gradient(result.model, derivs[:, 1])])


def _log_mean_exp(log_w: np.ndarray, count: int) -> float:
    """log(sum(exp(log_w)) / count), reduced by max shift; -inf if all are -inf.

    Exactly-rounded summation after the shift keeps the result independent of
    the order of ``log_w``, and weights far below exp(-745) do not underflow.
    """
    top = float(log_w.max())
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(np.exp(log_w - top)) / count)


def estimate_ldp(
    model: inc.IncrementModel,
    area: float,
    n: int,
    samples: int,
    mode: str = "naive",
    seed: int = 0,
    threads: int | None = None,
    batches: int = 10,
) -> LdpEstimate:
    """Estimate of the decay rate of P(A_n >= area * n^2) from ``samples`` walks.

    Naive mode reports -(1/n) log of the hit frequency and flags zero hits
    instead of failing.  Tilted mode draws every step from the exponentially
    tilted law along the optimal trajectory and averages indicator * weight,
    in the log domain, so ``zero_hits`` means no walk reached the threshold.
    The standard error comes from batch means over ``batches`` blocks (None
    when a block has no hit).  Walks run serially: the per-walk work holds
    the interpreter lock, so a thread pool never ran faster; ``threads`` is
    accepted and ignored.
    """
    if mode not in ("naive", "tilted"):
        raise ValueError("mode must be 'naive' or 'tilted'")
    if samples < batches:
        raise ValueError("need at least as many samples as batches")
    tilts = (
        _optimal_tilts(model, area, n) if mode == "tilted" else np.zeros((n, 2))
    )
    log_norm = math.fsum(inc.cumulant(model, tilts))  # sum of K(u_i)
    threshold = area * n * n
    draw = _increment_sampler(model, tilts)
    log_w = np.full(samples, -math.inf)  # log weight of each hit; -inf for a miss

    for j in range(samples):
        X = draw(_generator(seed, j))
        pts = np.vstack([np.zeros(2), np.cumsum(X, axis=0)])
        if hull_area_points(pts) >= threshold:
            log_w[j] = log_norm - float(np.einsum("ij,ij->", tilts, X))

    hits = int(np.count_nonzero(log_w > -math.inf))
    if hits == 0:
        return LdpEstimate(None, None, hits, samples, mode, True, 0.0, -math.inf)
    log_prob = _log_mean_exp(log_w, samples)

    edges = np.linspace(0, samples, batches + 1).astype(int)
    batch_log_probs = [_log_mean_exp(log_w[a:b], b - a) for a, b in zip(edges[:-1], edges[1:])]
    if min(batch_log_probs) > -math.inf:
        batch_rates = [-lp / n for lp in batch_log_probs]
        stderr = float(np.std(batch_rates, ddof=1) / math.sqrt(batches))
    else:
        stderr = None
    return LdpEstimate(-log_prob / n, stderr, hits, samples, mode, False, math.exp(log_prob), log_prob)
