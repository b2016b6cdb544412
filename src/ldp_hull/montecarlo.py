"""Random-walk simulation and decay-rate estimation for large hull areas.

Estimates -(1/n) log P(A_n >= a n^2) either naively (empirical frequency) or
by importance sampling under per-step exponential tilting along the solved
optimal trajectory.  The finite-n estimate is not expected to attain the
limiting rate; checks are trend- and enumeration-based.  When the optimal
trajectory is non-unique (two curves for graph models, a whole family for
centrally symmetric laws) the single-mode tilt misses the probability mass
near the other optimizers, biasing the estimated rate upward by roughly
log(mode count)/n; this vanishes in the limit but is visible at moderate n.

Randomness is counter-based: sample j of a run draws from the Philox stream
keyed by (seed mod 2^64, j mod 2^64), and step i consumes the i-th draw of
that stream, so results are reproducible and independent of the order walks
run in.  Walks run in blocks of about 2048 points, and one transform and
one cumulative sum serve a block.  A law whose draws are all uniforms (atoms,
or a graph law with an atom Y, without eps) computes them for many walks at
once with a vectorized Philox4x64-10 that reproduces numpy's
``Generator.random`` bit for bit; a law that draws normals fills each walk's
block row from one bit generator, re-keyed per walk.  Support polygons in 32
fixed directions bracket each hull area, widened by a rounding margin, then
polygons in 128 directions the walks left in doubt; only walks whose brackets
both straddle the threshold get an exact hull (``polyline._hull_areas_reach``),
and one batched product weights the block's hits, so the hit set, the weights
and every output are those of a walk-by-walk loop.  Estimator reductions use
exactly-rounded summation, hence are order-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import increments as inc
from . import solver
# convex_hull_vertices stays bound here: the benchmark's span tracing wraps it
from .polyline import _hull_areas_reach, convex_hull_vertices, hull_area  # noqa: F401

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
    (-inf without hits) does not.  Importance-sampling health: ``ess`` is the
    effective sample size (sum w)^2 / sum w^2 of the hits' weights w (the hit
    count in naive mode), ``max_weight_share`` the largest weight over sum w;
    both are 0 without hits."""

    rate: float | None
    stderr: float | None
    hits: int
    samples: int
    mode: str
    zero_hits: bool
    prob: float
    log_prob: float
    ess: float = 0.0
    max_weight_share: float = 0.0


_BLOCK_POINTS = 2048  # walk points per block: bounds the block arrays, whatever n is
_BATCHES = 10  # batch means for the standard error


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    # eigen square root: works for singular covariances too
    w, v = np.linalg.eigh(cov)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _atom_draw(points: np.ndarray, logits: np.ndarray):
    """Map from uniforms V (B, n) to atoms, step i drawn with the masses
    softmax(logits[i]); the atom index is an exact count of cumulative masses
    below V.  The last one is left out: it can round below 1, and below V."""
    _, probs = inc._logsumexp(logits)
    cum = np.cumsum(probs, axis=1)[:, :-1]
    return lambda V: points[np.sum(cum < V[..., None], axis=-1)]


def _increment_sampler(model: inc.IncrementModel, tilts: np.ndarray):
    """``(draws, transform)``: the ``Generator`` method and shape of each raw
    draw of one walk, in stream order (base law, then regularizing normals),
    and the map from the raw arrays of B walks to (B, n, 2) increments, one
    tilted law per row of ``tilts``.

    Zero rows give the base law.  Tilting is exact per kind: atom masses are
    reweighted by exp(u . x - K(u)); Gaussian parts shift their mean by
    cov @ u.  The draws do not depend on the tilt values, so zero tilts
    reproduce the naive sampler stream for stream.
    """
    n = len(tilts)
    kind = model.kind
    eps = model.epsilon
    if isinstance(kind, inc.Gaussian):
        cov = kind.cov + eps * np.eye(2)
        mean = kind.mean + tilts @ cov
        factor = _cov_factor(cov).T
        # a stacked matmul multiplies walk by walk, as one walk's draw did
        return [("standard_normal", (n, 2))], lambda Z: mean + Z @ factor
    if isinstance(kind, inc.Atoms):
        draws = [("random", (n,))]
        base = _atom_draw(kind.points, np.log(kind.probs) + tilts @ kind.points.T)
    else:
        y = kind.y_model
        w = tilts[:, 1]
        if isinstance(y, inc.Gaussian1D):
            draws = [("standard_normal", (n,))]
            y_mean, y_sd = y.mean + y.var * w, math.sqrt(y.var)
            draw_y = lambda Z: y_mean + y_sd * Z
        else:
            draws = [("random", (n,))]
            draw_y = _atom_draw(y.points, np.log(y.probs) + np.multiply.outer(w, y.points))

        def base(raw):
            X = np.empty(raw.shape + (2,))
            X[..., 0] = kind.mu1
            X[..., 1] = draw_y(raw)
            return X

    if not eps:
        return draws, base
    shift, sd = eps * tilts, math.sqrt(eps)
    return draws + [("standard_normal", (n, 2))], lambda raw, E: base(raw) + shift + sd * E


class _Streams:
    """One Philox bit generator and its ``gen``, re-keyed per walk.  The key
    is a uint64 array: a list with an entry >= 2^63 would round via float64."""

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=np.array([seed % 2 ** 64, 0], dtype=np.uint64))
        self.gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # counter zero, buffer empty, no half-word

    def rekey(self, index: int) -> None:
        """Put ``gen`` at the start of the stream keyed by (seed, index)."""
        self._state["state"]["key"][1] = index % 2 ** 64
        self._bitgen.state = self._state


# Philox4x64-10 as numpy's Philox runs it: the round multipliers, whole and
# split into 32-bit halves, and the Weyl key bumps.  The words per vectorized
# call bound its arrays whatever the sample count: on a 2-CPU machine 2^15 to
# 2^16 words per call were the fastest per word, 2^17 and 2^18 up to 60% slower
_PHILOX_M = [(np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
             for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)]
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_WORDS = 2 ** 16


def _mulhilo(m, x: np.ndarray):
    """High and low words of the 128-bit products of the multiplier m and x."""
    m_full, m_lo, m_hi = m
    x_lo, x_hi = x & 0xFFFFFFFF, x >> 32
    mid = x_hi * m_lo + ((x_lo * m_lo) >> 32)  # no partial sum here can pass 2^64
    low = (mid & 0xFFFFFFFF) + x_lo * m_hi
    return x_hi * m_hi + (mid >> 32) + (low >> 32), x * m_full


def _philox_uniforms(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """(count, n) uniforms: row b is the first n draws of ``Generator.random``
    on the Philox stream keyed (seed, first + b), both mod 2^64, bit for bit.

    numpy's Philox bumps its counter before each 4-word block, so draw i is
    word i % 4 of the block at counter (1 + i // 4, 0, 0, 0), and a double
    is (word >> 11) * 2^-53.  Every lane is a uint64 array, which wraps
    silently; the first two rounds broadcast over the lanes that do not yet
    depend on the walk.
    """
    c0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k1 = np.arange(count, dtype=np.uint64) + np.uint64(first % 2 ** 64)
    for r in range(10):  # round r uses the key bumped r times
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2 ** 64)
        k1_r = k1 + np.uint64(r * _PHILOX_W[1] % 2 ** 64)
        (hi0, lo0), (hi1, lo1) = _mulhilo(_PHILOX_M[0], c0), _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1_r, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).transpose(1, 0, 2).reshape(count, -1)
    return (words[:, :n] >> 11) * 2.0 ** -53


def _looped_draws(draws, seed: int, samples: int, size: int):
    """Raw draws of blocks of ``size`` walks, filled walk by walk from one bit
    generator re-keyed per walk: any ``Generator`` method, normals too."""
    streams = _Streams(seed)
    fills = [getattr(streams.gen, method) for method, _ in draws]
    raw = [np.empty((size,) + shape) for _, shape in draws]
    for start in range(0, samples, size):
        count = min(size, samples - start)
        for b in range(count):
            streams.rekey(start + b)
            for fill, out in zip(fills, raw):
                fill(out=out[b])
        yield start, [r[:count] for r in raw]


def _uniform_draws(n: int, seed: int, samples: int, size: int):
    """The same blocks for walks whose only draw is n uniforms: one
    :func:`_philox_uniforms` call of at most ``_PHILOX_WORDS`` words serves
    many blocks."""
    per_call = size * max(1, _PHILOX_WORDS // (4 * -(-n // 4) * size))
    for first in range(0, samples, per_call):
        U = _philox_uniforms(seed, first, min(per_call, samples - first), n)
        for b in range(0, len(U), size):
            yield first + b, [U[b:b + size]]


def _walk_blocks(model: inc.IncrementModel, tilts: np.ndarray, seed: int, samples: int):
    """Blocks (start, X, P) of walks start, start+1, ...: increments X (B, n, 2)
    and partial sums P (B, n+1, 2) from the origin.  Walk j draws from the
    start of the stream keyed by (seed, j), whatever walks came before.

    A law that draws uniforms only (atoms, or a graph law with an atom Y,
    without eps) gets them from a vectorized Philox for many walks at once;
    one that draws normals re-keys a ``Generator`` per walk, since only
    numpy's own ziggurat gives its normals bit for bit."""
    n = len(tilts)
    draws, transform = _increment_sampler(model, tilts)
    size = max(1, _BLOCK_POINTS // (n + 1))
    if draws == [("random", (n,))]:
        blocks = _uniform_draws(n, seed, samples, size)
    else:
        blocks = _looped_draws(draws, seed, samples, size)
    for start, raw in blocks:
        X = transform(*raw)
        P = np.zeros((len(X), n + 1, 2))
        np.cumsum(X, axis=1, out=P[:, 1:])
        yield start, X, P


hull_area_points = hull_area  # convex-hull area of a point set; 0 if collinear


def simulate_walk(
    model: inc.IncrementModel, n: int, seed: int = 0, tilts: np.ndarray | None = None
) -> WalkSample:
    """One walk of n steps, deterministic given the seed: walk 0 of an
    :func:`estimate_ldp` run with the same seed and tilts.

    With per-step ``tilts`` (an (n, 2) array), increments are drawn from the
    exponentially tilted laws and ``log_weight`` carries the change-of-measure
    sum of (K(u_i) - u_i . X_i); otherwise the untilted law with weight 0.
    """
    if n == 0:
        return WalkSample(0, np.zeros((1, 2)), 0.0, 0.0)
    u = np.zeros((n, 2)) if tilts is None else np.asarray(tilts, float).reshape(n, 2)
    _, X, P = next(_walk_blocks(model, u, seed, 1))
    log_w = 0.0
    if tilts is not None:
        log_w = math.fsum(inc.cumulant(model, u)) - float(np.einsum("ij,ij->", u, X[0]))
    return WalkSample(n, P[0], hull_area_points(P[0]), log_w)


def _optimal_tilts(model: inc.IncrementModel, area: float, n: int) -> np.ndarray:
    """Per-step tilts: the optimal trajectory's dual path u(t), whose cumulant
    gradient is its velocity, at the left endpoint of each step."""
    return solver.rate_of_area(model, area, samples=n).candidates[0].trajectory.duals[:-1]


def _log_mean_exp(log_w: np.ndarray, count: int) -> float:
    """log(sum(exp(log_w)) / count), reduced by max shift; -inf if all are -inf.

    Exactly-rounded summation after the shift keeps the result independent of
    the order of ``log_w``, and weights far below exp(-745) do not underflow.
    """
    top = float(log_w.max())
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(np.exp(log_w - top)) / count)


def _hit_log_weights(
    model: inc.IncrementModel, tilts: np.ndarray, threshold: float, seed: int, samples: int
) -> np.ndarray:
    """Log weight sum of (K(u_i) - u_i . X_i) of each walk whose hull area
    reaches ``threshold``, -inf for the others; reduced walk by walk."""
    log_norm = math.fsum(inc.cumulant(model, tilts))  # sum of K(u_i)
    log_w = np.full(samples, -math.inf)
    for start, X, P in _walk_blocks(model, tilts, seed, samples):
        rows = np.flatnonzero(_hull_areas_reach(P, threshold))
        log_w[start + rows] = log_norm - np.einsum("bij,ij->b", X[rows], tilts)
    return log_w


def estimate_ldp(
    model: inc.IncrementModel,
    area: float,
    n: int,
    samples: int,
    mode: str = "naive",
    seed: int = 0,
) -> LdpEstimate:
    """Estimate of the decay rate of P(A_n >= area * n^2) from ``samples`` walks.

    Naive mode reports -(1/n) log of the hit frequency and flags zero hits
    instead of failing.  Tilted mode draws every step from the exponentially
    tilted law along the optimal trajectory and averages indicator * weight,
    in the log domain, so ``zero_hits`` means no walk reached the threshold.
    The standard error comes from batch means over ``_BATCHES`` = 10
    batches (None when a batch has no hit).  Walks run serially, in blocks
    of about 2048 points whose hull areas are mostly decided by bounds, with
    the outputs of a walk-by-walk run.
    """
    if mode not in ("naive", "tilted"):
        raise ValueError("mode must be 'naive' or 'tilted'")
    inc._check_area(area)
    if n < 1:
        raise ValueError(f"need at least one step, got {n}")
    if samples < _BATCHES:
        raise ValueError("need at least as many samples as batches")
    tilts = (
        _optimal_tilts(model, area, n) if mode == "tilted" else np.zeros((n, 2))
    )
    log_w = _hit_log_weights(model, tilts, area * n * n, seed, samples)
    hits = int(np.count_nonzero(log_w > -math.inf))
    if hits == 0:
        return LdpEstimate(None, None, hits, samples, mode, True, 0.0, -math.inf)
    log_prob = _log_mean_exp(log_w, samples)
    w = np.exp(log_w - log_w.max())  # the largest weight is 1
    total = math.fsum(w)

    edges = np.linspace(0, samples, _BATCHES + 1).astype(int)
    batch_log_probs = [_log_mean_exp(log_w[a:b], b - a) for a, b in zip(edges[:-1], edges[1:])]
    if min(batch_log_probs) > -math.inf:
        batch_rates = [-lp / n for lp in batch_log_probs]
        stderr = float(np.std(batch_rates, ddof=1) / math.sqrt(_BATCHES))
    else:
        stderr = None
    return LdpEstimate(-log_prob / n, stderr, hits, samples, mode, False, math.exp(log_prob), log_prob,
                       total * total / math.fsum(w * w), 1.0 / total)
