"""Reference values and property checks computed apart from ``ldp_hull``.

Nothing here imports the package under test: closed forms, the drifted
Gaussian's scalar equation, a monotone-chain hull, and an exhaustive
enumeration of the +-1 graph walk are written out from the mathematics, so a
fault in the program cannot also hide in its own reference.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its reference or property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(value: float, ref: float, rtol: float, what: str) -> None:
    require(
        math.isfinite(value) and abs(value - ref) <= rtol * max(abs(ref), 1e-300),
        f"{what}: {value!r} vs reference {ref!r} (rtol {rtol:g})",
    )


# ---------------------------------------------------------------------------
# Planar geometry

def hull_area(points) -> float:
    """Convex-hull area of a planar point set (Andrew's monotone chain)."""
    pts = sorted(set(map(tuple, np.asarray(points, float).reshape(-1, 2).tolist())))
    if len(pts) < 3:
        return 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    return polygon_area(np.asarray(hull))


def polygon_area(vertices) -> float:
    """Unsigned shoelace area of a closed or open vertex list."""
    v = np.asarray(vertices, float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def trapezoid(y, x) -> float:
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Closed forms

def gaussian_cumulant(mean, cov, U) -> np.ndarray:
    U = np.asarray(U, float)
    return U @ np.asarray(mean, float) + 0.5 * np.einsum("ij,jk,ik->i", U, cov, U)


def gaussian_level_area(mean, cov, alpha: float) -> float:
    """Area of {u : K(u) <= alpha} for N(mean, cov): an ellipse."""
    m = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    return math.pi * (2.0 * alpha + m @ np.linalg.solve(cov, m)) / math.sqrt(np.linalg.det(cov))


def centred_gaussian_rate(cov, a: float) -> float:
    """J(a) = pi a / sqrt(det C) for N(0, C)."""
    return math.pi * a / math.sqrt(np.linalg.det(np.asarray(cov, float)))


def _drift_phi(a: float) -> float:
    """Root in (0, pi/2) of (2 phi - sin 2 phi) / (8 phi^2 cos^2 phi) = a."""

    def g(phi):
        return (2.0 * phi - math.sin(2.0 * phi)) / (8.0 * phi * phi * math.cos(phi) ** 2)

    lo, hi = 1e-9, math.pi / 2.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < a:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * mid:
            break
    return 0.5 * (lo + hi)


def drifted_unit_rate(a: float) -> float:
    """J(a) of N((1, 0), I): J = 4 a phi - tan(phi)^2 / 2 at the root phi."""
    phi = _drift_phi(a)
    return 4.0 * a * phi - 0.5 * math.tan(phi) ** 2


def linear_image_rate(base_rate, det_t: float, a: float) -> float:
    """J_{TX}(a) = J_X(a / |det T|): hull areas scale by |det T|."""
    return base_rate(a / abs(det_t))


def graph_gauss_rate(a: float) -> float:
    """Graph law (1, N(0, 1)): J(a) = 6 a^2."""
    return 6.0 * a * a


PM1_A_MAX = 0.25  # spread 2 of the +-1 steps, |mu1| = 1: a_max = 2 / 8


# ---------------------------------------------------------------------------
# Exhaustive enumeration of the +-1 graph walk

@functools.lru_cache(maxsize=None)
def pm1_exact_rate(n: int, a: float) -> float:
    """-(1/n) log P(A_n >= a n^2) over all 2^n sign sequences of (1, +-1) steps."""
    thresh = a * n * n
    hits = 0
    xs = np.arange(n + 1, dtype=float)
    for signs in itertools.product((1.0, -1.0), repeat=n):
        ys = np.concatenate([[0.0], np.cumsum(signs)])
        if hull_area(np.column_stack([xs, ys])) >= thresh:
            hits += 1
    return -math.log(hits / 2 ** n) / n
