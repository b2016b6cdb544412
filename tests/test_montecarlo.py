import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

import ldp_hull as lh
from ldp_hull import montecarlo as mc
from ldp_hull.errors import OutOfRangeError

from conftest import brute_force_hull_area


def exact_tail_probability(n: int, threshold: float) -> float:
    """Enumeration over all 2^n sign sequences of the +-1 graph walk."""
    total = 0.0
    for ys in itertools.product([1.0, -1.0], repeat=n):
        pts = np.vstack(
            [np.zeros(2), np.cumsum(np.column_stack([np.ones(n), ys]), axis=0)]
        )
        if mc.hull_area_points(pts) >= threshold:
            total += 0.5 ** n
    return total


def test_simulate_walk_trivial_cases(iso):
    w = lh.simulate_walk(iso, 0, seed=5)
    assert w.hull_area == 0.0 and w.points.shape == (1, 2)
    assert w.log_weight == 0.0


def test_simulate_walk_atoms_support(two_atoms):
    w = lh.simulate_walk(two_atoms, 25, seed=1)
    np.testing.assert_array_equal(w.points[:, 0], np.arange(26.0))
    assert np.all(w.points[:, 1] == np.round(w.points[:, 1]))


def test_simulate_walk_gaussian_mean(iso):
    n = 10000
    w = lh.simulate_walk(iso, n, seed=0)
    increments = np.diff(w.points, axis=0)
    # CLT bound: the chosen seed keeps both coordinate means within 3/sqrt(n)
    assert np.all(np.abs(increments.mean(axis=0)) <= 3.0 / math.sqrt(n))


def test_simulate_walk_tilted_log_weight(iso):
    n = 8
    rng = np.random.default_rng(2)
    tilts = rng.normal(size=(n, 2))
    w = lh.simulate_walk(iso, n, seed=6, tilts=tilts)
    X = np.diff(w.points, axis=0)
    expected = math.fsum(lh.cumulant(iso, tilts)) - float(np.einsum("ij,ij->", tilts, X))
    assert w.log_weight == pytest.approx(expected, abs=1e-12)
    # zero tilt reproduces the naive walk stream for stream
    a = lh.simulate_walk(iso, n, seed=6)
    b = lh.simulate_walk(iso, n, seed=6, tilts=np.zeros((n, 2)))
    np.testing.assert_array_equal(a.points, b.points)
    assert b.log_weight == 0.0


def test_hull_area_points_examples():
    assert mc.hull_area_points([[0, 0], [1, 0], [0, 1]]) == pytest.approx(0.5, abs=1e-15)
    assert mc.hull_area_points([[0, 0], [1, 1], [2, 2]]) == 0.0
    rng = np.random.default_rng(40)
    for _ in range(10):
        pts = rng.uniform(-1, 1, size=(10, 2))
        assert mc.hull_area_points(pts) == pytest.approx(brute_force_hull_area(pts), abs=1e-12)


def test_estimate_determinism_and_thread_invariance(iso):
    a = lh.estimate_ldp(iso, 0.1, 12, 2000, mode="naive", seed=3, threads=1)
    b = lh.estimate_ldp(iso, 0.1, 12, 2000, mode="naive", seed=3, threads=1)
    c = lh.estimate_ldp(iso, 0.1, 12, 2000, mode="naive", seed=3, threads=4)
    assert a == b == c


def test_zero_tilt_reduces_to_naive(iso):
    # the naive mode is literally the tilted machinery with zero tilts; check
    # that a hand-built zero-tilt run reproduces it stream for stream
    n, samples, seed = 10, 1500, 9
    naive = lh.estimate_ldp(iso, 0.08, n, samples, mode="naive", seed=seed, threads=1)
    draw = mc._increment_sampler(iso, np.zeros((n, 2)))
    hits = 0
    contrib = np.zeros(samples)
    for j in range(samples):
        gen = mc._generator(seed, j)
        X = draw(gen)
        pts = np.vstack([np.zeros(2), np.cumsum(X, axis=0)])
        if mc.hull_area_points(pts) >= 0.08 * n * n:
            hits += 1
            contrib[j] = 1.0
    assert hits == naive.hits
    assert -math.log(contrib.mean()) / n == pytest.approx(naive.rate, abs=1e-14)


def test_log_mean_exp_below_exp_underflow():
    # weights near exp(-1000) underflow to 0 in the linear domain
    rng = np.random.default_rng(5)
    log_w = -1000.0 + rng.uniform(-5.0, 5.0, size=200)
    assert not np.any(np.exp(log_w))
    ref = float(logsumexp(log_w)) - math.log(300)
    assert mc._log_mean_exp(log_w, 300) == pytest.approx(ref, rel=1e-14)
    assert mc._log_mean_exp(log_w[::-1], 300) == mc._log_mean_exp(log_w, 300)
    assert mc._log_mean_exp(np.full(4, -math.inf), 300) == -math.inf


def test_deep_tail_estimate_keeps_its_hits(iso):
    # n J = 300 pi: every importance weight is below exp(-745)
    est = lh.estimate_ldp(iso, 1.0, 300, 300, mode="tilted", seed=7, threads=1)
    assert est.hits > 0 and not est.zero_hits
    assert est.stderr is not None
    assert est.rate == pytest.approx(math.pi, rel=0.1)
    # the probability itself underflows; its logarithm carries it
    assert est.prob == 0.0
    assert math.isfinite(est.log_prob)
    assert est.log_prob == pytest.approx(-300 * est.rate, rel=1e-15)


def test_zero_hits_reported_not_fatal(graph_pm1):
    # 0.3 n^2 exceeds the deterministic maximum hull area n^2/4 of this walk
    est = lh.estimate_ldp(graph_pm1, 0.3, 10, 500, mode="naive", seed=1, threads=1)
    assert est.zero_hits and est.hits == 0
    assert est.rate is None and est.stderr is None
    assert est.prob == 0.0 and est.log_prob == -math.inf


def test_tilted_mode_requires_solvable_area(graph_pm1):
    with pytest.raises(OutOfRangeError):
        lh.estimate_ldp(graph_pm1, 0.3, 10, 100, mode="tilted", seed=1)


@pytest.mark.parametrize("n,a", [(4, 0.2), (5, 0.15), (6, 0.2)])
def test_tilted_estimate_matches_enumeration(graph_pm1, n, a):
    threshold = a * n * n
    exact = exact_tail_probability(n, threshold)
    exact_rate = -math.log(exact) / n
    est = lh.estimate_ldp(graph_pm1, a, n, 30000, mode="tilted", seed=13, threads=1)
    assert est.stderr is not None
    assert abs(est.rate - exact_rate) <= 3.0 * est.stderr


def test_gaussian_tilted_estimate_reasonable(iso):
    # short pilot of the criterion-9 setup at reduced sample count
    est = lh.estimate_ldp(iso, 0.3, 20, 8000, mode="tilted", seed=2, threads=1)
    assert est.hits > 1000
    assert est.rate == pytest.approx(0.3 * math.pi, rel=0.15)


def test_naive_mean_area_regression(iso):
    # internal regression baseline: mean of A_n / n over 200 seeded walks
    n = 50
    vals = [lh.simulate_walk(iso, n, seed=s).hull_area / n for s in range(200)]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert mean == pytest.approx(1.2165, abs=3 * max(stderr, 0.01))
