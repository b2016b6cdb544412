import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import ldp_hull as lh
from ldp_hull import increments as inc
from ldp_hull import montecarlo as mc
from ldp_hull.errors import OutOfRangeError

from conftest import brute_force_hull_area


# Reference engine: one fresh Philox generator, one sampler call and one exact
# hull per walk.  The blocked engine must reproduce it bit for bit.

def reference_generator(seed: int, index: int) -> np.random.Generator:
    # the list key is exact while both entries are below 2^63
    return np.random.Generator(np.random.Philox(key=[seed % 2 ** 64, index % 2 ** 64]))


def keyed_generator(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed % 2 ** 64, index % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_categorical(gen, cum_probs, n):
    v = gen.random(n)
    return np.sum(cum_probs < v[:, None], axis=1)


def reference_sampler(model, tilts):
    """Draw function gen -> (n, 2) increments of one walk."""
    n = len(tilts)
    kind, eps = model.kind, model.epsilon
    if isinstance(kind, inc.Gaussian):
        cov = kind.cov + eps * np.eye(2)
        mean = kind.mean + tilts @ cov
        factor = mc._cov_factor(cov).T
        return lambda gen: mean + gen.standard_normal((n, 2)) @ factor
    if isinstance(kind, inc.Atoms):
        _, probs = inc._logsumexp(np.log(kind.probs) + tilts @ kind.points.T)
        cum = np.cumsum(probs, axis=1)
        base = lambda gen: kind.points[reference_categorical(gen, cum, n)]
    else:
        y, w = kind.y_model, tilts[:, 1]
        if isinstance(y, inc.Gaussian1D):
            y_mean, y_sd = y.mean + y.var * w, math.sqrt(y.var)
            draw_y = lambda gen: y_mean + y_sd * gen.standard_normal(n)
        else:
            _, probs = inc._logsumexp(np.log(y.probs) + np.multiply.outer(w, y.points))
            cum = np.cumsum(probs, axis=1)
            draw_y = lambda gen: y.points[reference_categorical(gen, cum, n)]
        base = lambda gen: np.column_stack([np.full(n, kind.mu1), draw_y(gen)])
    if not eps:
        return base
    shift, sd = eps * tilts, math.sqrt(eps)
    return lambda gen: base(gen) + shift + sd * gen.standard_normal((n, 2))


def reference_walks(model, tilts, seed, samples):
    draw = reference_sampler(model, tilts)
    for j in range(samples):
        X = draw(reference_generator(seed, j))
        yield X, np.vstack([np.zeros(2), np.cumsum(X, axis=0)])


def reference_log_weights(model, tilts, threshold, seed, samples):
    log_norm = math.fsum(lh.cumulant(model, tilts))
    log_w = np.full(samples, -math.inf)
    for j, (X, pts) in enumerate(reference_walks(model, tilts, seed, samples)):
        if mc.hull_area_points(pts) >= threshold:
            log_w[j] = log_norm - float(np.einsum("ij,ij->", tilts, X))
    return log_w


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


def test_atom_draw_stays_in_range_when_masses_sum_below_one():
    # these softmax masses accumulate to 1 - 2^-52, so the largest uniform,
    # 1 - 2^-53, lies above every cumulative mass
    logits = np.array([[-0.1857739586715857, -1.416489366414042, -0.8274022267661552]])
    _, probs = inc._logsumexp(logits)
    assert np.cumsum(probs)[-1] < 1.0 - 2.0 ** -53
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    draw = mc._atom_draw(points, logits)
    np.testing.assert_array_equal(draw(np.array([[1.0 - 2.0 ** -53]])), [[[0.0, 1.0]]])


def test_estimate_determinism_and_thread_invariance(iso):
    # walks run on one thread; the CLI's --threads is echoed only (test_cli)
    a = lh.estimate_ldp(iso, 0.1, 12, 2000, mode="naive", seed=3)
    b = lh.estimate_ldp(iso, 0.1, 12, 2000, mode="naive", seed=3)
    assert a == b


def test_zero_tilt_reduces_to_naive(iso):
    # the naive mode is literally the tilted machinery with zero tilts; check
    # that a hand-built zero-tilt run of the per-walk reference reproduces it
    # stream for stream
    n, samples, seed = 10, 1500, 9
    naive = lh.estimate_ldp(iso, 0.08, n, samples, mode="naive", seed=seed)
    hits = 0
    contrib = np.zeros(samples)
    for j, (_, pts) in enumerate(reference_walks(iso, np.zeros((n, 2)), seed, samples)):
        if mc.hull_area_points(pts) >= 0.08 * n * n:
            hits += 1
            contrib[j] = 1.0
    assert hits == naive.hits
    assert -math.log(contrib.mean()) / n == pytest.approx(naive.rate, abs=1e-14)


# name -> (model, steps, area of the tilted runs, largest drawn naive area)
IDENTITY_LAWS = {
    # small area: coordinates of order n next to hull areas of order a n^2
    "drifted-gaussian": (lh.gaussian([1.0, 0.0], np.eye(2)), 30, 0.02, 0.1),
    "triangle-eps": (lh.atoms([[1, 1], [1, -1], [-1, 0]], [1 / 3] * 3, eps=0.05), 12, 0.1, 0.1),
    # lattice walks: hull areas are half-integers, and support values tie
    "graph-pm1": (lh.graph1d(1.0, lh.atoms1d([1.0, -1.0], [0.5, 0.5])), 8, 0.2, 0.25),
    "graph-gaussian": (lh.graph1d(1.0, lh.gaussian1d(0.0, 1.0)), 10, 0.3, 0.25),
}


def inverted_tilts(model, area: float, n: int) -> np.ndarray:
    """Tilts by inverting the cumulant gradient at the optimal velocities."""
    result = lh.rate_of_area(model, area, samples=n)
    derivs = result.candidates[0].trajectory.derivs[:-1]
    if lh.support_class(result.model).tag == "full_plane":
        return lh.legendre.rate_batch(result.model, derivs, return_maximizers=True)[1]
    return np.column_stack([np.zeros(n), lh.rate_1d_gradient(result.model, derivs[:, 1])])


@pytest.mark.parametrize("name", sorted(IDENTITY_LAWS))
def test_tilts_are_the_dual_path(name):
    # the solver's dual path is the gradient inverse of its velocities
    model, n, area, _ = IDENTITY_LAWS[name]
    tilts = mc._optimal_tilts(model, area, n)
    np.testing.assert_allclose(tilts, inverted_tilts(model, area, n), rtol=1e-10, atol=1e-10)


@functools.cache
def identity_tilts(name: str) -> np.ndarray:
    model, n, area, _ = IDENTITY_LAWS[name]
    return mc._optimal_tilts(model, area, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(IDENTITY_LAWS)),
    tilted=st.booleans(),
    fraction=st.floats(0.0, 1.0),
    blocks=st.sampled_from(["below", "one", "ragged"]),
    seed=st.integers(0, 2 ** 63 - 1),
)
def test_blocked_hit_set_matches_per_walk_reference(name, tilted, fraction, blocks, seed):
    model, n, area, naive_max = IDENTITY_LAWS[name]
    block = max(1, mc._BLOCK_POINTS // (n + 1))
    samples = {"below": block // 2, "one": block, "ragged": 2 * block + block // 3 + 1}[blocks]
    if tilted:
        tilts, threshold = identity_tilts(name), area * n * n
    else:
        tilts, threshold = np.zeros((n, 2)), fraction * naive_max * n * n
        if name == "graph-pm1":
            threshold = math.floor(2.0 * threshold) / 2.0  # exactly attainable areas
    ref = reference_log_weights(model, tilts, threshold, seed, samples)
    got = mc._hit_log_weights(model, tilts, threshold, seed, samples)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [0, 2 ** 40 + 3, -7])
@pytest.mark.parametrize("index", [0, 2 ** 63, 2 ** 64 - 1])
def test_rekeyed_generator_reproduces_fresh_streams(seed, index):
    streams = mc._Streams(seed)
    # a previous walk left a buffered half-word (and a part-used buffer)
    streams.rekey(index ^ 1)
    streams.gen.integers(2 ** 32, dtype=np.uint32)
    draws = [
        lambda g: g.standard_normal((5, 2)),
        lambda g: g.random(7),
        lambda g: np.concatenate([g.random(6), g.standard_normal((6, 2)).ravel()]),
    ]
    for draw in draws:
        streams.rekey(index)
        np.testing.assert_array_equal(draw(streams.gen), draw(keyed_generator(seed, index)))
        if seed >= 0 and index < 2 ** 63:
            streams.rekey(index)
            np.testing.assert_array_equal(draw(streams.gen), draw(reference_generator(seed, index)))


def test_negative_seeds_key_their_own_streams(iso):
    # seed -7 keys as 2^64 - 7, not as seed 0
    walk = lh.simulate_walk(iso, 6, seed=-7).points
    assert walk.tobytes() != lh.simulate_walk(iso, 6, seed=0).points.tobytes()
    assert walk.tobytes() == lh.simulate_walk(iso, 6, seed=2 ** 64 - 7).points.tobytes()


def test_simulate_walk_is_walk_zero_of_the_reference():
    model, n, _, _ = IDENTITY_LAWS["triangle-eps"]
    tilts = np.random.default_rng(8).normal(scale=0.3, size=(n, 2))
    X, pts = next(reference_walks(model, tilts, 31, 1))
    w = lh.simulate_walk(model, n, seed=31, tilts=tilts)
    np.testing.assert_array_equal(w.points, pts)
    assert w.hull_area == mc.hull_area_points(pts)
    assert w.log_weight == math.fsum(lh.cumulant(model, tilts)) - float(np.einsum("ij,ij->", tilts, X))


# Outputs of the per-walk engine (hits, rate_estimate), recorded before the
# walks were blocked; the ldp-hull simulate command of each case prints them.
PINNED = [
    ("iso-n40", lh.gaussian([0, 0], np.eye(2)), 0.3, 40, 2000, "tilted", 11, 1235, 0.9168654939959658),
    ("corr-drift-n30", lh.gaussian([0.3, 0], [[1, 0.2], [0.2, 1]]), 0.2, 30, 2000, "tilted", 12,
     1326, 0.3865181838111622),
    ("graph-pm1-n6", lh.graph1d(1, lh.atoms1d([1, -1], [0.5, 0.5])), 0.2, 6, 3000, "tilted", 13,
     2103, 0.14911373321763546),
    ("square-eps1e-2-n20", lh.atoms([[2, 2], [-2, 2], [2, -2], [-2, -2]], [0.25] * 4, eps=0.01),
     0.2, 20, 2000, "tilted", 14, 1750, 0.04469015067350015),
    ("graph-gauss-n15", lh.graph1d(1, lh.gaussian1d(0, 1)), 0.3, 15, 2000, "tilted", 15,
     1330, 0.5470674563489556),
    ("deep-tail-n300", lh.gaussian([0, 0], np.eye(2)), 1.0, 300, 300, "tilted", 7, 197, 3.103757460615349),
    ("naive-iso-n12", lh.gaussian([0, 0], np.eye(2)), 0.1, 12, 3000, "naive", 4, 552, 0.14106829344776262),
]


@pytest.mark.parametrize("case", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_estimates(case):
    _, model, area, n, samples, mode, seed, hits, rate = case
    est = lh.estimate_ldp(model, area, n, samples, mode=mode, seed=seed)
    assert est.hits == hits
    assert est.rate == pytest.approx(rate, rel=1e-13, abs=0.0)
    if mode == "naive":
        assert est.ess == hits and est.max_weight_share == 1.0 / hits
    else:
        assert 1.0 <= est.ess <= hits and 0.0 < est.max_weight_share <= 1.0


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
    est = lh.estimate_ldp(iso, 1.0, 300, 300, mode="tilted", seed=7)
    assert est.hits > 0 and not est.zero_hits
    assert est.stderr is not None
    assert est.rate == pytest.approx(math.pi, rel=0.1)
    # the probability itself underflows; its logarithm carries it
    assert est.prob == 0.0
    assert math.isfinite(est.log_prob)
    assert est.log_prob == pytest.approx(-300 * est.rate, rel=1e-15)


def test_zero_hits_reported_not_fatal(graph_pm1):
    # 0.3 n^2 exceeds the deterministic maximum hull area n^2/4 of this walk
    est = lh.estimate_ldp(graph_pm1, 0.3, 10, 500, mode="naive", seed=1)
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
    est = lh.estimate_ldp(graph_pm1, a, n, 30000, mode="tilted", seed=13)
    assert est.stderr is not None
    assert abs(est.rate - exact_rate) <= 3.0 * est.stderr


def test_gaussian_tilted_estimate_reasonable(iso):
    # short pilot of the criterion-9 setup at reduced sample count
    est = lh.estimate_ldp(iso, 0.3, 20, 8000, mode="tilted", seed=2)
    assert est.hits > 1000
    assert est.rate == pytest.approx(0.3 * math.pi, rel=0.15)


def test_naive_mean_area_regression(iso):
    # internal regression baseline: mean of A_n / n over 200 seeded walks
    n = 50
    vals = [lh.simulate_walk(iso, n, seed=s).hull_area / n for s in range(200)]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert mean == pytest.approx(1.2165, abs=3 * max(stderr, 0.01))
