import math

import numpy as np
import pytest
from scipy.special import logsumexp

import ldp_hull as lh
from ldp_hull import increments as inc


def test_gaussian_cumulant_closed_form(iso):
    assert lh.cumulant(iso, [1.0, 0.0]) == pytest.approx(0.5, rel=1e-14)
    assert lh.cumulant(iso, [0.0, 0.0]) == 0.0


def test_cumulant_zero_is_exact(iso, drift, two_atoms, triangle_atoms, graph_pm1):
    for m in (iso, drift, two_atoms, triangle_atoms, graph_pm1):
        assert lh.cumulant(m, [0.0, 0.0]) == 0.0


def test_atoms_cumulant_two_term(two_atoms):
    # direct two-term log-sum-exp oracle
    expected = math.log((math.exp(1.0) + math.exp(-1.0)) / 2.0)
    assert lh.cumulant(two_atoms, [0.0, 1.0]) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.433781, abs=5e-7)


def test_logsumexp_helper_matches_scipy():
    rng = np.random.default_rng(11)
    cases = [
        rng.uniform(690.0, 710.0, size=(50, 4)),
        rng.uniform(-710.0, -690.0, size=(50, 4)),
        np.full((3, 5), 2.5),  # tied rows
        np.array([[7.0, 7.0, -1.0], [-3.0, 4.0, 4.0]]),
        300.0 * rng.normal(size=(20, 1)),  # a single column
    ]
    for scores in cases:
        vals, weights = inc._logsumexp(scores)
        np.testing.assert_allclose(vals, logsumexp(scores, axis=-1), rtol=1e-14, atol=0)
        # shift by one exact score first so the reference weights keep full precision
        shifted = scores - scores[:, :1]
        ref = np.exp(shifted - logsumexp(shifted, axis=-1, keepdims=True))
        np.testing.assert_allclose(weights, ref, rtol=1e-14, atol=0)


def test_gradient_examples(iso, two_atoms):
    np.testing.assert_allclose(lh.cumulant_gradient(iso, [2.0, 3.0]), [2.0, 3.0], rtol=1e-14)
    np.testing.assert_array_equal(lh.cumulant_gradient(two_atoms, [0.0, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(
        lh.cumulant_gradient(two_atoms, [0.0, 1.0]), [1.0, math.tanh(1.0)], rtol=1e-14
    )


def test_hessian_examples(iso, two_atoms):
    np.testing.assert_allclose(lh.cumulant_hessian(iso, [0.3, -2.0]), np.eye(2), rtol=1e-14)
    np.testing.assert_array_equal(
        lh.cumulant_hessian(two_atoms, [0.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]]
    )


def test_regularized_hessian_adds_identity(two_atoms):
    reg = lh.regularize(two_atoms, 0.5)
    rng = np.random.default_rng(0)
    for u in rng.normal(size=(5, 2)):
        np.testing.assert_allclose(
            lh.cumulant_hessian(reg, u),
            lh.cumulant_hessian(two_atoms, u) + 0.5 * np.eye(2),
            rtol=0,
            atol=1e-15,
        )


def test_support_class(iso, drift, two_atoms, triangle_atoms, graph_pm1):
    assert lh.support_class(iso).tag == "full_plane"
    assert lh.support_class(drift).tag == "full_plane"
    assert lh.support_class(two_atoms).tag == "proper_subset"
    assert lh.support_class(triangle_atoms).tag == "full_plane"
    sc = lh.support_class(graph_pm1)
    assert sc.tag == "vertical_line" and sc.mu1 == 1.0
    singular = lh.gaussian([1.0, 0.0], [[0.0, 0.0], [0.0, 1.0]])
    assert lh.support_class(singular).tag == "proper_subset"
    assert lh.support_class(lh.regularize(singular, 1e-3)).tag == "full_plane"
    assert lh.support_class(lh.regularize(graph_pm1, 1e-3)).tag == "full_plane"


def test_regularize(iso, two_atoms):
    assert lh.regularize(iso, 0.0) is iso
    reg = lh.regularize(iso, 1.0)
    assert lh.cumulant(reg, [1.0, 0.0]) == pytest.approx(1.0, rel=1e-14)
    lifted = lh.regularize(two_atoms, 0.25)
    np.testing.assert_allclose(
        lh.cumulant_hessian(lifted, [0.0, 0.0]),
        np.array([[0.0, 0.0], [0.0, 1.0]]) + 0.25 * np.eye(2),
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        lh.regularize(iso, -0.1)


def test_drift_is_gradient_at_zero(iso, drift, two_atoms, triangle_atoms, graph_pm1):
    for m in (iso, drift, two_atoms, triangle_atoms, graph_pm1):
        np.testing.assert_array_equal(lh.cumulant_gradient(m, [0.0, 0.0]), lh.drift(m))


KERNEL_LAWS = {
    "gauss": lambda eps: lh.gaussian([0.4, -0.2], [[1.0, 0.3], [0.3, 0.7]], eps),
    "atoms": lambda eps: lh.atoms([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [0.2, 0.3, 0.5], eps),
    "graph-gauss": lambda eps: lh.graph1d(1.3, lh.gaussian1d(0.2, 2.0), eps),
    "graph-atoms": lambda eps: lh.graph1d(-0.7, lh.atoms1d([1.0, -1.0, 0.5], [0.3, 0.3, 0.4]), eps),
}
# u = 0 (the exact K(0), E X and moments), ordinary rows, and |u| ~ 600
KERNEL_ROWS = np.array(
    [[0.0, 0.0], [0.3, -1.2], [0.0, 2.5], [-4.0, 0.0], [600.0, 0.0], [-420.0, 430.0], [0.0, -600.0]]
)


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(KERNEL_LAWS))
def test_kernel_orders_are_prefixes_and_the_public_functions(name, eps):
    model = KERNEL_LAWS[name](eps)
    full = inc._derivatives(model, KERNEL_ROWS, 2)
    assert len(full) == 3 and all(np.all(np.isfinite(d)) for d in full)
    for order in (0, 1):
        part = inc._derivatives(model, KERNEL_ROWS, order)
        assert len(part) == order + 1
        for a, b in zip(part, full):
            np.testing.assert_array_equal(a, b)
    publics = (lh.cumulant, lh.cumulant_gradient, lh.cumulant_hessian)
    for fn, d in zip(publics, full):
        np.testing.assert_array_equal(fn(model, KERNEL_ROWS), d)
    for i, row in enumerate(KERNEL_ROWS):
        scalar = inc._derivatives(model, row, 2)
        assert type(scalar[0]) is float and scalar[1].shape == (2,) and scalar[2].shape == (2, 2)
        for fn, d, batch in zip(publics, scalar, full):
            np.testing.assert_array_equal(fn(model, row), d)
            np.testing.assert_allclose(d, batch[i], rtol=1e-14, atol=0.0)
    if isinstance(model.kind, inc.Graph1D):
        y, w = model.kind.y_model, KERNEL_ROWS[:, 1]
        ys = inc._y_derivatives(y, w, 2)
        for order in (0, 1):
            for a, b in zip(inc._y_derivatives(y, w, order), ys):
                np.testing.assert_array_equal(a, b)
        for fn, d in zip((inc.y_cumulant, inc.y_cumulant_d1, inc.y_cumulant_d2), ys):
            np.testing.assert_array_equal(fn(y, w), d)


@pytest.mark.parametrize("name", ["iso", "drift", "triangle_atoms", "graph_pm1", "reg_atoms"])
def test_gradient_consistency_finite_differences(name, request, two_atoms):
    if name == "reg_atoms":
        model = lh.regularize(two_atoms, 0.3)
    else:
        model = request.getfixturevalue(name)
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(100):
        u = rng.uniform(-1, 1, size=2)
        u *= rng.uniform(0, 3) / max(np.linalg.norm(u), 1e-9)
        grad = lh.cumulant_gradient(model, u)
        hess = lh.cumulant_hessian(model, u)
        for k, e in enumerate(np.eye(2)):
            fd = (lh.cumulant(model, u + h * e) - lh.cumulant(model, u - h * e)) / (2 * h)
            assert fd == pytest.approx(grad[k], rel=1e-6, abs=1e-7)
            fd_row = (
                lh.cumulant_gradient(model, u + h * e) - lh.cumulant_gradient(model, u - h * e)
            ) / (2 * h)
            np.testing.assert_allclose(fd_row, hess[k], rtol=1e-6, atol=1e-6)


def test_convexity_witness(drift, triangle_atoms):
    rng = np.random.default_rng(7)
    for model in (drift, triangle_atoms):
        u1 = rng.uniform(-3, 3, size=(1000, 2))
        u2 = rng.uniform(-3, 3, size=(1000, 2))
        t = rng.uniform(0, 1, size=1000)
        mid = t[:, None] * u1 + (1 - t[:, None]) * u2
        lhs = lh.cumulant(model, mid)
        rhs = t * lh.cumulant(model, u1) + (1 - t) * lh.cumulant(model, u2)
        assert np.all(lhs <= rhs + 1e-10)


def test_central_symmetry_probe(iso, drift, square_atoms, two_atoms):
    assert lh.is_centrally_symmetric(iso)
    assert lh.is_centrally_symmetric(square_atoms)
    assert not lh.is_centrally_symmetric(drift)
    assert not lh.is_centrally_symmetric(two_atoms)


def test_validation_errors():
    with pytest.raises(ValueError):
        lh.atoms([[0, 0], [1, 1]], [0.6, 0.5])  # probs do not sum to 1
    with pytest.raises(ValueError):
        lh.atoms([[0, 0], [0, 0]], [0.5, 0.5])  # duplicate points
    with pytest.raises(ValueError):
        lh.atoms([[0, 0], [1, 1]], [1.0, 0.0])  # zero mass
    with pytest.raises(ValueError):
        lh.gaussian([0, 0], [[1, 2], [0, 1]])  # asymmetric covariance
    with pytest.raises(ValueError):
        lh.gaussian([0, 0], [[-1, 0], [0, 1]])  # negative eigenvalue
    with pytest.raises(ValueError):
        lh.graph1d(0.0, lh.gaussian1d(0, 1))  # zero mu1
    with pytest.raises(ValueError):
        lh.gaussian1d(0.0, 0.0)  # constant y-model


@pytest.mark.parametrize("build", [
    lambda: lh.atoms([[1, 1], [1, -1], [-1, 0]], [math.nan, 0.5, 0.5]),
    lambda: lh.atoms([[1, 1], [1, -1], [-math.inf, 0]], [1 / 3] * 3),
    lambda: lh.gaussian([math.nan, 0], np.eye(2)),
    lambda: lh.gaussian([0, 0], [[math.inf, 0], [0, 1]]),
    lambda: lh.atoms1d([math.nan, 1], [0.5, 0.5]),
    lambda: lh.graph1d(math.inf, lh.gaussian1d(0, 1)),
    lambda: lh.gaussian1d(0, math.inf),
], ids=["atoms-nan-prob", "atoms-inf-point", "gaussian-nan-mean", "gaussian-inf-cov",
        "atoms1d-nan-point", "graph1d-inf-mu1", "gaussian1d-inf-var"])
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_json_specs_roundtrip(iso, two_atoms, graph_pm1):
    for m in (iso, two_atoms, graph_pm1, lh.regularize(iso, 0.5)):
        again = lh.from_spec(lh.to_spec(m))
        assert lh.to_spec(again) == lh.to_spec(m)
    examples = [
        {"type": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]], "eps": 0},
        {"type": "atoms", "points": [[1, 1], [1, -1]], "probs": [0.5, 0.5], "eps": 0},
        {
            "type": "graph1d",
            "mu1": 1,
            "y": {"type": "atoms1d", "points": [1, -1], "probs": [0.5, 0.5]},
            "eps": 0,
        },
    ]
    for spec in examples:
        model = lh.from_spec(spec)
        assert lh.cumulant(model, [0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        lh.from_spec({"type": "mystery"})
