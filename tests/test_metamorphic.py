"""Relations the rate function must satisfy whatever the quadrature: the
affine image relation, rotation invariance, monotonicity in the area and the
discretized oracle as an upper bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldp_hull as lh

TRIANGLE = ([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [1 / 3] * 3)


def rotation(phi: float) -> np.ndarray:
    return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


@st.composite
def linear_maps(draw):
    """T = R(phi) diag(s1, s2) R(psi), optionally reflected; singular values in
    [0.6, 1.6], so the condition number stays at most 8/3."""
    s = np.diag([draw(st.floats(0.6, 1.6)), draw(st.floats(0.6, 1.6))])
    T = rotation(draw(st.floats(0.0, 2 * math.pi))) @ s @ rotation(draw(st.floats(0.0, 2 * math.pi)))
    return T @ np.diag([1.0, -1.0]) if draw(st.booleans()) else T


@settings(max_examples=6, deadline=None, derandomize=True)
@given(T=linear_maps(), u=st.floats(0.3, 1.5))
def test_affine_image_of_drifted_gaussian(T, u):
    # J_{TX}(|det T| u) = J_X(u): T maps paths to paths and scales hull areas by |det T|
    mean, cov = np.array([1.0, 0.0]), np.array([[1.0, 0.3], [0.3, 0.8]])
    image = lh.gaussian(T @ mean, T @ cov @ T.T)
    ref = lh.rate_of_area(lh.gaussian(mean, cov), u).rate
    assert lh.rate_of_area(image, abs(np.linalg.det(T)) * u).rate == pytest.approx(ref, rel=1e-8)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(T=linear_maps(), u=st.floats(0.05, 0.2))
def test_affine_image_of_triangle_law(T, u):
    # u stays below the triangle's attainable range (about 0.25), where the
    # level sets turn polygonal
    points, probs = TRIANGLE
    image = lh.atoms(np.asarray(points) @ T.T, probs)
    ref = lh.rate_of_area(lh.atoms(points, probs), u).rate
    assert lh.rate_of_area(image, abs(np.linalg.det(T)) * u).rate == pytest.approx(ref, rel=1e-8)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(phi=st.floats(0.0, 2 * math.pi), a=st.floats(0.3, 1.5))
def test_drifted_gaussian_rotated_off_grid(phi, a):
    # rotation keeps the rate and turns the winning cut directions with the law
    base = lh.rate_of_area(lh.gaussian([1.0, 0.0], np.eye(2)), a)
    turned = lh.rate_of_area(lh.gaussian(rotation(phi) @ [1.0, 0.0], np.eye(2)), a)
    assert turned.rate == pytest.approx(base.rate, rel=1e-10)
    lead = [c.ell for c in turned.candidates if c.energy <= turned.rate * (1 + 1e-9)]
    for c in base.candidates:
        if c.energy <= base.rate * (1 + 1e-9):
            assert min(np.linalg.norm(rotation(phi) @ c.ell - ell) for ell in lead) <= 1e-6


LAWS = {
    "correlated-drift": (lh.gaussian([0.3, 0.0], [[1.0, 0.2], [0.2, 1.0]]), None),
    "triangle": (lh.atoms(*TRIANGLE), None),
    "square-eps1e-2": (lh.atoms([[2, 2], [-2, 2], [2, -2], [-2, -2]], [0.25] * 4), 1e-2),
}


@settings(max_examples=4, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(LAWS)), a=st.floats(0.05, 0.25), ratio=st.floats(1.01, 1.5))
def test_rate_strictly_increasing_in_area(name, a, ratio):
    model, eps = LAWS[name]
    assert lh.rate_of_area(model, a, eps=eps).rate < lh.rate_of_area(model, ratio * a, eps=eps).rate


@pytest.mark.parametrize("name", ["correlated-drift", "square-eps1e-2"])
def test_rate_below_coarse_oracle_energy(name):
    # a 16-segment curve with |signed area| = a is admissible for hull area >= a,
    # so its mean rate bounds J(a) from above (up to the oracle's area tolerance)
    model, eps = LAWS[name]
    if eps:
        model = lh.regularize(model, eps)
    a = 0.2
    curve = lh.minimize_discrete(model, a, 16)
    assert lh.rate_of_area(model, a).rate <= curve.energy + 1e-5 * curve.energy
