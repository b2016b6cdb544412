"""Relations the rate function must satisfy whatever the quadrature: the
affine image relation (regularized and graph laws included), rotation
invariance, reflection of the candidate set, each arc's reverse traversal,
a centrally symmetric law's point reflection, the energy of a trajectory as the rate integral along it, monotonicity in the
area, the envelope identity dJ/da = |multiplier| and the discretized oracle as
an upper bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import ldp_hull as lh
from ldp_hull import increments as inc
from ldp_hull import solver
from ldp_hull.errors import OutOfRangeError

TRIANGLE = ([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [1 / 3] * 3)
# a full-plane law whose symmetric chords drift far with the level
FIVE_ATOMS = lh.atoms(
    [[2.12, 0.37], [-0.18, 0.91], [-1.98, 0.15], [-1.03, -1.43], [1.06, -2.1]],
    [0.14, 0.36, 0.25, 0.14, 0.11],
)


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


@pytest.mark.parametrize(
    "name, a",
    [
        pytest.param("correlated-drift", 0.2, id="correlated-drift"),
        pytest.param("square-eps1e-2", 0.2, id="square-eps1e-2"),
        # bare atoms near the end of their area range
        pytest.param("triangle", 0.24, id="triangle-a0.24"),
        pytest.param("five-atoms", 0.01, id="five-atoms-a0.01"),
        pytest.param("five-atoms", 0.05, id="five-atoms-a0.05"),
        pytest.param("five-atoms", 0.15, id="five-atoms-a0.15"),
    ],
)
def test_rate_below_coarse_oracle_energy(name, a):
    # a 16-segment curve with |signed area| = a is admissible for hull area >= a,
    # so its mean rate bounds J(a) from above (up to the oracle's area tolerance)
    model, eps = LAWS[name] if name in LAWS else (FIVE_ATOMS, None)
    if eps:
        model = lh.regularize(model, eps)
    curve = lh.minimize_discrete(model, a, 16)
    assert lh.rate_of_area(model, a).rate <= curve.energy + 1e-5 * curve.energy


@pytest.mark.parametrize("a", [0.01, 0.05, 0.15])
def test_five_atom_rate_near_fine_oracle_energy(a):
    # the 64-segment oracle comes within 0.1% of J(a); a rate far below it
    # would be a curve the oracle cannot approach
    fine = lh.minimize_discrete(FIVE_ATOMS, a, 64).energy
    rate = lh.rate_of_area(FIVE_ATOMS, a).rate
    assert rate <= fine + 1e-6
    assert fine <= 1.005 * rate


@pytest.mark.parametrize(
    "model, a",
    [
        pytest.param(LAWS["correlated-drift"][0], 0.2, id="correlated-drift"),
        pytest.param(lh.atoms(*TRIANGLE), 0.2, id="triangle"),
        pytest.param(FIVE_ATOMS, 0.05, id="five-atoms"),
    ],
)
def test_reverse_traversal_matches_a_fresh_solve(model, a):
    # (-ell, -tau) is the arc of (ell, tau) traversed from its other end: the
    # listed partner, derived as h(1) - h(1 - t), equals a trajectory built afresh
    result = lh.rate_of_area(model, a)
    for c in result.candidates:
        partner = min(
            (d for d in result.candidates if d.tau == -c.tau),
            key=lambda d: np.linalg.norm(d.ell + c.ell),
        )
        assert np.linalg.norm(partner.ell + c.ell) <= 1e-12
        assert partner.multiplier == -c.multiplier
        fresh = lh.build_trajectory(result.model, c.alpha, -c.ell, -c.tau)
        np.testing.assert_allclose(fresh.points, partner.trajectory.points, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fresh.derivs, partner.trajectory.derivs, rtol=0, atol=1e-12)
        assert fresh.energy == pytest.approx(partner.energy, rel=1e-12, abs=0)


@st.composite
def centrally_symmetric_laws(draw):
    """A zero-mean Gaussian with a random SPD covariance, or 2-3 atom pairs
    {+p_i, -p_i} with paired masses at eps 0 or 1e-2, and an area."""
    R = rotation(draw(st.floats(0.0, math.pi)))
    if draw(st.booleans()):
        cov = R @ np.diag([draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))]) @ R.T
        return lh.gaussian([0.0, 0.0], cov), draw(st.floats(0.05, 1.5))
    k = draw(st.integers(2, 3))
    phis = [math.pi * (i + draw(st.floats(-0.3, 0.3))) / k for i in range(k)]
    radii = [draw(st.floats(0.5, 2.0)) for _ in range(k)]
    half = np.array([[r * math.cos(p), r * math.sin(p)] for r, p in zip(radii, phis)]) @ R.T
    w = np.array([draw(st.floats(0.2, 1.0)) for _ in range(k)])
    law = lh.atoms(np.vstack([half, -half]), np.tile(w / (2.0 * w.sum()), 2), draw(st.sampled_from([0.0, 1e-2])))
    return law, min(radii) ** 2 * draw(st.floats(0.02, 0.3))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(law=centrally_symmetric_laws())
def test_point_reflection_matches_a_fresh_solve(law):
    # -g(1 - t) is the other half of a centrally symmetric level set: the listed
    # (ell, +1) candidate, derived from the solved (ell, -1) one, equals a
    # candidate built afresh, ties its energy exactly and starts at +0.0
    model, a = law
    assert inc.is_centrally_symmetric(model)
    try:
        result = lh.rate_of_area(model, a)
    except OutOfRangeError:
        reject()
    solved, derived = result.candidates
    assert (solved.tau, derived.tau) == (-1, +1)
    assert derived.energy == solved.energy == result.rate
    fresh = solver._candidate(lh.arc_parametrization(result.model, derived.alpha, (1.0, 0.0), +1, 1024,
                                                     rtol=solver._settle_rtol(derived.alpha)))
    assert derived.alpha == fresh.alpha and np.array_equal(derived.ell, fresh.ell)
    assert derived.energy == pytest.approx(fresh.energy, rel=1e-12, abs=0)
    assert derived.multiplier == pytest.approx(fresh.multiplier, rel=1e-12, abs=0)
    for field in ("points", "derivs", "duals"):
        got, want = getattr(derived.trajectory, field), getattr(fresh.trajectory, field)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert not np.signbit(derived.trajectory.points[0]).any()


REGULARIZED = {
    "triangle-eps5e-2": (TRIANGLE, 0.05),
    "square-eps1e-2": (([[2, 2], [-2, 2], [2, -2], [-2, -2]], [0.25] * 4), 1e-2),
}


@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(REGULARIZED)),
    s=st.floats(0.6, 1.6),
    phi=st.floats(0.0, 2 * math.pi),
    u=st.floats(0.05, 0.2),
)
def test_scaled_rotation_of_regularized_law(name, s, phi, u):
    # sR maps X + sqrt(eps) Z to sRX + s sqrt(eps) Z' (Z' = RZ is standard
    # normal again), so the image law regularized by s^2 eps has J(s^2 u) = J(u)
    (points, probs), eps = REGULARIZED[name]
    image = lh.atoms(np.asarray(points, float) @ (s * rotation(phi)).T, probs)
    ref = lh.rate_of_area(lh.atoms(points, probs), u, eps=eps).rate
    assert lh.rate_of_area(image, s * s * u, eps=s * s * eps).rate == pytest.approx(ref, rel=1e-8)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    law=st.sampled_from(["gauss", "pm1"]),
    s1=st.floats(0.6, 1.6),
    s2=st.floats(0.6, 1.6),
    flip=st.booleans(),
    u=st.floats(0.05, 0.2),
)
def test_diagonal_image_of_graph_law(law, s1, s2, flip, u):
    # diag(s1, s2) keeps a graph law a graph law and scales hull areas by |s1 s2|
    s2 = -s2 if flip else s2
    if law == "gauss":
        base, image = lh.gaussian1d(0.3, 1.0), lh.gaussian1d(0.3 * s2, s2 * s2)
    else:
        base, image = lh.atoms1d([1.0, -1.0], [0.5, 0.5]), lh.atoms1d([s2, -s2], [0.5, 0.5])
    ref = lh.rate_of_area(lh.graph1d(1.0, base), u).rate
    got = lh.rate_of_area(lh.graph1d(s1, image), abs(s1 * s2) * u).rate
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize(
    "y",
    [lh.gaussian1d(0.3, 1.0), lh.atoms1d([1.0, -1.0], [0.5, 0.5]), lh.atoms1d([1.5, -0.5], [0.25, 0.75])],
    ids=["gauss", "pm1", "skewed-atoms"],
)
def test_mirrored_graph_law(y):
    # x -> -x maps graph1d(mu1, y) to graph1d(-mu1, y) and keeps hull areas;
    # the candidate with the positive multiplier leads, which for mu1 < 0 is
    # the mirror of the mu1 > 0 law's second candidate
    right, left = (lh.rate_of_area(lh.graph1d(mu1, y), 0.1) for mu1 in (1.3, -1.3))
    assert left.rate == right.rate
    assert left.candidates[0].multiplier > 0.0
    mirrored = right.candidates[1].trajectory.points * [-1.0, 1.0]
    np.testing.assert_array_equal(left.candidates[0].trajectory.points, mirrored)  # exact


REFLECT = np.diag([1.0, -1.0])


@st.composite
def full_plane_laws(draw):
    """A drifted, correlated Gaussian, the triangle law or the regularized
    triangle, with an area inside its attainable range."""
    kind = draw(st.sampled_from(["gaussian", "triangle", "triangle-eps"]))
    if kind == "gaussian":
        phi, r, c = draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(0.0, 1.5)), draw(st.floats(-0.5, 0.5))
        law = lh.gaussian(r * np.array([math.cos(phi), math.sin(phi)]), [[1.0, c], [c, 0.8]])
        return law, draw(st.floats(0.05, 1.5))
    if kind == "triangle":
        return lh.atoms(*TRIANGLE), draw(st.floats(0.03, 0.2))
    return lh.atoms(*TRIANGLE, eps=0.05), draw(st.floats(0.05, 0.5))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(law=full_plane_laws())
def test_energy_is_the_rate_integral_along_the_trajectory(law):
    # The trapezoid rule over the default 1024 samples converges at second
    # order (error 7.3e-7, 1.8e-7 at 1024, 2048 samples on N((1,0), I) at
    # a = 0.5); on 40 drawn laws the largest gap was 1.6e-6 relative.
    model, a = law
    result = lh.rate_of_area(model, a)
    for c in result.candidates:
        quadrature = lh.energy(result.model, dataclasses.replace(c.trajectory))
        assert quadrature == pytest.approx(c.energy, rel=5e-6)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(law=full_plane_laws())
def test_reflection_maps_the_candidate_set_to_itself(law):
    # x -> (x1, -x2) maps paths of X to paths of the mirrored law with the
    # same rate and hull area and the opposite orientation
    model, a = law
    kind = model.kind
    if isinstance(kind, inc.Gaussian):
        mirrored = lh.gaussian(REFLECT @ kind.mean, REFLECT @ kind.cov @ REFLECT, eps=model.epsilon)
    else:
        mirrored = lh.atoms(kind.points @ REFLECT, kind.probs, eps=model.epsilon)
    base, image = lh.rate_of_area(model, a), lh.rate_of_area(mirrored, a)
    assert len(image.candidates) == len(base.candidates)
    assert image.rate == pytest.approx(base.rate, rel=1e-11)
    for c in base.candidates:
        d = min(
            (d for d in image.candidates if d.tau == -c.tau),
            key=lambda d: np.linalg.norm(d.ell - REFLECT @ c.ell),
        )
        assert np.linalg.norm(d.ell - REFLECT @ c.ell) <= 1e-9
        assert d.energy == pytest.approx(c.energy, rel=1e-11)
        np.testing.assert_allclose(d.trajectory.points, c.trajectory.points @ REFLECT, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "model, a",
    [
        (lh.gaussian([1.0, 0.0], np.eye(2)), 0.05),
        (lh.gaussian([1.0, 0.0], np.eye(2)), 0.2),
        (lh.gaussian([0.0, 0.0], np.eye(2)), 0.05),
        (lh.gaussian([0.0, 0.0], np.eye(2)), 0.2),
        (lh.atoms(*TRIANGLE), 0.05),
        (lh.atoms(*TRIANGLE), 0.2),
        (lh.graph1d(1.0, lh.atoms1d([1.0, -1.0], [0.5, 0.5])), 0.1),
        (lh.graph1d(1.0, lh.atoms1d([1.0, -1.0], [0.5, 0.5])), 0.2),
        (lh.graph1d(1.3, lh.gaussian1d(0.2, 2.0)), 0.3),
    ],
    ids=["drift-0.05", "drift-0.2", "iso-0.05", "iso-0.2", "triangle-0.05", "triangle-0.2",
         "pm1-graph-0.1", "pm1-graph-0.2", "gauss-graph-0.3"],
)
def test_envelope_identity(model, a):
    # the multiplier of the area constraint is the derivative of the optimal
    # energy in the area: dJ/da = |multiplier| of the lead candidate (tau *
    # arc mass on level sets, 2 u/mu1 on graph laws)
    h = 1e-4 * a
    slope = (lh.rate_of_area(model, a + h).rate - lh.rate_of_area(model, a - h).rate) / (2 * h)
    res = lh.rate_of_area(model, a)
    lead = res.candidates[0]
    assert lead.energy == res.rate
    assert slope == pytest.approx(abs(lead.multiplier), rel=1e-6)
