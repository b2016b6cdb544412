"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each line carries the measured quantities behind the verdict.
"""

import itertools
import math
import time

import numpy as np
import pytest

import ldp_hull as lh
from ldp_hull import legendre, montecarlo as mc, oracle

from conftest import brute_force_hull_area
from test_montecarlo import exact_tail_probability
from test_polyline import perm_hull_areas, random_line
from test_solver import drift_rate_reference


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_isotropic_gaussian_closed_form(iso):
    checks, details = [], []
    for a in (0.25, 0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        res = lh.rate_of_area(iso, a)
        elapsed = time.perf_counter() - t0
        rel = abs(res.rate - math.pi * a) / (math.pi * a)
        speed_ok = True
        for c in res.candidates:
            speeds = np.linalg.norm(c.trajectory.derivs, axis=1)
            speed_ok &= float(np.var(speeds)) <= 1e-6
            speed_ok &= abs(float(speeds.mean()) / math.sqrt(2 * math.pi * a) - 1.0) <= 1e-6
        checks.append(rel <= 1e-4 and speed_ok and elapsed <= 2.0)
        details.append(f"a={a}: rel={rel:.1e}, {elapsed:.2f}s")
    report(1, all(checks), "; ".join(details))


def test_criterion_02_drifted_gaussian(drift):
    checks, details = [], []
    for a in (0.5, 1.0):
        res = lh.rate_of_area(drift, a)
        ref = drift_rate_reference(a)
        rel = abs(res.rate - ref) / ref
        winners = [c for c in res.candidates if c.energy <= res.rate * (1 + 1e-9)]
        ells_ok = len(winners) == 2 and all(
            abs(c.ell[0]) <= 1e-6 and abs(abs(c.ell[1]) - 1.0) <= 1e-6 for c in winners
        )
        smaller_arc = all(
            lh.half_area(res.model, c.alpha, c.ell, c.tau)
            < 0.5 * lh.sublevel_area(res.model, c.alpha)
            for c in winners
        )
        checks.append(rel <= 1e-3 and ells_ok and smaller_arc)
        details.append(f"a={a}: rel={rel:.1e}, winners={len(winners)}, small_arc={smaller_arc}")
    report(2, all(checks), "; ".join(details))


def test_criterion_03_degenerate_gaussian_graph(graph_gauss):
    checks, details = [], []
    for a in (0.25, 1.0):
        sol = lh.graph_trajectory(graph_gauss, a)
        err = abs(sol.rate - 6 * a * a)
        t = sol.plus.times
        dev = max(
            float(np.max(np.abs(sol.plus.points[:, 1] - 6 * a * (t * t - t)))),
            float(np.max(np.abs(sol.minus.points[:, 1] + 6 * a * (t * t - t)))),
        )
        checks.append(err <= 1e-8 and dev <= 1e-8)
        details.append(f"a={a}: |jA-6a^2|={err:.1e}, curve dev={dev:.1e}")
    report(3, all(checks), "; ".join(details))


def test_criterion_04_simple_walk_graph(graph_pm1):
    with pytest.raises(lh.OutOfRangeError) as exc:
        lh.graph_trajectory(graph_pm1, 0.25)
    amax_exact = exc.value.a_max == 0.25
    grid = np.arange(0.05, 0.2401, 0.01)
    rates = [lh.graph_trajectory(graph_pm1, float(a)).rate for a in grid]
    increasing = all(x < y for x, y in zip(rates, rates[1:]))
    sol = lh.graph_trajectory(graph_pm1, 0.2499)
    below_log2 = sol.rate < math.log(2.0)
    t = sol.plus.times
    tri = np.where(t <= 0.5, -t, t - 1.0)
    sup_plus = float(np.max(np.abs(sol.plus.points[:, 1] - tri)))
    sup_minus = float(np.max(np.abs(sol.minus.points[:, 1] + tri)))
    near_triangle = max(sup_plus, sup_minus) <= 0.05
    report(
        4,
        amax_exact and increasing and below_log2 and near_triangle,
        f"a_max==0.25: {amax_exact}, jA increasing on 20-point grid: {increasing}, "
        f"jA(0.2499)={sol.rate:.6f} < log2, sup-dist={max(sup_plus, sup_minus):.4f}",
    )


def test_criterion_05_convexification_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    hull_ok = winding_ok = identity_ok = True
    for _ in range(1000):
        line = random_line(rng, max_edges=9)
        out = lh.convexify(line)
        hull_ok &= lh.hull_area(line) <= lh.hull_area(out) + 1e-12
        closed = random_line(rng, max_edges=9, closed=True)
        cout = lh.convexify(closed)
        winding_ok &= (
            abs(lh.winding_signed_area(closed)) <= abs(lh.winding_signed_area(cout)) + 1e-12
        )
        identity_ok &= (
            abs(lh.winding_signed_area(closed) - lh.signed_area_integral(closed)) <= 1e-12
        )
    max_ok = True
    count = 0
    for _ in range(200):
        line = random_line(rng, max_edges=6)
        count += 1
        max_ok &= abs(lh.hull_area(lh.convexify(line)) - perm_hull_areas(line)) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(
        5,
        hull_ok and winding_ok and identity_ok and max_ok and elapsed <= 30.0,
        f"hull ineq: {hull_ok}, winding ineq: {winding_ok}, identity: {identity_ok}, "
        f"maximality({count} cases): {max_ok}, {elapsed:.1f}s <= 30s",
    )


def test_criterion_06_legendre_duality_suite(iso, drift, square_atoms):
    rng = np.random.default_rng(123)
    fy_ok = inv_ok = convex_ok = True
    for model in (iso, drift, square_atoms):
        mu = lh.drift(model)
        radius = 1.5 if model is square_atoms else 3.0
        pairs = 0
        while pairs < 200:
            u = rng.uniform(-3, 3, size=2)
            v = mu + rng.uniform(-1, 1, size=2) * radius / math.sqrt(2.0)
            iv, ku = lh.rate(model, v), lh.cumulant(model, u)
            fy_ok &= iv + ku >= float(u @ v) - 1e-10
            ustar = lh.rate_gradient(model, v)
            fy_ok &= abs(iv + lh.cumulant(model, ustar) - float(ustar @ v)) <= 1e-8
            inv_ok &= bool(
                np.all(np.abs(lh.cumulant_gradient(model, ustar) - v) <= 1e-8)
            )
            pairs += 1
        pairs = 0
        while pairs < 50:
            v1, v2 = mu + rng.uniform(-1, 1, size=(2, 2)) * radius / math.sqrt(2.0)
            if np.linalg.norm(v1 - v2) < 0.1:
                continue
            pairs += 1
            lam = 0.0
            for s in np.linspace(0, 1, 9):
                u = lh.rate_gradient(model, v1 + s * (v2 - v1))
                lam = max(lam, float(np.linalg.eigvalsh(lh.cumulant_hessian(model, u)).max()))
            delta = float(np.sum((v1 - v2) ** 2)) / (16.0 * lam)
            gap = (
                0.5 * lh.rate(model, v1)
                + 0.5 * lh.rate(model, v2)
                - lh.rate(model, 0.5 * (v1 + v2))
            )
            convex_ok &= gap >= delta > 0.0
    report(
        6,
        fy_ok and inv_ok and convex_ok,
        f"Fenchel-Young: {fy_ok}, gradient inverse: {inv_ok}, strict convexity margin: {convex_ok}",
    )


def test_criterion_07_euler_lagrange_residuals(iso, drift, square_atoms, graph_gauss, graph_pm1):
    worst = 0.0
    for model, a in ((iso, 1.0), (drift, 1.0), (square_atoms, 0.2)):
        res = lh.rate_of_area(model, a)
        for c in res.candidates:
            worst = max(
                worst, lh.euler_lagrange_residual(res.model, c.trajectory, c.multiplier)
            )
    for model, a in ((graph_gauss, 0.7), (graph_pm1, 0.2)):
        sol = lh.graph_trajectory(model, a)
        worst = max(worst, lh.euler_lagrange_residual_1d(model, sol.plus, sol.multiplier_plus))
        worst = max(worst, lh.euler_lagrange_residual_1d(model, sol.minus, sol.multiplier_minus))
    report(7, worst <= 1e-5, f"max residual incl. endpoint defect = {worst:.2e} <= 1e-5")


def test_criterion_08_oracle_agreement(iso, drift):
    checks, details = [], []
    for model, name in ((iso, "isotropic"), (drift, "drifted")):
        jA = lh.rate_of_area(model, 1.0).rate
        t0 = time.perf_counter()
        curve = lh.minimize_discrete(model, 1.0, 128)
        elapsed = time.perf_counter() - t0
        above = curve.energy <= 1.03 * jA
        below = curve.energy >= jA - 1e-3
        checks.append(above and below and elapsed <= 60.0)
        details.append(
            f"{name}: oracle={curve.energy:.6f} vs jA={jA:.6f} "
            f"(+{(curve.energy / jA - 1) * 100:.2f}%), {elapsed:.1f}s"
        )
    report(8, all(checks), "; ".join(details))


@pytest.mark.slow
def test_criterion_09_monte_carlo(iso, graph_pm1):
    t0 = time.perf_counter()
    enum_ok = True
    enum_details = []
    for n, a in ((4, 0.2), (5, 0.15), (6, 0.2)):
        exact_rate = -math.log(exact_tail_probability(n, a * n * n)) / n
        est = lh.estimate_ldp(graph_pm1, a, n, 30000, mode="tilted", seed=21)
        gap = abs(est.rate - exact_rate)
        enum_ok &= gap <= 3.0 * est.stderr
        enum_details.append(f"n={n}: gap={gap:.4f} vs 3se={3 * est.stderr:.4f}")

    # The limiting rate is not numerically attained at desk scale; the trend
    # check asserts decreasing estimates with one-stderr slack and does not
    # assert the sign of the gap to the limit.  Estimates are averaged over
    # six replica seeds per walk length; the per-length stderr is the
    # replica-level standard error.
    target = 0.3 * math.pi
    rates, errs = {}, {}
    for n in (20, 40, 80):
        vals = [
            lh.estimate_ldp(iso, 0.3, n, 50000, mode="tilted", seed=300 + k).rate
            for k in range(6)
        ]
        rates[n] = float(np.mean(vals))
        errs[n] = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    trend_ok = rates[40] <= rates[20] + errs[20] + errs[40]
    trend_ok &= rates[80] <= rates[40] + errs[40] + errs[80]
    final_ok = abs(rates[80] - target) <= 0.15 * target
    elapsed = time.perf_counter() - t0
    report(
        9,
        enum_ok and trend_ok and final_ok and elapsed <= 300.0,
        "; ".join(enum_details)
        + f"; rates {rates[20]:.4f}/{rates[40]:.4f}/{rates[80]:.4f} "
        f"vs {target:.4f}, final gap {abs(rates[80] - target) / target * 100:.1f}% <= 15%, "
        f"{elapsed:.0f}s <= 300s",
    )


def test_criterion_10_regularization_ladder(square_atoms):
    a = 0.2
    rungs = [(e, lh.rate_of_area(lh.regularize(square_atoms, e), a).rate) for e in (1e-1, 1e-2, 1e-3)]
    variation = abs(rungs[1][1] - rungs[2][1]) / rungs[2][1]
    report(
        10,
        variation < 0.02,
        "ladder " + ", ".join(f"eps={e:g}: {r:.6f}" for e, r in rungs)
        + f"; last-two variation {variation * 100:.2f}% < 2%",
    )
