"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every verdict.
Criteria 1 and 2 compare against published 3-significant-figure reference
values at their stated tolerances; the faithful full-precision recomputation
lands outside a few of them, so those criteria report FAIL by design rather
than loosening the stated tolerances.
"""
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from sgedr.experiment import (
    HBAR,
    MU_ELECTRON,
    ExperimentConfig1922,
    heisenberg_verdict,
    run_chain,
)
from sgedr.measurement import lund_wiseman, qrms_disturbance, qrms_error
from sgedr.probe import GaussianProbe, moments, sigma_t
from sgedr.sgmodel import (
    SGParams,
    error_sq,
    error_sq_limit,
    in_region,
    optimal_tau,
    sweep_region,
)
from sgedr.spin import STATE_SY_PLUS, PauliObservable, QubitState, d_quantity
from sgedr.validation import run_validation

from helpers import robertson_check

SZ = PauliObservable.z()
SX = PauliObservable.x()


def verdict(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    radii = rng.random(n) ** (1 / 3)
    return [QubitState.from_bloch(*(r * v)) for r, v in zip(radii, vecs)]


def test_criterion_1_chain_reproduction():
    t0 = time.perf_counter()
    report = run_chain(ExperimentConfig1922())
    elapsed = time.perf_counter() - t0
    row = report.rows[0]
    targets = [
        ("m", report.m, 1.7911939e-25),
        ("v_y", report.v_y, 6.80e2),
        ("dt", report.dt, 5.14e-5),
        ("1.25*deltaZ", 1.25 * report.delta_z, 2.50e-6),
        ("1.25*deltaP", 1.25 * report.delta_p, 2.35e-25),
        ("Var(Z)*K^2", row.var_z * row.K**2, 5.03e-20),
        ("sigma(dt)^2/K^2", row.sigma_dt_sq / row.K**2, 4.54e-9),
        ("g0", report.g0, 9.26e-5),
        ("erfc_arg*K", row.erfc_arg * row.K, 0.972),
        ("mu*B1*dt/hbar", abs(MU_ELECTRON * -1.35e3 * report.dt / HBAR), 6.10e9),
    ]
    failures = [
        f"{name}: computed {got:.6g}, reference {want:.6g}, off by "
        f"{abs(got - want) / abs(want):.2%} (> 0.5%)"
        for name, got, want in targets
        if abs(got - want) > 5e-3 * abs(want)
    ]
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    verdict(1, "chain reproduction within 0.5%", failures)


def test_criterion_2_headline_result():
    report = run_chain(ExperimentConfig1922())
    product_max, bound, violated = heisenberg_verdict(report)
    failures = []
    if abs(report.eps_sq_min - 4.38e-2) > 1e-2 * 4.38e-2:
        failures.append(
            f"eps^2 lower endpoint {report.eps_sq_min:.4g} vs 4.38e-2, off by "
            f"{abs(report.eps_sq_min - 4.38e-2) / 4.38e-2:.2%} (> 1%)"
        )
    if abs(report.eps_sq_max - 3.38e-1) > 1e-2 * 3.38e-1:
        failures.append(f"eps^2 upper endpoint {report.eps_sq_max:.4g} vs 3.38e-1")
    if report.eta_sq != 2.0:
        failures.append(f"eta^2 = {report.eta_sq!r}, expected exactly 2.0")
    if report.error_prob_bound > 0.085:
        failures.append(
            f"error probability bound {report.error_prob_bound:.4%} > 8.5%"
        )
    if not violated or not product_max < bound:
        failures.append("Heisenberg verdict is not VIOLATED")
    if abs(product_max - 0.822) > 1e-2 * 0.822:
        failures.append(f"max eps*eta {product_max:.4g} vs 0.822")
    verdict(2, "headline 1922 estimate", failures)


def test_criterion_3_lund_wiseman_exactness():
    t0 = time.perf_counter()
    states = random_states(20, seed=100)
    failures = []
    worst_closed = 0.0
    worst_tight = 0.0
    for theta in np.linspace(0.0, np.pi / 2.0, 100):
        mp = lund_wiseman(float(theta))
        want_eps = 2.0 * abs(np.sin(theta))
        want_eta = np.sqrt(2.0) * abs(np.cos(theta) - np.sin(theta))
        for state in states:
            eps = qrms_error(mp, state, SZ)
            eta = qrms_disturbance(mp, state, SX)
            worst_closed = max(
                worst_closed, abs(eps - want_eps), abs(eta - want_eta)
            )
            tight = (eps**2 - 2.0) ** 2 + (eta**2 - 2.0) ** 2
            worst_tight = max(worst_tight, abs(tight - 4.0))
    elapsed = time.perf_counter() - t0
    if worst_closed > 1e-12:
        failures.append(f"closed-form deviation {worst_closed:.3e} > 1e-12")
    if worst_tight > 1e-10:
        failures.append(f"tight-boundary deviation {worst_tight:.3e} > 1e-10")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    verdict(3, "CNOT-model exactness", failures)


def test_criterion_4_grid_oracle_agreement():
    t0 = time.perf_counter()
    fine = run_validation(n=4096)
    coarse = run_validation(n=2048)
    elapsed = time.perf_counter() - t0
    failures = []
    if len(fine) < 8:
        failures.append("fewer than 8 parameter combinations")
    for r in fine:
        if not r.passed:
            failures.append(
                f"{r.params}, {r.probe}: eps rel {r.eps_rel:.3e}, eta rel {r.eta_rel:.3e}"
            )
    for rf, rc in zip(fine, coarse):
        if abs(rf.eps_sq_grid - rc.eps_sq_grid) > 1e-2 * max(rf.eps_sq_model, 1e-12):
            failures.append(f"{rf.params}, {rf.probe}: no self-convergence in eps^2")
        if abs(rf.eta_sq_grid - rc.eta_sq_grid) > 1e-2 * max(rf.eta_sq_model, 1e-12):
            failures.append(f"{rf.params}, {rf.probe}: no self-convergence in eta^2")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    verdict(4, "closed forms vs grid oracle", failures)


def test_criterion_5_region_containment():
    base = SGParams(mu=1.0, B0=0.0, B1=3.0, mass=1.0, hbar=1.0, dt=1.0)
    lambdas = [
        complex(re, im)
        for re in np.linspace(0.25, 4.0, 5)
        for im in np.linspace(-2.0, 2.0, 5)
    ]
    points = sweep_region(
        base, lambdas, np.linspace(0.0, 2.0, 20), np.linspace(0.0, 2.0, 20)
    )
    failures = []
    if len(points) != 10_000:
        failures.append(f"sweep has {len(points)} points, wanted 10000")
    eps_sq, eta_sq = points.T
    outside_region = int(np.sum(~in_region(eps_sq, eta_sq)))
    outside_tight = int(np.sum((eps_sq - 2.0) ** 2 + (eta_sq - 2.0) ** 2 > 4.0 + 1e-9))
    if outside_region:
        failures.append(f"{outside_region} points outside the achievable region")
    if outside_tight:
        failures.append(f"{outside_tight} points outside the tight disk")
    if d_quantity(STATE_SY_PLUS, SZ, SX) != pytest.approx(1.0, abs=1e-12):
        failures.append("reference state does not have D = 1")
    if not np.any(np.sqrt(eps_sq * eta_sq) < 1.0):
        failures.append("no swept point violates the Heisenberg product bound")
    verdict(5, "region containment and tight EDR", failures)


def test_criterion_6_tau_optimization():
    rng = np.random.default_rng(600)
    failures = []

    for i in range(50):
        re = rng.uniform(0.5, 2.0)
        im = rng.uniform(1.0, 20.0)
        probe = GaussianProbe(re, im)
        dt = 0.5 * im / (re * re + im * im)
        p = SGParams(mu=1.0, B0=0.0, B1=rng.uniform(0.5, 5.0), mass=1.0, hbar=1.0, dt=dt)
        tau0 = optimal_tau(p, probe)
        if tau0 is None:
            failures.append(f"case {i}: constructed probe fails the condition")
            continue
        if tau0 <= 0.0:
            failures.append(f"case {i}: no finite positive tau0")
            continue

        # tau0, tau0 +- h for the derivative, then the scan: one array call
        h = 1e-5 * tau0
        taus = np.concatenate([[tau0, tau0 + h, tau0 - h], np.linspace(0.0, 100.0 * tau0, 2001)])
        vals = error_sq(replace(p, tau=taus), probe)
        at_tau0, scan = vals[0], vals[3:].min()
        if at_tau0 > scan + 1e-12:
            failures.append(f"case {i}: scan found a lower value than tau0")
        deriv = (vals[1] - vals[2]) / (2.0 * h)
        rel = abs(deriv) * tau0 / max(at_tau0, 1e-300)
        if rel > 1e-6:
            failures.append(f"case {i}: relative derivative at tau0 is {rel:.3e}")

    for i in range(50):
        re = rng.uniform(0.5, 2.0)
        im = rng.uniform(-5.0, 0.0)
        probe = GaussianProbe(re, im)
        p = SGParams(mu=1.0, B0=0.0, B1=rng.uniform(0.5, 5.0), mass=1.0, hbar=1.0, dt=1.0)
        if optimal_tau(p, probe) is not None:
            failures.append(f"monotone case {i}: condition unexpectedly holds")
            continue

        vals = error_sq(replace(p, tau=np.geomspace(1e-3, 1e4, 50)), probe)
        if not all(a >= b - 1e-14 for a, b in zip(vals, vals[1:])):
            failures.append(f"monotone case {i}: error not decreasing in tau")
        limit = error_sq_limit(p, probe)
        if not vals[-1] >= limit - 1e-12:
            failures.append(f"monotone case {i}: tail dips below the limit")
        gap_first = vals[0] - limit
        gap_last = vals[-1] - limit
        # the limit is approached like O(dt/tau); require the gap to have
        # closed by two orders of magnitude over the geometric grid
        if gap_last > max(0.01 * gap_first, 1e-9):
            failures.append(f"monotone case {i}: tail does not approach the limit")

    verdict(6, "free-flight optimization", failures)


def test_criterion_7_property_suites():
    failures = []

    broken = sum(
        not robertson_check(state, SZ, SX)[2] for state in random_states(10_000, seed=700)
    )
    if broken:
        failures.append(f"Robertson bound fails for {broken} of 10000 states")

    rng = np.random.default_rng(701)
    worst_mom = 0.0
    worst_min = 0.0
    for _ in range(50):
        re = 10.0 ** rng.uniform(-1, 1)
        im = re * rng.uniform(-30.0, 30.0)
        hbar = 10.0 ** rng.uniform(-1, 1)
        var_z, var_p, anticom = moments(GaussianProbe(re, im), hbar)
        width = 8.0 / np.sqrt(2.0 * re)
        norm = mpmath.quad(lambda z: mpmath.exp(-2.0 * re * z * z), [-width, width])
        qz = float(mpmath.quad(lambda z: z * z * mpmath.exp(-2.0 * re * z * z), [-width, width]) / norm)
        qp = hbar**2 * 4.0 * (re * re + im * im) * qz
        qa = -4.0 * hbar * im * qz
        scale = max(abs(qz), abs(qp), abs(qa), 1e-300)
        worst_mom = max(
            worst_mom,
            abs(var_z - qz) / abs(qz),
            abs(var_p - qp) / abs(qp),
            abs(anticom - qa) / scale,
        )
        product = var_z * var_p - 0.25 * anticom * anticom
        worst_min = max(worst_min, abs(product - hbar * hbar / 4.0) / (hbar * hbar / 4.0))
    if worst_mom > 1e-8:
        failures.append(f"moment closed forms off quadrature by {worst_mom:.3e} > 1e-8")
    if worst_min > 1e-10:
        failures.append(f"minimum-uncertainty product off by {worst_min:.3e} > 1e-10")

    tradeoff_broken = 0
    for _ in range(500):
        re = 10.0 ** rng.uniform(-1, 2)
        im = re * rng.uniform(-50.0, 50.0)
        probe = GaussianProbe(re, im)
        dt = 10.0 ** rng.uniform(-2, 1)
        tau = 10.0 ** rng.uniform(-2, 1)
        lhs = sigma_t(probe, dt / 2.0, 1.0, 1.0) * sigma_t(probe, dt + tau, 1.0, 1.0)
        rhs = 0.5 * (dt / 2.0 + tau)
        if lhs < rhs * (1.0 - 1e-9):
            tradeoff_broken += 1
    if tradeoff_broken:
        failures.append(f"uncertainty tradeoff fails in {tradeoff_broken} of 500 draws")

    verdict(7, "property suites", failures)
