"""Input contract: valid finite input gives finite, in-range output.

The squared errors of a sign meter lie in [0, 2], the squared
disturbances of sigma_x in [0, 4], region_bound in [0, 1], and the q-rms
error and disturbance of +-1-valued observables in [0, 2].
"""
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgedr.experiment import ExperimentConfig1922, run_chain
from sgedr.measurement import MeasuringProcess, qrms_disturbance, qrms_error
from sgedr.probe import GaussianProbe
from sgedr.sgmodel import SGParams, disturbance_sq, error_sq, region_bound, sweep_region
from sgedr.spin import PauliObservable, QubitState

# rounding slack on the upper end of a q-rms range
ULP_SLACK = 1e-12


def log_uniform(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


# Magnitudes in [1e-12, 1e12]: no product in the closed forms leaves the
# float range there (the damping exponent stays below about 1e204).  The
# SI-scale 1922 inputs are covered through run_chain below.
positive = log_uniform(-12.0, 12.0)
signed = st.one_of(st.just(0.0), positive, positive.map(lambda x: -x))
params = st.builds(
    SGParams,
    mu=signed, B0=signed, B1=signed, mass=positive, hbar=positive, dt=positive,
    tau=st.one_of(st.just(0.0), positive),
)
probes = st.builds(
    GaussianProbe, lambda_re=positive, lambda_im=signed, hbar=positive, mass=positive
)
bloch_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)


def in_range(x, high: float) -> bool:
    x = np.asarray(x)
    return bool(np.all(np.isfinite(x)) and np.all((0.0 <= x) & (x <= high)))


class TestClosedForms:
    @settings(max_examples=200, deadline=None)
    @given(params, probes)
    def test_error_sq(self, p, probe):
        assert in_range(error_sq(p, probe), 2.0)

    @settings(max_examples=200, deadline=None)
    @given(params, probes)
    def test_disturbance_sq(self, p, probe):
        assert in_range(disturbance_sq(p, probe), 4.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=20))
    def test_region_bound(self, eps_sq):
        assert in_range(region_bound(np.array(eps_sq)), 1.0)
        assert in_range(region_bound(eps_sq[0]), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        params,
        st.lists(st.tuples(positive, signed), min_size=1, max_size=4),
        st.lists(signed, min_size=1, max_size=4),
        st.lists(st.one_of(st.just(0.0), positive), min_size=1, max_size=4),
    )
    def test_sweep_region(self, base, lambdas, b0_values, taus):
        lambdas = [complex(re, im) for re, im in lambdas]
        pts = sweep_region(base, lambdas, b0_values, taus)
        assert pts.shape == (len(lambdas) * len(b0_values) * len(taus), 2)
        assert in_range(pts[:, 0], 2.0) and in_range(pts[:, 1], 4.0)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestQrms:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        bloch_vectors,
    )
    def test_random_processes(self, d, n_probes, seed, v):
        # any joint unitary, a stack of probes and a meter of spectrum +-1
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=(n_probes, d)) + 1j * rng.normal(size=(n_probes, d))
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        basis = random_unitary(rng, d)
        signs = rng.choice([-1.0, 1.0], size=d)
        meter = (basis * signs) @ basis.conj().T
        mp = MeasuringProcess(d, xi, random_unitary(rng, 2 * d), meter)
        state = QubitState.from_bloch(*v)
        for obs in (PauliObservable.x(), PauliObservable.y(), PauliObservable.z()):
            eps = qrms_error(mp, state, obs)
            eta = qrms_disturbance(mp, state, obs)
            assert np.shape(eps) == np.shape(eta) == (n_probes,)
            assert in_range(eps, 2.0 + ULP_SLACK) and in_range(eta, 2.0 + ULP_SLACK)


configs = st.builds(
    ExperimentConfig1922,
    T=log_uniform(1.0, 4.0),
    B1=st.floats(-1e5, 1e5),
    L1=log_uniform(-3.0, 0.0),
    L2=log_uniform(-3.0, 0.0),
    L3=st.one_of(st.just(0.0), log_uniform(-3.0, 0.0)),
    d1=log_uniform(-6.0, -3.0),
    d2=log_uniform(-6.0, -3.0),
    atomic_weight=st.floats(1.0, 300.0),
    B0=st.floats(-1.0, 1.0),
)


class TestRunChain:
    @settings(max_examples=100, deadline=None)
    @given(configs, st.lists(st.floats(0.6, 1.0), min_size=1, max_size=4))
    def test_finite_in_range(self, cfg, k_values):
        report = run_chain(cfg, k_values=tuple(k_values))
        for name in ("m", "v_y", "dt", "delta_p", "delta_z"):
            value = getattr(report, name)
            assert math.isfinite(value) and value > 0.0, name
        assert math.isfinite(report.tau) and report.tau >= 0.0
        assert math.isfinite(report.g0)
        for row in report.rows:
            assert all(math.isfinite(x) for x in dataclasses.astuple(row))
            assert in_range(row.eps_sq, 2.0) and in_range(row.eta_sq, 4.0)
        assert report.eps_sq_min <= report.eps_sq_max
        assert in_range(report.error_prob_bound, 0.5)
